"""In-memory span recorder that wraps htefusion's public entry points from outside.

Spans are recorded by the benchmark alone: ``Tracer`` replaces each traced
function or method in every ``htefusion.*`` namespace that binds it, keeps
one ``[name, start, end, parent]`` record per call in memory, and puts every
original back when it exits.  Nothing in the package itself changes.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans add up to the duration of the root spans.

Some counters come from array shapes, not from hardware counters; their
names are listed in ``COMPUTED``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name).  Several callables may share a span
# name; their spans are then aggregated together.
TRACED = (
    ("htefusion.cli", "main", "cli.main"),
    ("htefusion.io", "load_csv", "io.load_csv"),
    ("htefusion.io", "run_fit", "io.run_fit"),
    ("htefusion.model", "BasisSpec.design", "model.BasisSpec.design"),
    ("htefusion.nuisance", "build_spline_basis", "nuisance.build_spline_basis"),
    ("htefusion.nuisance", "fit_propensity", "nuisance.fit_propensity"),
    ("htefusion.nuisance", "fit_conditional_outcomes", "nuisance.fit_conditional_outcomes"),
    ("htefusion.nuisance", "fit_outcome_mean", "nuisance.fit_outcome_mean"),
    ("htefusion.nuisance", "fit_variance_function", "nuisance.fit_variance_function"),
    ("htefusion.nuisance", "Propensity.predict", "nuisance.predict"),
    ("htefusion.nuisance", "OutcomeMean.predict", "nuisance.predict"),
    ("htefusion.nuisance", "CellMeans.predict", "nuisance.predict"),
    ("htefusion.nuisance", "VarianceFunction.predict", "nuisance.predict"),
    ("htefusion.estimators", "preliminary_estimate", "estimators.preliminary_estimate"),
    ("htefusion.estimators", "meta_estimate", "estimators.meta_estimate"),
    ("htefusion.estimators", "build_workspace", "estimators.build_workspace"),
    ("htefusion.estimators", "solve_integrative", "estimators.solve"),
    ("htefusion.estimators", "solve_rct", "estimators.solve"),
    ("htefusion.inference", "sandwich_covariance", "inference.sandwich_covariance"),
    ("htefusion.inference", "gof_test", "inference.gof_test"),
    ("htefusion.inference", "ate_estimate", "inference.ate_estimate"),
    ("htefusion.inference", "tau_curve", "inference.tau_curve"),
    ("htefusion.simulation", "generate_replicate", "simulation.generate_replicate"),
    ("htefusion.simulation", "run_replicate", "simulation.run_replicate"),
    ("htefusion.simulation", "run_monte_carlo", "simulation.run_monte_carlo"),
)

# Counted without a span of its own: its time stays in the nuisance fit that
# called it, so that fit's self time includes its regressions.
COUNTED = (("htefusion.nuisance", "fit_additive"),)

# Span that holds the tracer's own content hashing for the redundancy count,
# so that the hashing is not charged to the layer that called ``design``.
DIGEST_SPAN = "bench.digest"

# A design call repeats work when its (basis, X-content) pair was already
# evaluated since the last entry into one of these spans: one fit or one
# Monte Carlo replicate.
SCOPES = ("cli.main", "simulation.run_replicate")

COMPUTED = (
    "model.BasisSpec.design.mbytes",
    "nuisance.fit_additive.gram_gflop",
    "io.load_csv.cells",
)


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "htefusion" or name.startswith("htefusion."))]


def _resolve(module: str, path: str):
    """Return (owner, attribute, original) for ``module:path``."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"{module}.{path} is not a plain function")
    return owner, attr, original


class Tracer:
    """Context manager that records spans and counters while it is active."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack: list = []
        self._seen: set = set()
        self._patched: list = []     # (owner, attribute, original)

    # -- installing and removing the wrappers ---------------------------------

    def __enter__(self) -> "Tracer":
        import numpy  # htefusion is imported by now, so this is free

        self._np = numpy
        try:
            for module, path, span in TRACED:
                owner, attr, original = _resolve(module, path)
                self._replace(owner, attr, original, self._span_wrapper(original, span))
            for module, path in COUNTED:
                owner, attr, original = _resolve(module, path)
                self._replace(owner, attr, original, self._count_wrapper(original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _replace(self, owner, attr, original, wrapper) -> None:
        # Other modules hold their own reference to an imported function
        # (``from .estimators import build_workspace``), so every binding of
        # the original in the package is replaced, not just the defining one.
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets = [(mod, name) for mod in _package_modules()
                       for name, val in vars(mod).items() if val is original]
        for target, name in targets:
            setattr(target, name, wrapper)
            self._patched.append((target, name, original))

    def _restore(self) -> None:
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        spans, stack = self.spans, self._stack
        before = self._design_digest if name == "model.BasisSpec.design" else None
        after = _AFTER.get(name)
        scope = name in SCOPES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if scope:
                self._seen.clear()
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(self.counts, out)
            return out

        return wrapper

    def _count_wrapper(self, fn):
        signature = inspect.signature(fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            n = self._np.shape(bound["X"])[0]
            p = bound["basis"].p
            counts["nuisance.fit_additive.calls"] += 1
            counts["nuisance.fit_additive.gram_gflop"] += n * p * p / 1e9
            return fn(*args, **kwargs)

        return wrapper

    def _design_digest(self, args, kwargs) -> None:
        """Count design calls that repeat a (basis, X-content) pair in scope."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([DIGEST_SPAN, 0.0, 0.0, stack[-1] if stack else -1])
        start = perf_counter()
        basis = args[0]
        X = kwargs["X"] if "X" in kwargs else args[1]
        X = self._np.ascontiguousarray(X, dtype=float)
        key = (hash(basis), X.shape, hashlib.blake2b(X).digest())
        if key in self._seen:
            self.counts["model.BasisSpec.design.redundant"] += 1
        else:
            self._seen.add(key)
        spans[idx][1] = start
        spans[idx][2] = perf_counter()

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time and call count per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += (end - start) - covered[i]
            out[name][1] += 1
        return dict(out)

    def durations(self, name: str) -> list:
        return [end - start for span, start, end, _ in self.spans if span == name]

    def dump(self, path, meta: dict) -> None:
        """Write every span, relative to the first start, as JSON."""
        origin = min((s[1] for s in self.spans), default=0.0)
        doc = {"meta": meta, "fields": ["name", "start_s", "end_s", "parent"],
               "computed": list(COMPUTED),
               "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
               "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _after_load_csv(counts, data) -> None:
    counts["io.load_csv.cells"] += data.n * (data.d + 3)  # s, a, y plus covariates


def _after_design(counts, design) -> None:
    counts["model.BasisSpec.design.mbytes"] += design.nbytes / 1e6


def _after_solve(counts, report) -> None:
    counts["estimators.solve.iterations"] += report.iterations
    counts["estimators.solve.fallbacks"] += int(report.fallback_used)


_AFTER = {
    "io.load_csv": _after_load_csv,
    "model.BasisSpec.design": _after_design,
    "estimators.solve": _after_solve,
}
