"""Monte Carlo harness for the built-in synthetic study.

The generator draws a small randomized trial next to a large
observational cohort from the same covariate population.  Treatment in
the cohort follows the covariates, and an unobserved pattern-mixture
variable shifts the untreated outcome by arm, so the cohort is
confounded whenever ``beta`` is nonzero while the trial stays clean.

Replicates are reproducible and order-independent: replicate ``r`` of a
study seeded with ``seed`` uses a counter-based generator keyed by
``(seed, r)``, results are folded in replicate order, and a serial run
and each worker run numpy's bundled OpenBLAS on one thread, so the
output is byte-identical for any worker count.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import NumericalError, ValidationError
from .estimators import ESTIMATOR_NAMES, _check_estimators, run_pipeline
from .inference import _Z95, _summaries
from .model import (
    BasisSpec,
    Dataset,
    StructuralModel,
    _check_fields,
    _check_probes,
    _expit,
    _plain,
    constant_term,
    linear_term,
    square_term,
)

__all__ = [
    "SimConfig",
    "McSummary",
    "default_tau_basis",
    "default_lambda_basis",
    "default_probes",
    "probe_label",
    "true_tau_coefficients",
    "true_tau",
    "true_ate",
    "replicate_rng",
    "generate_replicate",
    "run_replicate",
    "run_monte_carlo",
    "summarize",
]

N_COVARIATES = 5


def default_tau_basis() -> BasisSpec:
    """Quadratic effect basis in the first two covariates."""
    return BasisSpec((constant_term(), linear_term(0), square_term(0),
                      linear_term(1), square_term(1)))


def default_lambda_basis() -> BasisSpec:
    """Linear confounding basis in all five covariates."""
    return BasisSpec(tuple(linear_term(j) for j in range(N_COVARIATES)))


def default_probes() -> tuple:
    """Covariate probe points (x1, x2) at which the effect is tracked."""
    return ((-3.0, 0.0), (-1.5, 0.0), (1.5, 0.0), (3.0, 0.0), (0.0, 0.0),
            (0.0, -3.0), (0.0, -1.5), (0.0, 1.5), (0.0, 3.0))


def probe_label(probe) -> str:
    return f"tau({probe[0]:g},{probe[1]:g})"


@dataclass(frozen=True)
class SimConfig:
    """Settings of one Monte Carlo study.

    ``tau_form`` selects the sign pattern of the true effect surface:
    "opposed" uses 1 + x1 + x1^2 - x2 - x2^2, "aligned" flips the x2
    block positive.  The confounding curve is x'beta.  ``tau_terms``/
    ``lambda_terms`` override the fitted working bases, e.g. to study
    misspecification; the data generator is unaffected by them.

    ``knots`` here defaults to 0 (linear nuisance surfaces) rather than
    the library-wide spline default; pass a positive count to fit spline
    nuisance surfaces instead.
    """

    n: int = 300
    m: int = 5000
    beta: tuple[float, ...] = (0.0,) * N_COVARIATES
    reps: int = 200
    seed: int = 20260815
    probes: tuple[tuple[float, ...], ...] = field(default_factory=default_probes)
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    tau_form: str = "opposed"
    knots: int = 0
    trial_known: float | None = 0.5
    jobs: int = 1
    tau_terms: BasisSpec | None = None
    lambda_terms: BasisSpec | None = None
    gof_alt_tau: BasisSpec | None = None
    gof_alt_lambda: BasisSpec | None = None

    def __post_init__(self):
        _check_fields(self)
        if self.n < 2 or self.m < 2:
            raise ValidationError("both samples need at least two records")
        if self.reps < 1:
            raise ValidationError("reps must be at least 1")
        if len(self.beta) != N_COVARIATES:
            raise ValidationError(f"beta must have length {N_COVARIATES}")
        if self.tau_form not in ("opposed", "aligned"):
            raise ValidationError("tau_form must be 'opposed' or 'aligned'")
        if self.jobs < 1:
            raise ValidationError("jobs must be at least 1")
        # more workers than the CPUs this process may use only adds processes
        object.__setattr__(self, "jobs", min(self.jobs, _usable_cpus()))
        _check_estimators(self.estimators)
        _check_probes(self.probes, 2, "x1 and x2")
        if self.gof_enabled and "integrative" not in self.estimators:
            raise ValidationError("gof_alt_tau and gof_alt_lambda need the integrative estimator")

    @property
    def gof_enabled(self) -> bool:
        q1 = self.gof_alt_tau.p if self.gof_alt_tau is not None else 0
        q2 = self.gof_alt_lambda.p if self.gof_alt_lambda is not None else 0
        return q1 + q2 > 0

    def model(self) -> StructuralModel:
        return StructuralModel(self.tau_terms or default_tau_basis(),
                               self.lambda_terms or default_lambda_basis())


def true_tau_coefficients(tau_form: str) -> np.ndarray:
    """Coefficients of the generating effect surface on the default basis."""
    sign = -1.0 if tau_form == "opposed" else 1.0
    return np.array([1.0, 1.0, 1.0, sign, sign])


# the generator's effect basis, held: a basis is immutable
_TRUE_TAU_BASIS = default_tau_basis()


def true_tau(cfg: SimConfig, X) -> np.ndarray:
    """The generating effect surface at the rows of ``X``, on the held default
    effect basis."""
    coef = true_tau_coefficients(cfg.tau_form)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _TRUE_TAU_BASIS.design(X) @ coef


def true_ate(cfg: SimConfig) -> float:
    """Population average of the generating effect surface."""
    # E[x^2] = 1 per covariate, odd moments vanish
    return 1.0 if cfg.tau_form == "opposed" else 3.0


def true_confounding(cfg: SimConfig, X) -> np.ndarray:
    """Confounding curve of the generator: x'beta."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X @ np.asarray(cfg.beta, dtype=float)


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replicate index)."""
    if rep < 0:
        raise ValidationError("replicate index must be non-negative")
    return np.random.Generator(np.random.Philox(key=(int(seed) & (2**64 - 1)) + (int(rep) << 64)))


def generate_replicate(cfg: SimConfig, rep: int) -> Dataset:
    """Draw one combined trial + observational sample.

    Trial: covariates standard normal, treatment a fair coin, outcome
    ``a * tau(x) + sum(x) + noise``.  Cohort: treatment follows
    ``logit = -sum(x)``; an unobserved shift with mean ``(a - 1/2)``
    times the confounding curve of :func:`true_confounding` and unit
    variance is added to the outcome, inducing that curve while keeping
    each arm's residual variance at 2.
    """
    rng = replicate_rng(cfg.seed, rep)

    x = np.empty((cfg.n + cfg.m, N_COVARIATES))  # each sample drawn into its rows
    x_t, x_o = x[:cfg.n], x[cfg.n:]
    rng.standard_normal(out=x_t)
    a_t = (rng.random(cfg.n) < 0.5).astype(np.int8)
    y_t = a_t * true_tau(cfg, x_t) + x_t.sum(axis=1) + rng.standard_normal(cfg.n)

    rng.standard_normal(out=x_o)
    sum_o = x_o.sum(axis=1)
    a_o = (rng.random(cfg.m) < _expit(-sum_o)).astype(np.int8)
    # the stream and bits of rng.normal(loc, 1.0), without its broadcasting
    u_o = (a_o - 0.5) * true_confounding(cfg, x_o) + rng.standard_normal(cfg.m)
    y_o = a_o * true_tau(cfg, x_o) + sum_o + u_o + rng.standard_normal(cfg.m)

    return Dataset(
        np.concatenate([np.ones(cfg.n, dtype=np.int8), np.zeros(cfg.m, dtype=np.int8)]),
        np.concatenate([a_t, a_o]),
        np.concatenate([y_t, y_o]),
        np.asfortranarray(x),  # column-major, as a loaded CSV's covariates
    )


@functools.lru_cache(maxsize=8)
def _study(cfg: SimConfig) -> tuple:
    """What every replicate of the study ``cfg`` shares, built once per study
    and held read-only in this bounded cache, keyed by the frozen config: the
    fitted model, the probe points and their effect design, the target labels
    (the probes', then "ate") and the specification test's two alternative
    bases."""
    model = cfg.model()
    points = np.zeros((len(cfg.probes), N_COVARIATES))
    points[:, :2] = np.reshape(cfg.probes, (-1, 2))
    probe = model.tau_basis.design(points)
    points.flags.writeable = probe.flags.writeable = False
    labels = tuple(probe_label(pr) for pr in cfg.probes) + ("ate",)
    return (model, points, probe, labels,
            cfg.gof_alt_tau or BasisSpec(()), cfg.gof_alt_lambda or BasisSpec(()))


def run_replicate(cfg: SimConfig, rep: int) -> dict:
    """Generate and analyze one replicate; returns plain-type results.

    The model, probe design, labels and alternative bases are the study's,
    built on its first replicate (:func:`_study`); only the records are drawn
    and fitted per replicate.
    """
    data = generate_replicate(cfg, rep)
    model, _, probe, labels, alt_tau, alt_lambda = _study(cfg)
    fit = run_pipeline(data, model, cfg.estimators, knots=cfg.knots,
                       trial_known=cfg.trial_known)
    summaries = _summaries(data, fit, probe, alt_tau, alt_lambda, efficient_weight=False)
    estimates = {}
    for name, got in summaries.items():
        if name == "meta":  # point values without variances
            cells = [(pt, None) for pt in (*got["curve"], got["ate"])]
        else:
            curve, ate = got["curve"], got["ate"]
            cells = zip((*curve.estimate, ate.tau0_hat), (*curve.se ** 2, ate.se ** 2))
        estimates[name] = {lab: (float(pt), None if ve is None else float(ve))
                           for lab, (pt, ve) in zip(labels, cells)}
    gof = summaries.get("integrative", {}).get("gof")
    return {"fallback": any(r.fallback_used for r in (fit.integrative, fit.rct) if r),
            "estimates": estimates, "gof_p": None if gof is None else gof.p_value}


@dataclass(frozen=True)
class CellStats:
    """Monte Carlo summary of one estimator at one target."""

    mc_mean: float
    mc_var: float | None
    mean_ve: float | None
    coverage: float | None


@dataclass(frozen=True)
class McSummary:
    """Aggregated Monte Carlo study results."""

    reps: int
    targets: tuple        # of (label, truth)
    cells: dict           # estimator -> label -> CellStats
    n_fallback: int
    gof: dict | None
    config: dict

    def to_dict(self) -> dict:
        return asdict(self) | {"targets": [{"label": lab, "truth": tr}
                                           for lab, tr in self.targets]}


@functools.cache
def _native(library: str, symbol: str, restype, *argtypes):
    """The function ``symbol``, typed, of numpy's bundled OpenBLAS (``"blas"``,
    found through ``_multiarray_umath``, which links it) or of the C library
    (``"libc"``); None on other BLAS builds, a numpy without ``np._core`` or a
    C library without the symbol."""
    try:
        path = np._core._multiarray_umath.__file__ if library == "blas" else None
        fn = getattr(ctypes.CDLL(path), symbol)
    except (AttributeError, OSError, TypeError):  # TypeError: CDLL(None) on Windows
        return None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


def _blas_threads(count: int | None = None) -> int:
    """The thread count of numpy's bundled OpenBLAS, 0 on other BLAS builds;
    given ``count``, BLAS is then set to that many threads."""
    get = _native("blas", "scipy_openblas_get_num_threads64_", ctypes.c_int)
    if get is None:
        return 0
    before = get()
    if count is not None and before != count:  # even an unchanged set costs ~10 us
        _native("blas", "scipy_openblas_set_num_threads64_", None, ctypes.c_int)(count)
    return before


@functools.cache
def _keep_heap() -> None:
    """Keep a study's freed heap, once per process: glibc's defaults map each
    block of 128 KiB or more afresh and return freed heap to the OS, so each
    replicate would fault its working set in again.  The values are the ceiling
    of glibc's own dynamic policy; a no-op where ``mallopt`` is missing."""
    mallopt = _native("libc", "mallopt", ctypes.c_int, ctypes.c_int, ctypes.c_int)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps
    one (``taskset`` and cpusets narrow it), else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _init_worker() -> None:
    """Set a worker up as a serial study sets its caller: BLAS on one thread,
    so that workers do not oversubscribe the cores, and the heap kept."""
    _blas_threads(1)
    _keep_heap()


def _worker_pool(jobs: int):
    """``jobs`` worker processes, each on one core.  The pool module is
    imported here, so a serial run never loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker)


def run_monte_carlo(cfg: SimConfig) -> McSummary:
    """Run all replicates and fold the results in replicate order.

    The fold reduces one (targets x reps) array per estimator and field along
    its contiguous rows.  numpy sums such a row pairwise, as it sums a 1-d
    array of the same values, so each statistic has the bits of a fold of one
    target at a time.  Fails if more than 5% of replicates needed the solver
    fallback; below that, the count is reported in the summary.
    """
    if cfg.jobs > 1:
        with _worker_pool(cfg.jobs) as pool:
            results = list(pool.map(run_replicate, [cfg] * cfg.reps, range(cfg.reps),
                                    chunksize=max(1, cfg.reps // (4 * cfg.jobs))))
    else:
        # one BLAS thread and the heap kept, as in the workers: BLAS's thread
        # count moves the last bits of large products
        before = _blas_threads(1)
        _keep_heap()
        try:
            results = [run_replicate(cfg, r) for r in range(cfg.reps)]
        finally:
            if before > 1:
                _blas_threads(before)

    n_fallback = sum(r["fallback"] for r in results)
    if n_fallback > 0.05 * cfg.reps:
        raise NumericalError(
            f"{n_fallback} of {cfg.reps} replicates hit the solver fallback"
        )

    _, grid, _, labels, _, _ = _study(cfg)
    truths = list(true_tau(cfg, grid)) + [true_ate(cfg)]
    targets = tuple((lab, float(tr)) for lab, tr in zip(labels, truths))
    truth = np.array([tr for _, tr in targets])[:, None]
    cells: dict = {}
    for est in cfg.estimators:
        if est not in results[0]["estimates"]:
            continue
        table = [[r["estimates"][est][lab] for r in results] for lab in labels]
        pts = np.array([[pt for pt, _ in row] for row in table])
        none = [None] * len(labels)
        mc_var = pts.var(axis=1, ddof=1).tolist() if cfg.reps > 1 else none
        mean_ve = coverage = none  # the comparator's, which carry no variances
        if not any(ve is None for row in table for _, ve in row):
            ve_arr = np.array([[ve for _, ve in row] for row in table])
            mean_ve = ve_arr.mean(axis=1).tolist()
            coverage = np.mean(np.abs(pts - truth) <= _Z95 * np.sqrt(ve_arr), axis=1).tolist()
        cells[est] = {lab: CellStats(*st) for lab, st in
                      zip(labels, zip(pts.mean(axis=1).tolist(), mc_var, mean_ve, coverage))}

    gof = None
    if cfg.gof_enabled and "integrative" in cells:
        pvals = [r["gof_p"] for r in results]
        if all(p is not None for p in pvals):
            arr = np.array(pvals, dtype=float)
            gof = {"alpha": 0.05,
                   "rejection_rate": float(np.mean(arr < 0.05)),
                   "p_values": [float(p) for p in arr]}

    config = _plain({f.name: getattr(cfg, f.name) for f in fields(cfg)})
    return McSummary(cfg.reps, targets, cells, int(n_fallback), gof, config)


def summarize(mc: McSummary) -> str:
    """Fixed-width report: means x100, variances x1000, coverage in %."""
    col_names = ["target", "truth", "estimator", "mean(x1e-2)", "var(x1e-3)",
                 "ve(x1e-3)", "cvg(%)"]
    rows = [col_names]
    for lab, truth in mc.targets:
        for est, per_est in mc.cells.items():
            st = per_est[lab]
            rows.append([
                lab,
                f"{truth * 100:.0f}",
                est,
                f"{st.mc_mean * 100:.1f}",
                "-" if st.mc_var is None else f"{st.mc_var * 1000:.1f}",
                "-" if st.mean_ve is None else f"{st.mean_ve * 1000:.1f}",
                "-" if st.coverage is None else f"{st.coverage * 100:.1f}",
            ])
    widths = [max(len(r[c]) for r in rows) for c in range(len(col_names))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    if mc.gof is not None:
        lines.append(f"specification test: rejection rate "
                     f"{mc.gof['rejection_rate'] * 100:.1f}% at alpha=5%")
    lines.append(f"replicates: {mc.reps}, solver fallbacks: {mc.n_fallback}")
    return "\n".join(lines)
