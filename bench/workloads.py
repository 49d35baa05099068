"""The benchmark's workloads: inputs from a seed, one timed operation, output checks.

This module imports neither numpy nor htefusion at import time, so that the
process running a workload can time ``import htefusion`` as part of set-up.
Input generation runs in a child process for the same reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter

INPUT_META = "input.json"


@dataclass(frozen=True)
class FitWorkload:
    """``htefusion fit`` on a generated trial-plus-cohort CSV.

    ``generator`` is ``"study"`` for the package's own ``generate_replicate``
    (setting 2: unit beta, five covariates) or ``"wide"`` for the
    benchmark's generator with ``covariates`` standard-normal columns.
    """

    name: str
    generator: str
    n_trial: int
    n_obs: int
    covariates: int
    knots: int
    tau: tuple
    lam: tuple
    probes: tuple
    traced_ops: int = 1
    kind: str = field(default="fit", init=False)

    def covariate_names(self) -> list:
        return [f"x{j + 1}" for j in range(self.covariates)]

    def argv(self, workdir: str) -> list:
        args = ["fit", "--data", os.path.join(workdir, "data.csv"),
                "--covariates", ",".join(self.covariate_names()),
                "--knots", str(self.knots),
                "--tau", ",".join(self.tau), "--lambda", ",".join(self.lam),
                "--estimators", "integrative,rct,meta"]
        for probe in self.probes:
            args += ["--probe", ",".join(f"{v:g}" for v in probe)]
        return args + ["--gof-tau", "x1*x2",
                       "--out", os.path.join(workdir, "fit.json"),
                       "--curve-out", os.path.join(workdir, "curve.csv")]


@dataclass(frozen=True)
class McWorkload:
    """Serial ``run_monte_carlo`` at the study's setting 2."""

    name: str
    n: int
    m: int
    reps_per_op: int
    traced_ops: int
    kind: str = field(default="mc", init=False)


# Why each workload was chosen is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "fit_tall": FitWorkload(
        name="fit_tall",
        generator="study", n_trial=6000, n_obs=54000, covariates=5, knots=4,
        tau=("1", "x1", "x1^2", "x2", "x2^2"),
        lam=("x1", "x2", "x3", "x4", "x5"),
        probes=((0, 0, 0, 0, 0), (1.5, 0, 0, 0, 0)),
    ),
    "mc_paper": McWorkload(
        name="mc_paper",
        n=300, m=5000,
        # short operations give many timing samples per run; 111 traced
        # replicates leave 11 beyond their 90th percentile
        reps_per_op=3, traced_ops=37,
    ),
    "fit_wide": FitWorkload(
        name="fit_wide",
        generator="wide", n_trial=3000, n_obs=9000, covariates=20, knots=6,
        tau=("1", "x1", "x2", "x3", "x4", "x1^2", "x2^2", "x3^2", "x4^2"),
        lam=tuple(f"x{j}" for j in range(1, 21)),
        probes=((0,) * 20,),
    ),
}


def to_json(workload) -> str:
    return json.dumps(asdict(workload))


def from_json(text: str):
    raw = json.loads(text)
    kind = raw.pop("kind")
    if kind == "mc":
        return McWorkload(**raw)
    for key in ("tau", "lam"):
        raw[key] = tuple(raw[key])
    raw["probes"] = tuple(tuple(p) for p in raw["probes"])
    return FitWorkload(**raw)


# -- inputs (run in a child process) ---------------------------------------------

def generate_input(workload, workdir: str, seed: int, src: str) -> None:
    """Write the workload's input CSV and its generator truth into ``workdir``."""
    import numpy as np

    if workload.generator == "study":
        import_package(src)
        from htefusion import SimConfig, generate_replicate, true_ate

        cfg = SimConfig(n=workload.n_trial, m=workload.n_obs, beta=(1.0,) * 5,
                        reps=1, seed=seed)
        data = generate_replicate(cfg, 0)
        _write_csv(os.path.join(workdir, "data.csv"), workload.covariate_names(),
                   data.s, data.a, data.y, data.x)
        meta = {"truth_ate": true_ate(cfg)}
    else:
        meta = _generate_wide(np, workload, workdir, seed)
    with open(os.path.join(workdir, INPUT_META), "w") as fh:
        json.dump(meta, fh)


def _generate_wide(np, workload, workdir: str, seed: int) -> dict:
    """The study's design widened to ``workload.covariates`` columns.

    Same effect surface ``1 + x1 + x1^2 - x2 - x2^2`` (population mean 1),
    same cohort propensity ``logit = -(x1 + ... + x5)``, and an unobserved
    shift with mean ``(2a - 1) * x'beta / 2`` for unit beta over every
    covariate, so the confounding curve is linear in all of them.
    """
    rng = np.random.default_rng([seed, 20])
    d = workload.covariates

    def tau(x):
        return 1.0 + x[:, 0] + x[:, 0] ** 2 - x[:, 1] - x[:, 1] ** 2

    x_t = rng.standard_normal((workload.n_trial, d))
    a_t = (rng.random(workload.n_trial) < 0.5).astype(int)
    y_t = a_t * tau(x_t) + x_t.sum(axis=1) + rng.standard_normal(workload.n_trial)
    x_o = rng.standard_normal((workload.n_obs, d))
    a_o = (rng.random(workload.n_obs) < 1.0 / (1.0 + np.exp(x_o[:, :5].sum(axis=1)))
           ).astype(int)
    u_o = rng.normal((2.0 * a_o - 1.0) * 0.5 * x_o.sum(axis=1), 1.0)
    y_o = a_o * tau(x_o) + x_o.sum(axis=1) + u_o + rng.standard_normal(workload.n_obs)
    _write_csv(os.path.join(workdir, "data.csv"), workload.covariate_names(),
               np.r_[np.ones(workload.n_trial, int), np.zeros(workload.n_obs, int)],
               np.r_[a_t, a_o], np.r_[y_t, y_o], np.vstack([x_t, x_o]))
    return {"truth_ate": 1.0}


def _write_csv(path, names, s, a, y, x) -> None:
    import numpy as np

    table = np.column_stack([s, a, y, x])
    fmt = ["%d", "%d"] + ["%.17g"] * (table.shape[1] - 2)
    np.savetxt(path, table, fmt=fmt, delimiter=",", comments="",
               header=",".join(["s", "a", "y", *names]))


# -- one operation -----------------------------------------------------------------

@dataclass
class OpResult:
    wall_s: float      # time spent inside htefusion
    fits: int          # CLI fits or Monte Carlo replicates done by the operation
    failed: int        # of those, how many count as failed
    problems: list     # why they failed
    speed: float = 1.0  # reference over measured calibration time around the op


class FitSession:
    """Repeats one ``htefusion fit`` and checks each result against the first."""

    def __init__(self, workload: FitWorkload, workdir: str, seed: int):
        from htefusion import cli

        self.cli = cli
        self.argv = workload.argv(workdir)
        self.out_path = os.path.join(workdir, "fit.json")
        self.curve_path = os.path.join(workdir, "curve.csv")
        with open(os.path.join(workdir, INPUT_META)) as fh:
            self.truth_ate = json.load(fh)["truth_ate"]
        self.reference = None

    def op(self) -> OpResult:
        for path in (self.out_path, self.curve_path):
            if os.path.exists(path):
                os.remove(path)
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(self.argv)
        except Exception as exc:  # one failed operation must not end the run
            return OpResult(perf_counter() - start, 1, 1, [f"raised {exc!r}"])
        wall = perf_counter() - start
        if code != 0:
            return OpResult(wall, 1, 1, [f"exit code {code}: {sink.getvalue().strip()}"])
        try:
            problems = self.check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return OpResult(wall, 1, int(bool(problems)), problems)

    def check(self) -> list:
        with open(self.out_path, "rb") as fh:
            doc_bytes = fh.read()
        with open(self.curve_path, "rb") as fh:
            curve_bytes = fh.read()
        if self.reference is None:
            self.reference = (doc_bytes, curve_bytes)
        problems = []
        if (doc_bytes, curve_bytes) != self.reference:
            problems.append("result document or curve differs from the run's first fit")
        doc = json.loads(doc_bytes)
        bad = [path for path, val in _numbers(doc["results"], "results")
               if not math.isfinite(val)]
        if bad:
            problems.append(f"non-finite values at {bad[:3]}")
        for name in ("integrative", "rct"):
            if doc["diagnostics"][name]["fallback_used"]:
                problems.append(f"{name} solve used the fallback")
        ate, rct_ate = doc["results"]["integrative"]["ate"], doc["results"]["rct"]["ate"]
        if not abs(ate["estimate"] - self.truth_ate) <= 4.0 * ate["se"]:
            problems.append(f"integrative ATE {ate['estimate']:.4f} (se {ate['se']:.4f}) "
                            f"is more than 4 SE from the truth {self.truth_ate}")
        if not ate["se"] <= rct_ate["se"]:
            problems.append(f"integrative ATE se {ate['se']:.4g} exceeds the "
                            f"trial-only se {rct_ate['se']:.4g}")
        return problems


def _numbers(obj, path):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _numbers(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _numbers(val, f"{path}[{i}]")
    elif isinstance(obj, float):
        yield path, obj


class McSession:
    """Repeats one serial ``run_monte_carlo`` and checks its summary."""

    def __init__(self, workload: McWorkload, workdir: str, seed: int):
        from htefusion import SimConfig, parse_terms, simulation

        names = [f"x{j + 1}" for j in range(5)]
        self.simulation = simulation
        self.cfg = SimConfig(n=workload.n, m=workload.m, beta=(1.0,) * 5,
                             reps=workload.reps_per_op, seed=seed, knots=0,
                             trial_known=0.5, jobs=1,
                             estimators=("integrative", "rct", "meta"),
                             gof_alt_tau=parse_terms(("x1*x2",), names))
        self.reference = None

    def op(self) -> OpResult:
        reps = self.cfg.reps
        start = perf_counter()
        try:
            summary = self.simulation.run_monte_carlo(self.cfg)
        except Exception as exc:  # one failed operation must not end the run
            return OpResult(perf_counter() - start, reps, reps, [f"raised {exc!r}"])
        wall = perf_counter() - start
        try:
            problems = self.check(summary)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable summary: {exc!r}"]
        if problems:
            return OpResult(wall, reps, reps, problems)
        # a replicate that needed the solver fallback fails on its own
        return OpResult(wall, reps, summary.n_fallback,
                        [f"{summary.n_fallback} solver fallbacks"] if summary.n_fallback else [])

    def check(self, summary) -> list:
        reps = self.cfg.reps
        doc = summary.to_dict()
        text = json.dumps(doc, sort_keys=True)
        if self.reference is None:
            self.reference = text
        problems = []
        if text != self.reference:
            problems.append("McSummary.to_dict() differs from the run's first at this seed")
        ate = doc["cells"]["integrative"]["ate"]
        truth = dict(summary.targets)["ate"]
        # Monte Carlo SE of the mean from the replicates' mean sandwich
        # variance: with few replicates per operation it is far steadier than
        # their sample variance, which would make a 4-SE check fail too often.
        mc_se = math.sqrt(ate["mean_ve"] / reps)
        if not abs(ate["mc_mean"] - truth) <= 4.0 * mc_se:
            problems.append(f"integrative ATE mean {ate['mc_mean']:.4f} is more than "
                            f"4 Monte Carlo SE ({mc_se:.4f}) from the truth {truth}")
        return problems


def import_package(src: str):
    """Import htefusion from ``src`` and nowhere else."""
    if src not in sys.path:
        sys.path.insert(0, src)
    import htefusion

    where = os.path.realpath(htefusion.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"htefusion was imported from {where}, not from {src}")
    return htefusion


def set_up(workload, workdir: str, seed: int, src: str):
    """Import htefusion and run the first, untimed-by-the-loop operation.

    Returns the session, the set-up time and the first operation's result.
    """
    start = perf_counter()
    import_package(src)
    session = (McSession if workload.kind == "mc" else FitSession)(workload, workdir, seed)
    first = session.op()
    return session, perf_counter() - start, first
