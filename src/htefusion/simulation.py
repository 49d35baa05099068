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
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NumericalError, ValidationError
from .estimators import ESTIMATOR_NAMES, FitOptions, _check_estimators, run_pipeline
from .inference import _Z95, _summaries
from .model import (
    BasisSpec,
    Dataset,
    StructuralModel,
    _blas_threads,
    _check_fields,
    _check_probes,
    _expit,
    _halves_in_caller,
    _openblas,
    constant_term,
    linear_term,
    square_term,
)

__all__ = [
    "SimConfig",
    "CellStats",
    "McSummary",
    "default_tau_basis",
    "default_lambda_basis",
    "default_probes",
    "probe_label",
    "true_tau_coefficients",
    "true_tau",
    "true_ate",
    "true_confounding",
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
    block positive.  ``confounding_form`` scales the confounding curve
    induced by ``beta``: "unit" gives a curve equal to x'beta, "double"
    twice that.  ``tau_terms``/``lambda_terms`` override the fitted
    working bases, e.g. to study misspecification; the data generator is
    unaffected by them.

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
    confounding_form: str = "unit"
    knots: int = 0
    trial_known: float | None = 0.5
    jobs: int = 1
    tau_terms: BasisSpec | None = None
    lambda_terms: BasisSpec | None = None
    gof_alt_tau: BasisSpec | None = None
    gof_alt_lambda: BasisSpec | None = None
    gof_efficient_weight: bool = False

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
        if self.confounding_form not in ("unit", "double"):
            raise ValidationError("confounding_form must be 'unit' or 'double'")
        if self.jobs < 1:
            raise ValidationError("jobs must be at least 1")
        # more workers than cores only adds processes
        object.__setattr__(self, "jobs", min(self.jobs, os.cpu_count() or 1))
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


def true_tau(cfg: SimConfig, X) -> np.ndarray:
    coef = true_tau_coefficients(cfg.tau_form)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return default_tau_basis().design(X) @ coef


def true_ate(cfg: SimConfig) -> float:
    """Population average of the generating effect surface."""
    # E[x^2] = 1 per covariate, odd moments vanish
    return 1.0 if cfg.tau_form == "opposed" else 3.0


def true_confounding(cfg: SimConfig, X) -> np.ndarray:
    """Confounding curve of the generator: x'beta, doubled if requested."""
    scale = 1.0 if cfg.confounding_form == "unit" else 2.0
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return scale * (X @ np.asarray(cfg.beta, dtype=float))


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replicate index)."""
    if rep < 0:
        raise ValidationError("replicate index must be non-negative")
    return np.random.Generator(np.random.Philox(key=(int(seed) & (2**64 - 1)) + (int(rep) << 64)))


def generate_replicate(cfg: SimConfig, rep: int) -> Dataset:
    """Draw one combined trial + observational sample.

    Trial: covariates standard normal, treatment a fair coin, outcome
    ``a * tau(x) + sum(x) + noise``.  Cohort: treatment follows
    ``logit = -sum(x)``; an unobserved shift with mean
    ``(2a - 1) * c * x'beta`` (c = 1/2 for "unit", 1 for "double") and
    unit variance is added to the outcome, inducing the confounding
    curve of :func:`true_confounding` while keeping each arm's residual
    variance at 2.
    """
    rng = replicate_rng(cfg.seed, rep)
    beta = np.asarray(cfg.beta, dtype=float)
    half_scale = 0.5 if cfg.confounding_form == "unit" else 1.0

    x = np.empty((cfg.n + cfg.m, N_COVARIATES))  # each sample drawn into its rows
    x_t, x_o = x[:cfg.n], x[cfg.n:]
    rng.standard_normal(out=x_t)
    a_t = (rng.random(cfg.n) < 0.5).astype(np.int8)
    y_t = a_t * true_tau(cfg, x_t) + x_t.sum(axis=1) + rng.standard_normal(cfg.n)

    rng.standard_normal(out=x_o)
    sum_o = x_o.sum(axis=1)
    a_o = (rng.random(cfg.m) < _expit(-sum_o)).astype(np.int8)
    u_o = rng.normal((2.0 * a_o - 1.0) * half_scale * (x_o @ beta), 1.0)
    y_o = a_o * true_tau(cfg, x_o) + sum_o + u_o + rng.standard_normal(cfg.m)

    return Dataset(
        np.concatenate([np.ones(cfg.n, dtype=np.int8), np.zeros(cfg.m, dtype=np.int8)]),
        np.concatenate([a_t, a_o]),
        np.concatenate([y_t, y_o]),
        x,
    )


def _probe_points(cfg: SimConfig) -> np.ndarray:
    pts = np.zeros((len(cfg.probes), N_COVARIATES))
    for i, (x1, x2) in enumerate(cfg.probes):
        pts[i, 0] = x1
        pts[i, 1] = x2
    return pts


def run_replicate(cfg: SimConfig, rep: int) -> dict:
    """Generate and analyze one replicate; returns plain-type results."""
    data = generate_replicate(cfg, rep)
    model = cfg.model()
    opts = FitOptions(knots=cfg.knots, trial_known=cfg.trial_known)
    fit = run_pipeline(data, model, opts, which=cfg.estimators)
    summaries = _summaries(data, model, fit, _probe_points(cfg),
                           cfg.gof_alt_tau or BasisSpec(()), cfg.gof_alt_lambda or BasisSpec(()),
                           cfg.gof_efficient_weight)
    labels = [probe_label(pr) for pr in cfg.probes] + ["ate"]
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

    def to_dict(self) -> dict:
        return {"mc_mean": self.mc_mean, "mc_var": self.mc_var,
                "mean_ve": self.mean_ve, "coverage": self.coverage}


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
        return {
            "reps": self.reps,
            "targets": [{"label": lab, "truth": tr} for lab, tr in self.targets],
            "cells": {
                est: {lab: st.to_dict() for lab, st in per_est.items()}
                for est, per_est in self.cells.items()
            },
            "n_fallback": self.n_fallback,
            "gof": self.gof,
            "config": self.config,
        }


def _config_echo(cfg: SimConfig) -> dict:
    """Every setting of ``cfg`` as JSON: a basis by its term labels, tuples as lists."""
    def plain(val):
        if isinstance(val, BasisSpec):
            return val.labels()
        return [plain(v) for v in val] if isinstance(val, tuple) else val
    return {f.name: plain(getattr(cfg, f.name)) for f in fields(cfg)}


def _set_blas_threads(count: int) -> int:
    """Set this process's BLAS to ``count`` threads, if it is numpy's bundled
    OpenBLAS, and return the count it had; on other BLAS builds this does
    nothing and returns 0."""
    before = _blas_threads()
    setter = _openblas("scipy_openblas_set_num_threads64_")
    if setter is not None and before != count:  # even an unchanged set costs ~10 us
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(count)
    return before


def _init_worker() -> None:
    """Hold a Monte Carlo worker to one core: BLAS on one thread, so that
    workers do not oversubscribe the cores, and both row halves of a split
    kernel run in the worker itself (the same halves, so the same bits as a
    threaded run)."""
    _set_blas_threads(1)
    _halves_in_caller()


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
        # one BLAS thread, as in the workers: BLAS's thread count moves the
        # last bits of large products.  Split kernels use the worker thread
        before = _set_blas_threads(1)
        try:
            results = [run_replicate(cfg, r) for r in range(cfg.reps)]
        finally:
            if before > 1:
                _set_blas_threads(before)

    n_fallback = sum(r["fallback"] for r in results)
    if n_fallback > 0.05 * cfg.reps:
        raise NumericalError(
            f"{n_fallback} of {cfg.reps} replicates hit the solver fallback"
        )

    labels = [probe_label(pr) for pr in cfg.probes] + ["ate"]
    grid = _probe_points(cfg)
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

    return McSummary(cfg.reps, targets, cells, int(n_fallback), gof, _config_echo(cfg))


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
