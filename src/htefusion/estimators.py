"""Point estimators for the effect and confounding coefficients.

Three routes are provided:

* the integrative estimator, which solves the weighted estimating
  equations that pool the trial with the observational sample while
  modeling the residual confounding of the latter;
* a trial-only estimator using the same machinery restricted to the
  randomized records and the effect block;
* a pooled inverse-propensity comparator that ignores confounding,
  kept as a benchmark.

The estimating function for one record is

    score_i = grad_i * k_i * eps_i,

where ``grad_i`` stacks the effect-basis row with the confounding-basis
row (the latter zeroed on trial records), ``eps_i`` is the centered
pseudo-outcome, and ``k_i = (a_i - r_i) * w_i`` with ``w_i`` the inverse
residual variance of the record's own arm and ``r_i`` the variance-
weighted conditional mean of treatment given covariates and source.  By
construction ``k_i`` has conditional mean zero, which makes the
equations insensitive to the outcome-mean plug-in.

The pipeline centers the pseudo-outcome at its outcome-mean fit at the
same coefficients.  That fit is one ridge smoother ``S`` per source, so
the centered pseudo-outcome ``(I - S) y - (I - S) R psi`` is still linear
in the coefficients (``R`` is the coefficient design of the
pseudo-outcome): the outcome mean is profiled out by residualizing ``y``
and ``R`` once, and one linear solve finds the root of the equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError
from .model import Dataset, StructuralModel
from .nuisance import (
    CellMeans,
    _Smoother,
    _source_design,
    build_spline_basis,
    fit_propensity,
    fit_variance_function,
    source_designs,
)

__all__ = [
    "SolveReport",
    "ScoreWorkspace",
    "build_workspace",
    "solve_integrative",
    "solve_rct",
    "meta_estimate",
    "PipelineResult",
    "run_pipeline",
]

# what ``run_pipeline`` can fit: the pooled solve, the trial-only solve and
# the inverse-weighting comparator
ESTIMATOR_NAMES = ("integrative", "rct", "meta")


def _check_estimators(names: tuple) -> None:
    """Raise unless ``names`` lists one or more of ``ESTIMATOR_NAMES``, and no other."""
    unknown = set(names) - set(ESTIMATOR_NAMES)
    if unknown:
        raise ValidationError(f"unknown estimators: {sorted(unknown)}")
    if not names:
        raise ValidationError(f"estimators must list at least one of {list(ESTIMATOR_NAMES)}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the linear solve of the estimating equations.

    ``psi_hat`` stacks the effect coefficients, then the confounding ones
    (none for the trial-only equations), as the workspace's columns do.
    ``iterations`` is 1 for a solve and 0 when the mean score at zero is
    exactly zero, so that zero is the root.  When the Jacobian is singular
    or the solution leaves a mean score above the tolerance,
    ``fallback_used`` is set, ``converged`` is not, and ``psi_hat`` is
    zero.  ``final_score_norm`` is the norm of the mean score at
    ``psi_hat``.  ``workspace`` holds the equations the solve ran on, for
    the sandwich covariance and the specification test to reuse.
    """

    psi_hat: np.ndarray
    iterations: int
    final_score_norm: float
    converged: bool
    fallback_used: bool
    workspace: ScoreWorkspace


@dataclass(frozen=True)
class ScoreWorkspace:
    """Cached per-record pieces of the estimating function, and its algebra.

    ``base_resid - resid_design @ psi`` gives the centered pseudo-outcome
    at any coefficient vector (:meth:`residuals`), so scores and their exact
    Jacobian come from the cached matrices without refitting anything.  In the
    workspace ``run_pipeline`` builds, both are residualized by the
    outcome-mean fit, so the centering moves with ``psi`` and the
    Jacobian includes it.  A workspace without confounding columns
    (``p2 == 0``) holds the trial-only equations; see :meth:`trial`.
    ``grad`` and ``resid_design`` are column-major, like the designs they
    come from, so sums over records run down contiguous columns.
    ``jacobian``, the sandwich's bread, is computed once, on first use, and
    shared by the solve, the sandwich and the specification test; a
    workspace made by ``dataclasses.replace`` computes its own.
    """

    grad: np.ndarray          # (n, p) stacked basis gradients
    resid_design: np.ndarray  # (n, p) coefficient design of the residual
    base_resid: np.ndarray    # (n,) outcome minus outcome-mean plug-in
    score_weight: np.ndarray  # (n,) k_i, conditionally mean-zero weight
    eps_a: np.ndarray         # (n,) treatment minus propensity
    p1: int
    p2: int

    @property
    def n(self) -> int:
        return self.base_resid.shape[0]

    @property
    def p(self) -> int:
        return self.p1 + self.p2

    @cached_property
    def jacobian(self) -> np.ndarray:
        """Average derivative of the score in the coefficients (constant),
        read-only."""
        # negate the (p, p) product, not the (n, p) factor: the same numbers
        # without a second record-length temporary
        jac = -((self.grad * self.score_weight[:, None]).T @ self.resid_design) / self.n
        jac.flags.writeable = False
        return jac

    def residuals(self, params: np.ndarray) -> np.ndarray:
        """The centered pseudo-outcome of every record at ``params``."""
        return self.base_resid - self.resid_design @ params

    def mean_score(self, params: np.ndarray) -> np.ndarray:
        """The mean of the scores ``grad_i * k_i * eps_i``, as one product."""
        return self.grad.T @ (self.score_weight * self.residuals(params)) / self.n

    def trial(self, n_trial: int) -> ScoreWorkspace:
        """The trial-only equations, as views: the first ``n_trial`` records
        (``data.n_trial`` of the pooled workspace's data) and effect columns.

        Every pooled piece is computed record by record and the effect
        columns do not involve the cohort, so this equals the workspace
        built from the trial records alone.
        """
        p1 = self.p1
        return ScoreWorkspace(self.grad[:n_trial, :p1], self.resid_design[:n_trial, :p1],
                              self.base_resid[:n_trial], self.score_weight[:n_trial],
                              self.eps_a[:n_trial], p1, 0)


def build_workspace(data: Dataset, model: StructuralModel, *, e: np.ndarray,
                    mu: np.ndarray, v1: np.ndarray, v0: np.ndarray) -> ScoreWorkspace:
    """Cache every score ingredient of the pooled equations on ``data``.

    The nuisances are evaluated on every record of ``data``, in its held
    order: ``e`` is the clipped propensity, ``mu`` the pseudo-outcome mean,
    and ``v1``/``v0`` the residual variances of the treated and untreated
    arm at each record's covariates and source.  Known surfaces enter the
    estimating equations as these values.
    """
    for name, arr in (("e", e), ("mu", mu), ("v1", v1), ("v0", v0)):
        if np.shape(arr) != (data.n,):
            raise ValidationError(f"nuisance values do not match the records: {name} "
                                  f"has shape {np.shape(arr)}, not ({data.n},)")
    p1, p2 = model.p1, model.p2
    design = model.design(data.x)
    a = data.a.astype(float)
    k = _score_weight(data.a, e, v1, v0)
    # blocks are written in place: no stacked temporaries beside the result;
    # the design, its confounding columns zero on the trial rows, is ``grad``
    t_design, l_design = design[:, :p1], design[:, p1:p1 + p2]
    l_design[:data.n_trial] = 0.0
    resid_design = np.empty((data.n, p1 + p2), order="F")
    np.multiply(a[:, None], t_design, out=resid_design[:, :p1])
    np.multiply((a - e)[:, None], l_design, out=resid_design[:, p1:])
    grad = design
    base_resid = data.y - mu
    for what, name, arr in (("propensity", "e", e), ("outcome mean", "mu", mu),
                            ("variance", "v1", v1), ("variance", "v0", v0)):
        if not np.isfinite(arr).all():
            raise NumericalError(f"non-finite {what} predictions in the workspace: {name}")
    return ScoreWorkspace(grad, resid_design, base_resid, k, a - e, p1, p2)


def _score_weight(a: np.ndarray, e: np.ndarray, v1: np.ndarray,
                  v0: np.ndarray) -> np.ndarray:
    """k = (a - r) / v_a, with r the variance-weighted treatment mean."""
    own_w = np.where(a == 1, 1.0 / v1, 1.0 / v0)
    weighted_a = (e / v1) / (e / v1 + (1.0 - e) / v0)
    return (a - weighted_a) * own_w


def _check_workspace(ws: ScoreWorkspace, data: Dataset, what: str,
                     trial_only: bool | None = None) -> None:
    """Raise unless ``ws`` holds equations on ``data``'s records, of the kind
    ``what`` needs: trial-only (``p2 == 0``, on the trial records) when
    ``trial_only``, pooled when it is False, either when it is None."""
    is_trial = ws.p2 == 0
    if trial_only is not None and is_trial != trial_only:
        raise ValidationError(f"{what} needs the {'trial-only' if trial_only else 'pooled'} "
                              "workspace")
    if ws.n != (data.n_trial if is_trial else data.n):
        raise ValidationError(f"{what}: workspace does not match the data")


def preliminary_estimate(data: Dataset, model: StructuralModel, cond_y: CellMeans,
                         designs: dict) -> np.ndarray:
    """Least-squares starting values from cell-mean differences.

    The effect coefficients regress the trial arm-mean difference on the
    effect basis over trial records; the confounding coefficients then
    regress the observational arm-mean difference minus the fitted
    effect curve on the confounding basis over observational records.
    With exact cell means and representable curves both steps are exact.
    ``designs`` is the cell means' ``source_designs`` of ``data``.
    """
    if data.n_trial == 0:
        raise ValidationError("preliminary estimate requires trial records")
    dt = _source_design(designs, 1, data.n_trial)
    delta_trial = cond_y.predict(1, 1, dt) - cond_y.predict(0, 1, dt)
    phi = _Smoother(model.tau_basis.design(data.x[data.block(1)]), 0.0).solve(
        delta_trial, "preliminary effect fit")
    if data.n_obs == 0:
        return np.concatenate([phi, np.zeros(model.p2)])
    dobs = _source_design(designs, 0, data.n_obs)
    delta_obs = cond_y.predict(1, 0, dobs) - cond_y.predict(0, 0, dobs)
    both = model.design(data.x[data.block(0)])
    lam = _Smoother(both[:, model.p1:], 0.0).solve(delta_obs - both[:, :model.p1] @ phi,
                                                   "preliminary confounding fit")
    return np.concatenate([phi, lam])


# A solve is accepted when it cuts the mean score to this fraction of its
# norm at zero, or to the rounding level of the equations,
# eps * |J| * |params|, which ill-conditioned equations cannot beat; the
# equations are linear, so an accepted solve is exact up to rounding.
_SOLVE_RTOL = 1e-10


def _linear_solve(ws: ScoreWorkspace) -> SolveReport:
    """Solve ``ws.jacobian @ psi = -ws.mean_score(0)``, the root of the
    linear equations; report zero when it falls back."""
    zero = np.zeros(ws.p)
    f = ws.mean_score(zero)
    if not np.isfinite(f).all():
        raise NumericalError("mean score is not finite at zero coefficients")
    norm = float(np.linalg.norm(f))
    if norm == 0.0:
        return SolveReport(zero, 0, 0.0, True, False, ws)
    jac = ws.jacobian
    try:
        params = np.linalg.solve(jac, -f)
    except np.linalg.LinAlgError:
        return SolveReport(zero, 1, norm, False, True, ws)
    norm_new = float(np.linalg.norm(ws.mean_score(params)))
    floor = np.finfo(float).eps * np.linalg.norm(jac) * np.linalg.norm(params)
    if not norm_new <= max(_SOLVE_RTOL * norm, floor):  # also rejects NaN
        return SolveReport(zero, 1, norm, False, True, ws)
    return SolveReport(params, 1, norm_new, True, False, ws)


def solve_integrative(data: Dataset, ws: ScoreWorkspace) -> SolveReport:
    """Solve the pooled estimating equations ``ws`` of ``data`` for all
    coefficients."""
    if data.n_trial == 0 or data.n_obs == 0:
        raise ValidationError("integrative fitting needs records from both sources")
    for source in (0, 1):
        arm = data.a[data.block(source)]
        if arm.all() or not arm.any():
            raise ValidationError(
                f"integrative fitting: source s={source} contains a single arm"
            )
    _check_workspace(ws, data, "integrative fitting", trial_only=False)
    return _linear_solve(ws)


def solve_rct(data: Dataset, ws: ScoreWorkspace) -> SolveReport:
    """Solve the trial-only equations ``ws`` for the effect coefficients.

    ``ws`` is the trial-only workspace, :meth:`ScoreWorkspace.trial` of
    the pooled one.
    """
    arm = data.a[data.block(1)]
    if arm.all() or not arm.any():  # also when there are no trial records
        raise ValidationError("trial-only fitting: the trial contains a single arm")
    _check_workspace(ws, data, "trial-only fitting", trial_only=True)
    return _linear_solve(ws)


def meta_estimate(data: Dataset, design: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Pooled inverse-propensity comparator for the effect coefficients.

    Regresses ``a*y/e - (1-a)*y/(1-e)`` on ``design``, the effect basis on
    every record of ``data`` (``PipelineResult.effect_design``).  No
    confounding adjustment: with a confounded observational source this is
    biased by construction.  ``e`` holds every record's raw fitted
    probability (``Propensity.predict_raw``), not the clipped one; the
    instability of plain inverse weighting near extreme propensities is
    part of what the benchmark is meant to show.
    """
    if design.shape[:1] != (data.n,):
        raise ValidationError("meta comparator: design does not match the records")
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise NumericalError("meta comparator: fitted propensities reached 0 or 1")
    a = data.a.astype(float)
    adj = a * data.y / e - (1.0 - a) * data.y / (1.0 - e)
    return _Smoother(design, 0.0).solve(adj, "meta comparator fit")


def _profile_outcome_mean(ws: ScoreWorkspace, data: Dataset,
                          smoothers: dict) -> ScoreWorkspace:
    """The workspace with its pseudo-outcome centered at its outcome-mean fit.

    The outcome mean at any coefficients is each source's ridge smoother
    ``S`` (the fit of :func:`fit_outcome_mean`) applied to the
    pseudo-outcome, so ``base_resid`` and ``resid_design`` become
    ``(I - S) y`` and ``(I - S) R``, from one solve per source on
    ``smoothers``, each source's ``nuisance._Smoother`` of its held spline
    design; each solve reads the held Gram and computes only its
    right-hand side.  Each source's block of both is rewritten in place, so
    ``ws`` is consumed; the returned workspace holds them and computes its
    own Jacobian.
    """
    for source, smoother in smoothers.items():
        rows = data.block(source)
        base, resid = ws.base_resid[rows], ws.resid_design[rows]
        z = np.empty((base.shape[0], ws.p + 1), order="F")  # the one stacked copy
        z[:, 0], z[:, 1:] = base, resid
        coef = smoother.solve(z, f"outcome-mean smoother (s={source})")
        np.matmul(smoother.design, coef, out=z)  # the smoothed values, into the solved-on copy
        base -= z[:, 0]
        resid -= z[:, 1:]
    return replace(ws)


def _solve_weighted(data: Dataset, ws: ScoreWorkspace, e_hat: np.ndarray,
                    y_var: float) -> SolveReport:
    """The paper's two steps on the records ``data`` holds, whose
    workspace ``ws`` is at unit residual variances: solve, then fit sigma2
    per cell to the residuals at that solution, recompute only the score
    weight and solve the new equations.  A first solve that fell back is
    returned.  Any positive variances keep the equations unbiased, so the
    second step buys efficiency only.
    """
    solve = solve_rct if ws.p2 == 0 else solve_integrative
    rep = solve(data, ws)
    if rep.fallback_used:
        return rep
    # the residual is the pseudo-outcome already centered at its mean
    var_fit = fit_variance_function(data, ws.residuals(rep.psi_hat), y_var=y_var)
    v1 = var_fit.predict(1, data.s)
    v0 = var_fit.predict(0, data.s)
    ws = replace(ws, score_weight=_score_weight(data.a, e_hat, v1, v0))
    return solve(data, ws)


@dataclass
class PipelineResult:
    """The requested estimators' solves and the comparator's coefficients.

    Each report's ``workspace`` holds the equations it was solved on, with
    the outcome mean profiled out; pass it to ``sandwich_covariance`` and
    ``gof_test``.  ``effect_design``, the effect basis on every record, is
    the pooled workspace's first ``p1`` columns whenever one was built.
    """

    effect_design: np.ndarray
    integrative: SolveReport | None = None
    rct: SolveReport | None = None
    meta_coef: np.ndarray | None = None


def run_pipeline(data: Dataset, model: StructuralModel, which: tuple = ("integrative",), *,
                 knots: int = 4, ridge: float = 1e-6, clip_e: float = 0.01,
                 trial_known: float | None = None) -> PipelineResult:
    """Fit the nuisances, then the requested estimators.

    Fits the propensities (``knots`` spline knots per covariate, penalty
    ``ridge``, clipped at ``clip_e``; ``trial_known`` is a known trial
    propensity) and builds one workspace whose pseudo-outcome is centered
    at its per-source outcome-mean fit at every coefficient vector, then
    solves each estimator in two steps: at unit residual variances, then
    with per-cell variances fitted at that solution.  The trial-only
    estimator reads the workspace's trial records and effect columns, and
    its variances are fitted on trial records only; its spline knots and
    variance bounds come from the pooled sample.
    """
    _check_estimators(which)
    spec = build_spline_basis(data, knots)
    designs = source_designs(data, spec)
    # each design's smoother, and so its Gram, built once: the propensity
    # IRLS starts from it and the outcome-mean profiling solves on it
    smoothers = {source: _Smoother(design, ridge) for source, design in designs.items()}
    e_fit = fit_propensity(data, spec, designs, trial_known=trial_known,
                           clip_e=clip_e, ridge=ridge, smoothers=smoothers)
    e_raw = e_fit.predict_raw(data.s, designs)
    if "integrative" not in which and "rct" not in which:
        design = model.tau_basis.design(data.x)
        return PipelineResult(design, meta_coef=meta_estimate(data, design, e_raw))
    with np.errstate(over="ignore"):
        y_var = float(np.var(data.y))
    if not math.isfinite(y_var):
        raise NumericalError("the outcome is too large to square: its variance is not "
                             "finite; rescale the outcome")
    e_hat = e_fit.clipped(e_raw)
    unit = np.ones(data.n)
    ws = build_workspace(data, model, e=e_hat, mu=np.zeros(data.n), v1=unit, v0=unit)
    ws = _profile_outcome_mean(ws, data, smoothers)
    del designs, smoothers  # not held through the solves, which read the workspace alone
    # the effect columns, which neither the zeroing nor the profiling touches
    result = PipelineResult(ws.grad[:, :model.p1])
    if "meta" in which:
        result.meta_coef = meta_estimate(data, result.effect_design, e_raw)
    if "rct" in which:
        if data.n_trial == 0:
            raise ValidationError("trial-only fitting requires s=1 records")
        result.rct = _solve_weighted(data.trial_only(), ws.trial(data.n_trial),
                                     e_hat[data.block(1)], y_var)
    if "integrative" in which:
        result.integrative = _solve_weighted(data, ws, e_hat, y_var)
    return result
