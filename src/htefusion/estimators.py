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
equations insensitive to the outcome-mean plug-in.  Because ``eps_i``
is linear in the coefficients, the mean score has a constant Jacobian
and one linear solve finds its root.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .model import (
    BasisSpec,
    Dataset,
    PsiVector,
    StructuralModel,
    _check_design,
    constant_term,
    pseudo_outcomes,
)
from .nuisance import (
    CellMeans,
    NuisanceSet,
    NuisanceValues,
    Propensity,
    _solve_penalized,
    build_spline_basis,
    fit_conditional_outcomes,
    fit_outcome_mean,
    fit_propensity,
    fit_variance_function,
    source_designs,
)

__all__ = [
    "FitOptions",
    "SolveReport",
    "ScoreWorkspace",
    "build_workspace",
    "mean_score",
    "mean_score_jacobian",
    "score_matrix",
    "preliminary_estimate",
    "solve_integrative",
    "solve_rct",
    "meta_estimate",
    "fit_nuisances",
    "PipelineResult",
    "run_pipeline",
]


@dataclass(frozen=True)
class FitOptions:
    """Settings of the nuisance fits and of the refinement rounds.

    ``var_knots`` controls the basis of the log-variance regressions.
    ``None``, the default, fits one constant per (arm, source) cell:
    the variance enters only through inverse weights, and fitting a
    covariate-dependent surface on a few hundred records per cell puts
    enough noise into the weights to visibly deflate the variance
    estimator.  Pass an integer to use a spline basis with that many
    interior knots instead (0 gives intercept plus linear terms).
    """

    knots: int = 4
    var_knots: int | None = None
    ridge: float = 1e-6
    clip_e: float = 0.01
    trial_known: float | None = None
    refine: int = 1


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the linear solve of the estimating equations.

    ``iterations`` is 1 for a solve and 0 when the start was already a
    root.  When the Jacobian is singular or the solution leaves a mean
    score above the tolerance, ``fallback_used`` is set, ``converged``
    is not, and ``psi_hat`` is the start.  ``final_score_norm`` is the
    norm of the mean score at ``psi_hat``.  ``workspace`` holds the
    equations the solve ran on, for the sandwich covariance and the
    specification test to reuse.
    """

    psi_hat: PsiVector
    iterations: int
    final_score_norm: float
    converged: bool
    fallback_used: bool
    workspace: ScoreWorkspace | None = None


@dataclass(frozen=True)
class ScoreWorkspace:
    """Cached per-record pieces of the estimating function.

    ``base_resid - resid_design @ psi`` gives the centered pseudo-outcome
    at any coefficient vector, so scores and their exact Jacobian come
    from the cached matrices without refitting anything.
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


def build_workspace(data: Dataset, model: StructuralModel,
                    nuis: NuisanceSet | NuisanceValues,
                    trial_only: bool = False, *,
                    design: np.ndarray | None = None) -> ScoreWorkspace:
    """Cache every score ingredient of the nuisances on ``data``.

    ``nuis`` is a fitted set, evaluated here once, or its values already
    evaluated on every record of ``data``.  ``design`` is
    ``model.design(data.x)`` when the caller holds it.  With
    ``trial_only`` the workspace is restricted to randomized records and
    to the effect block, only the effect columns of ``design`` are read,
    and it may hold only those; the result is identical whether or not
    observational records are present in ``data``.
    """
    values = nuis if isinstance(nuis, NuisanceValues) else None
    if values is not None and values.e.shape != (data.n,):
        raise ValidationError("nuisance values do not match the number of records")
    p1 = model.p1
    if design is not None:
        _check_design(design, data.n, p1 if trial_only else model.p)
    if trial_only:
        if data.n_trial == 0:
            raise ValidationError("trial-only workspace requires s=1 records")
        if data.n_obs:
            keep = data.rows(1)
            if values is not None:
                values = values.subset(keep)
            if design is not None:
                design = design[keep, :p1]
            data = data.trial_only()
    if values is None:
        values = nuis.evaluate(data)
    e, mu, v1, v0 = values.e, values.mu, values.v1, values.v0
    a = data.a.astype(float)
    own_w = np.where(data.a == 1, 1.0 / v1, 1.0 / v0)
    weighted_a = (e / v1) / (e / v1 + (1.0 - e) / v0)
    k = (a - weighted_a) * own_w
    if design is None:
        design = model.tau_basis.design(data.x) if trial_only else model.design(data.x)
    t_design = design[:, :p1]
    if trial_only:
        grad = np.ascontiguousarray(t_design)
        resid_design = a[:, None] * t_design
        p2 = 0
    else:
        # blocks are written in place: no stacked temporaries beside the result
        p2 = model.p2
        l_design = design[:, p1:p1 + p2]
        obs = (1.0 - data.s)[:, None]
        grad = np.empty((data.n, p1 + p2))
        resid_design = np.empty((data.n, p1 + p2))
        grad[:, :p1] = t_design
        np.multiply(obs, l_design, out=grad[:, p1:])
        np.multiply(a[:, None], t_design, out=resid_design[:, :p1])
        np.multiply(obs * (a - e)[:, None], l_design, out=resid_design[:, p1:])
    base_resid = data.y - mu
    for name, arr in (("propensity", e), ("outcome mean", mu),
                      ("variance", v1), ("variance", v0)):
        if not np.isfinite(arr).all():
            raise NumericalError(f"non-finite {name} predictions in the workspace")
    return ScoreWorkspace(grad, resid_design, base_resid, k, a - e, model.p1, p2)


def _check_workspace(ws: ScoreWorkspace, data: Dataset, model: StructuralModel,
                     trial_only: bool) -> ScoreWorkspace:
    """``ws`` once it is shown to hold the equations of ``data`` and ``model``."""
    n = data.n_trial if trial_only else data.n
    p2 = 0 if trial_only else model.p2
    if (ws.n, ws.p1, ws.p2) != (n, model.p1, p2):
        raise ValidationError("workspace does not match the data, model or trial_only")
    return ws


def residuals(ws: ScoreWorkspace, params: np.ndarray) -> np.ndarray:
    return ws.base_resid - ws.resid_design @ params


def score_matrix(ws: ScoreWorkspace, params: np.ndarray) -> np.ndarray:
    """All per-record scores at once, shape (n, p)."""
    return ws.grad * (ws.score_weight * residuals(ws, params))[:, None]


def mean_score(ws: ScoreWorkspace, params: np.ndarray) -> np.ndarray:
    return score_matrix(ws, params).mean(axis=0)


def mean_score_jacobian(ws: ScoreWorkspace) -> np.ndarray:
    """Average derivative of the score in the coefficients (constant)."""
    # negate the (p, p) product, not the (n, p) factor: the same numbers
    # without a second record-length temporary
    return -((ws.grad * ws.score_weight[:, None]).T @ ws.resid_design) / ws.n


def preliminary_estimate(data: Dataset, model: StructuralModel, cond_y: CellMeans,
                         designs: dict | None = None) -> PsiVector:
    """Least-squares starting values from cell-mean differences.

    The effect coefficients regress the trial arm-mean difference on the
    effect basis over trial records; the confounding coefficients then
    regress the observational arm-mean difference minus the fitted
    effect curve on the confounding basis over observational records.
    With exact cell means and representable curves both steps are exact.
    ``designs`` is the cell means' ``source_designs`` of ``data`` when
    the caller holds it.
    """
    trial = data.rows(1)
    if not trial.any():
        raise ValidationError("preliminary estimate requires trial records")
    xt = data.x[trial]
    dt = designs[1] if designs is not None else None  # rows of xt
    delta_trial = cond_y.predict(1, 1, xt, dt) - cond_y.predict(0, 1, xt, dt)
    phi = _solve_penalized(model.tau_basis.design(xt), delta_trial, 0.0,
                           "preliminary effect fit")
    obs = data.rows(0)
    if not obs.any():
        return PsiVector(phi, np.zeros(model.p2))
    xo = data.x[obs]
    dobs = designs[0] if designs is not None else None  # rows of xo
    delta_obs = cond_y.predict(1, 0, xo, dobs) - cond_y.predict(0, 0, xo, dobs)
    resid = delta_obs - model.tau(phi, xo)
    lam = _solve_penalized(model.lambda_basis.design(xo), resid, 0.0,
                           "preliminary confounding fit")
    return PsiVector(phi, lam)


# A solve is accepted when it cuts the mean score to this fraction of its
# norm at the start; the equations are linear, so an accepted solve is exact
# up to rounding.
_SOLVE_RTOL = 1e-10


def _linear_solve(ws: ScoreWorkspace, init: np.ndarray):
    """One Newton step from ``init``, exact for the linear equations.

    Returns (params, iterations, final score norm, converged, fallback).
    """
    f = mean_score(ws, init)
    if not np.isfinite(f).all():
        raise NumericalError("mean score is not finite at the starting values")
    norm = float(np.linalg.norm(f))
    if norm == 0.0:
        return init.copy(), 0, 0.0, True, False
    try:
        params = init + np.linalg.solve(mean_score_jacobian(ws), -f)
    except np.linalg.LinAlgError:
        return init.copy(), 1, norm, False, True
    norm_new = float(np.linalg.norm(mean_score(ws, params)))
    if not norm_new <= _SOLVE_RTOL * norm:  # also rejects NaN
        return init.copy(), 1, norm, False, True
    return params, 1, norm_new, True, False


def solve_integrative(data: Dataset, model: StructuralModel,
                      nuis: NuisanceSet | NuisanceValues | ScoreWorkspace,
                      psi_init: PsiVector) -> SolveReport:
    """Solve the pooled estimating equations for all coefficients.

    ``nuis`` is a fitted set or its values on ``data``, as for
    :func:`build_workspace`, or the workspace built from them.
    """
    if data.n_trial == 0 or data.n_obs == 0:
        raise ValidationError("integrative fitting needs records from both sources")
    for source in (0, 1):
        if np.unique(data.a[data.rows(source)]).size < 2:
            raise ValidationError(
                f"integrative fitting: source s={source} contains a single arm"
            )
    if isinstance(nuis, ScoreWorkspace):
        ws = _check_workspace(nuis, data, model, trial_only=False)
    else:
        ws = build_workspace(data, model, nuis)
    init = psi_init.stacked
    if init.size != ws.p:
        raise ValidationError("starting values do not match the model dimension")
    params, its, norm, converged, fallback = _linear_solve(ws, init)
    return SolveReport(PsiVector.from_stacked(params, model.p1), its, norm,
                       converged, fallback, ws)


def solve_rct(data: Dataset, model: StructuralModel,
              nuis: NuisanceSet | NuisanceValues | ScoreWorkspace,
              phi_init: np.ndarray) -> SolveReport:
    """Solve the trial-only equations for the effect coefficients.

    ``nuis`` is as for :func:`solve_integrative`.
    """
    if isinstance(nuis, ScoreWorkspace):
        ws = _check_workspace(nuis, data, model, trial_only=True)
    else:
        ws = build_workspace(data, model, nuis, trial_only=True)
    init = np.asarray(phi_init, dtype=float)
    if init.size != model.p1:
        raise ValidationError("starting values do not match the effect dimension")
    params, its, norm, converged, fallback = _linear_solve(ws, init)
    return SolveReport(PsiVector(params, np.zeros(0)), its, norm, converged, fallback, ws)


def meta_estimate(data: Dataset, model: StructuralModel, e_fit: Propensity,
                  designs: dict | None = None) -> np.ndarray:
    """Pooled inverse-propensity comparator for the effect coefficients.

    Regresses ``a*y/e - (1-a)*y/(1-e)`` on the effect basis over the
    combined sample.  No confounding adjustment: with a confounded
    observational source this is biased by construction.  Uses the raw
    fitted probabilities rather than the clipped ones; the instability
    of plain inverse weighting near extreme propensities is part of
    what the benchmark is meant to show.  ``designs`` is the propensity
    fits' ``source_designs`` of ``data`` when the caller holds it.
    """
    e = e_fit.predict_raw(data.x, data.s, designs)
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise NumericalError("meta comparator: fitted propensities reached 0 or 1")
    a = data.a.astype(float)
    adj = a * data.y / e - (1.0 - a) * data.y / (1.0 - e)
    return _solve_penalized(model.tau_basis.design(data.x), adj, 0.0, "meta comparator fit")


def _variance_spec(data: Dataset, spec: BasisSpec, opts: FitOptions) -> BasisSpec:
    if opts.var_knots is None:
        return BasisSpec((constant_term(),))
    if opts.var_knots == opts.knots:
        return spec
    return build_spline_basis(data, opts.var_knots)


@dataclass(frozen=True)
class _Stage:
    """What every refine round of one estimator reads unchanged.

    ``data`` holds the records the estimator reads; ``designs`` and
    ``var_designs`` are the nuisance and variance-basis designs over
    them by source, and ``e_hat`` the propensities at them.  The bases,
    the fixed nuisance fits and ``y_var``, the outcome variance the
    sigma2 bounds scale, come from the pooled sample in every stage.
    """

    data: Dataset
    spec: BasisSpec
    designs: dict
    var_spec: BasisSpec
    var_designs: dict
    e_fit: Propensity
    e_hat: np.ndarray
    cond_y: CellMeans
    y_var: float
    trial_only: bool = False

    def trial(self) -> "_Stage":
        """The trial-only estimator's stage: the same fits on the trial records."""
        return replace(self, data=self.data.trial_only(), designs={1: self.designs[1]},
                       var_designs={1: self.var_designs[1]},
                       e_hat=self.e_hat[self.data.rows(1)], trial_only=True)

    def design(self, model: StructuralModel) -> np.ndarray:
        """``model.design`` over the stage's records; a trial-only stage
        reads the effect columns alone."""
        x = self.data.x
        return model.tau_basis.design(x) if self.trial_only else model.design(x)


def _outcome_nuisances_at(stage: _Stage, model: StructuralModel, psi: PsiVector,
                          ridge: float, design: np.ndarray):
    """Refit the coefficient-dependent nuisances (mu, sigma2) at ``psi``.

    Fits the stage's records only, from one pseudo-outcome computed on
    ``design``, which is ``stage.design(model)``.  Returns the refitted set
    and its values on the stage's records.
    """
    data = stage.data
    h = pseudo_outcomes(model, psi, data, stage.e_hat, design)
    mu_fit = fit_outcome_mean(data, model, psi, stage.e_fit, stage.spec, ridge=ridge,
                              designs=stage.designs, h=h)
    mu_hat = mu_fit.predict(data.x, data.s, stage.designs)
    var_fit = fit_variance_function(data, model, psi, stage.e_fit, mu_fit, stage.var_spec,
                                    ridge=ridge, mu_hat=mu_hat, designs=stage.var_designs,
                                    h=h, y_var=stage.y_var)
    values = NuisanceValues(stage.e_hat, mu_hat,
                            var_fit.predict(1, data.x, data.s, stage.var_designs),
                            var_fit.predict(0, data.x, data.s, stage.var_designs))
    return NuisanceSet(stage.e_fit, mu_fit, var_fit, stage.cond_y), values


def _base_stage(data: Dataset, model: StructuralModel, opts: FitOptions,
                which: tuple = ()):
    """Fit the nuisance cascade at the preliminary coefficients.

    Order: propensities, per-cell outcome means, preliminary coefficients,
    pseudo-outcome means per source, residual variances per cell.  The
    spline and variance-basis designs are built once per source and kept
    in the returned stage, for every fit and in-sample prediction of
    this and every later refit; the propensities are likewise evaluated
    on the sample once.  The base round's effect and confounding design
    also gives the first workspace of each estimator in ``which``; it
    ends with this call, and so do the base set's values, which only
    those workspaces read.

    Returns the pooled stage, the preliminary coefficients, the base set
    and ``{estimator: (stage, first workspace)}``.
    """
    spec = build_spline_basis(data, opts.knots)
    designs = source_designs(data, spec)
    e_fit = fit_propensity(data, spec, trial_known=opts.trial_known,
                           clip=opts.clip_e, ridge=opts.ridge, designs=designs)
    e_hat = e_fit.predict(data.x, data.s, designs)
    cond_y = fit_conditional_outcomes(data, spec, ridge=opts.ridge, designs=designs)
    psi_pre = preliminary_estimate(data, model, cond_y, designs)
    var_spec = _variance_spec(data, spec, opts)
    var_designs = designs if var_spec is spec else source_designs(data, var_spec)
    stage = _Stage(data, spec, designs, var_spec, var_designs, e_fit, e_hat, cond_y,
                   float(np.var(data.y)))
    design = stage.design(model)
    base, values = _outcome_nuisances_at(stage, model, psi_pre, opts.ridge, design)
    first = {}
    if "rct" in which:
        first["rct"] = (stage.trial(), build_workspace(data, model, values, trial_only=True,
                                                       design=design))
    if "integrative" in which:
        first["integrative"] = (stage, build_workspace(data, model, values, design=design))
    return stage, psi_pre, base, first


def fit_nuisances(data: Dataset, model: StructuralModel,
                  opts: FitOptions = FitOptions()):
    """Run the nuisance cascade; returns the set and the starting values."""
    _, psi_pre, base, _ = _base_stage(data, model, opts)
    return base, psi_pre


def _refine(first: dict, name: str, model: StructuralModel, nuis: NuisanceSet,
            psi: PsiVector, opts: FitOptions):
    """Solve estimator ``name`` from its stage and first workspace, which
    it takes out of ``first``, then ``opts.refine`` times refit mu and
    sigma2 on the stage's records at the solution and solve again.
    Returns the last report and the set it was solved with.

    A round's effect and confounding design ends once its workspace is
    built, and the previous workspace is dropped before each refit, so
    neither is held through another round's solve.
    """
    stage, ws = first.pop(name)
    solve = solve_rct if stage.trial_only else solve_integrative

    def start(psi):
        return psi.phi if stage.trial_only else psi

    rep = solve(stage.data, model, ws, start(psi))
    for _ in range(max(0, opts.refine)):
        if rep.fallback_used:
            break
        # the trial-only fit keeps the preliminary confounding coefficients,
        # which no trial record reads
        psi = PsiVector(rep.psi_hat.phi, psi.lam) if stage.trial_only else rep.psi_hat
        rep = ws = None  # the previous workspace goes before the refit
        nuis, ws = _refit(stage, model, psi, opts.ridge)
        rep = solve(stage.data, model, ws, start(psi))
    return rep, nuis


def _refit(stage: _Stage, model: StructuralModel, psi: PsiVector, ridge: float):
    """One refine round: the refitted set and its workspace, from one
    effect and confounding design that ends with the round."""
    design = stage.design(model)
    nuis, values = _outcome_nuisances_at(stage, model, psi, ridge, design)
    return nuis, build_workspace(stage.data, model, values, stage.trial_only,
                                 design=design)


@dataclass
class PipelineResult:
    """Everything produced by one pass of the estimation cascade.

    ``nuisances`` is the set the integrative solve ended on (the base set
    when no integrative fit was requested).  ``rct_nuisances`` is the set
    the trial-only solve ended on, which never sees the pooled
    coefficient path: after a refine round it holds the pooled
    propensities and cell means with an outcome mean and variance cells
    fitted on trial records only, so it has no observational components
    for ``mu`` and ``sigma2``; without one it is the base set.
    """

    nuisances: NuisanceSet
    psi_pre: PsiVector
    integrative: SolveReport | None = None
    rct: SolveReport | None = None
    meta_coef: np.ndarray | None = None
    rct_nuisances: NuisanceSet | None = None


def run_pipeline(data: Dataset, model: StructuralModel, opts: FitOptions = FitOptions(),
                 which: tuple = ("integrative",)) -> PipelineResult:
    """Fit nuisances, then the requested estimators.

    The preliminary coefficients are noisy, and the outcome-mean and
    variance surfaces fitted at them leak that noise into the final
    solve as a small shrinkage toward zero.  ``opts.refine`` extra
    rounds (default one) refit mu and sigma2 at the solved coefficients
    and re-solve, which removes most of the leakage at desk-scale
    sample sizes.  Each estimator refines along its own coefficient
    path: the trial-only fit never sees pooled coefficients, and its
    refits read trial records only.
    """
    unknown = set(which) - {"integrative", "rct", "meta"}
    if unknown:
        raise ValidationError(f"unknown estimators requested: {sorted(unknown)}")
    stage, psi_pre, base, first = _base_stage(data, model, opts, which)
    result = PipelineResult(base, psi_pre)
    # The pooled estimator runs first: its final workspace is then held only
    # across the trial-only refits, which read the trial records alone.
    if "integrative" in first:
        result.integrative, result.nuisances = _refine(first, "integrative", model,
                                                       base, psi_pre, opts)
    if "rct" in first:
        result.rct, result.rct_nuisances = _refine(first, "rct", model, base, psi_pre, opts)
    if "meta" in which:
        result.meta_coef = meta_estimate(data, model, stage.e_fit, stage.designs)
    return result
