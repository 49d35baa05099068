"""Sandwich inference, effect summaries, and the specification test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .estimators import PipelineResult, ScoreWorkspace, _check_workspace
# Not used here: bench/test_bench.py::test_tracer_restores_every_binding
# checks that the tracer rewraps and restores this binding.
from .estimators import build_workspace  # noqa: F401
from .model import BasisSpec, Dataset

__all__ = [
    "PsiEstimate",
    "AteEstimate",
    "TauCurve",
    "GainReport",
    "GofResult",
    "sandwich_covariance",
    "tau_curve",
    "ate_estimate",
    "precision_gain",
    "gof_test",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class PsiEstimate:
    """Coefficients with their sandwich covariance and influence rows.

    ``psi_hat`` stacks the ``p1`` effect coefficients, then the
    confounding ones (none for the trial-only fit).  ``influence`` has a
    row ``-J^-1 s_i`` per record in the equations (score ``s_i``, bread ``J``).
    """

    psi_hat: np.ndarray
    p1: int
    cov: np.ndarray
    influence: np.ndarray
    n_trial: int
    n_obs: int

    @property
    def n(self) -> int:
        return self.n_trial + self.n_obs

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    @property
    def phi(self) -> np.ndarray:
        return self.psi_hat[:self.p1]

    @property
    def lam(self) -> np.ndarray:
        return self.psi_hat[self.p1:]

    @property
    def phi_cov(self) -> np.ndarray:
        return self.cov[:self.p1, :self.p1]


@dataclass(frozen=True)
class AteEstimate:
    """Average effect over the observational covariate distribution."""

    tau0_hat: float
    se: float
    pi0_hat: float

    @property
    def lower(self) -> float:
        return self.tau0_hat - _Z95 * self.se

    @property
    def upper(self) -> float:
        return self.tau0_hat + _Z95 * self.se


@dataclass(frozen=True)
class TauCurve:
    """Pointwise effect estimates with Wald 95% bands at covariate points."""

    estimate: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class GainReport:
    """Precision comparison between the pooled and trial-only fits."""

    precision_integrative: np.ndarray
    precision_rct: np.ndarray
    gain: np.ndarray
    min_eigenvalue: float


@dataclass(frozen=True)
class GofResult:
    """Score-type specification test summary."""

    t_stat: float
    df: int
    p_value: float


def _solve_square(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    try:  # the SVD behind cond may fail to converge on a NaN entry, not return inf
        cond = np.linalg.cond(mat) if np.isfinite(mat).all() else np.inf
        if cond <= 1e12:
            return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} could not be solved ({exc})") from None
    raise NumericalError(f"{what} is numerically singular (condition number {cond:.3g})")


def _coefficients(values, p: int) -> np.ndarray:
    """``values`` as a float vector of ``p`` finite coefficients."""
    vec = np.asarray(values, dtype=float)
    if vec.shape != (p,) or not np.isfinite(vec).all():
        raise ValidationError(f"coefficients must be a vector of {p} finite numbers, "
                              f"got shape {vec.shape}")
    return vec


def sandwich_covariance(data: Dataset, psi_hat: np.ndarray, ws: ScoreWorkspace) -> PsiEstimate:
    """Empirical sandwich covariance at the solved coefficients.

    Each record's influence row is ``-J^-1 s_i``, with ``J`` the bread
    ``ws.jacobian`` and ``s_i`` the record's score; the covariance is the
    rows' outer-product sum over the squared number of records in the
    equations.  ``ws`` is the workspace the solve reported and ``psi_hat``
    its solution; the trial-only workspace, without confounding columns,
    gives the covariance of the effect block alone.
    """
    _check_workspace(ws, data, "sandwich covariance")
    params = _coefficients(psi_hat, ws.p)
    # formed as its transpose, so that the rows come out column-major, like ``grad``
    influence = (_solve_square(-ws.jacobian, np.eye(ws.p), "sandwich bread") @ ws.grad.T).T
    # a score row is its gradient row times one scalar: no (n, p) score matrix
    influence *= (ws.score_weight * ws.residuals(params))[:, None]
    cov = influence.T @ influence / ws.n ** 2
    # n_trial/n_obs describe the dataset the estimate came from, so that
    # precision comparisons between fits on the same data share a scale.
    return PsiEstimate(params, ws.p1, cov, influence, data.n_trial, data.n_obs)


def tau_curve(est: PsiEstimate, design: np.ndarray) -> TauCurve:
    """Effect estimates with standard errors at covariate points, from their
    effect-basis rows ``design`` (``model.tau_basis.design(points)``)."""
    if design.shape[1:] != (est.p1,):
        raise ValidationError("design does not match the effect basis")
    estimate = design @ est.phi
    var = np.einsum("ij,jk,ik->i", design, est.phi_cov, design)
    se = np.sqrt(np.clip(var, 0.0, None))
    if not (np.isfinite(estimate).all() and np.isfinite(se).all()):
        raise NumericalError("the effect curve or its standard error is not finite "
                             "at a probe point")
    return TauCurve(estimate, se, estimate - _Z95 * se, estimate + _Z95 * se)


def ate_estimate(est: PsiEstimate, design: np.ndarray) -> AteEstimate:
    """Average the fitted effect curve over the observational sample.

    The variance combines the spread of the fitted curve over that
    sample with the coefficient uncertainty contracted against the
    average effect-basis row.  ``design`` is the effect basis on the
    observational records ``est`` was fitted on: those rows of the fit's
    ``effect_design``.
    """
    m = est.n_obs
    if m == 0:
        raise ValidationError("average effect needs observational records")
    if design.shape != (m, est.p1):
        raise ValidationError("design does not match the records and the effect basis")
    tau_vals = design @ est.phi
    grad0 = design.mean(axis=0)
    tau0 = float(tau_vals.mean())
    pi0 = m / est.n
    spread = float(np.var(tau_vals, ddof=1)) if m > 1 else 0.0
    var = spread / (pi0 * est.n) + float(grad0 @ est.phi_cov @ grad0)
    return AteEstimate(tau0, math.sqrt(max(var, 0.0)), pi0)


def precision_gain(est_int: PsiEstimate, est_rct: PsiEstimate) -> GainReport:
    """Difference of scaled precision matrices for the effect block.

    Both estimates must come from the same dataset (the trial-only one's
    sandwich too is taken on the pooled data), whose total record count puts
    both covariances on one root-n scale before inversion.  Identical inputs
    give an exact zero matrix; a positive semidefinite gain reflects the
    efficiency of pooling the observational records.
    """
    p1 = est_int.p1
    if est_rct.p1 != p1:
        raise ValidationError("effect blocks have different dimensions")
    counts = [(est.n_trial, est.n_obs) for est in (est_int, est_rct)]
    if counts[0] != counts[1]:
        raise ValidationError(f"the estimates come from different datasets: (trial, cohort) "
                              f"records {counts[0]} and {counts[1]}")
    eye = np.eye(p1)
    prec_int = _solve_square(est_int.n * est_int.phi_cov, eye, "integrative covariance")
    prec_rct = _solve_square(est_rct.n * est_rct.phi_cov, eye, "trial-only covariance")
    gain = prec_int - prec_rct
    min_eig = float(np.linalg.eigvalsh((gain + gain.T) / 2.0).min())
    return GainReport(prec_int, prec_rct, gain, min_eig)


def gof_test(data: Dataset, est: PsiEstimate, ws: ScoreWorkspace, alt_tau: BasisSpec,
             alt_lambda: BasisSpec, efficient_weight: bool = False) -> GofResult:
    """Score-type test of the working effect and confounding models.

    ``alt_tau`` and ``alt_lambda`` hold directions of departure not
    spanned by the fitted bases (supplying spanned terms costs power but
    stays valid).  Each alternative column is paired with the treatment
    residual (or, with ``efficient_weight``, the variance-weighted
    centered treatment) times the centered pseudo-outcome; the averaged
    vector is compared against its estimation-adjusted covariance on a
    chi-square scale with one degree of freedom per alternative column.
    ``est`` is the sandwich on ``ws``, the pooled workspace the solve
    reported; its influence rows adjust for the estimated coefficients.
    """
    q1, q2 = alt_tau.p, alt_lambda.p
    if q1 + q2 < 1:
        raise ValidationError("the specification test needs at least one alternative term")
    _check_workspace(ws, data, "the specification test", trial_only=False)
    params = _coefficients(est.psi_hat, ws.p)
    if est.influence.shape != (ws.n, ws.p):
        raise ValidationError(f"the estimate does not match the workspace: influence has "
                              f"shape {est.influence.shape}, not {(ws.n, ws.p)}")
    alt = BasisSpec(alt_tau.terms + alt_lambda.terms).design(data.x)
    alt[:data.n_trial, q1:] = 0.0  # the confounding alternatives act on cohort rows
    weight = ws.score_weight if efficient_weight else ws.eps_a
    g_mat = alt * (weight * ws.residuals(params))[:, None]
    g_mean = g_mat.mean(axis=0)
    # derivative of the averaged test vector in the coefficients
    g_jac = -(alt * weight[:, None]).T @ ws.resid_design / ws.n
    corrected = g_mat + est.influence @ g_jac.T
    sigma = corrected.T @ corrected / ws.n
    t_stat = float(ws.n * g_mean @ _solve_square(sigma, g_mean, "test covariance"))
    df = q1 + q2
    return GofResult(t_stat, df, _chi2_sf(t_stat, df))


def _summaries(data: Dataset, fit: PipelineResult, probe: np.ndarray, alt_tau: BasisSpec,
               alt_lambda: BasisSpec, efficient_weight: bool) -> dict:
    """Each estimator in ``fit`` mapped to its summaries, over the fit's effect design.

    The integrative and trial-only fits get ``est``, ``curve`` at the probe points
    whose effect-basis rows are ``probe``, ``ate`` when there are cohort records
    and, for the integrative fit given an alternative term, ``gof``.  The
    comparator gets its values alone: ``curve`` as an array and ``ate`` as a float.
    """
    obs = fit.effect_design[data.block(0)] if data.n_obs else None
    out = {}
    for name, rep in (("integrative", fit.integrative), ("rct", fit.rct)):
        if rep is None:
            continue
        est = sandwich_covariance(data, rep.psi_hat, rep.workspace)
        out[name] = got = {"est": est, "curve": tau_curve(est, probe)}
        if obs is not None:
            got["ate"] = ate_estimate(est, obs)
        if name == "integrative" and alt_tau.p + alt_lambda.p:
            got["gof"] = gof_test(data, est, rep.workspace, alt_tau, alt_lambda,
                                  efficient_weight=efficient_weight)
    if fit.meta_coef is not None:
        out["meta"] = got = {"curve": probe @ fit.meta_coef}
        if obs is not None:
            got["ate"] = float((obs @ fit.meta_coef).mean())
    return out


def _chi2_sf(t: float, df: int) -> float:
    """Upper tail probability of a chi-square with integer ``df`` at ``t``.

    This is the regularized upper incomplete gamma Q(df/2, t/2), summed as
    positive terms so that nothing cancels.  With x = t/2 and k = df/2,
    Q = sum_{j<k} e^-x x^j / j! for even df, and Q = erfc(sqrt x) +
    sum_{j<k-1/2} e^-x x^(j+1/2) / Gamma(j+3/2) for odd df.
    """
    if math.isnan(t):
        return math.nan
    if t <= 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    x = t / 2.0
    log_x = math.log(x)
    if df % 2 == 0:
        terms = [math.exp(-x + j * log_x - math.lgamma(j + 1.0)) for j in range(df // 2)]
    else:
        terms = [math.erfc(math.sqrt(x))]
        terms += [math.exp(-x + (j + 0.5) * log_x - math.lgamma(j + 1.5))
                  for j in range(df // 2)]
    return math.fsum(terms)
