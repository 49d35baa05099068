"""Sandwich inference, effect summaries, and the specification test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import NumericalError, ValidationError
from .estimators import (
    ScoreWorkspace,
    _check_workspace,
    mean_score_jacobian,
    residuals,
    score_matrix,
)
# Not used here: bench/test_bench.py::test_tracer_restores_every_binding
# checks that the tracer rewraps and restores this binding.
from .estimators import build_workspace  # noqa: F401
from .model import BasisSpec, Dataset, PsiVector, StructuralModel

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
    """Coefficients with their sandwich covariance and its two factors."""

    psi_hat: PsiVector
    cov: np.ndarray
    bread: np.ndarray
    meat: np.ndarray
    n_trial: int
    n_obs: int

    @property
    def n(self) -> int:
        return self.n_trial + self.n_obs

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    @property
    def phi_cov(self) -> np.ndarray:
        p1 = self.psi_hat.phi.size
        return self.cov[:p1, :p1]


@dataclass(frozen=True)
class AteEstimate:
    """Average effect over the observational covariate distribution."""

    tau0_hat: float
    se: float
    pi0_hat: float
    psi0_grad: np.ndarray

    @property
    def lower(self) -> float:
        return self.tau0_hat - _Z95 * self.se

    @property
    def upper(self) -> float:
        return self.tau0_hat + _Z95 * self.se


@dataclass(frozen=True)
class TauCurve:
    """Pointwise effect estimates with Wald 95% bands over a grid."""

    grid: np.ndarray
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


def _require_invertible(mat: np.ndarray, what: str) -> None:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"{what} is numerically singular (condition number {cond:.3g})")


def _solve_square(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    _require_invertible(mat, what)
    return np.linalg.solve(mat, rhs)


def sandwich_covariance(data: Dataset, model: StructuralModel, psi_hat: PsiVector,
                        ws: ScoreWorkspace) -> PsiEstimate:
    """Empirical sandwich covariance at the solved coefficients.

    The bread is the average analytic score Jacobian, the meat the
    average outer product of per-record scores; the covariance is
    bread-inverse times meat times bread-inverse-transpose over the
    number of records entering the equations, symmetrized.  ``ws`` is
    the workspace the solve reported; the trial-only one, without
    confounding columns, gives the covariance of the effect block alone.
    """
    trial_only = _check_workspace(ws, data, model)
    params = psi_hat.phi if trial_only else psi_hat.stacked
    params = np.asarray(params, dtype=float)
    if params.size != ws.p:
        raise ValidationError("coefficient vector does not match the workspace dimension")
    scores = score_matrix(ws, params)
    bread = mean_score_jacobian(ws)
    meat = scores.T @ scores / ws.n
    _require_invertible(bread, "sandwich bread")
    half = np.linalg.solve(bread, meat)
    cov = np.linalg.solve(bread, half.T) / ws.n
    cov = (cov + cov.T) / 2.0
    kept = PsiVector.from_stacked(params, model.p1)  # no confounding block if trial-only
    # n_trial/n_obs describe the dataset the estimate came from, so that
    # precision comparisons between fits on the same data share a scale.
    return PsiEstimate(kept, cov, bread, meat, data.n_trial, data.n_obs)


def tau_curve(model: StructuralModel, est: PsiEstimate, grid, *,
              design: np.ndarray | None = None) -> TauCurve:
    """Effect estimates with standard errors over covariate points; ``design``
    is ``model.tau_basis.design(grid)`` when the caller holds it."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[None, :]
    design = model.tau_basis.design(grid) if design is None else design
    if design.shape != (grid.shape[0], model.p1):
        raise ValidationError("design does not match the grid and the effect basis")
    phi_cov = est.phi_cov
    estimate = design @ est.psi_hat.phi
    var = np.einsum("ij,jk,ik->i", design, phi_cov, design)
    se = np.sqrt(np.clip(var, 0.0, None))
    return TauCurve(grid, estimate, se, estimate - _Z95 * se, estimate + _Z95 * se)


def ate_estimate(data: Dataset, model: StructuralModel, est: PsiEstimate, *,
                 design: np.ndarray | None = None) -> AteEstimate:
    """Average the fitted effect curve over the observational sample.

    The variance combines the spread of the fitted curve over that
    sample with the coefficient uncertainty contracted against the
    average effect-basis row.  ``design`` is ``model.tau_basis.design``
    of the observational records when the caller holds it.
    """
    m = data.n_obs
    if m == 0:
        raise ValidationError("average effect needs observational records")
    design = model.tau_basis.design(data.x[data.rows(0)]) if design is None else design
    if design.shape != (m, model.p1):
        raise ValidationError("design does not match the records and the effect basis")
    tau_vals = design @ est.psi_hat.phi
    grad0 = design.mean(axis=0)
    tau0 = float(tau_vals.mean())
    pi0 = m / data.n
    spread = float(np.var(tau_vals, ddof=1)) if m > 1 else 0.0
    var = spread / (pi0 * data.n) + float(grad0 @ est.phi_cov @ grad0)
    return AteEstimate(tau0, float(np.sqrt(max(var, 0.0))), pi0, grad0)


def precision_gain(est_int: PsiEstimate, est_rct: PsiEstimate) -> GainReport:
    """Difference of scaled precision matrices for the effect block.

    Both covariances are put on the same root-n scale using each
    estimate's total record count before inversion.  Identical inputs
    give an exact zero matrix; a positive semidefinite gain reflects the
    efficiency of pooling the observational records.
    """
    p1 = est_int.psi_hat.phi.size
    if est_rct.psi_hat.phi.size != p1:
        raise ValidationError("effect blocks have different dimensions")
    eye = np.eye(p1)
    prec_int = _solve_square(est_int.n * est_int.phi_cov, eye, "integrative covariance")
    prec_rct = _solve_square(est_rct.n * est_rct.phi_cov, eye, "trial-only covariance")
    gain = prec_int - prec_rct
    min_eig = float(np.linalg.eigvalsh((gain + gain.T) / 2.0).min())
    return GainReport(prec_int, prec_rct, gain, min_eig)


def gof_test(data: Dataset, model: StructuralModel, est: PsiEstimate, ws: ScoreWorkspace,
             alt_tau: BasisSpec, alt_lambda: BasisSpec,
             efficient_weight: bool = False) -> GofResult:
    """Score-type test of the working effect and confounding models.

    ``alt_tau`` and ``alt_lambda`` hold directions of departure not
    spanned by the fitted bases (supplying spanned terms costs power but
    stays valid).  Each alternative column is paired with the treatment
    residual (or, with ``efficient_weight``, the variance-weighted
    centered treatment) times the centered pseudo-outcome; the averaged
    vector is compared against its estimation-adjusted covariance on a
    chi-square scale with one degree of freedom per alternative column.
    ``ws`` is the pooled workspace the solve reported.
    """
    q1, q2 = alt_tau.p, alt_lambda.p
    if q1 + q2 < 1:
        raise ValidationError("the specification test needs at least one alternative term")
    if _check_workspace(ws, data, model):
        raise ValidationError("the specification test needs the pooled workspace")
    params = est.psi_hat.stacked
    if params.size != ws.p:
        raise ValidationError("coefficient vector does not match the workspace dimension")
    blocks = []
    if q1:
        blocks.append(alt_tau.design(data.x))
    if q2:
        blocks.append((1.0 - data.s)[:, None] * alt_lambda.design(data.x))
    alt = np.hstack(blocks)
    weight = ws.score_weight if efficient_weight else ws.eps_a
    eps = residuals(ws, params)
    g_mat = alt * (weight * eps)[:, None]
    g_mean = g_mat.mean(axis=0)
    # derivative of the averaged test vector in the coefficients
    g_jac = -(alt * weight[:, None]).T @ ws.resid_design / ws.n
    adjust = _solve_square(est.bread.T, g_jac.T, "estimating-equation bread").T
    # the scores' projection without the (n, p) score matrix: each score
    # row is its gradient row times one scalar
    corrected = g_mat - (ws.grad @ adjust.T) * (ws.score_weight * eps)[:, None]
    sigma = corrected.T @ corrected / ws.n
    t_stat = float(ws.n * g_mean @ _solve_square(sigma, g_mean, "test covariance"))
    df = q1 + q2
    return GofResult(t_stat, df, float(stats.chi2.sf(t_stat, df)))
