"""Reference implementations for the vectorized code.

The package works on whole columns; these scalar versions restate the
defining formulas one record at a time, so tests can check the
vectorized scores and Jacobians against them.  The pseudo-outcome of
every record, checked against the one-record version, feeds the
explicit outcome-mean refits, which are the reference for the
pipeline's profiled solve.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from htefusion import (
    Dataset,
    StructuralModel,
    ValidationError,
    build_workspace,
    solve_integrative,
    solve_rct,
)
from htefusion.inference import _Z95
from htefusion.nuisance import fit_outcome_mean, source_designs
from htefusion.simulation import CellStats


@dataclass(frozen=True)
class UnitRecord:
    """One observation: source flag, treatment arm, outcome, covariates."""

    s: int
    a: int
    y: float
    x: np.ndarray

    def __post_init__(self):
        if self.s not in (0, 1):
            raise ValidationError(f"source flag s must be 0 or 1, got {self.s!r}")
        if self.a not in (0, 1):
            raise ValidationError(f"treatment a must be 0 or 1, got {self.a!r}")
        if not np.isfinite(self.y):
            raise ValidationError(f"outcome y must be finite, got {self.y!r}")
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValidationError("covariate vector x must be 1-d and non-empty")
        if not np.isfinite(x).all():
            raise ValidationError("covariate vector x must be finite")
        object.__setattr__(self, "x", x)


def records(data: Dataset) -> Iterator[UnitRecord]:
    """The records of a dataset, one at a time."""
    for i in range(data.n):
        yield UnitRecord(int(data.s[i]), int(data.a[i]), float(data.y[i]), data.x[i])


def from_records(recs: Iterable[UnitRecord]) -> Dataset:
    """Stack records into a dataset; every record needs the same width."""
    recs = list(recs)
    if not recs:
        raise ValidationError("dataset must contain at least one record")
    d = recs[0].x.size
    for i, r in enumerate(recs):
        if r.x.size != d:
            raise ValidationError(f"record {i} has {r.x.size} covariates, expected {d}")
    return Dataset([r.s for r in recs], [r.a for r in recs], [r.y for r in recs],
                   np.vstack([r.x for r in recs]))


def pseudo_outcome(model: StructuralModel, psi: np.ndarray, rec: UnitRecord,
                   e_hat: float) -> float:
    """H = y - tau(x) * a - (1 - s) * lam(x) * (a - e_hat) for one record,
    with ``psi`` the stacked effect and confounding coefficients."""
    x = rec.x[None, :]
    h = rec.y - float(model.tau_basis.design(x)[0] @ psi[:model.p1]) * rec.a
    if rec.s == 0:
        lam = float(model.lambda_basis.design(x)[0] @ psi[model.p1:])
        h -= lam * (rec.a - float(e_hat))
    return float(h)


def pseudo_outcomes(model: StructuralModel, psi: np.ndarray, data: Dataset,
                    e_hat) -> np.ndarray:
    """H = y - tau(x) * a - (1 - s) * lam(x) * (a - e_hat) for every record,
    with ``e_hat`` aligned with the records.

    On trial records the confounding term vanishes, so H does not depend
    on ``e_hat`` or on the confounding coefficients there, and on a
    dataset of trial records only it is not evaluated: ``psi`` may then
    hold the effect block alone.
    """
    obs = data.n_obs > 0
    design = model.design(data.x) if obs else model.tau_basis.design(data.x)
    p1 = model.p1
    h = data.y - (design[:, :p1] @ psi[:p1]) * data.a
    if not obs:
        return h
    e_hat = np.broadcast_to(np.asarray(e_hat, dtype=float), (data.n,))
    lam_vals = design[:, p1:model.p] @ psi[p1:]
    return h - (1 - data.s) * lam_vals * (data.a - e_hat)


def residual_eps_h(model: StructuralModel, psi: np.ndarray, rec: UnitRecord,
                   e_hat: float, mu_hat: float) -> float:
    """Pseudo-outcome centered at its source-specific conditional mean."""
    return pseudo_outcome(model, psi, rec, e_hat) - float(mu_hat)


def efficient_score(ws, params: np.ndarray, i: int) -> np.ndarray:
    """Score contribution of record ``i`` of a workspace at ``params``."""
    eps = ws.base_resid[i] - ws.resid_design[i] @ params
    return ws.grad[i] * (ws.score_weight[i] * eps)


def score_matrix(ws, params: np.ndarray) -> np.ndarray:
    """Every record's score at ``params`` at once, shape (n, p): the rows of
    ``efficient_score``, whose column means are ``ws.mean_score(params)``."""
    return ws.grad * (ws.score_weight * ws.residuals(params))[:, None]


def score_jacobian(ws, params: np.ndarray, i: int) -> np.ndarray:
    """Derivative of record ``i``'s score in the coefficients.

    The residual is linear in the coefficients, so this does not depend
    on ``params``; the argument is kept for signature symmetry.
    """
    return -ws.score_weight[i] * np.outer(ws.grad[i], ws.resid_design[i])


def gof_statistic(data: Dataset, ws, params: np.ndarray, alt_tau, alt_lambda,
                  efficient_weight: bool = False) -> float:
    """The specification test's statistic, its estimation adjustment solved
    against the bread: the averaged test vector's derivative in the
    coefficients times the bread's inverse, applied to every record's score
    in the (n, p) score matrix."""
    blocks = [alt_tau.design(data.x)] if alt_tau.p else []
    if alt_lambda.p:
        blocks.append((1.0 - data.s)[:, None] * alt_lambda.design(data.x))
    alt = np.hstack(blocks)
    weight = ws.score_weight if efficient_weight else ws.eps_a
    g_mat = alt * (weight * ws.residuals(params))[:, None]
    g_mean = g_mat.mean(axis=0)
    g_jac = -(alt * weight[:, None]).T @ ws.resid_design / ws.n
    adjust = np.linalg.solve(ws.jacobian.T, g_jac.T).T
    corrected = g_mat - score_matrix(ws, params) @ adjust.T
    sigma = corrected.T @ corrected / ws.n
    return float(ws.n * g_mean @ np.linalg.solve(sigma, g_mean))


def natural_cubic_pieces(v: np.ndarray, knots) -> list:
    """The natural cubic spline pieces of ``v`` on ``knots``, one
    expression per step, as ``model._natural_cubic_pieces`` computed them
    before it worked in place: the r-th piece is d_r - d_{L-1} with
    d_j = [(v - t_j)_+^3 - (v - t_L)_+^3] / (t_L - t_j)."""
    t = np.asarray(knots, dtype=float)
    L = t.size - 1
    cube = [r * r * r for r in (np.maximum(v - tj, 0.0) for tj in t)]
    d = [(cube[j] - cube[L]) / (t[L] - t[j]) for j in range(L)]
    return [d[r] - d[L - 1] for r in range(L - 1)]


def logit_irls(design: np.ndarray, y: np.ndarray, ridge: float, tol: float = 1e-10,
               max_iter: int = 100) -> np.ndarray:
    """Coefficients of a ridge-penalized logistic regression of 0/1 ``y`` on
    ``design``, by IRLS with step halving on the penalized deviance, written
    on ``np.logaddexp``.  The penalty is ``ridge`` times the mean squared
    column norm, and the loop stops when a step changes the deviance by less
    than ``tol`` relative to it, as in ``fit_additive``'s logit link.
    """
    pen = ridge * np.linalg.norm(design) ** 2 / design.shape[1]

    def deviance(c):
        eta = design @ c
        return 2.0 * float(np.sum(np.logaddexp(0.0, eta) - y * eta)) + pen * float(c @ c)

    coef = np.zeros(design.shape[1])
    dev = deviance(coef)
    for _ in range(max_iter):
        eta = design @ coef
        with np.errstate(over="ignore"):
            prob = 1.0 / (1.0 + np.exp(-eta))
        w = np.clip(prob * (1.0 - prob), 1e-10, None)
        r = design * np.sqrt(w)[:, None]
        step = np.linalg.solve(r.T @ r + pen * np.eye(coef.size),
                               design.T @ (w * (eta + (y - prob) / w))) - coef
        for halvings in range(30):
            cand = coef + 0.5 ** halvings * step
            dev_new = deviance(cand)
            if dev_new <= dev + 1e-12:
                break
        coef = cand
        if abs(dev - dev_new) < tol * (abs(dev) + 1.0):
            return coef
        dev = dev_new
    raise AssertionError(f"logistic IRLS did not converge in {max_iter} iterations")


def refit_outcome_mean(data: Dataset, model: StructuralModel, e_hat: np.ndarray,
                       v: np.ndarray, spec, ridge: float, trial_only: bool = False,
                       tol: float = 1e-14, max_rounds: int = 200) -> np.ndarray:
    """Solve the equations by explicit outcome-mean refits at fixed variances.

    ``e_hat`` and ``v`` are the propensity and the residual variance of
    both arms on every record.  Starting from zero coefficients, each
    round refits the outcome mean per source at the current coefficients
    (``fit_outcome_mean``) and solves the equations with that plug-in,
    until the coefficients stop moving.  Returns the stacked coefficients
    (the effect block alone with ``trial_only``).
    """
    psi = np.zeros(model.p)
    designs = source_designs(data, spec)
    solve = solve_rct if trial_only else solve_integrative
    for _ in range(max_rounds):
        h = pseudo_outcomes(model, psi, data, e_hat)
        mu = fit_outcome_mean(data, h, spec, designs, ridge=ridge)
        ws = build_workspace(data, model, e=e_hat, mu=mu.predict(data.s, designs), v1=v, v0=v)
        if trial_only:
            ws = ws.trial(data.n_trial)
        new = psi.copy()
        new[:ws.p] = solve(data, ws).psi_hat
        step = np.abs(new - psi).max()
        psi = new
        if step <= tol * (1.0 + np.abs(psi).max()):
            return psi[:ws.p]
    raise AssertionError(f"outcome-mean refits did not converge in {max_rounds} rounds")


def fold_cells(results: list, targets: tuple, estimators: tuple) -> dict:
    """Each estimator's ``CellStats`` per target from replicate results, one
    cell at a time: the points and variances of one estimator at one target
    are gathered across the replicates and reduced as 1-d arrays."""
    reps = len(results)
    cells = {}
    for est in estimators:
        if est not in results[0]["estimates"]:
            continue
        per_est = {}
        for lab, truth in targets:
            pts = np.array([r["estimates"][est][lab][0] for r in results])
            ves = [r["estimates"][est][lab][1] for r in results]
            mc_mean = float(pts.mean())
            mc_var = float(pts.var(ddof=1)) if reps > 1 else None
            if any(v is None for v in ves):
                mean_ve, coverage = None, None
            else:
                ve_arr = np.array(ves, dtype=float)
                half = _Z95 * np.sqrt(ve_arr)
                mean_ve = float(ve_arr.mean())
                coverage = float(np.mean(np.abs(pts - truth) <= half))
            per_est[lab] = CellStats(mc_mean, mc_var, mean_ve, coverage)
        cells[est] = per_est
    return cells
