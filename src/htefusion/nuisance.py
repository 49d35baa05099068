"""Nuisance-function estimation.

The propensity scores and outcome means are fitted as additive natural
cubic spline regressions with a small ridge penalty: penalized least
squares for identity links and penalized IRLS for the logistic link.
The residual variance is one mean square per (arm, source) cell.  The
fits are deterministic given the data and settings; refitting
reproduces coefficients bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NumericalError, ValidationError
from .model import (
    BasisSpec,
    Dataset,
    PsiVector,
    StructuralModel,
    _take_rows,
    constant_term,
    linear_term,
    pseudo_outcomes,
    spline_term,
)

__all__ = [
    "build_spline_basis",
    "AdditiveRegressor",
    "Propensity",
    "OutcomeMean",
    "CellMeans",
    "VarianceFunction",
    "NuisanceValues",
    "fit_additive",
    "fit_propensity",
    "fit_conditional_outcomes",
    "fit_outcome_mean",
    "fit_variance_function",
]


def build_spline_basis(data: Dataset, knots_per_covariate: int = 4) -> BasisSpec:
    """Additive spline basis over all covariates of a dataset.

    Each covariate contributes its linear term plus ``knots_per_covariate``
    nonlinear pieces with interior knots at equally spaced quantiles and
    boundary knots at the observed minimum and maximum, for a total of
    ``1 + d * (knots_per_covariate + 1)`` columns.  With zero knots the
    basis degenerates to intercept plus linear terms.  A constant
    covariate keeps only its linear term and a warning is recorded.
    """
    if knots_per_covariate < 0:
        raise ValidationError("knots_per_covariate must be >= 0")
    terms = [constant_term()]
    for j in range(data.d):
        col = data.x[:, j]
        lo, hi = float(col.min()), float(col.max())
        if lo == hi:
            warnings.warn(
                f"covariate {j + 1} is constant; keeping only its linear term",
                stacklevel=2,
            )
            terms.append(linear_term(j))
            continue
        terms.append(linear_term(j))
        if knots_per_covariate == 0:
            continue
        qs = np.arange(1, knots_per_covariate + 1) / (knots_per_covariate + 1)
        interior = np.quantile(col, qs)
        knots = np.unique(np.concatenate([[lo], interior, [hi]]))
        if knots.size < 3:
            warnings.warn(
                f"covariate {j + 1} has too few distinct values for spline terms",
                stacklevel=2,
            )
            continue
        if knots.size - 2 < knots_per_covariate:
            warnings.warn(
                f"covariate {j + 1}: tied quantiles reduced its spline terms "
                f"to {knots.size - 2}",
                stacklevel=2,
            )
        for piece in range(knots.size - 2):
            terms.append(spline_term(j, knots, piece))
    return BasisSpec(tuple(terms))


def _solve_penalized(design: np.ndarray, target: np.ndarray, ridge: float,
                     what: str = "additive regression") -> np.ndarray:
    """Ridge-penalized least squares via the normal equations.

    The penalty is ``ridge`` times the mean diagonal of the Gram matrix,
    applied to every coefficient; ``ridge=0`` gives plain least squares.
    If the system is numerically singular the penalty is escalated a
    hundredfold with a warning that names the fit, ``what``.  Without a
    penalty, an exactly singular system can still solve to finite numbers
    that split collinear coefficients arbitrarily, so its rank is checked
    first; the penalized fits, whose systems the ridge keeps regular, skip
    that check.
    """
    gram = design.T @ design
    rhs = design.T @ target
    scale = float(np.mean(np.diag(gram)))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    pen = ridge * scale
    p = design.shape[1]
    eye = np.eye(p)
    first = 0
    if pen == 0.0 and np.linalg.matrix_rank(gram) < p:
        first, pen = 1, 1e-10 * scale  # the first escalation below
        # collinear columns split evenly only if their right-hand sides are
        # equal, which one symmetric product over [design, target] ensures
        aug = np.column_stack((design, target))
        full = aug.T @ aug
        gram, rhs = full[:p, :p], full[:p, p:].reshape(rhs.shape)
    for attempt in range(first, 3):
        try:
            coef = np.linalg.solve(gram + pen * eye, rhs)
        except np.linalg.LinAlgError:
            coef = None
        if coef is not None and np.isfinite(coef).all():
            if attempt > 0:
                warnings.warn(
                    f"{what}: singular normal equations; solved with an escalated ridge",
                    stacklevel=3,
                )
            return coef
        pen = max(pen * 100.0, 1e-10 * scale)
    raise NumericalError(
        f"{what}: normal equations remained singular despite ridge escalation"
    )


@dataclass
class AdditiveRegressor:
    """A fitted basis-expansion regression with an identity or logit link."""

    basis: BasisSpec
    coef: np.ndarray
    link: str = "identity"

    def predict(self, X, design: np.ndarray | None = None) -> np.ndarray:
        """Fitted values at ``X``; ``design`` is ``basis.design(X)`` when the
        caller already holds it, and ``X`` is then read for its row count
        only (it may be the design itself)."""
        X = np.asarray(X, dtype=float)
        if design is None:
            design = self.basis.design(X)
        elif design.shape != (X.shape[0], self.basis.p):
            raise ValidationError("design does not match X and the basis")
        eta = design @ self.coef
        if self.link == "logit":
            return expit(eta)
        return eta


# IRLS stops when a step changes the penalized deviance by less than
# _IRLS_TOL relative to it, and fails after _IRLS_MAX_ITER steps.
_IRLS_MAX_ITER = 100
_IRLS_TOL = 1e-10


def fit_additive(X, y, basis: BasisSpec, link: str = "identity", ridge: float = 1e-6,
                 design: np.ndarray | None = None,
                 what: str = "additive regression") -> AdditiveRegressor:
    """Fit an additive regression by penalized LS (identity) or IRLS (logit).

    ``design`` is ``basis.design(X)`` when the caller already holds it;
    ``X`` is then read for its row count only, and may be the design itself.
    ``what`` names the fit in its warnings and errors.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValidationError("X and y must have the same number of rows")
    if design is None:
        design = basis.design(X)
    elif design.shape != (X.shape[0], basis.p):
        raise ValidationError("design does not match X and the basis")
    if link == "identity":
        coef = _solve_penalized(design, y, ridge, what)
        return AdditiveRegressor(basis, coef, "identity")
    if link != "logit":
        raise ValidationError(f"unknown link {link!r}")

    # IRLS with step halving on the penalized deviance; the penalty scales
    # with the mean squared column norm.
    scale = float(np.linalg.norm(design) ** 2 / basis.p)
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    pen = ridge * scale

    def deviance(c):
        eta = design @ c
        # log(1 + exp(eta)) - y * eta, computed stably
        dev = 2.0 * float(np.sum(np.logaddexp(0.0, eta) - y * eta)) + pen * float(c @ c)
        return dev, eta

    coef = np.zeros(basis.p)
    dev, eta = deviance(coef)
    eye = np.eye(basis.p)
    r = np.empty_like(design)  # the one weighted copy of the design
    for _ in range(_IRLS_MAX_ITER):
        prob = expit(eta)
        w = np.clip(prob * (1.0 - prob), 1e-10, None)
        z = eta + (y - prob) / w
        np.multiply(design, np.sqrt(w)[:, None], out=r)
        try:  # r.T @ r is one symmetric product: the weighted Gram
            new = np.linalg.solve(r.T @ r + pen * eye, design.T @ (w * z))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{what}: IRLS update produced a singular system: {exc}")
        step = new - coef
        t = 1.0
        for _ in range(30):
            cand = coef + t * step
            dev_new, eta_new = deviance(cand)
            if np.isfinite(dev_new) and dev_new <= dev + 1e-12:
                break
            t *= 0.5
        else:
            raise NumericalError(f"{what}: IRLS step halving failed to reduce the deviance")
        coef, eta = cand, eta_new  # the accepted candidate's eta starts the next step
        if abs(dev - dev_new) < _IRLS_TOL * (abs(dev) + 1.0):
            return AdditiveRegressor(basis, coef, "logit")
        dev = dev_new
    raise NumericalError(
        f"{what}: IRLS did not converge in {_IRLS_MAX_ITER} iterations (last deviance {dev:.6g})"
    )


def _source_rows(designs: dict, sources: np.ndarray, source: int,
                 mask: np.ndarray) -> np.ndarray:
    """Rows ``mask`` of the design held for ``source``'s records."""
    in_source = sources == source
    design = designs.get(source)
    if design is None or design.shape[0] != np.count_nonzero(in_source):
        raise ValidationError(f"design does not match the records of source s={source}")
    rows = mask[in_source]
    return design if rows.all() else _take_rows(design, rows)


def _predict_cells(components: dict, X, labels: tuple, missing: str,
                   designs: dict | None = None) -> np.ndarray:
    """Evaluate each component on the rows whose labels equal its key.

    ``labels`` holds one per-record column per key part: the source, or
    the arm and the source, which comes last.  Rows are selected with one
    mask per key; a row that no key matches raises ``missing`` filled
    with its labels.  A constant component reads no covariates.
    ``designs`` maps each source to the components' design over that
    source's records, in order, when the caller holds it; each fitted
    component then reads its own rows of it, not of ``X``.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    labels = [np.broadcast_to(np.asarray(col), (n,)) for col in labels]
    out = np.empty(n)
    covered = np.zeros(n, dtype=bool)
    for key, component in components.items():
        key = key if isinstance(key, tuple) else (key,)
        mask = labels[0] == key[0]
        for col, part in zip(labels[1:], key[1:]):
            mask &= col == part
        if not mask.any():
            continue
        if np.isscalar(component):
            out[mask] = component
        else:
            design = None
            if designs is not None:
                design = _source_rows(designs, labels[-1], key[-1], mask)
            out[mask] = component.predict(X[mask] if design is None else design, design)
        covered |= mask
    if not covered.all():
        row = int(np.argmin(covered))
        raise ValidationError(missing.format(*(int(col[row]) for col in labels)))
    return out


@dataclass
class Propensity:
    """Treatment propensity by source, with symmetric probability clipping."""

    by_source: dict
    clip: float = 0.01

    def predict(self, X, s, designs: dict | None = None) -> np.ndarray:
        """Clipped probabilities; ``designs`` is ``source_designs`` of the
        records when the caller holds it."""
        return np.clip(self.predict_raw(X, s, designs), self.clip, 1.0 - self.clip)

    def predict_raw(self, X, s, designs: dict | None = None) -> np.ndarray:
        """Fitted probabilities without the clip, for callers that want the
        raw inverse weights (the pooled comparator deliberately does)."""
        return _predict_cells(self.by_source, X, (s,),
                              "no propensity component for source s={}", designs)


@dataclass
class OutcomeMean:
    """Conditional mean of the pseudo-outcome by source."""

    by_source: dict

    def predict(self, X, s, designs: dict | None = None) -> np.ndarray:
        return _predict_cells(self.by_source, X, (s,),
                              "no outcome-mean component for source s={}", designs)


@dataclass
class CellMeans:
    """Conditional outcome means fitted separately in each (a, s) cell."""

    by_cell: dict

    def predict(self, a: int, s: int, X, design: np.ndarray | None = None) -> np.ndarray:
        """The cell's mean at ``X``; ``design`` is the basis design of ``X``
        when the caller holds it."""
        key = (int(a), int(s))
        if key not in self.by_cell:
            raise ValidationError(f"no conditional-outcome fit for cell (a={a}, s={s})")
        return self.by_cell[key].predict(X, design)


@dataclass
class VarianceFunction:
    """Residual variance by (a, s) cell, clamped to fixed bounds."""

    by_cell: dict
    bounds: tuple

    def predict(self, a, X, s) -> np.ndarray:
        """Each record's cell variance; ``X`` is read for its row count."""
        out = _predict_cells(self.by_cell, X, (a, s),
                             "no variance fit for cell (a={}, s={})")
        return np.clip(out, self.bounds[0], self.bounds[1])


@dataclass(frozen=True)
class NuisanceValues:
    """The nuisances evaluated on every record of one dataset.

    ``e`` is the clipped propensity, ``mu`` the pseudo-outcome mean, and
    ``v1``/``v0`` the residual variances of the treated and untreated arm
    at each record's covariates and source.  Known surfaces enter the
    estimating equations as their values here.
    """

    e: np.ndarray
    mu: np.ndarray
    v1: np.ndarray
    v0: np.ndarray


def source_designs(data: Dataset, spec: BasisSpec) -> dict:
    """``spec``'s design over each source's records, keyed by source.

    The nuisance fits and in-sample predictions of a whole fit share
    these rather than rebuilding the same columns per call.
    """
    return {src: spec.design(data.x[data.rows(src)])
            for src in (0, 1) if data.rows(src).any()}


def _stage_inputs(designs: dict | None, data: Dataset, source: int,
                  arm: int | None = None) -> tuple:
    """(X, design) of one source's records, or of one (arm, source) cell;
    with held ``designs`` the design's rows stand in for the uncopied X."""
    mask = data.rows(source, arm)
    if designs is None:
        return data.x[mask], None
    design = _source_rows(designs, data.s, source, mask)
    return design, design


def _require_both_arms(data: Dataset, source: int, context: str):
    if not (data.rows(source, 0).any() and data.rows(source, 1).any()):
        raise ValidationError(
            f"{context}: source s={source} contains a single treatment arm"
        )


def fit_propensity(data: Dataset, spec: BasisSpec, trial_known: float | None = None,
                   clip: float = 0.01, ridge: float = 1e-6,
                   designs: dict | None = None) -> Propensity:
    """Fit per-source logistic propensities on the spline basis.

    ``trial_known`` short-circuits the trial fit with a known constant
    randomization probability.  Each fitted source must contain both
    treatment arms; otherwise the logistic fit is hopeless (separation)
    and a validation error is raised.  ``designs`` is
    ``source_designs(data, spec)`` when the caller holds it.
    """
    if not 0.0 < clip < 0.5:
        raise ValidationError("clip must lie in (0, 0.5)")
    by_source = {}
    for source in (0, 1):
        mask = data.rows(source)
        if not mask.any():
            continue
        if source == 1 and trial_known is not None:
            if not 0.0 < trial_known < 1.0:
                raise ValidationError("trial_known must lie in (0, 1)")
            by_source[1] = float(trial_known)
            continue
        _require_both_arms(data, source, "propensity fit")
        X, design = _stage_inputs(designs, data, source)
        by_source[source] = fit_additive(
            X, data.a[mask].astype(float), spec, link="logit", ridge=ridge,
            design=design, what=f"propensity fit (s={source})",
        )
    if not by_source:
        raise ValidationError("propensity fit: dataset has no usable source")
    return Propensity(by_source, clip=clip)


def fit_conditional_outcomes(data: Dataset, spec: BasisSpec, ridge: float = 1e-6,
                             designs: dict | None = None) -> CellMeans:
    """Regress the raw outcome on the spline basis within each (a, s) cell.

    ``designs`` is ``source_designs(data, spec)`` when the caller holds it.
    """
    by_cell = {}
    for s_val in (0, 1):
        for a_val in (0, 1):
            mask = data.rows(s_val, a_val)
            if not mask.any():
                continue
            X, design = _stage_inputs(designs, data, s_val, a_val)
            by_cell[(a_val, s_val)] = fit_additive(
                X, data.y[mask], spec, link="identity", ridge=ridge, design=design,
                what=f"conditional-outcome fit (a={a_val}, s={s_val})",
            )
    if not by_cell:
        raise ValidationError("conditional-outcome fit: no non-empty cells")
    return CellMeans(by_cell)


def fit_outcome_mean(data: Dataset, model: StructuralModel, psi_pre: PsiVector,
                     e_fit: Propensity, spec: BasisSpec, ridge: float = 1e-6, *,
                     designs: dict | None = None,
                     h: np.ndarray | None = None) -> OutcomeMean:
    """Regress the pseudo-outcome at ``psi_pre`` on X per source.

    ``run_pipeline`` does not call this: the fit is one linear smoother
    per source, which the pipeline applies to the outcome and the
    coefficient design once instead.  ``designs`` is
    ``source_designs(data, spec)``, and ``h`` is the pseudo-outcome of
    every record at ``psi_pre`` and ``e_fit``, when the caller holds them.
    """
    if h is None:
        h = pseudo_outcomes(model, psi_pre, data, e_fit.predict(data.x, data.s))
    by_source = {}
    for source in (0, 1):
        mask = data.rows(source)
        if not mask.any():
            continue
        X, design = _stage_inputs(designs, data, source)
        by_source[source] = fit_additive(
            X, h[mask], spec, link="identity", ridge=ridge, design=design,
            what=f"outcome-mean fit (s={source})",
        )
    return OutcomeMean(by_source)


def fit_variance_function(data: Dataset, resid: np.ndarray,
                          rel_bounds: tuple = (1e-4, 1e4), *,
                          y_var: float | None = None) -> VarianceFunction:
    """The residual variance of each (a, s) cell: its mean squared residual.

    ``resid`` holds every record's centered pseudo-outcome.  One constant
    per cell suffices: any positive variances keep the equations unbiased,
    and a covariate-dependent fit on a few hundred records per cell puts
    noise into the weights.  Predictions are clamped to ``rel_bounds``
    times ``y_var``, by default the variance of the outcomes in ``data``;
    a fit on a subset passes the pooled one.
    """
    resid = np.asarray(resid, dtype=float)
    if resid.shape != (data.n,):
        raise ValidationError("residuals do not match the number of records")
    if y_var is None:
        y_var = float(np.var(data.y))
    if y_var <= 0.0:
        y_var = 1.0
    bounds = (rel_bounds[0] * y_var, rel_bounds[1] * y_var)
    by_cell = {}
    for s_val in (0, 1):
        for a_val in (0, 1):
            mask = data.rows(s_val, a_val)
            if mask.any():
                by_cell[(a_val, s_val)] = float(np.mean(resid[mask] ** 2))
    if not by_cell:
        raise ValidationError("variance fit: no non-empty cells")
    return VarianceFunction(by_cell, bounds)
