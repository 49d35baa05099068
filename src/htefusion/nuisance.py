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

from .errors import NumericalError, ValidationError
from .model import (
    BasisSpec,
    Dataset,
    _expit,
    _on_halves,
    _softplus,
    _take_rows,
    constant_term,
    linear_term,
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


def build_spline_basis(data: Dataset, knots: int = 4) -> BasisSpec:
    """Additive spline basis over all covariates of a dataset.

    Each covariate contributes its linear term plus ``knots`` nonlinear
    pieces with interior knots at equally spaced quantiles and boundary
    knots at the observed minimum and maximum, for a total of
    ``1 + d * (knots + 1)`` columns.  With zero knots the basis
    degenerates to intercept plus linear terms.  A constant covariate
    keeps only its linear term and a warning is recorded.
    """
    if knots < 0:
        raise ValidationError(f"knots must be >= 0, got {knots}")
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
        if knots == 0:
            continue
        qs = np.arange(1, knots + 1) / (knots + 1)
        interior = np.quantile(col, qs)
        edges = np.unique(np.concatenate([[lo], interior, [hi]]))
        if edges.size < 3:
            warnings.warn(
                f"covariate {j + 1} has too few distinct values for spline terms",
                stacklevel=2,
            )
            continue
        if edges.size - 2 < knots:
            warnings.warn(
                f"covariate {j + 1}: tied quantiles reduced its spline terms "
                f"to {edges.size - 2}",
                stacklevel=2,
            )
        for piece in range(edges.size - 2):
            terms.append(spline_term(j, edges, piece))
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
    n, p = design.shape

    def normal_equations(rows):
        part = design[rows]
        return part.T @ part, part.T @ target[rows]

    gram, rhs = _on_halves(normal_equations, n, n * p * p)
    scale = float(np.mean(np.diag(gram)))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    pen = ridge * scale
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

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Fitted values on the rows of ``design``, the basis's design of
        the points to predict at."""
        if design.ndim != 2 or design.shape[1] != self.basis.p:
            raise ValidationError("design does not match the basis")
        eta = design @ self.coef
        if self.link == "logit":
            return _expit(eta)
        return eta


# IRLS stops when a step changes the penalized deviance by less than
# _IRLS_TOL relative to it, and fails after _IRLS_MAX_ITER steps.
_IRLS_MAX_ITER = 100
_IRLS_TOL = 1e-10


def fit_additive(X, y, basis: BasisSpec, link: str = "identity", ridge: float = 1e-6,
                 what: str = "additive regression") -> AdditiveRegressor:
    """Fit an additive regression by penalized LS (identity) or IRLS (logit).

    ``X`` is ``basis``'s design of the records, one row per entry of ``y``.
    ``what`` names the fit in its warnings and errors.
    """
    design = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if design.shape != (y.shape[0], basis.p):
        raise ValidationError("design does not match y and the basis")
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

    # each step runs on the records' halves (model._on_halves), writing only
    # into the weighted copy.  A deviance (n*p multiply-adds and a few passes
    # over n) runs whole: split, it paid only from about 18,000 records at
    # p=26 and 6,000 at p=141 (2 cores)
    n, work = y.shape[0], y.shape[0] * basis.p ** 2
    loss, y_eta = np.empty_like(y), np.empty_like(y)
    r = np.empty_like(design)  # the one weighted copy of the design

    def deviance(c):
        eta = design @ c
        # log(1 + exp(eta)) - y * eta, computed stably in the held buffers
        np.subtract(_softplus(eta, loss), np.multiply(y, eta, out=y_eta), out=loss)
        dev = 2.0 * float(np.sum(loss)) + pen * float(c @ c)
        return dev, eta

    def weighted_normal_equations(rows):
        e, x, rr = eta[rows], design[rows], r[rows]
        prob = _expit(e)
        w = np.maximum(prob * (1.0 - prob), 1e-10)
        z = e + (y[rows] - prob) / w
        np.multiply(x, np.sqrt(w)[:, None], out=rr)
        # rr.T @ rr is one symmetric product: the weighted Gram
        return rr.T @ rr, x.T @ (w * z)

    coef = np.zeros(basis.p)
    dev, eta = deviance(coef)
    eye = np.eye(basis.p)
    for _ in range(_IRLS_MAX_ITER):
        gram, rhs = _on_halves(weighted_normal_equations, n, work)
        try:
            new = np.linalg.solve(gram + pen * eye, rhs)
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


def _source_design(designs: dict, source: int, count: int) -> np.ndarray:
    """The design held for ``source``'s records, of which there are ``count``."""
    design = designs.get(source)
    if design is None or design.shape[0] != count:
        raise ValidationError(f"design does not match the records of source s={source}")
    return design


def _source_rows(designs: dict, sources: np.ndarray, source: int,
                 mask: np.ndarray) -> np.ndarray:
    """Rows ``mask`` of the design held for ``source``'s records."""
    in_source = sources == source
    design = _source_design(designs, source, np.count_nonzero(in_source))
    rows = mask[in_source]
    return design if rows.all() else _take_rows(design, rows)


def _predict_sources(components: dict, s, designs: dict, missing: str) -> np.ndarray:
    """Each source's component on that source's records in ``s``, read
    from ``designs``, their ``source_designs``; a constant reads none."""
    s = np.asarray(s)
    out = np.empty(s.shape[0])
    covered = np.zeros(s.shape[0], dtype=bool)
    for source, component in components.items():
        mask = s == source
        if not mask.any():
            continue
        if np.isscalar(component):
            out[mask] = component
        else:
            out[mask] = component.predict(
                _source_design(designs, source, np.count_nonzero(mask)))
        covered |= mask
    if not covered.all():
        raise ValidationError(missing.format(int(s[np.argmin(covered)])))
    return out


@dataclass
class Propensity:
    """Treatment propensity by source, with symmetric probability clipping."""

    by_source: dict
    clip: float = 0.01

    def predict(self, s, designs: dict) -> np.ndarray:
        """Clipped probabilities of records with sources ``s``; ``designs``
        is their ``source_designs``."""
        return self.clipped(self.predict_raw(s, designs))

    def clipped(self, e: np.ndarray) -> np.ndarray:
        """Raw probabilities ``e`` clipped to ``[clip, 1 - clip]``."""
        return np.clip(e, self.clip, 1.0 - self.clip)

    def predict_raw(self, s, designs: dict) -> np.ndarray:
        """Fitted probabilities without the clip, for callers that want the
        raw inverse weights (the pooled comparator deliberately does)."""
        return _predict_sources(self.by_source, s, designs,
                                "no propensity component for source s={}")


@dataclass
class OutcomeMean:
    """Conditional mean of the pseudo-outcome by source."""

    by_source: dict

    def predict(self, s, designs: dict) -> np.ndarray:
        return _predict_sources(self.by_source, s, designs,
                                "no outcome-mean component for source s={}")


@dataclass
class CellMeans:
    """Conditional outcome means fitted separately in each (a, s) cell."""

    by_cell: dict

    def predict(self, a: int, s: int, design: np.ndarray) -> np.ndarray:
        """The cell's mean on the rows of ``design``, the basis design of
        the points to predict at."""
        key = (int(a), int(s))
        if key not in self.by_cell:
            raise ValidationError(f"no conditional-outcome fit for cell (a={a}, s={s})")
        return self.by_cell[key].predict(design)


@dataclass
class VarianceFunction:
    """Residual variance by (a, s) cell."""

    by_cell: dict

    def predict(self, a: int, s) -> np.ndarray:
        """The arm-``a`` cell variance of records with sources ``s``."""
        cells = {source: var for (arm, source), var in self.by_cell.items() if arm == a}
        return _predict_sources(cells, s, {}, f"no variance fit for cell (a={a}, s={{}})")


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
    return {src: spec.design(data.x[data.block(src)])
            for src in (0, 1) if data.rows(src).any()}


def fit_propensity(data: Dataset, spec: BasisSpec, designs: dict,
                   trial_known: float | None = None, clip_e: float = 0.01,
                   ridge: float = 1e-6) -> Propensity:
    """Fit per-source logistic propensities on the spline basis.

    ``trial_known`` short-circuits the trial fit with a known constant
    randomization probability.  Each fitted source must contain both
    treatment arms; otherwise the logistic fit is hopeless (separation)
    and a validation error is raised.  ``designs`` is
    ``source_designs(data, spec)``.
    """
    if not 0.0 < clip_e < 0.5:
        raise ValidationError(f"clip_e must lie in (0, 0.5), got {clip_e}")
    if trial_known is not None and not 0.0 < trial_known < 1.0:  # also rejects NaN
        raise ValidationError("trial_known must lie in (0, 1)")
    by_source = {}
    for source in (0, 1):
        block = data.block(source)
        a = data.a[block]
        if a.size == 0:
            continue
        if source == 1 and trial_known is not None:
            by_source[1] = float(trial_known)
            continue
        if a.all() or not a.any():
            raise ValidationError(
                f"propensity fit: source s={source} contains a single treatment arm")
        by_source[source] = fit_additive(
            _source_design(designs, source, a.size), a.astype(float),
            spec, link="logit", ridge=ridge, what=f"propensity fit (s={source})",
        )
    if not by_source:
        raise ValidationError("propensity fit: dataset has no usable source")
    return Propensity(by_source, clip=clip_e)


def fit_conditional_outcomes(data: Dataset, spec: BasisSpec, designs: dict,
                             ridge: float = 1e-6) -> CellMeans:
    """Regress the raw outcome on the spline basis within each (a, s) cell.

    ``designs`` is ``source_designs(data, spec)``.
    """
    by_cell = {}
    for s_val in (0, 1):
        for a_val in (0, 1):
            mask = data.rows(s_val, a_val)
            if not mask.any():
                continue
            by_cell[(a_val, s_val)] = fit_additive(
                _source_rows(designs, data.s, s_val, mask), data.y[mask], spec, ridge=ridge,
                what=f"conditional-outcome fit (a={a_val}, s={s_val})",
            )
    if not by_cell:
        raise ValidationError("conditional-outcome fit: no non-empty cells")
    return CellMeans(by_cell)


def fit_outcome_mean(data: Dataset, h: np.ndarray, spec: BasisSpec, designs: dict,
                     ridge: float = 1e-6) -> OutcomeMean:
    """Regress the pseudo-outcome ``h`` of every record on X per source.

    ``run_pipeline`` does not call this: the fit is one linear smoother
    per source, which the pipeline applies to the outcome and the
    coefficient design once instead.  ``designs`` is
    ``source_designs(data, spec)``.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (data.n,):
        raise ValidationError("pseudo-outcomes do not match the number of records")
    by_source = {}
    for source in (0, 1):
        rows = h[data.block(source)]
        if rows.size == 0:
            continue
        by_source[source] = fit_additive(
            _source_design(designs, source, rows.size), rows, spec,
            link="identity", ridge=ridge, what=f"outcome-mean fit (s={source})",
        )
    return OutcomeMean(by_source)


def fit_variance_function(data: Dataset, resid: np.ndarray, *,
                          y_var: float) -> VarianceFunction:
    """The residual variance of each (a, s) cell: its mean squared residual.

    ``resid`` holds every record's centered pseudo-outcome.  One constant
    per cell suffices: any positive variances keep the equations unbiased,
    and a covariate-dependent fit on a few hundred records per cell puts
    noise into the weights.  Each cell is clamped to 1e-4 to 1e4 times
    ``y_var`` (1 when it is not positive), the pooled outcome variance
    even when ``data`` is a subset.
    """
    resid = np.asarray(resid, dtype=float)
    if resid.shape != (data.n,):
        raise ValidationError("residuals do not match the number of records")
    if y_var <= 0.0:
        y_var = 1.0
    by_cell = {}
    for s_val in (0, 1):
        for a_val in (0, 1):
            mask = data.rows(s_val, a_val)
            if mask.any():
                by_cell[(a_val, s_val)] = float(
                    np.clip(np.mean(resid[mask] ** 2), 1e-4 * y_var, 1e4 * y_var))
    if not by_cell:
        raise ValidationError("variance fit: no non-empty cells")
    return VarianceFunction(by_cell)
