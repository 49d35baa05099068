"""Nuisance-function estimation.

The propensity scores and outcome means are fitted as additive natural
cubic spline regressions with a small ridge penalty: penalized least
squares for identity links and penalized IRLS for the logistic link.
The residual variance is one mean square per (arm, source) cell.  The
fits are deterministic given the data and settings; refitting
reproduces coefficients bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import (
    BasisSpec,
    Dataset,
    _expit,
    _softplus,
    constant_term,
    linear_term,
    spline_term,
)

__all__ = [
    "build_spline_basis",
    "AdditiveRegressor",
    "Propensity",
    "VarianceFunction",
    "fit_additive",
    "fit_propensity",
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

    All of a covariate's knots are read from one sort of its column, by
    ``np.quantile``'s default linear rule, so they equal its quantiles bit
    for bit at a fraction of their cost: ``np.quantile`` partitions a copy
    of the column at each of its ``2 * knots + 2`` ranks.
    """
    if knots < 0:
        raise ValidationError(f"knots must be >= 0, got {knots}")
    qs = np.arange(1, knots + 1) / (knots + 1)
    terms = [constant_term()]
    for j in range(data.d):
        col = data.x[:, j]
        if knots:
            col = np.sort(col)
            lo, hi = float(col[0]), float(col[-1])
        else:
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
        edges = np.unique(np.concatenate([[lo], _sorted_quantiles(col, qs), [hi]]))
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


def _sorted_quantiles(srt: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(col, qs)`` read from ``srt``, the sorted column: the
    same linear interpolation between neighbouring order statistics,
    operation for operation, so the same bits."""
    last = srt.size - 1
    virtual = last * qs
    below = np.floor(virtual)
    gamma = virtual - below
    at = below.astype(np.intp)
    prev, nxt = srt[at], srt[np.minimum(at + 1, last)]
    diff = nxt - prev
    return np.where(gamma >= 0.5, nxt - diff * (1 - gamma), prev + diff * gamma)


def _gram(design: np.ndarray) -> np.ndarray:
    """``design.T @ design``, one symmetric product, read-only, so that the
    fits on ``design``'s smoother can share it."""
    gram = design.T @ design
    gram.flags.writeable = False
    return gram


class _Smoother:
    """The ridge-penalized least-squares system on one held design: the
    design, its read-only Gram (:func:`_gram`), formed once, and the one
    ridge rule of every nuisance fit, a penalty of ``ridge`` times the
    Gram's mean diagonal (times 1 when that is not positive and finite) on
    every coefficient.  Raises unless ``ridge`` is finite and non-negative.
    """

    def __init__(self, design: np.ndarray, ridge: float):
        if not 0.0 <= ridge < np.inf:  # also rejects NaN
            raise ValidationError(f"ridge must be finite and non-negative, got {ridge}")
        self.design, self.ridge, self.gram = design, ridge, _gram(design)
        scale = float(np.mean(np.diag(self.gram)))
        self._scale = scale if 0.0 < scale < np.inf else 1.0
        self.penalty = ridge * self._scale

    def solve(self, target: np.ndarray, what: str) -> np.ndarray:
        """The penalized coefficients of ``target``'s column or columns.

        If the system is numerically singular the penalty is escalated a
        hundredfold with a warning that names the fit, ``what``.  Without a
        penalty, an exactly singular system can still solve to finite
        numbers that split collinear coefficients arbitrarily, so its rank
        is checked first; a penalty keeps the system regular.
        """
        design, gram, pen = self.design, self.gram, self.penalty
        p = design.shape[1]
        rhs = design.T @ target
        first = 0
        if pen == 0.0 and np.linalg.matrix_rank(gram) < p:
            first, pen = 1, 1e-10 * self._scale  # the first escalation below
            # collinear columns split evenly only if their right-hand sides are
            # equal, which one symmetric product over [design, target] ensures
            aug = np.column_stack((design, target))
            full = aug.T @ aug
            gram, rhs = full[:p, :p], full[:p, p:].reshape(rhs.shape)
        for attempt in range(first, 3):
            try:
                coef = np.linalg.solve(gram + pen * np.eye(p), rhs)
            except np.linalg.LinAlgError:
                coef = None
            if coef is not None and np.isfinite(coef).all():
                if attempt > 0:
                    warnings.warn(
                        f"{what}: singular normal equations; solved with an escalated ridge",
                        stacklevel=3,
                    )
                return coef
            pen = max(pen * 100.0, 1e-10 * self._scale)
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
                 what: str = "additive regression",
                 smoother: _Smoother | None = None) -> AdditiveRegressor:
    """Fit an additive regression by penalized LS (identity) or IRLS (logit).

    ``X`` is ``basis``'s design of the records, one row per entry of ``y``.
    ``what`` names the fit in its warnings and errors.  ``smoother``, the
    ``_Smoother`` of that design at ``ridge``, is a cache input only: a
    caller that holds it saves forming its Gram again, leaving it out gives
    the same bits, and one built on another design or ridge is rejected.
    The identity fit solves on it, and the logit fit's first step starts
    from its Gram and penalty.
    """
    design = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if design.shape != (y.shape[0], basis.p):
        raise ValidationError("design does not match y and the basis")
    if link not in ("identity", "logit"):
        raise ValidationError(f"unknown link {link!r}")
    if smoother is None:
        smoother = _Smoother(design, ridge)
    elif smoother.design is not design or smoother.ridge != ridge:
        raise ValidationError(f"{what}: the smoother was built on another design or ridge")
    if link == "identity":
        return AdditiveRegressor(basis, smoother.solve(y, what), "identity")

    # IRLS with step halving on the penalized deviance, under the smoother's penalty
    pen = smoother.penalty
    loss, y_eta = np.empty_like(y), np.empty_like(y)
    r = np.empty_like(design)  # the one weighted copy of the design

    def deviance(c, eta):
        # log(1 + exp(eta)) - y * eta, computed stably in the held buffers
        np.subtract(_softplus(eta, loss), np.multiply(y, eta, out=y_eta), out=loss)
        return 2.0 * float(np.sum(loss)) + pen * float(c @ c)

    # At zero coefficients every weight is 1/4 (prob = 1/2), so the first
    # step's weighted Gram is a quarter of X'X and its right-hand side
    # X'(y - 1/2): the same bits, as scaling by a power of two is exact
    # until an entry overflows or is subnormal
    coef = np.zeros(basis.p)
    eta = np.zeros_like(y)
    dev = deviance(coef, eta)
    gram = 0.25 * smoother.gram
    rhs = design.T @ (y - 0.5)
    penalty = pen * np.eye(basis.p)  # the same at every step
    for _ in range(_IRLS_MAX_ITER):
        try:
            new = np.linalg.solve(gram + penalty, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{what}: IRLS update produced a singular system: {exc}")
        step = new - coef
        t = 1.0
        for _ in range(30):
            cand = coef + t * step
            eta_new = design @ cand
            dev_new = deviance(cand, eta_new)
            if math.isfinite(dev_new) and dev_new <= dev + 1e-12:
                break
            t *= 0.5
        else:
            raise NumericalError(f"{what}: IRLS step halving failed to reduce the deviance")
        coef, eta = cand, eta_new  # the accepted candidate's eta starts the next step
        if abs(dev - dev_new) < _IRLS_TOL * (abs(dev) + 1.0):
            return AdditiveRegressor(basis, coef, "logit")
        dev = dev_new
        prob = _expit(eta)
        w = np.maximum(prob * (1.0 - prob), 1e-10)
        z = eta + (y - prob) / w
        np.multiply(design, np.sqrt(w)[:, None], out=r)
        # r.T @ r is one symmetric product: the weighted Gram
        gram, rhs = r.T @ r, design.T @ (w * z)
    raise NumericalError(
        f"{what}: IRLS did not converge in {_IRLS_MAX_ITER} iterations (last deviance {dev:.6g})"
    )


def _source_design(designs: dict, source: int, count: int) -> np.ndarray:
    """The design held for ``source``'s records, of which there are ``count``."""
    design = designs.get(source)
    if design is None or design.shape[0] != count:
        raise ValidationError(f"design does not match the records of source s={source}")
    return design


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


def source_designs(data: Dataset, spec: BasisSpec) -> dict:
    """``spec``'s design over each source's records, keyed by source.

    The nuisance fits and in-sample predictions of a whole fit share
    these rather than rebuilding the same columns per call.
    """
    return {src: spec.design(x) for src in (0, 1) if len(x := data.x[data.block(src)])}


def fit_propensity(data: Dataset, spec: BasisSpec, designs: dict,
                   trial_known: float | None = None, clip_e: float = 0.01,
                   ridge: float = 1e-6, smoothers: dict | None = None) -> Propensity:
    """Fit per-source logistic propensities on the spline basis.

    ``trial_known`` short-circuits the trial fit with a known constant
    randomization probability.  Each fitted source must contain both
    treatment arms; otherwise the logistic fit is hopeless (separation)
    and a validation error is raised.  ``designs`` is
    ``source_designs(data, spec)``, and ``smoothers``, when given, holds
    the ``_Smoother`` of some of them at ``ridge`` by source, a cache input
    of :func:`fit_additive`.
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
            smoother=(smoothers or {}).get(source),
        )
    return Propensity(by_source, clip=clip_e)


def fit_conditional_outcomes(data: Dataset, spec: BasisSpec, designs: dict,
                             ridge: float = 1e-6) -> CellMeans:
    """Regress the raw outcome on the spline basis within each (a, s) cell.

    ``designs`` is ``source_designs(data, spec)``.
    """
    by_cell = {}
    for s_val in (0, 1):
        block = data.block(s_val)
        arm = data.a[block]
        for a_val in (0, 1):
            cell = arm == a_val
            if not cell.any():
                continue
            design = _source_design(designs, s_val, arm.size)
            by_cell[(a_val, s_val)] = fit_additive(
                # a partial cell's rows as one column-major copy: the fit's
                # bits follow the design's layout
                design if cell.all() else np.compress(cell, design.T, axis=1).T,
                data.y[block][cell],
                spec, ridge=ridge, what=f"conditional-outcome fit (a={a_val}, s={s_val})",
            )
    return CellMeans(by_cell)


def fit_outcome_mean(data: Dataset, h: np.ndarray, spec: BasisSpec, designs: dict,
                     ridge: float = 1e-6) -> OutcomeMean:
    """Regress the pseudo-outcome ``h`` of every record on X per source.

    ``run_pipeline`` does not call this: the fit is each source's
    ``_Smoother`` solve, which the pipeline applies to the outcome and the
    coefficient design at once instead.  ``designs`` is
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
    ``y_var`` (1 when it is not positive, or NaN), the pooled outcome
    variance even when ``data`` is a subset; the cells are Python floats.
    """
    resid = np.asarray(resid, dtype=float)
    if resid.shape != (data.n,):
        raise ValidationError("residuals do not match the number of records")
    if not y_var > 0.0:
        y_var = 1.0
    lo, hi = 1e-4 * y_var, 1e4 * y_var
    by_cell = {}
    for s_val in (0, 1):
        block = data.block(s_val)
        arm = data.a[block]
        squares = resid[block] ** 2  # once per source, for both of its cells
        for a_val in (0, 1):
            cell = arm == a_val
            if cell.any():
                by_cell[(a_val, s_val)] = min(max(float(np.mean(squares[cell])), lo), hi)
    return VarianceFunction(by_cell)
