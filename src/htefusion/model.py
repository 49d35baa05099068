"""Core data containers and the structural effect model.

A combined sample holds records from two sources: a randomized trial
(``s = 1``) and an observational cohort (``s = 0``).  Treatment-effect
heterogeneity is modeled as ``tau(x) = phi' b_tau(x)`` and the residual
confounding of the observational source as ``lam(x) = lam' b_lam(x)``,
where ``b_tau`` and ``b_lam`` are user-chosen basis expansions of the
covariates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "Dataset",
    "BasisTerm",
    "BasisSpec",
    "StructuralModel",
    "constant_term",
    "linear_term",
    "square_term",
    "product_term",
    "spline_term",
]


def _expit(x):
    """The logistic function ``1 / (1 + exp(-x))``, exactly 0 and 1 in the
    tails; ``exp`` overflowing to inf there is expected, not an error."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _check_binary(v, name):
    arr = np.asarray(v)
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int8)


class Dataset:
    """Column-oriented view of a combined trial + observational sample.

    Parameters
    ----------
    s, a : array_like
        Source flag (1 = trial, 0 = observational) and treatment arm, 0/1.
    y : array_like
        Observed outcome.
    x : array_like, shape (n, d)
        Covariate matrix; all entries must be finite.

    Source/arm coverage is intentionally not enforced here: a trial-only
    dataset is valid input for trial-only fitting.  Estimation routines
    check the coverage they actually need.  Source and cell masks and the
    trial subset are built once per dataset, on first use.
    """

    __slots__ = ("s", "a", "y", "x", "_cache")

    def __init__(self, s, a, y, x):
        s = _check_binary(s, "s")
        a = _check_binary(a, "a")
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValidationError(f"x must be a 2-d matrix, got ndim={x.ndim}")
        n = x.shape[0]
        if n == 0:
            raise ValidationError("dataset must contain at least one record")
        if not (s.shape == a.shape == y.shape == (n,)):
            raise ValidationError(
                f"column lengths disagree: s={s.shape}, a={a.shape}, "
                f"y={y.shape}, x rows={n}"
            )
        if not np.isfinite(y).all():
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise ValidationError(f"outcome y is not finite at row {bad}")
        if not np.isfinite(x).all():
            bad = np.argwhere(~np.isfinite(x))[0]
            raise ValidationError(
                f"covariate x is not finite at row {int(bad[0])}, column {int(bad[1])}"
            )
        for name, col in (("s", s), ("a", a), ("y", y), ("x", x)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):  # columns are read-only
        raise AttributeError("Dataset is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which validates and
        # freezes the columns, instead of setting the slots
        return Dataset, (self.s, self.a, self.y, self.x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def n_trial(self) -> int:
        return int(self.s.sum())

    @property
    def n_obs(self) -> int:
        return self.n - self.n_trial

    def __len__(self) -> int:
        return self.n

    def subset(self, mask) -> "Dataset":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ValidationError("mask length must match the number of records")
        if not mask.any():
            raise ValidationError("subset would be empty")
        return Dataset(self.s[mask], self.a[mask], self.y[mask], self.x[mask])

    def rows(self, source: int, arm: int | None = None) -> np.ndarray:
        """Read-only mask of one source's records, or of one (arm, source) cell."""
        key = (source, arm)
        mask = self._cache.get(key)
        if mask is None:
            mask = self.s == source
            if arm is not None:
                mask &= self.a == arm
            mask.flags.writeable = False
            self._cache[key] = mask
        return mask

    def trial_only(self) -> "Dataset":
        trial = self._cache.get("trial")
        if trial is None:
            trial = self._cache["trial"] = self.subset(self.rows(1))
        return trial


def _natural_cubic_pieces(v: np.ndarray, knots: Sequence[float]) -> list:
    # Natural cubic spline beyond {1, v}: for knots t_0 < ... < t_L the
    # r-th piece is d_r(v) - d_{L-1}(v) with
    # d_j(v) = [(v - t_j)_+^3 - (v - t_L)_+^3] / (t_L - t_j),
    # linear outside [t_0, t_L] by construction.  Each truncated cube is
    # computed once, as r * r * r (a tenth of the time of r ** 3), and shared
    # by all L - 1 pieces.
    t = np.asarray(knots, dtype=float)
    L = t.size - 1
    cube = [r * r * r for r in (np.clip(v - tj, 0.0, None) for tj in t)]
    d = [(cube[j] - cube[L]) / (t[L] - t[j]) for j in range(L)]
    return [d[r] - d[L - 1] for r in range(L - 1)]


@dataclass(frozen=True)
class BasisTerm:
    """One column of a basis expansion.

    kind is one of "const", "linear", "square", "product", "spline".
    For spline terms, ``knots`` is the full (sorted) knot sequence for
    covariate ``j`` including the two boundary knots, and ``piece``
    selects one of the ``len(knots) - 2`` natural cubic pieces.
    """

    kind: str
    j: int = 0
    k: int = 0
    knots: tuple = ()
    piece: int = 0

    def __post_init__(self):
        if self.kind not in ("const", "linear", "square", "product", "spline"):
            raise ValidationError(f"unknown basis term kind {self.kind!r}")
        if self.kind == "spline":
            if len(self.knots) < 3:
                raise ValidationError("spline terms need at least 3 knots")
            if not 0 <= self.piece <= len(self.knots) - 3:
                raise ValidationError("spline piece index out of range")
            if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
                raise ValidationError("spline knots must be strictly increasing")

    def _covariate(self, X: np.ndarray) -> np.ndarray:
        for idx in (self.j, self.k) if self.kind == "product" else (self.j,):
            if not 0 <= idx < X.shape[1]:
                raise ValidationError(
                    f"basis term refers to covariate {idx} but x has {X.shape[1]} columns"
                )
        return X[:, self.j]

    def column(self, X: np.ndarray) -> np.ndarray:
        if self.kind == "const":
            return np.ones(X.shape[0])
        v = self._covariate(X)
        if self.kind == "linear":
            return v.copy()
        if self.kind == "square":
            return v * v
        if self.kind == "product":
            return v * X[:, self.k]
        return _natural_cubic_pieces(v, self.knots)[self.piece]

    def label(self, names: Sequence[str] | None = None) -> str:
        def nm(idx):
            return names[idx] if names is not None else f"x{idx + 1}"

        if self.kind == "const":
            return "1"
        if self.kind == "linear":
            return nm(self.j)
        if self.kind == "square":
            return f"{nm(self.j)}^2"
        if self.kind == "product":
            return f"{nm(self.j)}*{nm(self.k)}"
        return f"ns({nm(self.j)},{self.piece + 1})"


def constant_term() -> BasisTerm:
    return BasisTerm("const")


def linear_term(j: int) -> BasisTerm:
    return BasisTerm("linear", j=j)


def square_term(j: int) -> BasisTerm:
    return BasisTerm("square", j=j)


def product_term(j: int, k: int) -> BasisTerm:
    return BasisTerm("product", j=j, k=k)


def spline_term(j: int, knots: Sequence[float], piece: int) -> BasisTerm:
    return BasisTerm("spline", j=j, knots=tuple(float(t) for t in knots), piece=piece)


@dataclass(frozen=True)
class BasisSpec:
    """Ordered collection of basis terms defining a design matrix."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not isinstance(t, BasisTerm):
                raise ValidationError("BasisSpec expects BasisTerm entries")

    @property
    def p(self) -> int:
        return len(self.terms)

    def labels(self, names: Sequence[str] | None = None) -> list:
        return [t.label(names) for t in self.terms]

    def design(self, X) -> np.ndarray:
        """Evaluate all terms on a covariate matrix, returning (n, p) in
        column-major order, so that each column is contiguous."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValidationError("design expects a 2-d covariate matrix")
        out = np.empty((X.shape[0], self.p), order="F")
        shared_key, pieces = None, None
        for col, term in enumerate(self.terms):
            if term.kind == "spline":
                # the pieces of one covariate's spline share their cubes
                if (term.j, term.knots) != shared_key:
                    shared_key = (term.j, term.knots)
                    pieces = _natural_cubic_pieces(term._covariate(X), term.knots)
                out[:, col] = pieces[term.piece]
            else:
                out[:, col] = term.column(X)
        return out


# by field annotation: what a config value must be, and its type or its entries' kind;
# here because both config classes (io's and simulation's) import this module
_KINDS = {"str": ("a string", str), "int": ("an integer", numbers.Integral),
          "float": ("a number", numbers.Real), "bool": ("true or false", bool),
          "BasisSpec": ("a basis", BasisSpec), "tuple[str, ...]": ("a list of strings", "str"),
          "tuple[float, ...]": ("a list of numbers", "float"),
          "tuple[tuple[float, ...], ...]": ("a list of number lists", "tuple[float, ...]")}


def _typed(key: str, val, kind: str, outer: str | None = None):
    """Check config value ``val`` of ``key`` against ``kind``; lists become tuples."""
    want = _KINDS[kind][1]
    if isinstance(want, str):
        if isinstance(val, (list, tuple)):
            return tuple(_typed(key, v, want, outer or kind) for v in val)
    elif isinstance(val, want) and (want is bool) == isinstance(val, bool):
        return float(val) if want is numbers.Real else val
    raise ValidationError(f"config key {key!r} must be {_KINDS[outer or kind][0]}, got {val!r}")


def _check_fields(cfg) -> None:
    """Check each field of the frozen dataclass ``cfg`` against its annotation,
    where ``| None`` also admits None, and store the checked values."""
    for f in fields(cfg):
        kind, _, optional = f.type.partition(" | ")
        val = getattr(cfg, f.name)
        if not (optional and val is None):
            object.__setattr__(cfg, f.name, _typed(f.name, val, kind))


def _check_probes(probes: tuple, width: int, what: str) -> None:
    """Raise unless each of a config's ``probes`` is ``width`` finite numbers."""
    for row in probes:
        if len(row) != width or not np.isfinite(row).all():
            raise ValidationError(f"probes must each be {width} finite numbers ({what}), "
                                  f"got {list(row)}")


@dataclass(frozen=True)
class StructuralModel:
    """Parametric working models for the effect and confounding curves."""

    tau_basis: BasisSpec
    lambda_basis: BasisSpec

    def __post_init__(self):
        if self.tau_basis.p < 1:
            raise ValidationError("tau basis must have at least one term")
        if self.lambda_basis.p < 1:
            raise ValidationError("lambda basis must have at least one term")
        if self.tau_basis.terms[0].kind != "const":
            raise ValidationError("the first tau basis term must be the constant 1")

    @property
    def p1(self) -> int:
        return self.tau_basis.p

    @property
    def p2(self) -> int:
        return self.lambda_basis.p

    @property
    def p(self) -> int:
        return self.p1 + self.p2

    def design(self, x) -> np.ndarray:
        """The effect and confounding designs side by side, shape (n, p):
        the first ``p1`` columns are ``b_tau(x)`` and the rest ``b_lam(x)``."""
        return BasisSpec(self.tau_basis.terms + self.lambda_basis.terms).design(x)


def _take_rows(mat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Rows ``mask`` of a record-by-column matrix, column-major like a design."""
    return np.compress(mask, mat.T, axis=1).T
