"""Core data containers and the structural effect model.

A combined sample holds records from two sources: a randomized trial
(``s = 1``) and an observational cohort (``s = 0``).  Treatment-effect
heterogeneity is modeled as ``tau(x) = phi' b_tau(x)`` and the residual
confounding of the observational source as ``lam(x) = lam' b_lam(x)``,
where ``b_tau`` and ``b_lam`` are user-chosen basis expansions of the
covariates.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import numbers
import os
import threading
import types
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


def _softplus(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` into ``out``, branch-free, as
    ``max(x, 0) + log1p(exp(-|x|))``: ``np.logaddexp(0, x)`` to within
    2 ulp, without its per-element branches.  ``exp`` never overflows, and
    +-inf and NaN map as ``logaddexp`` maps them."""
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def _check_binary(v, name):
    arr = np.asarray(v)
    if not ((arr == 0) | (arr == 1)).all():
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

    Records are held trial first, each source in its input order: a
    stable sort after validation (row numbers in errors are the caller's),
    which input in that order skips.  :meth:`block` is one source's slice,
    and every per-record array a fit returns is in this order.

    Source/arm coverage is intentionally not enforced here: a trial-only
    dataset is valid input for trial-only fitting.  Estimation routines
    check the coverage they actually need.  Cell masks, the trial count
    and the trial dataset are built once per dataset, on first use.
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
        if not s[:np.count_nonzero(s)].all():  # not trial first
            order = np.argsort(1 - s, kind="stable")
            s, a, y, x = s[order], a[order], y[order], x[order]
        self._freeze(s, a, y, x)

    def _freeze(self, s, a, y, x) -> None:
        """Hold checked columns read-only, with an empty cache."""
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
        if "n_trial" not in self._cache:
            self._cache["n_trial"] = int(self.s.sum())
        return self._cache["n_trial"]

    @property
    def n_obs(self) -> int:
        return self.n - self.n_trial

    def __len__(self) -> int:
        return self.n

    def subset(self, mask) -> "Dataset":
        """The records ``mask`` selects, as a dataset with an empty cache.

        Its columns are rows of this dataset's validated ones, so they are
        frozen, not checked again.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ValidationError("mask length must match the number of records")
        if not mask.any():
            raise ValidationError("subset would be empty")
        sub = object.__new__(Dataset)
        sub._freeze(self.s[mask], self.a[mask], self.y[mask], _take_rows(self.x, mask))
        return sub

    def block(self, source: int) -> slice:
        """The slice of one source's records: the trial's come first."""
        return slice(0, self.n_trial) if source == 1 else slice(self.n_trial, self.n)

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
        """The trial records, held once, as views of the first ``n_trial`` rows."""
        trial = self._cache.get("trial")
        if trial is None:
            if self.n_trial == 0:
                raise ValidationError("the dataset has no trial records")
            trial = self._cache["trial"] = object.__new__(Dataset)
            trial._freeze(*(col[:self.n_trial] for col in (self.s, self.a, self.y, self.x)))
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
    cube = [r * r * r for r in (np.maximum(v - tj, 0.0) for tj in t)]
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
    """Rows ``mask`` of a record-by-column matrix in its memory order, by one
    compress: a few times faster than indexing with a boolean mask."""
    if mat.flags.f_contiguous:
        return np.compress(mask, mat.T, axis=1).T
    return np.compress(mask, mat, axis=0)


@functools.cache
def _openblas(symbol: str):
    """The function ``symbol`` of numpy's bundled OpenBLAS, found through
    ``_multiarray_umath``, which links it; None on other BLAS builds or a
    numpy without ``np._core``."""
    try:
        return getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), symbol)
    except (AttributeError, OSError):
        return None


def _blas_threads() -> int:
    """The thread count of numpy's bundled OpenBLAS; 0 on other BLAS builds."""
    get = _openblas("scipy_openblas_get_num_threads64_")
    if get is None:
        return 0
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


# A row-separable kernel whose work (its multiply-adds: records times squared
# columns for a Gram) reaches this runs on two row halves; below it, handing a
# half to the worker thread costs more than it saves (measured on 2 cores).
_SPLIT_WORK = 6e6


class _InCaller:
    """Stands in for the worker thread by running each second half in the
    caller: the same halves added in the same order, so the same bits."""

    def submit(self, fn, *args):
        value = fn(*args)
        return types.SimpleNamespace(result=lambda: value)


_IN_CALLER = _InCaller()

# The worker thread, made by the first split that uses it; _IN_CALLER in a
# Monte Carlo worker process, whose splits all run in the caller
_halves = None
_halves_lock = threading.Lock()


def _halves_in_caller() -> None:
    """Run both halves of every split kernel of this process in the caller,
    as a Monte Carlo worker does, so that each worker uses one core."""
    global _halves
    _halves = _IN_CALLER


def _halves_runner():
    """The runner of a second half: the worker thread while BLAS runs on one
    thread on a host with several cores; otherwise the caller (on one core,
    or beside BLAS threads, which already share out the products).  Chosen
    for each split, as a serial Monte Carlo study pins BLAS only for its
    duration.  The halves, and so the bits, are the same either way.
    """
    global _halves
    if _blas_threads() != 1 or (os.cpu_count() or 1) < 2:
        return _IN_CALLER
    with _halves_lock:  # fits in several threads share one worker thread
        if _halves is None:
            from concurrent.futures import ThreadPoolExecutor
            _halves = ThreadPoolExecutor(max_workers=1, thread_name_prefix="htefusion-half")
        return _halves


def _drop_worker_thread() -> None:
    # a forked child has no worker thread, so a half submitted to the
    # inherited executor would never run; the next split that needs one
    # makes it.  The lock may have been held by a thread the child lacks
    global _halves, _halves_lock
    _halves_lock = threading.Lock()
    if _halves is not _IN_CALLER:
        _halves = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker_thread)


def _on_halves(kernel, n: int, work: float) -> tuple:
    """``kernel`` over all ``n`` records, as the sum of its parts.

    ``kernel(rows)`` takes a slice of the records and returns a tuple of
    parts that add up over rows.  Once ``work`` reaches ``_SPLIT_WORK``,
    rows ``[n//2, n)`` run on the runner of :func:`_halves_runner` while
    rows ``[0, n//2)`` run in the caller, and the parts are added first
    half first; below it the kernel runs once on all rows.  The halves
    depend on ``n`` and ``work`` alone, so a result has the same bits
    whichever runs the second half.  A kernel writes only into its own rows
    of arrays its caller allocated.
    """
    if work < _SPLIT_WORK:
        return kernel(slice(0, n))
    runner = _halves_runner()
    half = n // 2
    # in the caller's context, so that the worker sees its np.errstate
    pending = runner.submit(contextvars.copy_context().run, kernel, slice(half, n))
    try:
        first = kernel(slice(0, half))
    finally:
        second = pending.result()  # the worker is done with the caller's arrays
    return tuple(a + b for a, b in zip(first, second))
