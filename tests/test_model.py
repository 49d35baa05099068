"""Data containers, basis terms, and the pseudo-outcome oracles."""

import copy
import pickle
import warnings

import numpy as np
import pytest
from scipy import special

from htefusion import (
    BasisSpec,
    BasisTerm,
    Dataset,
    StructuralModel,
    ValidationError,
    constant_term,
    linear_term,
    product_term,
    spline_term,
    square_term,
)
from htefusion.model import _check_binary, _expit, _natural_cubic_pieces, _softplus
from oracles import (
    UnitRecord,
    from_records,
    natural_cubic_pieces,
    pseudo_outcome,
    pseudo_outcomes,
    records,
    residual_eps_h,
)

X = np.array([[0.5, -1.0, 2.0],
              [1.5, 0.0, -0.5],
              [-2.0, 3.0, 1.0]])


class TestExpit:
    def test_matches_scipy_and_saturates_without_warning(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 2_100_001), [-np.inf, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expit(x)
        # scipy also computes 1 / (1 + exp(-x)), with its own exp: each side is
        # up to 4.5e-16 from a long-double reference, and up to 4.9e-16 (near
        # x = -37) from the other
        np.testing.assert_allclose(got, special.expit(x), rtol=6e-16, atol=0.0)
        assert got[0] == 0.0 and got[-3] == 1.0  # x = -800 and 800
        assert got[-2] == 0.0 and got[-1] == 1.0  # x = -inf and inf


class TestSoftplus:
    def test_matches_logaddexp_without_warning(self):
        x = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 745.0, -745.0,
                      1e4, -1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _softplus(x, np.empty_like(x))
            special_values = _softplus(np.array([-np.inf, np.inf, np.nan]), np.empty(3))
        want = np.logaddexp(0.0, x)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))  # within 2 ulp
        with np.errstate(invalid="ignore"):  # logaddexp itself warns on NaN
            want_special = np.logaddexp(0.0, [-np.inf, np.inf, np.nan])
        np.testing.assert_array_equal(special_values, want_special)

    def test_writes_into_out_and_leaves_x(self):
        x = np.linspace(-50.0, 50.0, 101)
        before, out = x.copy(), np.empty_like(x)
        assert _softplus(x, out) is out
        assert np.array_equal(x, before)
        want = np.logaddexp(0.0, x)
        assert np.all(np.abs(out - want) <= 2 * np.spacing(want))


class TestUnitRecord:
    def test_fields(self):
        rec = UnitRecord(1, 0, 2.5, [1.0, -2.0])
        assert rec.s == 1 and rec.a == 0 and rec.y == 2.5
        assert rec.x.tolist() == [1.0, -2.0]

    @pytest.mark.parametrize("kw", [
        dict(s=2, a=0, y=0.0, x=[1.0]),
        dict(s=1, a=-1, y=0.0, x=[1.0]),
        dict(s=1, a=0, y=np.nan, x=[1.0]),
        dict(s=1, a=0, y=0.0, x=[np.inf]),
        dict(s=1, a=0, y=0.0, x=[]),
        dict(s=1, a=0, y=0.0, x=[[1.0]]),
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValidationError):
            UnitRecord(**kw)


class TestDataset:
    def test_columns_and_counts(self):
        data = Dataset([1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0], X)
        assert data.n == 3 and data.d == 3
        assert data.n_trial == 1 and data.n_obs == 2
        assert len(data) == 3

    def test_columns_are_read_only(self):
        data = Dataset([1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0], X)
        with pytest.raises(ValueError):
            data.y[0] = 9.0
        with pytest.raises(AttributeError):
            data.y = np.zeros(3)

    @pytest.mark.parametrize("clone", [lambda d: pickle.loads(pickle.dumps(d)),
                                       copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_round_trip(self, clone):
        data = Dataset([1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0], X)
        twin = clone(data)
        assert isinstance(twin, Dataset) and twin is not data
        for name in ("s", "a", "y", "x"):
            col, want = getattr(twin, name), getattr(data, name)
            assert np.array_equal(col, want) and col.dtype == want.dtype
            assert not col.flags.writeable
        # the clone counts its trial records and selects them from its own columns
        assert twin.n_trial == 1 and np.shares_memory(twin.trial_only().y, twin.y)
        with pytest.raises(AttributeError):
            twin.y = np.zeros(3)

    @pytest.mark.parametrize("s,a,y,x", [
        ([1, 2, 0], [0, 1, 0], [1.0, 2.0, 3.0], X),          # non-binary s
        ([1, 0, 0], [0, 3, 0], [1.0, 2.0, 3.0], X),          # non-binary a
        ([1, 0], [0, 1], [1.0, 2.0], X),                     # length mismatch
        ([1, 0, 0], [0, 1, 0], [1.0, np.nan, 3.0], X),       # bad outcome
        ([1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0], np.full_like(X, np.inf)),  # bad covariate
        ([], [], [], np.empty((0, 3))),                       # empty
        ([1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0], X[:, 0]),    # 1-d covariates
    ])
    def test_rejects_bad_columns(self, s, a, y, x):
        with pytest.raises(ValidationError):
            Dataset(s, a, y, x)

    def test_subset_and_trial_only(self):
        data = Dataset([1, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], X)
        sub = data.trial_only()
        assert sub.n == 2 and (sub.s == 1).all()
        assert sub.y.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("flags", [[0, 1, 1], [0.0, 1.0, 1.0], [False, True, True]],
                             ids=["int", "float", "bool"])
    def test_binary_flags_accepted_in_any_numeric_type(self, flags):
        got = _check_binary(flags, "a")
        assert got.dtype == np.int8 and got.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("flags", [
        [0, 2], [0, -1], [0.5, 1.0], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 0.0],
        ["0", "1"], np.array([0, None], dtype=object),
    ], ids=["2", "-1", "0.5", "nan", "inf", "-inf", "strings", "object-None"])
    def test_binary_flags_reject_anything_else(self, flags):
        with pytest.raises(ValidationError, match="^s must contain only 0/1 values$"):
            _check_binary(flags, "s")

    def test_records_are_held_trial_first_in_input_order(self):
        x = np.arange(15.0).reshape(5, 3)
        data = Dataset([0, 1, 0, 1, 1], [0, 1, 1, 0, 1], [0.0, 1.0, 2.0, 3.0, 4.0], x)
        assert data.s.tolist() == [1, 1, 1, 0, 0]
        assert data.a.tolist() == [1, 0, 1, 0, 1]
        assert data.y.tolist() == [1.0, 3.0, 4.0, 0.0, 2.0]
        assert np.array_equal(data.x, x[[1, 3, 4, 0, 2]])
        assert data.block(1) == slice(0, 3) and data.block(0) == slice(3, 5)

    def test_input_in_block_order_is_held_without_a_copy(self):
        y, x = np.array([1.0, 2.0, 3.0]), X.copy()
        data = Dataset([1, 1, 0], [0, 1, 1], y, x)
        assert np.shares_memory(data.y, y) and np.shares_memory(data.x, x)

    @pytest.mark.parametrize("y, x, where", [
        ([0.0, 1.0, np.nan, 3.0], np.zeros((4, 2)), "row 2$"),
        ([0.0, 1.0, 2.0, 3.0], [[0, 0], [0, 0], [0, np.inf], [0, 0]], "row 2, column 1$"),
    ], ids=["outcome", "covariate"])
    def test_errors_name_the_callers_row_before_the_sort(self, y, x, where):
        # held trial first, the bad record would be row 3
        with pytest.raises(ValidationError, match=where):
            Dataset([0, 1, 0, 1], [0, 1, 1, 0], y, x)

    def test_trial_only_holds_views_of_the_parents_columns(self):
        data = Dataset([0, 1, 0, 1], [0, 1, 1, 0], [0.0, 1.0, 2.0, 3.0], np.eye(4))
        trial = data.trial_only()
        assert trial.y.tolist() == [1.0, 3.0] and trial.n_trial == 2
        for name in ("s", "a", "y", "x"):
            col = getattr(trial, name)
            assert np.shares_memory(col, getattr(data, name)) and not col.flags.writeable
        with pytest.raises(ValidationError, match="no trial records"):
            Dataset([0, 0], [0, 1], [0.0, 1.0], np.eye(2)).trial_only()

    def test_from_records_roundtrip(self):
        data = Dataset([1, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], X)
        again = from_records(records(data))
        assert np.array_equal(again.s, data.s)
        assert np.array_equal(again.a, data.a)
        assert np.array_equal(again.y, data.y)
        assert np.array_equal(again.x, data.x)

    def test_from_records_checks_width(self):
        recs = [UnitRecord(1, 0, 0.0, [1.0, 2.0]), UnitRecord(0, 1, 0.0, [1.0])]
        with pytest.raises(ValidationError):
            from_records(recs)


def column(term, X):
    """One term's column, as the design of a one-term basis evaluates it."""
    return BasisSpec((term,)).design(X)[:, 0]


class TestBasisTerms:
    def test_polynomial_columns(self):
        assert column(constant_term(), X).tolist() == [1.0, 1.0, 1.0]
        assert column(linear_term(1), X).tolist() == [-1.0, 0.0, 3.0]
        assert column(square_term(0), X).tolist() == [0.25, 2.25, 4.0]
        assert column(product_term(0, 2), X).tolist() == [1.0, -0.75, -2.0]

    def test_column_index_bounds(self):
        with pytest.raises(ValidationError):
            column(linear_term(3), X)
        with pytest.raises(ValidationError):
            column(product_term(0, 5), X)

    def test_term_validation(self):
        with pytest.raises(ValidationError):
            BasisTerm("cubic")
        with pytest.raises(ValidationError, match="at least 3 knots"):
            spline_term(0, (0.0, 1.0), 0)
        with pytest.raises(ValidationError):
            spline_term(0, (0.0, 1.0, 1.0), 0)     # not increasing
        with pytest.raises(ValidationError):
            spline_term(0, (0.0, 0.5, 1.0), 1)     # piece out of range

    def test_natural_cubic_is_linear_in_the_tails(self):
        term = spline_term(0, (-1.0, 0.0, 1.0), 0)
        for side in (np.linspace(-8, -1.5, 30), np.linspace(1.5, 8, 30)):
            col = column(term, side[:, None])
            second = np.diff(col, 2)
            assert np.abs(second).max() < 1e-9

    def test_natural_cubic_is_continuous_and_nonlinear_inside(self):
        term = spline_term(0, (-1.0, 0.0, 1.0), 0)
        grid = np.linspace(-2, 2, 2001)[:, None]
        col = column(term, grid)
        assert np.abs(np.diff(col)).max() < 0.02      # no jumps on a fine grid
        inner = column(term, np.array([[-0.5], [0.0], [0.5]]))
        line = (inner[0] + inner[2]) / 2.0
        assert abs(inner[1] - line) > 1e-3            # curvature inside the knots

    def test_labels(self):
        assert constant_term().label() == "1"
        assert linear_term(0).label(["age"]) == "age"
        assert square_term(1).label() == "x2^2"
        assert product_term(0, 1).label(["u", "v"]) == "u*v"
        assert spline_term(0, (0.0, 0.5, 1.0), 0).label() == "ns(x1,1)"


class TestBasisSpec:
    def test_design_and_row_agree(self):
        spec = BasisSpec((constant_term(), linear_term(0), square_term(2)))
        design = spec.design(X)
        assert design.shape == (3, 3)
        for i in range(3):
            assert np.array_equal(spec.design(X[i:i + 1])[0], design[i])

    def test_spline_design_matches_the_piece_formula(self):
        # pieces of one covariate share cubes inside design(); interleaving
        # terms of other covariates must not mix them up.  The points reach
        # past both boundary knots and include every knot
        knots = (-1.5, -0.5, 0.0, 0.5, 1.5)
        other = (-1.0, 0.0, 1.0)
        spec = BasisSpec((spline_term(0, knots, 1), linear_term(1),
                          spline_term(0, knots, 0), spline_term(1, other, 0),
                          spline_term(0, knots, 2)))
        x = np.random.default_rng(0).uniform(-2.0, 2.0, (200, 2))
        x[:5, 0], x[:3, 1] = knots, other
        x[5:7] = [[-40.0, 40.0], [40.0, -40.0]]

        ref = {t: natural_cubic_pieces(x[:, j], t) for j, t in ((0, knots), (1, other))}
        want = np.column_stack([ref[knots][1], x[:, 1], ref[knots][0], ref[other][0],
                                ref[knots][2]])
        assert spec.design(x).tobytes(order="F") == want.tobytes(order="F")
        for col, term in enumerate(spec.terms):
            assert column(term, x).tobytes() == want[:, col].tobytes()
        for j, t in ((0, knots), (1, other)):  # on strided columns
            got = _natural_cubic_pieces(x[:, j], t)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in ref[t]]

    def test_empty_spec_design(self):
        spec = BasisSpec(())
        assert spec.design(X).shape == (3, 0)

    def test_input_validation(self):
        spec = BasisSpec((constant_term(),))
        with pytest.raises(ValidationError):
            spec.design(X[0])
        with pytest.raises(ValidationError):
            BasisSpec((constant_term(), "x1"))


class TestStructuralModel:
    def setup_method(self):
        self.model = StructuralModel(
            BasisSpec((constant_term(), linear_term(0), square_term(1))),
            BasisSpec((linear_term(0), linear_term(2))),
        )

    def test_dimensions(self):
        assert (self.model.p1, self.model.p2, self.model.p) == (3, 2, 5)

    def test_curves_match_manual_dot_products(self):
        phi, lam = np.array([1.0, 2.0, -1.0]), np.array([0.5, -0.5])
        want_tau = 1.0 + 2.0 * X[:, 0] - X[:, 1] ** 2
        want_lam = 0.5 * X[:, 0] - 0.5 * X[:, 2]
        design = self.model.design(X)
        assert np.allclose(design[:, :3] @ phi, want_tau)
        assert np.allclose(design[:, 3:] @ lam, want_lam)
        assert np.allclose(self.model.tau_basis.design(X) @ phi, want_tau)

    def test_validation(self):
        with pytest.raises(ValidationError):
            StructuralModel(BasisSpec(()), BasisSpec((linear_term(0),)))
        with pytest.raises(ValidationError):
            StructuralModel(BasisSpec((linear_term(0),)), BasisSpec((linear_term(0),)))
        with pytest.raises(ValidationError):
            StructuralModel(
                BasisSpec((constant_term(),)), BasisSpec(()))


class TestPseudoOutcome:
    def setup_method(self):
        self.model = StructuralModel(
            BasisSpec((constant_term(), linear_term(0))),
            BasisSpec((linear_term(1),)),
        )
        self.psi = np.array([1.0, 2.0, 3.0])  # effect block, then confounding

    def test_trial_record_ignores_confounding_curve(self):
        rec = UnitRecord(1, 1, 10.0, [0.5, -1.0])
        # tau = 1 + 2 * 0.5 = 2
        assert pseudo_outcome(self.model, self.psi, rec, 0.77) == pytest.approx(8.0)
        untn = pseudo_outcome(self.model, self.psi, rec, 0.12)
        assert untn == pytest.approx(8.0)

    def test_observational_record(self):
        rec = UnitRecord(0, 1, 10.0, [0.5, -1.0])
        # tau = 2, lam = -3, a - e = 0.6
        want = 10.0 - 2.0 - (-3.0) * 0.6
        assert pseudo_outcome(self.model, self.psi, rec, 0.4) == pytest.approx(want)

    def test_untreated_observational_record(self):
        rec = UnitRecord(0, 0, 10.0, [0.5, -1.0])
        want = 10.0 - (-3.0) * (0.0 - 0.4)
        assert pseudo_outcome(self.model, self.psi, rec, 0.4) == pytest.approx(want)

    def test_vectorized_matches_per_record(self):
        rng = np.random.default_rng(5)
        data = Dataset(
            rng.integers(0, 2, 20), rng.integers(0, 2, 20),
            rng.standard_normal(20), rng.standard_normal((20, 2)),
        )
        e_hat = rng.uniform(0.2, 0.8, 20)
        vec = pseudo_outcomes(self.model, self.psi, data, e_hat)
        one_by_one = [
            pseudo_outcome(self.model, self.psi, rec, e_hat[i])
            for i, rec in enumerate(records(data))
        ]
        assert np.allclose(vec, one_by_one)
        # without observational records only the effect basis is evaluated
        trial = data.s == 1
        assert np.array_equal(
            pseudo_outcomes(self.model, self.psi, data.trial_only(), 0.5), vec[trial])
        assert np.array_equal(
            self.model.design(data.x),
            np.hstack([self.model.tau_basis.design(data.x),
                       self.model.lambda_basis.design(data.x)]))

    def test_residual_centers_the_pseudo_outcome(self):
        rec = UnitRecord(1, 1, 10.0, [0.5, -1.0])
        got = residual_eps_h(self.model, self.psi, rec, 0.5, mu_hat=3.25)
        assert got == pytest.approx(8.0 - 3.25)
