"""Data containers, basis terms, and the pseudo-outcome transform."""

import copy
import pickle

import numpy as np
import pytest

from htefusion import (
    BasisSpec,
    BasisTerm,
    Dataset,
    PsiVector,
    StructuralModel,
    ValidationError,
    constant_term,
    linear_term,
    product_term,
    pseudo_outcomes,
    spline_term,
    square_term,
)
from oracles import UnitRecord, from_records, pseudo_outcome, records, residual_eps_h

X = np.array([[0.5, -1.0, 2.0],
              [1.5, 0.0, -0.5],
              [-2.0, 3.0, 1.0]])


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
        data.rows(1)  # a filled mask cache is not carried over
        twin = clone(data)
        assert isinstance(twin, Dataset) and twin is not data
        for name in ("s", "a", "y", "x"):
            col, want = getattr(twin, name), getattr(data, name)
            assert np.array_equal(col, want) and col.dtype == want.dtype
            assert not col.flags.writeable
        assert twin.rows(1).tolist() == [True, False, False]
        with pytest.raises(AttributeError):
            twin.y = np.zeros(3)

    @pytest.mark.parametrize("s,a,y,x", [
        ([1, 2, 0], [0, 1, 0], [1.0, 2.0, 3.0], X),          # non-binary s
        ([1, 0, 0], [0, 3, 0], [1.0, 2.0, 3.0], X),          # non-binary a
        ([1, 0], [0, 1], [1.0, 2.0], X),                     # length mismatch
        ([1, 0, 0], [0, 1, 0], [1.0, np.nan, 3.0], X),       # bad outcome
        ([1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0], np.full_like(X, np.inf)),  # bad covariate
        ([], [], [], np.empty((0, 3))),                       # empty
    ])
    def test_rejects_bad_columns(self, s, a, y, x):
        with pytest.raises(ValidationError):
            Dataset(s, a, y, x)

    def test_subset_and_trial_only(self):
        data = Dataset([1, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], X)
        sub = data.trial_only()
        assert sub.n == 2 and (sub.s == 1).all()
        assert sub.y.tolist() == [1.0, 3.0]
        with pytest.raises(ValidationError):
            data.subset(np.zeros(3, dtype=bool))
        with pytest.raises(ValidationError):
            data.subset([True])

    def test_masks_and_trial_subset_are_built_once(self):
        data = Dataset([1, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], X)
        assert data.rows(1).tolist() == [True, False, True]
        assert data.rows(1, 1).tolist() == [False, False, True]
        assert data.rows(0, 1) is data.rows(0, 1)
        assert data.trial_only() is data.trial_only()
        with pytest.raises(ValueError):
            data.rows(1)[0] = False

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


class TestBasisTerms:
    def test_polynomial_columns(self):
        assert constant_term().column(X).tolist() == [1.0, 1.0, 1.0]
        assert linear_term(1).column(X).tolist() == [-1.0, 0.0, 3.0]
        assert square_term(0).column(X).tolist() == [0.25, 2.25, 4.0]
        assert product_term(0, 2).column(X).tolist() == [1.0, -0.75, -2.0]

    def test_column_index_bounds(self):
        with pytest.raises(ValidationError):
            linear_term(3).column(X)
        with pytest.raises(ValidationError):
            product_term(0, 5).column(X)

    def test_term_validation(self):
        with pytest.raises(ValidationError):
            BasisTerm("cubic")
        with pytest.raises(ValidationError):
            spline_term(0, (0.0, 1.0), 0)          # too few knots
        with pytest.raises(ValidationError):
            spline_term(0, (0.0, 1.0, 1.0), 0)     # not increasing
        with pytest.raises(ValidationError):
            spline_term(0, (0.0, 0.5, 1.0), 1)     # piece out of range

    def test_natural_cubic_is_linear_in_the_tails(self):
        term = spline_term(0, (-1.0, 0.0, 1.0), 0)
        for side in (np.linspace(-8, -1.5, 30), np.linspace(1.5, 8, 30)):
            col = term.column(side[:, None])
            second = np.diff(col, 2)
            assert np.abs(second).max() < 1e-9

    def test_natural_cubic_is_continuous_and_nonlinear_inside(self):
        term = spline_term(0, (-1.0, 0.0, 1.0), 0)
        grid = np.linspace(-2, 2, 2001)[:, None]
        col = term.column(grid)
        assert np.abs(np.diff(col)).max() < 0.02      # no jumps on a fine grid
        inner = term.column(np.array([[-0.5], [0.0], [0.5]]))
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
            assert np.array_equal(spec.row(X[i]), design[i])

    def test_spline_design_matches_the_piece_formula(self):
        # pieces of one covariate share cubes inside design(); interleaving
        # terms of other covariates must not mix them up
        knots = (-1.5, -0.5, 0.0, 0.5, 1.5)
        other = (-1.0, 0.0, 1.0)
        spec = BasisSpec((spline_term(0, knots, 1), linear_term(1),
                          spline_term(0, knots, 0), spline_term(1, other, 0),
                          spline_term(0, knots, 2)))
        x = np.random.default_rng(0).uniform(-2.0, 2.0, (200, 2))

        def piece(v, t, r):
            L = len(t) - 1

            def cube(u):  # as the basis cubes: two products, not a power call
                return u * u * u

            def d(j):
                return (cube(np.clip(v - t[j], 0.0, None))
                        - cube(np.clip(v - t[L], 0.0, None))) / (t[L] - t[j])
            return d(r) - d(L - 1)

        want = np.column_stack([piece(x[:, 0], knots, 1), x[:, 1], piece(x[:, 0], knots, 0),
                                piece(x[:, 1], other, 0), piece(x[:, 0], knots, 2)])
        assert np.array_equal(spec.design(x), want)
        for col, term in enumerate(spec.terms):
            assert np.array_equal(term.column(x), want[:, col])

    def test_empty_spec_design(self):
        spec = BasisSpec(())
        assert spec.design(X).shape == (3, 0)

    def test_input_validation(self):
        spec = BasisSpec((constant_term(),))
        with pytest.raises(ValidationError):
            spec.design(X[0])
        with pytest.raises(ValidationError):
            spec.row(X)
        with pytest.raises(ValidationError):
            BasisSpec((constant_term(), "x1"))


class TestPsiVector:
    def test_stack_roundtrip(self):
        psi = PsiVector([1.0, 2.0], [3.0, 4.0, 5.0])
        assert psi.stacked.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        again = PsiVector.from_stacked(psi.stacked, 2)
        assert np.array_equal(again.phi, psi.phi)
        assert np.array_equal(again.lam, psi.lam)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PsiVector([[1.0]], [2.0])
        with pytest.raises(ValidationError):
            PsiVector([np.nan], [2.0])
        with pytest.raises(ValidationError):
            PsiVector.from_stacked([1.0, 2.0], 3)


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
        assert np.allclose(self.model.tau(phi, X), want_tau)
        assert np.allclose(self.model.lam(lam, X), want_lam)
        assert self.model.tau(phi, X[1]) == pytest.approx(want_tau[1])

    def test_validation(self):
        with pytest.raises(ValidationError):
            StructuralModel(BasisSpec(()), BasisSpec((linear_term(0),)))
        with pytest.raises(ValidationError):
            StructuralModel(BasisSpec((linear_term(0),)), BasisSpec((linear_term(0),)))
        with pytest.raises(ValidationError):
            StructuralModel(
                BasisSpec((constant_term(),)), BasisSpec(()))
        with pytest.raises(ValidationError):
            self.model.tau([1.0], X)


class TestPseudoOutcome:
    def setup_method(self):
        self.model = StructuralModel(
            BasisSpec((constant_term(), linear_term(0))),
            BasisSpec((linear_term(1),)),
        )
        self.psi = PsiVector([1.0, 2.0], [3.0])

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
        trial = data.rows(1)
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
