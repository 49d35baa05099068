"""Nuisance fits checked against independent references.

The identity-link fits are compared with plain least squares, the
logistic fit with a scipy minimizer of the same penalized deviance, and
the cell variances with the mean squared residuals and the known
homoscedastic truth of a synthetic draw.
"""

import os
import select
import signal
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from htefusion import (
    AdditiveRegressor,
    BasisSpec,
    Dataset,
    NumericalError,
    Propensity,
    StructuralModel,
    ValidationError,
    VarianceFunction,
    build_spline_basis,
    build_workspace,
    constant_term,
    fit_additive,
    fit_propensity,
    fit_variance_function,
    generate_replicate,
    linear_term,
    square_term,
)
import htefusion.estimators as estimators
import htefusion.model as hmodel
from htefusion.nuisance import (
    _Smoother,
    _gram,
    fit_conditional_outcomes,
    fit_outcome_mean,
    source_designs,
)
from conftest import make_config, subset, true_values
from oracles import logit_irls, pseudo_outcomes


class TestBuildSplineBasis:
    def test_column_count(self, desk_data):
        for knots in (0, 2, 4):
            spec = build_spline_basis(desk_data, knots)
            assert spec.p == 1 + desk_data.d * (knots + 1)

    def test_zero_knots_degenerates_to_linear(self, desk_data):
        spec = build_spline_basis(desk_data, 0)
        kinds = [t.kind for t in spec.terms]
        assert kinds == ["const"] + ["linear"] * desk_data.d

    def test_constant_covariate_warns_and_shrinks(self):
        x = np.column_stack([np.random.default_rng(0).standard_normal(50),
                             np.full(50, 2.0)])
        data = Dataset(np.ones(50, dtype=int), np.zeros(50, dtype=int),
                       np.zeros(50), x)
        with pytest.warns(UserWarning, match="constant"):
            spec = build_spline_basis(data, 3)
        # second covariate keeps only its linear term
        assert sum(t.kind == "spline" and t.j == 1 for t in spec.terms) == 0
        assert sum(t.kind == "spline" and t.j == 0 for t in spec.terms) == 3

    def test_few_distinct_values_warns(self):
        x = np.tile([0.0, 1.0], 25)[:, None]
        data = Dataset(np.ones(50, dtype=int), np.zeros(50, dtype=int),
                       np.zeros(50), x)
        with pytest.warns(UserWarning):
            build_spline_basis(data, 4)

    def test_validation(self, desk_data):
        with pytest.raises(ValidationError):
            build_spline_basis(desk_data, -1)

    @settings(max_examples=80, deadline=None)
    @given(n=st.one_of(st.integers(3, 300), st.integers(300, 70000)),
           kind=st.sampled_from(["normal", "integers", "cents"]),
           knots=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_knots_are_the_columns_quantiles_bit_for_bit(self, n, kind, knots, seed):
        # read from one sort of the column, by np.quantile's own rule; the
        # integer and 2-decimal columns tie many values
        rng = np.random.default_rng(seed)
        col = {"normal": lambda: rng.standard_normal(n),
               "integers": lambda: rng.integers(0, 6, n).astype(float),
               "cents": lambda: rng.integers(-300, 300, n) / 100.0}[kind]()
        data = Dataset(np.ones(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n),
                       col[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ties may leave fewer pieces, or none
            spec = build_spline_basis(data, knots)
        qs = np.arange(1, knots + 1) / (knots + 1)
        want = np.unique(np.concatenate([[col.min()], np.quantile(col, qs), [col.max()]]))
        got = {np.array(t.knots).tobytes() for t in spec.terms if t.kind == "spline"}
        assert got == ({want.tobytes()} if want.size >= 3 else set())


class TestFitAdditive:
    def test_identity_matches_lstsq(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 2))
        y = 1.0 + 2.0 * x[:, 0] - 0.5 * x[:, 1] + rng.standard_normal(200)
        spec = BasisSpec((constant_term(), linear_term(0), linear_term(1)))
        fit = fit_additive(spec.design(x), y, spec, ridge=1e-12)
        ref, *_ = np.linalg.lstsq(spec.design(x), y, rcond=None)
        assert np.allclose(fit.coef, ref, atol=1e-6)
        assert np.allclose(fit.predict(spec.design(x)), spec.design(x) @ ref, atol=1e-6)

    def test_logit_matches_scipy_minimizer(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((500, 2))
        p = expit(0.5 + x[:, 0] - 0.8 * x[:, 1])
        y = (rng.random(500) < p).astype(float)
        spec = BasisSpec((constant_term(), linear_term(0), linear_term(1)))
        ridge = 1e-6
        fit = fit_additive(spec.design(x), y, spec, link="logit", ridge=ridge)

        design = spec.design(x)
        pen = ridge * float(np.mean(np.sum(design * design, axis=0)))

        def deviance(c):
            eta = design @ c
            return 2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta) + pen * c @ c

        ref = minimize(deviance, np.zeros(3), method="BFGS",
                       options={"gtol": 1e-12}).x
        assert np.allclose(fit.coef, ref, atol=1e-5)

    @pytest.mark.parametrize("knots", [0, 4])
    def test_logit_matches_reference_irls(self, desk_data, knots):
        spec = build_spline_basis(desk_data, knots)
        for source, design in source_designs(desk_data, spec).items():
            y = desk_data.a[desk_data.s == source].astype(float)
            fit = fit_additive(design, y, spec, link="logit", ridge=1e-6)
            np.testing.assert_allclose(fit.coef, logit_irls(design, y, 1e-6),
                                       rtol=1e-12, atol=0.0)

    def test_collinear_design_warns_but_fits(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 2))
        x[:, 1] = x[:, 0]
        y = x[:, 0] + rng.standard_normal(50)
        spec = BasisSpec((constant_term(), linear_term(0), linear_term(1)))
        fit = fit_additive(spec.design(x), y, spec, ridge=1e-8)
        assert np.isfinite(fit.coef).all()

    def test_unpenalized_singular_fit_warns_and_splits_evenly(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 1))
        y = x[:, 0] + rng.standard_normal(50)
        spec = BasisSpec((constant_term(), linear_term(0), linear_term(0)))
        with pytest.warns(UserWarning, match="toy fit: singular normal equations"):
            fit = fit_additive(spec.design(x), y, spec, ridge=0.0, what="toy fit")
        assert fit.coef[1] == pytest.approx(fit.coef[2], rel=1e-6)

    def test_validation(self):
        spec = BasisSpec((constant_term(),))
        with pytest.raises(ValidationError):
            fit_additive(np.zeros((3, 1)), np.zeros(3), spec, link="probit")


# each nuisance fit that reads a ridge, called on the desk draw's knots=0
# basis; the propensity fit reads it in the cohort's logistic regression
RIDGE_READERS = {
    "identity": lambda data, spec, designs, ridge: fit_additive(
        designs[0], data.y[data.block(0)], spec, ridge=ridge),
    "logit": lambda data, spec, designs, ridge: fit_additive(
        designs[0], data.a[data.block(0)].astype(float), spec, link="logit", ridge=ridge),
    "propensity": lambda data, spec, designs, ridge: fit_propensity(
        data, spec, designs, ridge=ridge),
    "outcome-mean": lambda data, spec, designs, ridge: fit_outcome_mean(
        data, data.y, spec, designs, ridge=ridge),
}


@pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("fit", RIDGE_READERS.values(), ids=RIDGE_READERS)
def test_ridge_is_checked_where_it_is_read(desk_data, fit, ridge):
    spec = build_spline_basis(desk_data, 0)
    with pytest.raises(ValidationError, match="ridge must be finite and non-negative"):
        fit(desk_data, spec, source_designs(desk_data, spec), ridge)


class TestFitPropensity:
    def test_trial_known_short_circuits(self, desk_data):
        spec = build_spline_basis(desk_data, 0)
        fit = fit_propensity(desk_data, spec, source_designs(desk_data, spec),
                             trial_known=0.5)
        # a known probability reads no design
        on_trial = fit.predict(np.ones(5, dtype=int), {})
        assert np.all(on_trial == 0.5)

    def test_observational_fit_tracks_truth(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20000, 3))
        p = expit(-x.sum(axis=1))
        a = (rng.random(20000) < p).astype(int)
        a[:2] = [0, 1]
        data = Dataset(np.zeros(20000, dtype=int), a, np.zeros(20000), x)
        spec = build_spline_basis(data, 0)
        fit = fit_propensity(data, spec, source_designs(data, spec), clip_e=0.01)
        grid = rng.standard_normal((200, 3))
        got = fit.predict_raw(np.zeros(200, dtype=int), {0: spec.design(grid)})
        want = expit(-grid.sum(axis=1))
        assert np.abs(got - want).max() < 0.03

    def test_clip_is_applied_symmetrically(self):
        identity = AdditiveRegressor(BasisSpec((linear_term(0),)), np.array([1.0]))
        e = Propensity({0: identity}, clip=0.1)
        designs = {0: identity.basis.design(np.array([[0.0], [0.5], [1.0]]))}
        assert e.predict(np.zeros(3, dtype=int), designs).tolist() == [0.1, 0.5, 0.9]
        assert e.predict_raw(np.zeros(3, dtype=int), designs).tolist() == [0.0, 0.5, 1.0]

    def test_single_arm_source_raises(self):
        data = Dataset([0, 0, 1, 1], [1, 1, 0, 1], np.zeros(4),
                       np.random.default_rng(0).standard_normal((4, 2)))
        spec = BasisSpec((constant_term(),))
        with pytest.raises(ValidationError, match="single treatment arm"):
            fit_propensity(data, spec, source_designs(data, spec))

    def test_unknown_source_prediction_raises(self, desk_data):
        spec = build_spline_basis(desk_data, 0)
        obs = subset(desk_data, desk_data.s == 0)
        fit = fit_propensity(obs, spec, source_designs(obs, spec))
        with pytest.raises(ValidationError, match="no propensity component for source s=1"):
            fit.predict(np.ones(3, dtype=int), {1: spec.design(desk_data.x[:3])})

    def test_irls_failure_names_the_fit_and_source(self, desk_data, monkeypatch):
        spec = build_spline_basis(desk_data, 0)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        designs = source_designs(desk_data, spec)
        with pytest.raises(NumericalError,
                           match=r"^propensity fit \(s=0\): IRLS update produced"):
            fit_propensity(desk_data, spec, designs, trial_known=0.5)
        with pytest.raises(NumericalError, match=r"^propensity fit \(s=1\): IRLS"):
            fit_propensity(desk_data.trial_only(), spec, {1: designs[1]})

    def test_validation(self, desk_data):
        spec = build_spline_basis(desk_data, 0)
        designs = source_designs(desk_data, spec)
        with pytest.raises(ValidationError):
            fit_propensity(desk_data, spec, designs, clip_e=0.6)
        with pytest.raises(ValidationError):
            fit_propensity(desk_data, spec, designs, trial_known=1.5)


class TestSharedDesigns:
    def test_fits_on_stage_designs_match_fits_on_covariates(self, desk_data):
        # records given trial first, interleaved or cohort first: each source
        # and cell fit has the bits of a fit on the rows a mask picks
        spec = build_spline_basis(desk_data, 2)
        columns = (desk_data.s, desk_data.a, desk_data.y, desk_data.x)
        interleaved = np.random.default_rng(5).permutation(desk_data.n)
        cohort_first = np.argsort(desk_data.s, kind="stable")
        for order in (slice(None), interleaved, cohort_first):
            data = Dataset(*(col[order] for col in columns))
            designs = source_designs(data, spec)
            assert {src: d.shape for src, d in designs.items()} == {
                0: (data.n_obs, spec.p), 1: (data.n_trial, spec.p)}
            x, a, y = data.x, data.a, data.y
            propensity = fit_propensity(data, spec, designs).by_source
            for source in (0, 1):
                rows = data.s == source
                fresh = fit_additive(spec.design(x[rows]), a[rows], spec, link="logit")
                assert np.array_equal(propensity[source].coef, fresh.coef)
            cells = fit_conditional_outcomes(data, spec, designs).by_cell
            assert set(cells) == {(a_val, s_val) for a_val in (0, 1) for s_val in (0, 1)}
            for (a_val, s_val), fit in cells.items():
                rows = (data.s == s_val) & (data.a == a_val)
                fresh = fit_additive(spec.design(x[rows]), y[rows], spec)
                assert np.array_equal(fit.coef, fresh.coef)

    def test_design_shape_is_checked(self):
        spec = BasisSpec((constant_term(), linear_term(0)))
        for design in (np.ones((3, 2)), np.ones((4, 1)), np.ones((4, 3)), np.ones(4)):
            with pytest.raises(ValidationError, match="design does not match y and the basis"):
                fit_additive(design, np.zeros(4), spec)
        x = np.arange(4.0)[:, None]
        fit = fit_additive(spec.design(x), x[:, 0], spec)
        for design in (np.ones((4, 1)), np.ones((4, 3)), np.ones(2)):
            with pytest.raises(ValidationError, match="design does not match the basis"):
                fit.predict(design)
        assert np.allclose(fit.predict(spec.design(x[:2])), [0.0, 1.0], atol=1e-4)


class TestFitConditionalOutcomes:
    def test_recovers_cell_structure(self):
        rng = np.random.default_rng(5)
        n = 8000
        x = rng.standard_normal((n, 2))
        s = (rng.random(n) < 0.5).astype(int)
        a = (rng.random(n) < 0.5).astype(int)
        y = 2.0 * a * s + x[:, 0] * (1 + a) + 0.01 * rng.standard_normal(n)
        data = Dataset(s, a, y, x)
        spec = build_spline_basis(data, 0)
        fit = fit_conditional_outcomes(data, spec, source_designs(data, spec))
        probe = spec.design(np.array([[1.0, 0.0]]))
        assert fit.predict(1, 1, probe)[0] == pytest.approx(4.0, abs=0.1)
        assert fit.predict(0, 1, probe)[0] == pytest.approx(1.0, abs=0.1)
        assert fit.predict(1, 0, probe)[0] == pytest.approx(2.0, abs=0.1)

    def test_missing_cell_raises_on_predict(self):
        data = Dataset([1, 1, 1, 1], [0, 1, 0, 1], [0.0, 1.0, 0.0, 1.0],
                       np.random.default_rng(1).standard_normal((4, 1)))
        spec = BasisSpec((constant_term(),))
        fit = fit_conditional_outcomes(data, spec, source_designs(data, spec))
        with pytest.raises(ValidationError, match=r"cell \(a=1, s=0\)"):
            fit.predict(1, 0, np.ones((1, 1)))


class TestFitOutcomeMean:
    def test_recovers_truth_at_true_coefficients(self):
        from conftest import make_config, true_psi, true_values
        from htefusion import generate_replicate

        cfg = make_config(beta=1.0, n=20000, m=20000, seed=9)
        data = generate_replicate(cfg, 0)
        model = cfg.model()
        psi = true_psi(cfg)
        truth = true_values(cfg, data)
        spec = build_spline_basis(data, 0)
        h = pseudo_outcomes(model, psi, data, truth["e"])
        fit = fit_outcome_mean(data, h, spec, source_designs(data, spec))
        # the pseudo-outcome mean on trial records is sum(x), a linear surface
        grid = np.random.default_rng(0).standard_normal((100, 5))
        got = fit.predict(np.ones(100, dtype=int), {1: spec.design(grid)})
        assert np.abs(got - grid.sum(axis=1)).max() < 0.15


class TestFitVarianceFunction:
    @staticmethod
    def _fitted(seed=6, cohort_first=False):
        # the sources are drawn interleaved; or given cohort first
        rng = np.random.default_rng(seed)
        n = 20000
        x = rng.standard_normal((n, 2))
        s = (rng.random(n) < 0.5).astype(int)
        a = (rng.random(n) < 0.5).astype(int)
        y = x[:, 0] + np.where(s == 1, 1.0, 3.0) ** 0.5 * rng.standard_normal(n)
        if cohort_first:
            order = np.argsort(s, kind="stable")
            s, a, y, x = s[order], a[order], y[order], x[order]
        data = Dataset(s, a, y, x)
        model = StructuralModel(BasisSpec((constant_term(),)),
                                BasisSpec((linear_term(0),)))
        psi = np.zeros(2)
        spec = build_spline_basis(data, 0)
        designs = source_designs(data, spec)
        e = Propensity({0: 0.5, 1: 0.5})
        h = pseudo_outcomes(model, psi, data, e.predict(data.s, designs))
        resid = h - fit_outcome_mean(data, h, spec, designs).predict(data.s, designs)
        return data, model, psi, e, resid, spec

    def test_recovers_homoscedastic_truth(self):
        data, model, psi, e, resid, spec = self._fitted()
        fit = fit_variance_function(data, resid, y_var=float(np.var(data.y)))
        v_trial = fit.predict(1, np.ones(50, dtype=int))
        v_obs = fit.predict(0, np.zeros(50, dtype=int))
        assert np.abs(v_trial / 1.0 - 1.0).max() < 0.12
        assert np.abs(v_obs / 3.0 - 1.0).max() < 0.12

    def test_intercept_only_spec_gives_cell_constants(self):
        # each cell's variance is the intercept-only fit of the squared
        # residuals: their mean over the records a mask picks, whether the
        # sources were given interleaved or cohort first
        for cohort_first in (False, True):
            data, model, psi, e, resid, _ = self._fitted(cohort_first=cohort_first)
            fit = fit_variance_function(data, resid, y_var=float(np.var(data.y)))
            assert set(fit.by_cell) == {(a, s) for a in (0, 1) for s in (0, 1)}
            for (a, s), var in fit.by_cell.items():
                assert var == np.mean(resid[(data.s == s) & (data.a == a)] ** 2)
                assert var == pytest.approx(1.0 if s == 1 else 3.0, rel=0.12)
            vals = fit.predict(1, np.ones(10, dtype=int))
            assert np.all(vals == fit.by_cell[(1, 1)])

    def test_held_pseudo_outcome_and_outcome_variance(self):
        data, model, psi, e, resid, spec = self._fitted()
        designs = source_designs(data, spec)
        h = pseudo_outcomes(model, psi, data, e.predict(data.s, designs))
        held = fit_outcome_mean(data, h, spec, designs)
        for source in (0, 1):
            rows = data.s == source
            fresh = fit_additive(spec.design(data.x[rows]), h[rows], spec)
            assert np.array_equal(held.by_source[source].coef, fresh.coef)
        # the outcome variance only bounds the cells: any that brackets
        # their mean squares, or none (y_var <= 0 or NaN reads as 1), leaves them be
        base = fit_variance_function(data, resid, y_var=float(np.var(data.y)))
        for y_var in (2.0, 0.0, -1.0, float("nan")):
            again = fit_variance_function(data, resid, y_var=y_var)
            assert again.by_cell == base.by_cell
            assert np.array_equal(again.predict(1, np.ones(3, dtype=int)),
                                  base.predict(1, np.ones(3, dtype=int)))

    def test_misshapen_residuals_raise(self):
        data, model, psi, e, resid, _ = self._fitted()
        with pytest.raises(ValidationError, match="residuals do not match"):
            fit_variance_function(data, resid[:-1], y_var=1.0)

    def test_singular_cell_fit_warning_names_its_cell(self):
        data, model, psi, e, resid, _ = self._fitted()
        dup = BasisSpec((constant_term(), linear_term(0), linear_term(0)))
        designs = source_designs(data, dup)
        with pytest.warns(UserWarning) as caught:
            fit_conditional_outcomes(data, dup, designs, ridge=0.0)
            fit_outcome_mean(data, resid, dup, designs, ridge=0.0)
        messages = {str(w.message).split(":")[0] for w in caught}
        cells = [(a, s) for s in (0, 1) for a in (0, 1)]
        assert messages == ({f"conditional-outcome fit (a={a}, s={s})" for a, s in cells}
                            | {"outcome-mean fit (s=0)", "outcome-mean fit (s=1)"})

    def test_bounds_clamp_predictions(self):
        data, model, psi, e, resid, spec = self._fitted()
        # a tiny outcome variance caps every cell, a huge one floors it
        for y_var, bound in ((1e-9, 1e4 * 1e-9), (1e9, 1e-4 * 1e9)):
            fit = fit_variance_function(data, resid, y_var=y_var)
            assert np.all(fit.predict(1, np.ones(5, dtype=int)) == bound)
            assert set(fit.by_cell.values()) == {bound}
            assert all(type(var) is float for var in fit.by_cell.values())

    def test_variance_function_scalar_components(self):
        vf = VarianceFunction({(0, 0): 2.0, (1, 0): 2.0, (0, 1): 1.0, (1, 1): 1.0})
        assert vf.predict(0, [0, 0, 1, 1]).tolist() == [2.0, 2.0, 1.0, 1.0]
        assert vf.predict(1, [1, 0]).tolist() == [1.0, 2.0]
        with pytest.raises(ValidationError, match=r"cell \(a=0, s=2\)"):
            vf.predict(0, 2 * np.ones(4, dtype=int))


class TestConcurrentFits:
    """A fit holds no state beyond its own call: fits in threads and in a
    forked child have a serial fit's bits."""

    def test_concurrent_logit_fits_have_a_serial_fits_bits(self, desk_data):
        # three threads fit at once, with the interpreter switching threads
        # every microsecond
        spec = build_spline_basis(desk_data, 4)
        design = source_designs(desk_data, spec)[0]
        y = desk_data.a[desk_data.block(0)].astype(float)
        want = fit_additive(design, y, spec, link="logit").coef
        got = [None] * 3

        def fit(i):
            got[i] = fit_additive(design, y, spec, link="logit").coef

        threads = [threading.Thread(target=fit, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(coef is not None and coef.tobytes() == want.tobytes() for coef in got)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_fits_with_the_parents_bits(self, desk_data):
        spec = build_spline_basis(desk_data, 4)
        designs = source_designs(desk_data, spec)
        want = fit_propensity(desk_data, spec, designs).by_source[0].coef
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                got = fit_propensity(desk_data, spec, designs).by_source[0].coef
                os.write(write_end, got.tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 60.0)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            got = os.read(read_end, want.nbytes) if ready else b""
        finally:
            os.close(read_end)
            _, status = os.waitpid(pid, 0)
        assert ready, "the forked child's fit did not finish"
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want.tobytes()


class TestHeldGram:
    """A fit given a design's held smoother has the bits of one that forms
    its Gram, on the whole draw and on each of its two row halves, whose
    designs have other row counts; a smoother of another design or ridge is
    refused."""

    @pytest.fixture(params=["whole", "halves"])
    def draws(self, request, desk_data):
        if request.param == "whole":
            return [desk_data]
        # the first and the second half of each source's records
        rank = np.arange(desk_data.n) - np.where(desk_data.s == 1, 0, desk_data.n_trial)
        size = np.where(desk_data.s == 1, desk_data.n_trial, desk_data.n_obs)
        first = 2 * rank < size
        return [subset(desk_data, first), subset(desk_data, ~first)]

    @staticmethod
    def _propensity_cases(draws):
        for data in draws:
            spec = build_spline_basis(data, 4)
            for source, design in source_designs(data, spec).items():
                yield spec, design, data.a[data.block(source)].astype(float)

    @pytest.mark.parametrize("scale", [2.0 ** -240, 1.0, 2.0 ** 240], ids=["2^-240", "1", "2^240"])
    def test_first_irls_step_is_the_weighted_step_at_zero(self, draws, monkeypatch, scale):
        # the first step solves on a quarter of the Gram; it must have the
        # bits of the weighted normal equations every later step forms, here
        # at eta = 0, where every weight is 1/4
        class FirstSystem(Exception):
            pass

        def first_system(a, b):
            raise FirstSystem(a, b)

        for spec, design, y in self._propensity_cases(draws):
            design = design * scale
            p = design.shape[1]
            r = np.empty_like(design)
            prob = hmodel._expit(np.zeros(design.shape[0]))
            w = np.maximum(prob * (1.0 - prob), 1e-10)
            np.multiply(design, np.sqrt(w)[:, None], out=r)
            gram, rhs = r.T @ r, design.T @ (w * ((y - prob) / w))
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", first_system)
                with pytest.raises(FirstSystem) as got:
                    fit_additive(design, y, spec, link="logit", ridge=0.0)
            assert got.value.args[0].tobytes() == (gram + 0.0 * np.eye(p)).tobytes()
            assert got.value.args[1].tobytes() == rhs.tobytes()

    def test_quarter_gram_is_inexact_only_past_the_normal_range(self):
        # an overflowing entry is inf in X'X but finite in the weighted Gram,
        # and a subnormal one is rounded twice; no fitted design has either
        # (an overflowing design fails its fit either way)
        for x in (2.0 ** 512, np.sqrt(5.6) * 2.0 ** -537):
            design = np.array([[x]])
            with np.errstate(over="ignore"):
                quarter = 0.25 * _gram(design)
            assert quarter.tobytes() != ((0.5 * design).T @ (0.5 * design)).tobytes()

    def test_logit_fit_reads_the_held_gram_with_the_same_bits(self, draws):
        ridge = 1e-6
        for spec, design, y in self._propensity_cases(draws):
            formed = fit_additive(design, y, spec, link="logit", ridge=ridge).coef
            held = fit_additive(design, y, spec, link="logit", ridge=ridge,
                                smoother=_Smoother(design, ridge)).coef
            assert held.tobytes() == formed.tobytes()

    def test_smoother_reads_the_held_grams_with_the_same_bits(self, draws):
        cfg = make_config(beta=1.0, seed=3)  # desk_data's draw
        ridge = 1e-6
        for data in draws:
            designs = source_designs(data, build_spline_basis(data, 4))
            ws = build_workspace(data, cfg.model(), **true_values(cfg, data))
            # the stacked [y, R] of each source, smoothed from scratch
            want = {}
            for source, design in designs.items():
                rows = data.block(source)
                z = np.empty((design.shape[0], ws.p + 1), order="F")
                z[:, 0], z[:, 1:] = ws.base_resid[rows], ws.resid_design[rows]
                gram, p = _gram(design), design.shape[1]
                pen = ridge * float(np.mean(np.diag(gram)))
                want[source] = z - design @ np.linalg.solve(gram + pen * np.eye(p),
                                                            design.T @ z)
            got = estimators._profile_outcome_mean(
                ws, data, {source: _Smoother(d, ridge) for source, d in designs.items()})
            for source, z in want.items():
                rows = data.block(source)
                assert got.base_resid[rows].tobytes() == z[:, 0].tobytes()
                assert got.resid_design[rows].tobytes() == z[:, 1:].tobytes()

    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_smoother_of_another_design_or_ridge_is_refused(self, desk_data, link):
        spec = build_spline_basis(desk_data, 4)
        designs = source_designs(desk_data, spec)
        rows = desk_data.block(0)
        y = desk_data.a[rows].astype(float) if link == "logit" else desk_data.y[rows]
        # the trial's design, this design at another ridge, and an equal copy
        for foreign in (_Smoother(designs[1], 1e-6), _Smoother(designs[0], 1e-4),
                        _Smoother(designs[0].copy(), 1e-6)):
            with pytest.raises(ValidationError, match="another design or ridge"):
                fit_additive(designs[0], y, spec, link=link, ridge=1e-6, smoother=foreign)
