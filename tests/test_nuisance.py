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
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from htefusion import (
    AdditiveRegressor,
    BasisSpec,
    Dataset,
    FitOptions,
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
    run_pipeline,
    square_term,
)
import htefusion.estimators as estimators
import htefusion.model as hmodel
from htefusion.nuisance import fit_conditional_outcomes, fit_outcome_mean, source_designs
from conftest import make_config, true_values
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
            y = desk_data.a[desk_data.rows(source)].astype(float)
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
        obs = desk_data.subset(desk_data.s == 0)
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
        spec = build_spline_basis(desk_data, 2)
        designs = source_designs(desk_data, spec)
        assert {src: d.shape for src, d in designs.items()} == {
            0: (desk_data.n_obs, spec.p), 1: (desk_data.n_trial, spec.p)}
        x, a, y = desk_data.x, desk_data.a, desk_data.y
        propensity = fit_propensity(desk_data, spec, designs).by_source
        for source in (0, 1):
            rows = desk_data.rows(source)
            fresh = fit_additive(spec.design(x[rows]), a[rows], spec, link="logit")
            assert np.array_equal(propensity[source].coef, fresh.coef)
        cells = fit_conditional_outcomes(desk_data, spec, designs).by_cell
        assert set(cells) == {(a_val, s_val) for a_val in (0, 1) for s_val in (0, 1)}
        for (a_val, s_val), fit in cells.items():
            rows = desk_data.rows(s_val, a_val)
            assert np.array_equal(fit.coef, fit_additive(spec.design(x[rows]), y[rows], spec).coef)

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
        h = pseudo_outcomes(model, psi, data, truth.e)
        fit = fit_outcome_mean(data, h, spec, source_designs(data, spec))
        # the pseudo-outcome mean on trial records is sum(x), a linear surface
        grid = np.random.default_rng(0).standard_normal((100, 5))
        got = fit.predict(np.ones(100, dtype=int), {1: spec.design(grid)})
        assert np.abs(got - grid.sum(axis=1)).max() < 0.15


class TestFitVarianceFunction:
    @staticmethod
    def _fitted(seed=6):
        rng = np.random.default_rng(seed)
        n = 20000
        x = rng.standard_normal((n, 2))
        s = (rng.random(n) < 0.5).astype(int)
        a = (rng.random(n) < 0.5).astype(int)
        y = x[:, 0] + np.where(s == 1, 1.0, 3.0) ** 0.5 * rng.standard_normal(n)
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
        # residuals: their mean
        data, model, psi, e, resid, _ = self._fitted()
        fit = fit_variance_function(data, resid, y_var=float(np.var(data.y)))
        assert set(fit.by_cell) == {(a, s) for a in (0, 1) for s in (0, 1)}
        for (a, s), var in fit.by_cell.items():
            assert var == np.mean(resid[data.rows(s, a)] ** 2)
            assert var == pytest.approx(1.0 if s == 1 else 3.0, rel=0.12)
        vals = fit.predict(1, np.ones(10, dtype=int))
        assert np.all(vals == fit.by_cell[(1, 1)])

    def test_held_pseudo_outcome_and_outcome_variance(self):
        data, model, psi, e, resid, spec = self._fitted()
        designs = source_designs(data, spec)
        h = pseudo_outcomes(model, psi, data, e.predict(data.s, designs))
        held = fit_outcome_mean(data, h, spec, designs)
        for source in (0, 1):
            rows = data.rows(source)
            fresh = fit_additive(spec.design(data.x[rows]), h[rows], spec)
            assert np.array_equal(held.by_source[source].coef, fresh.coef)
        # the outcome variance only bounds the cells: any that brackets
        # their mean squares, or none (y_var <= 0 reads as 1), leaves them be
        base = fit_variance_function(data, resid, y_var=float(np.var(data.y)))
        for y_var in (2.0, 0.0, -1.0):
            again = fit_variance_function(data, resid, y_var=y_var)
            assert again.by_cell == base.by_cell
            assert np.array_equal(again.predict(1, np.ones(3, dtype=int)),
                                  base.predict(1, np.ones(3, dtype=int)))

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

    def test_variance_function_scalar_components(self):
        vf = VarianceFunction({(0, 0): 2.0, (1, 0): 2.0, (0, 1): 1.0, (1, 1): 1.0})
        assert vf.predict(0, [0, 0, 1, 1]).tolist() == [2.0, 2.0, 1.0, 1.0]
        assert vf.predict(1, [1, 0]).tolist() == [1.0, 2.0]
        with pytest.raises(ValidationError, match=r"cell \(a=0, s=2\)"):
            vf.predict(0, 2 * np.ones(4, dtype=int))


@pytest.fixture(scope="module")
def split_study():
    """A draw whose cohort fits run on two row halves: 20000 cohort records
    on a 26-column basis, about 1.35e7 multiply-adds per Gram and half that
    per arm, above ``model._SPLIT_WORK``; the 300 trial records stay below."""
    cfg = make_config(beta=1.0, n=300, m=20000, seed=11)
    data = generate_replicate(cfg, 0)
    spec = build_spline_basis(data, 4)
    designs = source_designs(data, spec)
    for arm in (0, 1):
        assert np.count_nonzero(data.rows(0, arm)) * spec.p ** 2 >= hmodel._SPLIT_WORK
    assert data.n_trial * spec.p ** 2 < hmodel._SPLIT_WORK
    return cfg, data, spec, designs


@pytest.fixture
def worker_thread(monkeypatch):
    """A fresh worker thread to run second halves, whatever this host's
    core and BLAS thread counts would choose."""
    monkeypatch.setattr(hmodel, "_blas_threads", lambda: 1)
    monkeypatch.setattr(hmodel.os, "cpu_count", lambda: 2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        monkeypatch.setattr(hmodel, "_halves", pool)
        yield pool


class _InCallerStandIn:
    """Runs each submitted half at once in the caller and counts them."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        value = fn(*args)
        return SimpleNamespace(result=lambda: value)


def _split_fit(cfg, data, spec, designs):
    """The split-size kernels of a fit: the cohort propensity IRLS, the
    cell regressions and the integrative solve with its profiled smoother."""
    propensity = fit_propensity(data, spec, designs).by_source[0].coef
    cells = fit_conditional_outcomes(data, spec, designs).by_cell
    psi = run_pipeline(data, cfg.model(), FitOptions(knots=4)).integrative.psi_hat
    return [propensity, *(cells[key].coef for key in sorted(cells)), psi]


class TestRowHalves:
    def test_the_oracle_comparisons_run_on_one_block(self, desk_data):
        # test_logit_matches_reference_irls holds its 1e-12 tolerance because
        # its designs stay below the split, so their kernels run unsplit
        for knots in (0, 4):
            spec = build_spline_basis(desk_data, knots)
            for design in source_designs(desk_data, spec).values():
                assert design.shape[0] * spec.p ** 2 < hmodel._SPLIT_WORK

    def test_serial_stand_in_gives_the_bits_of_the_worker_thread(self, split_study,
                                                                 worker_thread, monkeypatch):
        cfg, data, spec, designs = split_study
        threaded = _split_fit(cfg, data, spec, designs)
        stand_in = _InCallerStandIn()
        monkeypatch.setattr(hmodel, "_halves", stand_in)
        serial = _split_fit(cfg, data, spec, designs)
        assert stand_in.submitted > 0
        for got, want in zip(serial, threaded):
            assert np.array_equal(got, want)

    def test_worker_thread_only_beside_one_blas_thread_on_several_cores(self, monkeypatch):
        # chosen at each split: a process that made its worker thread while a
        # study pinned BLAS runs its later splits in the caller beside BLAS
        # threads.  A count of 0 stands for a BLAS other than numpy's OpenBLAS
        monkeypatch.setattr(hmodel, "_halves", None)
        made = []
        for cores, blas_threads in ((2, 1), (1, 1), (2, 2), (2, 0), (2, 1)):
            monkeypatch.setattr(hmodel.os, "cpu_count", lambda: cores)
            monkeypatch.setattr(hmodel, "_blas_threads", lambda: blas_threads)
            chosen = hmodel._halves_runner()
            if (cores, blas_threads) == (2, 1):
                assert isinstance(chosen, ThreadPoolExecutor) and hmodel._halves is chosen
                made.append(chosen)
            else:
                assert chosen is hmodel._IN_CALLER
        assert made[0] is made[1]  # one worker thread for the process
        made[0].shutdown()

    def test_split_kernels_agree_with_one_block(self, split_study, worker_thread, monkeypatch):
        # the halves add their sums in another order than one block does; on
        # this draw the cohort fits moved by at most 9.1e-11 relative and the
        # integrative coefficients by 9.7e-15
        cfg, data, spec, designs = split_study
        split = _split_fit(cfg, data, spec, designs)
        monkeypatch.setattr(hmodel, "_SPLIT_WORK", np.inf)
        single = _split_fit(cfg, data, spec, designs)
        for got, want in zip(split, single):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    def test_split_smoother_agrees_with_one_block(self, split_study, worker_thread,
                                                  monkeypatch):
        cfg, data, spec, designs = split_study

        def profiled():
            ws = build_workspace(data, cfg.model(), true_values(cfg, data))
            return estimators._profile_outcome_mean(ws, data, designs, 1e-6)

        split = profiled()
        monkeypatch.setattr(hmodel, "_SPLIT_WORK", np.inf)
        single = profiled()
        # moved by at most 5.1e-13 of each array's largest entry on this draw
        for got, want in ((split.base_resid, single.base_resid),
                          (split.resid_design, single.resid_design)):
            assert not np.array_equal(got, want)  # the split did change the sums
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * np.abs(want).max())

    def test_concurrent_fits_share_the_worker_thread(self, split_study, worker_thread):
        # three callers queue their halves on the one worker thread, with the
        # interpreter switching threads every microsecond
        cfg, data, spec, designs = split_study
        y = data.a[data.block(0)].astype(float)
        want = fit_additive(designs[0], y, spec, link="logit").coef
        got = [None] * 3

        def fit(i):
            got[i] = fit_additive(designs[0], y, spec, link="logit").coef

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
    def test_forked_child_fits_with_the_parents_bits(self, split_study, worker_thread,
                                                      monkeypatch):
        # the child inherits the executor but not its thread: without the
        # at-fork hook its first split would wait forever.  It makes its own
        # worker thread, as beside one BLAS thread
        monkeypatch.setattr(hmodel, "_blas_threads", lambda: 1)
        monkeypatch.setattr(hmodel.os, "cpu_count", lambda: 2)
        cfg, data, spec, designs = split_study
        want = fit_propensity(data, spec, designs).by_source[0].coef
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                got = fit_propensity(data, spec, designs).by_source[0].coef
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
        assert ready, "the forked child's split fit did not finish"
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want.tobytes()
