"""Sandwich covariance, effect summaries, precision gain, and the test."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from htefusion import (
    BasisSpec,
    NumericalError,
    SimConfig,
    StructuralModel,
    ValidationError,
    ate_estimate,
    build_workspace,
    constant_term,
    generate_replicate,
    gof_test,
    linear_term,
    precision_gain,
    product_term,
    run_pipeline,
    run_replicate,
    sandwich_covariance,
    solve_integrative,
    solve_rct,
    square_term,
    tau_curve,
)
from htefusion.inference import _chi2_sf, _solve_square
from conftest import make_config, true_psi, true_values, values_subset
from oracles import gof_statistic, score_matrix


@pytest.fixture(scope="module")
def solved():
    """A pooled solve on the true nuisances; ``nuis`` is a fresh workspace
    built from their values, the one ``rep.workspace`` was solved on."""
    cfg = make_config(beta=1.0, n=500, m=1500, seed=13)
    data = generate_replicate(cfg, 0)
    model = cfg.model()
    values = true_values(cfg, data)
    rep = solve_integrative(data, build_workspace(data, model, **values))
    nuis = build_workspace(data, model, **values)
    est = sandwich_covariance(data, rep.psi_hat, nuis)
    return cfg, data, model, nuis, rep, est


class TestSandwich:
    def test_matches_direct_formula(self, solved):
        cfg, data, model, nuis, rep, est = solved
        ws = nuis
        scores = score_matrix(ws, rep.psi_hat)
        bread = ws.jacobian
        meat = scores.T @ scores / ws.n
        binv = np.linalg.inv(bread)
        want = binv @ meat @ binv.T / ws.n
        want = (want + want.T) / 2.0
        assert np.allclose(est.cov, want, rtol=1e-10)

    def test_shape_and_positive_definiteness(self, solved):
        cfg, data, model, nuis, rep, est = solved
        assert est.cov.shape == (model.p, model.p)
        assert np.array_equal(est.cov, est.cov.T)
        assert np.linalg.eigvalsh(est.cov).min() > 0.0
        assert est.n == data.n
        assert np.allclose(est.se, np.sqrt(np.diag(est.cov)))
        assert est.phi_cov.shape == (model.p1, model.p1)

    def test_bread_condition_is_checked_once(self, monkeypatch, solved):
        cfg, data, model, nuis, rep, est = solved
        shapes = []
        cond = np.linalg.cond

        def counting(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return cond(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting)
        again = sandwich_covariance(data, rep.psi_hat, nuis)
        assert shapes == [(model.p, model.p)]
        assert np.array_equal(again.cov, est.cov)
        # one check per sandwich (pooled and trial-only), one for the test's
        # covariance: the test reads the pooled sandwich's influence rows
        shapes.clear()
        run_replicate(SimConfig(n=200, m=600, beta=(1.0,) * 5, reps=1, seed=1,
                                gof_alt_tau=BasisSpec((product_term(0, 1),))), 0)
        assert len(shapes) == 3

    def test_influence_rows_are_the_scores_through_the_bread(self, solved):
        cfg, data, model, nuis, rep, est = solved
        trial = nuis.trial(data.n_trial)
        rct = sandwich_covariance(data, solve_rct(data, trial).psi_hat, trial)
        for ws, got in ((nuis, est), (trial, rct)):
            want = -score_matrix(ws, got.psi_hat) @ np.linalg.inv(ws.jacobian).T
            assert got.influence.shape == (ws.n, ws.p)
            assert np.allclose(got.influence, want, rtol=1e-10,
                               atol=1e-12 * np.abs(want).max())
            # the mean score vanishes at the solution, and so does its image
            # through the bread
            mean = got.influence.mean(axis=0)
            assert np.all(np.abs(mean) <= 1e-10 * np.abs(got.influence).mean(axis=0))

    def test_trial_only_equals_trial_subset(self, solved):
        cfg, data, model, nuis, rep, est = solved
        rct = solve_rct(data, nuis.trial(data.n_trial))
        full = sandwich_covariance(data, rct.psi_hat, nuis.trial(data.n_trial))
        trial = data.trial_only()
        values = values_subset(true_values(cfg, data), data.s == 1)
        sub = sandwich_covariance(trial, rct.psi_hat,
                                  build_workspace(trial, model, **values).trial(trial.n_trial))
        assert np.allclose(full.cov, sub.cov)

    def test_reported_workspace_gives_the_same_estimate(self, solved):
        cfg, data, model, nuis, rep, est = solved
        reused = sandwich_covariance(data, rep.psi_hat, rep.workspace)
        assert np.array_equal(reused.cov, est.cov)
        alt = BasisSpec((product_term(0, 1),))
        assert gof_test(data, est, rep.workspace, alt, BasisSpec(())) == \
            gof_test(data, est, nuis, alt, BasisSpec(()))
        with pytest.raises(ValidationError, match="workspace does not match"):
            sandwich_covariance(data.trial_only(), rep.psi_hat, rep.workspace)

    def test_dimension_check(self, solved):
        cfg, data, model, nuis, rep, est = solved
        with pytest.raises(ValidationError):
            sandwich_covariance(data, np.array([1.0, 0.0]), nuis)

    def test_singular_bread_raises(self, solved):
        cfg, data, model, nuis, rep, est = solved
        dup = StructuralModel(
            BasisSpec((constant_term(), linear_term(0), linear_term(0),
                       square_term(0), linear_term(1))),
            model.lambda_basis,
        )
        psi = np.zeros(5 + model.p2)
        ws = build_workspace(data, dup, **true_values(cfg, data))
        with pytest.raises(NumericalError, match="singular"):
            sandwich_covariance(data, psi, ws)

    def test_failed_decomposition_raises_a_numerical_error(self, monkeypatch):
        # np.linalg.cond raises "SVD did not converge" on a NaN entry, as on
        # the overflowing bread of a covariate scaled by 1e80
        bread = np.eye(3)
        bread[0, 1] = np.nan
        with pytest.raises(NumericalError, match="^sandwich bread is numerically singular"):
            _solve_square(bread, np.eye(3), "sandwich bread")

        def fails(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", fails)
        with pytest.raises(NumericalError, match="^sandwich bread could not be solved"):
            _solve_square(np.eye(3), np.eye(3), "sandwich bread")


class TestTauCurve:
    def test_pointwise_bands(self, solved):
        cfg, data, model, nuis, rep, est = solved
        grid = np.zeros((3, 5))
        grid[:, 0] = [-1.0, 0.0, 1.0]
        design = model.tau_basis.design(grid)
        curve = tau_curve(est, design)
        want = design @ rep.psi_hat[:model.p1]
        assert np.allclose(curve.estimate, want)
        want_se = np.sqrt(np.diag(design @ est.phi_cov @ design.T))
        assert np.allclose(curve.se, want_se)
        assert np.all(curve.lower < curve.estimate)
        assert np.all(curve.upper > curve.estimate)

    def test_single_point_input(self, solved):
        # one point is one design row; a bare basis row is not a design
        cfg, data, model, nuis, rep, est = solved
        row = model.tau_basis.design(np.zeros((1, 5)))
        assert tau_curve(est, row).estimate.shape == (1,)
        with pytest.raises(ValidationError, match="design does not match"):
            tau_curve(est, row[0])


class TestAteEstimate:
    def test_matches_manual_decomposition(self, solved):
        cfg, data, model, nuis, rep, est = solved
        obs_x = data.x[data.s == 0]
        design = model.tau_basis.design(obs_x)
        ate = ate_estimate(est, design)
        vals = design @ rep.psi_hat[:model.p1]
        assert ate.tau0_hat == pytest.approx(vals.mean())
        grad = design.mean(axis=0)
        pi0 = obs_x.shape[0] / data.n
        want_var = vals.var(ddof=1) / (pi0 * data.n) + grad @ est.phi_cov @ grad
        assert ate.se == pytest.approx(np.sqrt(want_var))
        assert ate.pi0_hat == pytest.approx(pi0)
        assert ate.lower < ate.tau0_hat < ate.upper

    def test_needs_observational_records(self, solved):
        cfg, data, model, nuis, rep, est = solved
        trial_only = dataclasses.replace(est, n_trial=data.n_trial, n_obs=0)
        with pytest.raises(ValidationError, match="observational records"):
            ate_estimate(trial_only, np.empty((0, model.p1)))


class TestPrecisionGain:
    def test_identical_fits_give_zero(self, solved):
        cfg, data, model, nuis, rep, est = solved
        out = precision_gain(est, est)
        assert np.allclose(out.gain, 0.0)
        assert out.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_pooling_tightens_effect_estimates(self, solved):
        cfg, data, model, nuis, rep, est = solved
        rct = solve_rct(data, nuis.trial(data.n_trial))
        est_r = sandwich_covariance(data, rct.psi_hat, rct.workspace)
        out = precision_gain(est, est_r)
        # the population gain is positive semidefinite; on one replicate we
        # only insist the total gain is clearly positive, any negative
        # eigenvalue is small next to the dominant one, and the estimated
        # effect curve has smaller variance at representative points
        assert np.trace(out.gain) > 0.0
        eigs = np.linalg.eigvalsh(out.gain)
        assert out.min_eigenvalue > -0.05 * eigs.max()
        assert np.allclose(out.gain,
                           out.precision_integrative - out.precision_rct)
        probe = np.zeros((3, 5))
        probe[:, 0] = [-1.5, 0.0, 1.5]
        design = model.tau_basis.design(probe)
        var_i = np.diag(design @ est.phi_cov @ design.T)
        var_r = np.diag(design @ est_r.phi_cov @ design.T)
        assert np.all(var_i < var_r)

    def test_equal_bases_cancel_exactly(self):
        # when the two working bases coincide, the trial block of the
        # pooled sandwich reduces to the trial-only sandwich identically
        shared = BasisSpec((constant_term(), linear_term(0), square_term(0),
                            linear_term(1), square_term(1)))
        cfg = make_config(beta=0.0, lambda_terms=shared, seed=17)
        for rep_idx in range(3):
            data = generate_replicate(cfg, rep_idx)
            model = cfg.model()
            fit = run_pipeline(data, model, ("integrative", "rct"), knots=0, trial_known=0.5)
            est_i = sandwich_covariance(data, fit.integrative.psi_hat,
                                        fit.integrative.workspace)
            est_r = sandwich_covariance(data, fit.rct.psi_hat, fit.rct.workspace)
            out = precision_gain(est_i, est_r)
            assert np.abs(out.gain).max() < 1e-10

    def test_dimension_mismatch(self, solved):
        cfg, data, model, nuis, rep, est = solved
        small = StructuralModel(BasisSpec((constant_term(),)),
                                BasisSpec((linear_term(0),)))
        ws = build_workspace(data, small, **true_values(cfg, data)).trial(data.n_trial)
        rep2 = solve_rct(data, ws)
        est2 = sandwich_covariance(data, rep2.psi_hat, rep2.workspace)
        with pytest.raises(ValidationError):
            precision_gain(est, est2)

    def test_estimates_from_two_datasets_are_rejected(self, solved):
        # the trial-only sandwich on the trial dataset has the covariance of the
        # one on the pooled data, but counts 500 records where the pooled counts
        # 2,000, which would mis-scale the gain
        cfg, data, model, nuis, rep, est = solved
        rct = solve_rct(data, nuis.trial(data.n_trial))
        est_r = sandwich_covariance(data.trial_only(), rct.psi_hat, rct.workspace)
        assert np.array_equal(est_r.cov, sandwich_covariance(data, rct.psi_hat,
                                                             rct.workspace).cov)
        with pytest.raises(ValidationError, match="different datasets"):
            precision_gain(est, est_r)


class TestChi2Sf:
    @pytest.mark.parametrize("df", range(1, 61))
    def test_matches_scipy(self, df):
        t = np.geomspace(1e-12, 1400.0, 400)
        got = np.array([_chi2_sf(float(v), df) for v in t])
        np.testing.assert_allclose(got, stats.chi2.sf(t, df), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("df", [1, 2, 3, 8])
    def test_edge_values(self, df):
        assert _chi2_sf(0.0, df) == 1.0
        assert _chi2_sf(-1.0, df) == 1.0
        assert _chi2_sf(np.inf, df) == 0.0
        assert np.isnan(_chi2_sf(np.nan, df))


class TestGofTest:
    def test_needs_alternative_terms(self, solved):
        cfg, data, model, nuis, rep, est = solved
        with pytest.raises(ValidationError):
            gof_test(data, est, nuis, BasisSpec(()), BasisSpec(()))

    def test_degrees_of_freedom_and_p_value(self, solved):
        cfg, data, model, nuis, rep, est = solved
        out = gof_test(data, est, nuis,
                       BasisSpec((product_term(0, 1),)),
                       BasisSpec((square_term(0), square_term(1))))
        assert out.df == 3
        assert 0.0 <= out.p_value <= 1.0
        assert out.p_value == pytest.approx(stats.chi2.sf(out.t_stat, 3))
        assert out.t_stat >= 0.0

    @pytest.mark.parametrize("efficient_weight", [False, True], ids=["eps_a", "efficient"])
    @pytest.mark.parametrize("knots", [0, 4])
    def test_statistic_matches_the_bread_solve(self, knots, efficient_weight):
        # the influence rows give the statistic that solving the test
        # vector's derivative against the bread gives
        cfg = make_config(beta=1.0, n=300, m=900, seed=11, knots=knots)
        data = generate_replicate(cfg, 0)
        fit = run_pipeline(data, cfg.model(), knots=knots, trial_known=0.5)
        ws = fit.integrative.workspace
        est = sandwich_covariance(data, fit.integrative.psi_hat, ws)
        alt_tau, alt_lambda = BasisSpec((product_term(0, 1),)), BasisSpec((square_term(0),))
        got = gof_test(data, est, ws, alt_tau, alt_lambda, efficient_weight=efficient_weight)
        want = gof_statistic(data, ws, est.psi_hat, alt_tau, alt_lambda, efficient_weight)
        assert got.t_stat == pytest.approx(want, rel=1e-10)

    def test_estimate_from_other_records_is_rejected(self, solved):
        # same model, so the same number of coefficients, but other records
        cfg, data, model, nuis, rep, est = solved
        other = generate_replicate(dataclasses.replace(cfg, n=400), 0)
        ws = build_workspace(other, model, **true_values(cfg, other))
        theirs = sandwich_covariance(other, solve_integrative(other, ws).psi_hat, ws)
        assert theirs.psi_hat.shape == est.psi_hat.shape
        with pytest.raises(ValidationError, match="influence has shape"):
            gof_test(data, theirs, nuis, BasisSpec((product_term(0, 1),)), BasisSpec(()))

    def test_efficient_weight_variant_runs(self, solved):
        cfg, data, model, nuis, rep, est = solved
        out = gof_test(data, est, nuis, BasisSpec((product_term(0, 1),)),
                       BasisSpec(()), efficient_weight=True)
        assert np.isfinite(out.t_stat) and out.df == 1

    def test_detects_a_grossly_omitted_term(self):
        cfg = make_config(beta=0.0, n=2000, m=8000, seed=19,
                          tau_terms=BasisSpec((constant_term(), linear_term(0),
                                               square_term(0), linear_term(1))))
        data = generate_replicate(cfg, 0)
        model = cfg.model()
        fit = run_pipeline(data, model, knots=0, trial_known=0.5)
        est = sandwich_covariance(data, fit.integrative.psi_hat,
                                  fit.integrative.workspace)
        out = gof_test(data, est, fit.integrative.workspace,
                       BasisSpec((square_term(1),)), BasisSpec(()))
        assert out.p_value < 1e-4

    def test_clean_model_is_not_rejected_wildly(self, solved):
        cfg, data, model, nuis, rep, est = solved
        out = gof_test(data, est, nuis, BasisSpec((product_term(0, 1),)),
                       BasisSpec((square_term(0),)))
        assert out.t_stat < stats.chi2.ppf(0.9999, out.df)
