"""Estimating-equation machinery: workspace, scores, solves, pipeline.

Score identities are checked record by record against the per-record
oracles in ``oracles.py``, the one-step linear solve against exact root
conditions and its fallback on singular equations, and the pooled
comparator against a hand-rolled weighted regression.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from htefusion import (
    BasisSpec,
    Dataset,
    FitOptions,
    NuisanceValues,
    NumericalError,
    Propensity,
    PsiEstimate,
    StructuralModel,
    ValidationError,
    build_spline_basis,
    build_workspace,
    constant_term,
    fit_propensity,
    fit_variance_function,
    generate_replicate,
    gof_test,
    linear_term,
    meta_estimate,
    product_term,
    run_pipeline,
    sandwich_covariance,
    solve_integrative,
    solve_rct,
    square_term,
)
import htefusion.estimators as estimators
import htefusion.nuisance as nuisance
from htefusion.estimators import preliminary_estimate
from htefusion.nuisance import fit_conditional_outcomes, fit_outcome_mean, source_designs
from conftest import make_config, true_psi, true_values, values_subset
from oracles import efficient_score, pseudo_outcomes, refit_outcome_mean, score_jacobian


@pytest.fixture(scope="module")
def fused_fixture():
    cfg = make_config(beta=1.0, n=400, m=1200, seed=11)
    data = generate_replicate(cfg, 0)
    return cfg, data, cfg.model(), true_values(cfg, data)


def trial_workspace(data, model, nuis):
    """The trial-only equations of ``data``: the pooled workspace's trial slice."""
    return build_workspace(data, model, nuis).trial(data.rows(1))


def fitted_propensities(data, opts):
    """The clipped propensities ``run_pipeline`` fits to ``data`` with ``opts``."""
    spec = build_spline_basis(data, opts.knots)
    designs = source_designs(data, spec)
    e_fit = fit_propensity(data, spec, designs, trial_known=opts.trial_known,
                           clip_e=opts.clip_e, ridge=opts.ridge)
    return e_fit.predict(data.s, designs)


def weighted_by_hand(data, ws, e_hat, y_var, rounds=1):
    """The pipeline's weighting spelled out on the profiled workspace ``ws``
    of ``data``: solve at unit variances, then ``rounds`` times fit the cell
    variances at the current solution, replace the weight and solve the new
    equations."""
    solve = solve_rct if ws.p2 == 0 else solve_integrative
    ws = replace(ws, score_weight=estimators._score_weight(data.a, e_hat, 1, 1))
    rep = solve(data, ws)
    for _ in range(rounds):
        var_fit = fit_variance_function(data, ws.residuals(rep.psi_hat), y_var=y_var)
        weight = estimators._score_weight(data.a, e_hat, var_fit.predict(1, data.s),
                                          var_fit.predict(0, data.s))
        ws = replace(ws, score_weight=weight)
        rep = solve(data, ws)
    return rep


def by_hand_per_estimator(data, model, opts, rounds=1):
    """``run_pipeline``'s integrative and trial-only fits, and the same two
    estimators weighted by hand on the pipeline's workspaces."""
    fit = run_pipeline(data, model, opts, which=("integrative", "rct"))
    e_hat, y_var, trial = fitted_propensities(data, opts), float(np.var(data.y)), data.rows(1)
    return fit, {
        "integrative": weighted_by_hand(data, fit.integrative.workspace, e_hat, y_var,
                                        rounds),
        "rct": weighted_by_hand(data.trial_only(), fit.rct.workspace, e_hat[trial], y_var,
                                rounds),
    }


class TestWorkspace:
    def test_score_weight_matches_definition(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        e, v1, v0 = nuis.e, nuis.v1, nuis.v0
        own = np.where(data.a == 1, 1.0 / v1, 1.0 / v0)
        pooled = (e / v1) / (e / v1 + (1.0 - e) / v0)
        assert np.allclose(ws.score_weight, (data.a - pooled) * own)
        assert np.allclose(ws.eps_a, data.a - e)

    def test_gradient_blocks(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        assert ws.grad.shape == (data.n, model.p)
        t_design = model.tau_basis.design(data.x)
        assert np.allclose(ws.grad[:, :model.p1], t_design)
        on_trial = data.s == 1
        assert np.all(ws.grad[on_trial, model.p1:] == 0.0)

    def test_residual_is_linear_in_the_coefficients(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        rng = np.random.default_rng(0)
        p1, p2 = rng.standard_normal(ws.p), rng.standard_normal(ws.p)
        r1, r2 = ws.residuals(p1), ws.residuals(p2)
        mid = ws.residuals((p1 + p2) / 2.0)
        assert np.allclose(mid, (r1 + r2) / 2.0)

    def test_trial_only_restriction(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = trial_workspace(data, model, nuis)
        assert ws.n == data.n_trial and ws.p2 == 0
        trial = data.trial_only()
        ws_sub = trial_workspace(trial, model, values_subset(nuis, data.rows(1)))
        assert np.allclose(ws.base_resid, ws_sub.base_resid)
        obs = data.subset(data.s == 0)
        with pytest.raises(ValidationError):
            solve_rct(obs, trial_workspace(obs, model, values_subset(nuis, data.s == 0)))

    def test_evaluated_values_give_the_same_workspace(self, fused_fixture):
        cfg, data, model, values = fused_fixture
        trial = data.rows(1)
        direct = build_workspace(data, model, values)
        # the trial slice equals the trial-only equations built from trial records
        from_trial = trial_workspace(data.trial_only(), model, values_subset(values, trial))
        for name in ("grad", "resid_design", "base_resid", "score_weight", "eps_a"):
            assert np.array_equal(getattr(direct.trial(trial), name),
                                  getattr(from_trial, name))
        with pytest.raises(ValidationError, match="do not match"):
            build_workspace(data.trial_only(), model, values)

    def test_solve_reports_its_workspace(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        rep = solve_integrative(data, build_workspace(data, model, nuis))
        assert rep.workspace.n == data.n and rep.workspace.p == model.p
        rct = solve_rct(data, trial_workspace(data, model, nuis))
        assert rct.workspace.n == data.n_trial and rct.workspace.p2 == 0

    @pytest.mark.parametrize("field", ["e", "mu", "v1", "v0"])
    @pytest.mark.parametrize("shape", ["one", "column"])
    def test_misshapen_nuisance_raises(self, fused_fixture, field, shape):
        # a single value would broadcast, and a column would make (n, n) residuals
        cfg, data, model, nuis = fused_fixture
        arr = getattr(nuis, field)
        bad = replace(nuis, **{field: arr[:1] if shape == "one" else arr[:, None]})
        with pytest.raises(ValidationError, match=f"do not match the records: {field} has shape"):
            build_workspace(data, model, bad)

    def test_nonfinite_nuisance_raises(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        bad = NuisanceValues(nuis.e, np.full(data.n, np.nan), nuis.v1, nuis.v0)
        with pytest.raises(NumericalError, match="outcome mean"):
            build_workspace(data, model, bad)


class TestScoreIdentities:
    def test_per_record_score_matches_matrix(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        psi = true_psi(cfg)
        mat = ws.score_matrix(psi)
        for i in (0, 5, data.n - 1):
            assert np.allclose(efficient_score(ws, psi, i), mat[i])
        assert np.allclose(ws.mean_score(psi), mat.mean(axis=0))

    def test_jacobian_matches_finite_differences(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        psi = true_psi(cfg)
        jac = ws.jacobian
        h = 1e-6
        for col in range(ws.p):
            bump = np.zeros(ws.p)
            bump[col] = h
            fd = (ws.mean_score(psi + bump) - ws.mean_score(psi - bump)) / (2 * h)
            assert np.allclose(jac[:, col], fd, rtol=1e-6, atol=1e-9)

    def test_per_record_jacobian_sums_to_mean(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        psi = true_psi(cfg)
        total = sum(score_jacobian(ws, psi, i) for i in range(ws.n))
        assert np.allclose(total / ws.n, ws.jacobian)

    def test_score_mean_zero_at_truth(self):
        cfg = make_config(beta=1.0, n=10000, m=30000, seed=21)
        data = generate_replicate(cfg, 0)
        ws = build_workspace(data, cfg.model(), true_values(cfg, data))
        mat = ws.score_matrix(true_psi(cfg))
        z = mat.mean(axis=0) / (mat.std(axis=0, ddof=1) / np.sqrt(ws.n))
        assert np.abs(z).max() < 4.0


class TestPreliminaryEstimate:
    def test_exact_on_noiseless_linear_data(self):
        rng = np.random.default_rng(7)
        n = 600
        x = rng.standard_normal((n, 2))
        s = (rng.random(n) < 0.5).astype(int)
        a = (rng.random(n) < 0.5).astype(int)
        tau = 1.0 + 2.0 * x[:, 0]
        lam = -0.5 * x[:, 1]
        e = np.where(s == 1, 0.5, 0.3)
        # outcome built so that each (a, s) cell mean is linear in x
        y = a * tau + x[:, 1] + (1 - s) * lam * (a - e)
        data = Dataset(s, a, y, x)
        model = StructuralModel(
            BasisSpec((constant_term(), linear_term(0))),
            BasisSpec((linear_term(1),)),
        )
        spec = build_spline_basis(data, 0)
        designs = source_designs(data, spec)
        psi = preliminary_estimate(data, model, fit_conditional_outcomes(data, spec, designs),
                                   designs)
        assert np.allclose(psi, [1.0, 2.0, -0.5], atol=1e-6)

    def test_requires_trial_records(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        obs = data.subset(data.s == 0)
        spec = build_spline_basis(obs, 0)
        designs = source_designs(obs, spec)
        cond = fit_conditional_outcomes(obs, spec, designs)
        with pytest.raises(ValidationError):
            preliminary_estimate(obs, model, cond, designs)


class TestSolvers:
    def test_newton_reaches_an_exact_root(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        rep = solve_integrative(data, build_workspace(data, model, nuis))
        assert rep.converged and not rep.fallback_used
        assert rep.iterations == 1
        ws = build_workspace(data, model, nuis)
        assert np.linalg.norm(ws.mean_score(rep.psi_hat)) < 1e-10
        # the root of the linear equations, solved from the mean score at zero
        want = np.linalg.solve(ws.jacobian, -ws.mean_score(np.zeros(ws.p)))
        assert np.array_equal(rep.psi_hat, want)

    def test_zero_is_reported_when_it_is_the_root(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        rep = solve_integrative(data, replace(ws, base_resid=np.zeros(ws.n)))
        assert (rep.iterations, rep.final_score_norm, rep.converged) == (0, 0.0, True)
        assert np.array_equal(rep.psi_hat, np.zeros(ws.p))

    def test_estimates_sit_near_truth(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        rep = solve_integrative(data, build_workspace(data, model, nuis))
        want = true_psi(cfg)
        assert np.abs(rep.psi_hat - want).max() < 0.5

    def test_trial_only_solve(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = trial_workspace(data, model, nuis)
        rep = solve_rct(data, ws)
        assert rep.converged
        assert rep.psi_hat.shape == (model.p1,)
        assert np.linalg.norm(ws.mean_score(rep.psi_hat)) < 1e-10

    def test_source_and_arm_requirements(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        with pytest.raises(ValidationError):
            solve_integrative(data.trial_only(), ws)
        one_arm = data.subset((data.s == 0) | (data.a == 1))
        with pytest.raises(ValidationError, match="single arm"):
            solve_integrative(one_arm, ws)

    def test_dimension_mismatch(self, fused_fixture):
        # each solve takes the workspace of its own kind, on the data's records
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        trial = ws.trial(data.rows(1))
        with pytest.raises(ValidationError, match="needs the pooled workspace"):
            solve_integrative(data, trial)
        with pytest.raises(ValidationError, match="needs the trial-only workspace"):
            solve_rct(data, ws)
        # one trial record fewer than either workspace holds
        short = data.subset(np.arange(data.n) != np.flatnonzero(data.s == 1)[0])
        with pytest.raises(ValidationError, match="workspace does not match the data"):
            solve_integrative(short, ws)
        with pytest.raises(ValidationError, match="workspace does not match the data"):
            solve_rct(short, trial)

    @pytest.mark.parametrize("bad", ["matrix", "wrong-length", "nan"])
    @pytest.mark.parametrize("call", [sandwich_covariance, gof_test],
                             ids=lambda f: f.__name__)
    def test_malformed_coefficients_are_rejected(self, fused_fixture, call, bad):
        # coefficients are a 1-d vector with one finite entry per workspace column
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        vec = {"matrix": np.zeros((1, ws.p)), "wrong-length": np.zeros(ws.p + 1),
               "nan": np.r_[np.nan, np.zeros(ws.p - 1)]}[bad]
        with pytest.raises(ValidationError, match="must be"):
            if call is sandwich_covariance:
                call(data, vec, ws)
            else:
                est = PsiEstimate(vec, model.p1, np.eye(ws.p), data.n_trial, data.n_obs)
                call(data, est, ws, BasisSpec((product_term(0, 1),)), BasisSpec(()))

    def test_singular_equations_fall_back(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        dup = StructuralModel(
            BasisSpec((constant_term(), linear_term(0), linear_term(0),
                       square_term(0), linear_term(1))),
            model.lambda_basis,
        )
        rep = solve_integrative(data, build_workspace(data, dup, nuis))  # no raise
        assert rep.fallback_used and not rep.converged
        assert rep.iterations == 1
        assert np.array_equal(rep.psi_hat, np.zeros(dup.p))

    def test_many_variance_rounds_converge_without_fallback(self, desk_data):
        # every round solves its reweighted equations afresh, and each solve
        # must be accepted
        model = make_config(beta=1.0, seed=3).model()
        opts = FitOptions(knots=0, trial_known=0.5)
        fits = {rounds: by_hand_per_estimator(desk_data, model, opts, rounds)[1]
                for rounds in (8, 20)}
        for rep in fits[20].values():
            assert rep.converged and not rep.fallback_used
        # the rounds approach a fixed point
        for name in ("integrative", "rct"):
            assert np.allclose(fits[20][name].psi_hat, fits[8][name].psi_hat,
                               rtol=0, atol=1e-8), name

    @pytest.mark.parametrize("knots", [0, 4])
    def test_pipeline_is_the_two_step_estimator(self, desk_data, knots):
        # a solve at unit variances, then one solve with the cell variances
        # fitted at that solution, bit for bit
        model = make_config(beta=1.0, seed=3).model()
        fit, by_hand = by_hand_per_estimator(desk_data, model, FitOptions(knots=knots))
        for name, rep in by_hand.items():
            assert np.array_equal(getattr(fit, name).psi_hat, rep.psi_hat), name


class TestMetaEstimate:
    def test_matches_hand_rolled_weighted_regression(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        spec = build_spline_basis(data, 0)
        designs = source_designs(data, spec)
        e_fit = fit_propensity(data, spec, designs, trial_known=0.5)
        e = e_fit.predict_raw(data.s, designs)
        design = model.tau_basis.design(data.x)
        coef = meta_estimate(data, design, e)
        adj = data.a * data.y / e - (1 - data.a) * data.y / (1.0 - e)
        ref, *_ = np.linalg.lstsq(design, adj, rcond=None)
        assert np.allclose(coef, ref, atol=1e-8)
        with pytest.raises(ValidationError, match="design does not match the records"):
            meta_estimate(data, design[1:], e)

    def test_duplicated_effect_column_warns_and_splits_evenly(self):
        # an exactly singular system that still solves to finite numbers
        data = generate_replicate(make_config(beta=1.0, n=150, m=450, seed=25), 0)
        dup = StructuralModel(BasisSpec((constant_term(), linear_term(0), linear_term(0))),
                              BasisSpec(tuple(linear_term(j) for j in range(5))))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = run_pipeline(data, dup, FitOptions(knots=0, trial_known=0.5),
                               which=("meta",))
        messages = {str(w.message) for w in caught}
        assert ("meta comparator fit: singular normal equations; "
                "solved with an escalated ridge") in messages
        assert fit.meta_coef[1] == pytest.approx(fit.meta_coef[2], rel=1e-5)

    def test_degenerate_propensity_raises(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        flat = Propensity({0: 0.0, 1: 0.5}, clip=0.01)
        with pytest.raises(NumericalError):
            meta_estimate(data, model.tau_basis.design(data.x), flat.predict_raw(data.s, {}))


class TestSharedJacobian:
    """Each workspace computes its score Jacobian once."""

    def test_solve_and_sandwich_share_one_jacobian(self, fused_fixture):
        cfg, data, model, _ = fused_fixture
        fit = run_pipeline(data, model, FitOptions(knots=0, trial_known=0.5),
                           which=("integrative", "rct"))
        for name, d in (("integrative", data), ("rct", data.trial_only())):
            rep = getattr(fit, name)
            ws = rep.workspace
            assert "jacobian" in vars(ws), name  # taken by the final solve
            jac = ws.jacobian
            sandwich_covariance(d, rep.psi_hat, ws)
            assert ws.jacobian is jac, name
            assert not jac.flags.writeable
            want = -((ws.grad * ws.score_weight[:, None]).T @ ws.resid_design) / ws.n
            assert np.array_equal(jac, want), name

    def test_replaced_workspace_computes_its_own(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        jac = ws.jacobian
        doubled = replace(ws, score_weight=2.0 * ws.score_weight)
        assert doubled.jacobian is not jac
        assert np.array_equal(doubled.jacobian, 2.0 * jac)  # doubling is exact
        assert ws.jacobian is jac

    def test_profiled_workspace_has_the_jacobian_of_its_pieces(self, fused_fixture):
        cfg, data, model, nuis = fused_fixture
        ws = build_workspace(data, model, nuis)
        stale = ws.jacobian
        spec = build_spline_basis(data, 0)
        profiled = estimators._profile_outcome_mean(ws, data, source_designs(data, spec), 1e-6)
        # the profiled pieces are the handed-in arrays, rewritten in place
        assert profiled.resid_design is ws.resid_design
        assert profiled.base_resid is ws.base_resid
        fresh = -((ws.grad * ws.score_weight[:, None]).T @ ws.resid_design) / ws.n
        assert np.array_equal(profiled.jacobian, fresh)
        assert not np.allclose(fresh, stale)


class TestPipeline:
    def test_cell_constant_weights(self, fused_fixture):
        # with a known trial propensity the score weight of a trial record
        # varies only through its arm's residual variance
        cfg, data, model, _ = fused_fixture
        opts = FitOptions(knots=0, trial_known=0.5)
        ws = run_pipeline(data, model, opts, which=("rct",)).rct.workspace
        a = data.a[data.rows(1)]
        assert [np.ptp(ws.score_weight[a == arm]) for arm in (0, 1)] == [0.0, 0.0]

    def test_requested_estimators_all_present(self, fused_fixture):
        cfg, data, model, _ = fused_fixture
        opts = FitOptions(knots=0, trial_known=0.5)
        fit = run_pipeline(data, model, opts, which=("integrative", "rct", "meta"))
        assert fit.integrative is not None and fit.integrative.converged
        assert fit.rct is not None and fit.rct.converged
        assert fit.rct.workspace.n == data.n_trial and fit.rct.workspace.p2 == 0
        assert fit.meta_coef is not None and fit.meta_coef.shape == (model.p1,)

    def test_unknown_estimator_rejected(self, fused_fixture):
        cfg, data, model, _ = fused_fixture
        with pytest.raises(ValidationError, match="unknown estimators"):
            run_pipeline(data, model, which=("integrative", "aipw"))

    def test_trial_only_fit_needs_both_trial_arms(self, fused_fixture):
        cfg, data, model, _ = fused_fixture
        treated_trial = data.subset((data.s == 0) | (data.a == 1))
        with pytest.raises(ValidationError, match="single arm"):
            run_pipeline(treated_trial, model, FitOptions(knots=0, trial_known=0.5),
                         which=("rct",))

    def test_singular_smoother_warning_names_its_source(self, fused_fixture):
        cfg, data, model, _ = fused_fixture
        trial = data.trial_only()
        twin = Dataset(trial.s, trial.a, trial.y, np.column_stack([trial.x, trial.x[:, 0]]))
        opts = FitOptions(knots=0, ridge=0.0, trial_known=0.5)
        with pytest.warns(UserWarning, match=r"^outcome-mean smoother \(s=1\): singular"):
            fit = run_pipeline(twin, model, opts, which=("rct",))
        assert fit.rct.converged

    def test_refinement_refits_at_the_solution(self, fused_fixture):
        cfg, data, model, _ = fused_fixture
        opts = FitOptions(knots=0, trial_known=0.5)
        fit1 = run_pipeline(data, model, opts)
        # the same workspace at unit weight, built and profiled afresh
        spec = build_spline_basis(data, opts.knots)
        unit, e_hat = np.ones(data.n), fitted_propensities(data, opts)
        ws0 = build_workspace(data, model, NuisanceValues(e_hat, np.zeros(data.n), unit, unit))
        ws0 = estimators._profile_outcome_mean(ws0, data, source_designs(data, spec),
                                               opts.ridge)
        first = solve_integrative(data, ws0)
        # the variance step moves the solution through the score weight alone
        assert not np.allclose(first.psi_hat, fit1.integrative.psi_hat)
        ws1 = fit1.integrative.workspace
        for name in ("grad", "resid_design", "base_resid", "eps_a"):
            assert np.array_equal(getattr(ws0, name), getattr(ws1, name)), name
        assert not np.array_equal(ws0.score_weight, ws1.score_weight)
        # the profiled residuals stay centered at the solution
        resid = ws1.residuals(fit1.integrative.psi_hat)
        on_trial = data.s == 1
        assert abs(resid[on_trial].mean()) < 0.05

    def test_pipeline_is_deterministic(self, fused_fixture):
        cfg, data, model, _ = fused_fixture
        opts = FitOptions(knots=0, trial_known=0.5)
        a = run_pipeline(data, model, opts, which=("integrative",))
        b = run_pipeline(data, model, opts, which=("integrative",))
        assert np.array_equal(a.integrative.psi_hat, b.integrative.psi_hat)

    def test_row_order_does_not_matter(self, desk_data):
        model = make_config(beta=1.0, seed=3).model()
        order = np.random.default_rng(12).permutation(desk_data.n)
        shuffled = Dataset(desk_data.s[order], desk_data.a[order], desk_data.y[order],
                           desk_data.x[order])
        opts = FitOptions(knots=4)
        fits = [run_pipeline(d, model, opts, which=("integrative", "rct"))
                for d in (desk_data, shuffled)]
        for name in ("integrative", "rct"):
            got = []
            for d, fit in zip((desk_data, shuffled), fits):
                rep = getattr(fit, name)
                est = sandwich_covariance(d, rep.psi_hat, rep.workspace)
                got.append((est.psi_hat, est.se))
            for first, second in zip(*got):
                assert np.allclose(first, second, rtol=1e-10, atol=1e-10), name


class TestProfiledOutcomeMean:
    """The profiled solve is the fixed point of explicit outcome-mean refits."""

    @pytest.mark.parametrize("knots", [0, 4])
    def test_equals_explicit_outcome_mean_refits(self, desk_data, knots):
        model = make_config(beta=1.0, seed=3).model()
        opts = FitOptions(knots=knots)
        fit = run_pipeline(desk_data, model, opts, which=("integrative", "rct"))
        spec = build_spline_basis(desk_data, knots)
        e_hat, unit = fitted_propensities(desk_data, opts), np.ones(desk_data.n)
        for name, solve in (("integrative", solve_integrative), ("rct", solve_rct)):
            trial_only = name == "rct"
            # the pipeline's workspace at unit variances throughout
            rows = desk_data.rows(1) if trial_only else slice(None)
            weight = estimators._score_weight(desk_data.a[rows], e_hat[rows], 1, 1)
            ws = replace(getattr(fit, name).workspace, score_weight=weight)
            rep = solve(desk_data, ws)
            want = refit_outcome_mean(desk_data, model, e_hat, unit, spec, opts.ridge,
                                      trial_only=trial_only)
            est = sandwich_covariance(desk_data, rep.psi_hat, ws)
            assert np.abs((est.psi_hat - want) / est.se).max() < 1e-8, name


class TestCachedDesigns:
    """The pipeline builds each design once and checks the designs it is given."""

    @pytest.fixture(scope="class")
    def model(self):
        return make_config(beta=1.0, seed=3).model()

    def test_mismatched_design_raises(self, desk_data, model):
        spec = build_spline_basis(desk_data, 4)
        designs = source_designs(desk_data, spec)
        e_fit = fit_propensity(desk_data, spec, designs)
        cond_y = fit_conditional_outcomes(desk_data, spec, designs)
        psi = preliminary_estimate(desk_data, model, cond_y, designs)
        h = pseudo_outcomes(model, psi, desk_data, e_fit.predict(desk_data.s, designs))
        mu = fit_outcome_mean(desk_data, h, spec, designs)
        s = desk_data.s
        short = {0: designs[0][:-1], 1: designs[1]}
        with pytest.raises(ValidationError, match="design does not match"):
            e_fit.predict(s, short)
        with pytest.raises(ValidationError, match="design does not match"):
            mu.predict(s, {1: designs[1]})
        with pytest.raises(ValidationError, match="design does not match"):
            cond_y.predict(1, 1, designs[1][:, :-1])
        with pytest.raises(ValidationError, match="design does not match"):
            preliminary_estimate(desk_data, model, cond_y, {0: designs[0], 1: designs[0]})
        with pytest.raises(ValidationError, match="design does not match"):
            fit_propensity(desk_data, spec, short)

    def test_one_spline_design_per_source(self, desk_data, model, monkeypatch):
        built, rows = [], []
        build = estimators.build_spline_basis
        design = BasisSpec.design

        def capture(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def counting(self, X):
            if any(self is spec for spec in built):
                rows.append(np.shape(X)[0])
            return design(self, X)

        monkeypatch.setattr(estimators, "build_spline_basis", capture)
        monkeypatch.setattr(BasisSpec, "design", counting)
        run_pipeline(desk_data, model, FitOptions(knots=4),
                     which=("integrative", "rct", "meta"))
        assert len(built) == 1
        assert sorted(rows) == sorted([desk_data.n_obs, desk_data.n_trial])

    def test_one_effect_and_confounding_design_per_round(self, desk_data, model,
                                                         monkeypatch):
        rows = {"tau": [], "lambda": [], "both": []}
        bases = (("tau", model.tau_basis.terms), ("lambda", model.lambda_basis.terms),
                 ("both", model.tau_basis.terms + model.lambda_basis.terms))
        design = BasisSpec.design

        def counting(self, X):
            for name, terms in bases:
                if self.terms == terms:
                    rows[name].append(np.shape(X)[0])
            return design(self, X)

        monkeypatch.setattr(BasisSpec, "design", counting)
        run_pipeline(desk_data, model, FitOptions(knots=4),
                     which=("integrative", "rct", "meta"))
        # one effect and confounding design for the one workspace of the fit,
        # which both estimators and both steps of each read; the comparator
        # reads its effect columns
        assert rows["both"] == [desk_data.n]
        assert rows["tau"] == []
        assert rows["lambda"] == []

    @pytest.mark.parametrize("knots", [0, 4])
    @pytest.mark.parametrize("trial_known", [None, 0.5], ids=["fitted", "known"])
    def test_each_fitted_propensity_evaluated_once(self, desk_data, model, monkeypatch,
                                                   knots, trial_known):
        # the comparator reads the raw probabilities, the workspace the same
        # values clipped: one evaluation serves both
        rows = []
        predict = nuisance.AdditiveRegressor.predict

        def counting(self, design):
            if self.link == "logit":
                rows.append(design.shape[0])
            return predict(self, design)

        monkeypatch.setattr(nuisance.AdditiveRegressor, "predict", counting)
        run_pipeline(desk_data, model, FitOptions(knots=knots, trial_known=trial_known),
                     which=("integrative", "rct", "meta"))
        fitted = [desk_data.n_obs] if trial_known else [desk_data.n_obs, desk_data.n_trial]
        assert sorted(rows) == sorted(fitted)


class TestTrialOnlyRefits:
    """The trial-only estimator's variance step reads trial records only."""

    @pytest.fixture(scope="class")
    def model(self):
        return make_config(beta=1.0, seed=3).model()

    def test_variance_fit_reads_trial_cells_only(self, desk_data, model, monkeypatch):
        opts = FitOptions(knots=4)
        fitted, rounds = [], []
        fit_additive = nuisance.fit_additive
        fit_variance = estimators.fit_variance_function

        def counting(X, *args, **kwargs):
            fitted.append(np.shape(X)[0])
            return fit_additive(X, *args, **kwargs)

        def capture(data, *args, **kwargs):
            rounds.append((data.n, len(fitted)))
            var_fit = fit_variance(data, *args, **kwargs)
            rounds[-1] += (set(var_fit.by_cell),)
            return var_fit

        monkeypatch.setattr(nuisance, "fit_additive", counting)
        monkeypatch.setattr(estimators, "fit_variance_function", capture)
        spec = build_spline_basis(desk_data, opts.knots)
        fit_propensity(desk_data, spec, source_designs(desk_data, spec))
        propensity_fits = len(fitted)
        fit = run_pipeline(desk_data, model, opts, which=("rct",))
        # one variance fit, on the trial's two cells; no regression runs
        # after the propensity fits
        assert rounds == [(desk_data.n_trial, 2 * propensity_fits, {(0, 1), (1, 1)})]
        assert len(fitted) == 2 * propensity_fits
        assert fit.rct.workspace.n == desk_data.n_trial

    @pytest.mark.parametrize("knots", [0, 4])
    def test_cohort_outcomes_do_not_move_the_trial_fit(self, desk_data, model, knots):
        obs = desk_data.rows(0)
        y = desk_data.y.copy()
        y[obs] = np.random.default_rng(8).permutation(y[obs]) + 0.5
        other = Dataset(desk_data.s, desk_data.a, y, desk_data.x)
        opts = FitOptions(knots=knots)
        fits = [run_pipeline(d, model, opts, which=("integrative", "rct"))
                for d in (desk_data, other)]
        assert np.array_equal(fits[0].rct.psi_hat, fits[1].rct.psi_hat)
        assert not np.array_equal(fits[0].integrative.psi_hat, fits[1].integrative.psi_hat)

    def test_trial_fit_equals_the_pooled_round_on_trial_rows(self, desk_data, model):
        # the trial-only workspace is the pooled one's trial rows and effect
        # columns; only its fitted variances differ
        fit = run_pipeline(desk_data, model, FitOptions(knots=4),
                           which=("integrative", "rct"))
        pooled, trial_ws = fit.integrative.workspace, fit.rct.workspace
        trial, p1 = desk_data.rows(1), model.p1
        assert np.array_equal(trial_ws.grad, pooled.grad[trial, :p1])
        assert np.array_equal(trial_ws.resid_design, pooled.resid_design[trial, :p1])
        assert np.array_equal(trial_ws.base_resid, pooled.base_resid[trial])
        assert np.array_equal(trial_ws.eps_a, pooled.eps_a[trial])
        assert not np.array_equal(trial_ws.score_weight, pooled.score_weight[trial])
