"""Memory layout of the record-by-column matrices and the kernels that read them.

Every design and workspace matrix a fit builds is column-major, as are a
replicate's covariates, those a CSV loads into and the sandwich's influence
rows, and row selections keep that layout, so that a held design's rows and
a design built from the same covariates give bit-identical fits.  Sums over records
run as products (``ScoreWorkspace.mean_score``) or symmetric products (the IRLS Gram).
"""

import numpy as np
import pytest

from htefusion import (
    BasisSpec,
    Dataset,
    ValidationError,
    ate_estimate,
    build_spline_basis,
    build_workspace,
    constant_term,
    fit_additive,
    generate_replicate,
    gof_test,
    linear_term,
    product_term,
    run_monte_carlo,
    run_pipeline,
    sandwich_covariance,
    square_term,
    tau_curve,
)
from htefusion.io import AnalysisConfig, load_csv, run_fit
from htefusion.nuisance import fit_conditional_outcomes, source_designs
import htefusion.inference as inference
import htefusion.simulation as simulation
from conftest import make_config, true_psi, true_values
from oracles import score_matrix


@pytest.fixture(scope="module")
def study():
    cfg = make_config(beta=1.0, n=200, m=600, seed=17)
    data = generate_replicate(cfg, 0)
    return cfg, data, cfg.model()


class TestColumnMajor:
    def test_designs(self, study):
        cfg, data, model = study
        spec = build_spline_basis(data, 4)
        assert spec.design(data.x).flags.f_contiguous
        assert model.design(data.x).flags.f_contiguous
        assert all(d.flags.f_contiguous for d in source_designs(data, spec).values())

    def test_workspace_and_its_trial_slice(self, study):
        cfg, data, model = study
        ws = build_workspace(data, model, **true_values(cfg, data))
        assert ws.grad.flags.f_contiguous and ws.resid_design.flags.f_contiguous
        # the trial slice is a view of the first rows: its columns stay
        # contiguous, though a row slice is not itself f_contiguous
        trial = ws.trial(data.n_trial)
        for mat, full in ((trial.grad, ws.grad), (trial.resid_design, ws.resid_design)):
            assert np.shares_memory(mat, full) and mat.strides[0] == mat.itemsize
        pooled = run_pipeline(data, model).integrative.workspace  # after profiling
        assert pooled.grad.flags.f_contiguous and pooled.resid_design.flags.f_contiguous

    def test_loaded_covariates(self, study, tmp_path):
        # a file written cohort first is held trial first, and its reordered
        # covariates stay column-major
        cfg, data, model = study
        path = tmp_path / "study.csv"
        names = [f"x{j + 1}" for j in range(data.d)]
        acfg = AnalysisConfig(data=str(path), covariates=names, tau_terms=("1",),
                              lambda_terms=("x1",))
        for order in (np.arange(data.n), np.argsort(data.s, kind="stable")):
            rows = np.column_stack([data.s, data.a, data.y, data.x])[order]
            np.savetxt(path, rows, delimiter=",", header=",".join(["s", "a", "y", *names]),
                       comments="")
            x = load_csv(str(path), acfg).x
            assert x.flags.f_contiguous and np.array_equal(x, data.x)

    @pytest.mark.parametrize("knots", [0, 4])
    def test_replicate_covariates(self, study, knots):
        # a replicate's covariates are column-major, as a loaded CSV's are,
        # and a fit on them has the bits of the same fit on a row-major copy,
        # its specification test on two alternative columns too
        cfg, data, model = study
        assert data.x.flags.f_contiguous
        c_order = Dataset(data.s, data.a, data.y, np.ascontiguousarray(data.x))
        assert c_order.x.flags.c_contiguous

        def bits(d):
            fit = run_pipeline(d, model, ("integrative", "rct", "meta"), knots=knots)
            rep = fit.integrative
            est = sandwich_covariance(d, rep.psi_hat, rep.workspace)
            gof = gof_test(d, est, rep.workspace, BasisSpec((product_term(0, 1),)),
                           BasisSpec((square_term(0),)))
            assert gof.df == 2
            return [a.tobytes() for a in (rep.psi_hat, fit.rct.psi_hat, fit.meta_coef,
                                          est.cov, np.float64(gof.t_stat))]

        assert bits(data) == bits(c_order)

    def test_influence_rows(self, study):
        cfg, data, model = study
        fit = run_pipeline(data, model, ("integrative", "rct"))
        for d, rep in ((data, fit.integrative), (data.trial_only(), fit.rct)):
            est = sandwich_covariance(d, rep.psi_hat, rep.workspace)
            assert est.influence.flags.f_contiguous

    @pytest.mark.parametrize("source, arm", [(0, 0), (0, 1), (1, 0), (1, 1), (0, None)])
    def test_held_cell_rows_equal_a_fresh_design(self, study, source, arm):
        # a cell fit reads its arm's rows of the held source design as one
        # column-major copy, and so has the bits of a fit on a fresh design;
        # a whole source reads the design itself
        cfg, data, model = study
        spec = build_spline_basis(data, 4)
        designs = source_designs(data, spec)
        mask = data.s == source
        if arm is None:
            assert np.array_equal(designs[source], spec.design(data.x[mask]))
            return
        mask &= data.a == arm
        held = fit_conditional_outcomes(data, spec, designs).by_cell[(arm, source)]
        fresh = fit_additive(spec.design(data.x[mask]), data.y[mask], spec)
        assert held.coef.tobytes() == fresh.coef.tobytes()


class TestKernels:
    def test_mean_score_equals_the_score_matrix_means(self, study):
        cfg, data, model = study
        ws = build_workspace(data, model, **true_values(cfg, data))
        psi = true_psi(cfg)
        for params in (psi, np.zeros(ws.p), psi + 0.3):
            np.testing.assert_allclose(ws.mean_score(params),
                                       score_matrix(ws, params).mean(axis=0),
                                       rtol=1e-12, atol=0.0)
        trial = ws.trial(data.n_trial)
        np.testing.assert_allclose(trial.mean_score(psi[:model.p1]),
                                   score_matrix(trial, psi[:model.p1]).mean(axis=0),
                                   rtol=1e-12, atol=0.0)

    def test_irls_weighted_gram_is_exactly_symmetric(self, study, monkeypatch):
        cfg, data, model = study
        spec = build_spline_basis(data, 4)
        grams = []
        solve = np.linalg.solve

        def recording(mat, rhs):
            grams.append(mat)
            return solve(mat, rhs)

        monkeypatch.setattr(np.linalg, "solve", recording)
        fit_additive(spec.design(data.x), data.a.astype(float), spec, link="logit")
        assert len(grams) > 1
        assert all(np.array_equal(g, g.T) for g in grams)

    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_row_major_design_gives_the_same_coefficients(self, study, link):
        # a well-conditioned basis, so that rounding differences between
        # the kernels of the two layouts stay at the rounding level
        cfg, data, model = study
        spec = BasisSpec(build_spline_basis(data, 0).terms + (square_term(0), square_term(1)))
        y = data.a.astype(float) if link == "logit" else data.y
        design = spec.design(data.x)
        fortran = fit_additive(design, y, spec, link=link)
        c_order = fit_additive(np.ascontiguousarray(design), y, spec, link=link)
        np.testing.assert_allclose(c_order.coef, fortran.coef, rtol=1e-12, atol=0.0)


class TestEffectDesigns:
    def test_a_mismatched_design_is_rejected(self, study):
        cfg, data, model = study
        rep = run_pipeline(data, model).integrative
        est = sandwich_covariance(data, rep.psi_hat, rep.workspace)
        obs = model.tau_basis.design(data.x[data.s == 0])
        with pytest.raises(ValidationError, match="design does not match"):
            ate_estimate(est, obs[1:])
        with pytest.raises(ValidationError, match="design does not match"):
            tau_curve(est, obs[:2, :-1])

    def _count_repeats(self, monkeypatch, call):
        seen, repeats = set(), []
        design = BasisSpec.design

        def counting(spec, X):
            key = (spec, np.ascontiguousarray(X, dtype=float).tobytes())
            if key in seen:
                repeats.append(spec)
            seen.add(key)
            return design(spec, X)

        monkeypatch.setattr(BasisSpec, "design", counting)
        call()
        return repeats

    def test_a_fit_builds_each_design_once(self, study, monkeypatch):
        cfg, data, model = study
        names = [f"x{j + 1}" for j in range(5)]
        acfg = AnalysisConfig(data="unused.csv", covariates=names,
                              tau_terms=("1", "x1", "x1^2", "x2", "x2^2"),
                              lambda_terms=tuple(names),
                              estimators=("integrative", "rct", "meta"),
                              probes=((0.0,) * 5, (1.5, 0.0, 0.0, 0.0, 0.0)),
                              gof_tau_terms=("x1*x2",))
        assert self._count_repeats(monkeypatch, lambda: run_fit(acfg, data)) == []

    def _effect_rows(self, monkeypatch, tau, call) -> list:
        """The record counts of the ``tau`` designs ``call`` builds."""
        rows, design = [], BasisSpec.design

        def counting(spec, X):
            if spec == tau:
                rows.append(np.shape(X)[0])
            return design(spec, X)

        monkeypatch.setattr(BasisSpec, "design", counting)
        call()
        return rows

    def test_the_effect_basis_is_evaluated_on_the_probes_alone(self, study, monkeypatch):
        # the comparator and the average effects read the effect columns of
        # the fit's workspace; with a basis other than the generator's, the
        # draw's own evaluations are not counted
        cfg, data, model = study
        names = [f"x{j + 1}" for j in range(5)]
        acfg = AnalysisConfig(data="unused.csv", covariates=names,
                              tau_terms=("1", "x1", "x2^2"), lambda_terms=tuple(names),
                              estimators=("integrative", "rct", "meta"),
                              probes=((0.0,) * 5, (1.5, 0.0, 0.0, 0.0, 0.0)))
        tau = BasisSpec((constant_term(), linear_term(0), square_term(1)))
        assert self._effect_rows(monkeypatch, tau, lambda: run_fit(acfg, data)) == [2]
        sim = make_config(beta=1.0, n=150, m=450, seed=5, tau_terms=tau)
        rows = self._effect_rows(monkeypatch, tau, lambda: simulation.run_replicate(sim, 0))
        assert rows == [len(sim.probes)]

    def test_a_study_evaluates_the_effect_basis_on_its_probes_once(self, monkeypatch):
        # the probe design is a study constant, shared by its replicates; a
        # seed no other test uses keeps the study out of the held cache
        tau = BasisSpec((constant_term(), linear_term(0), square_term(1)))
        sim = make_config(beta=1.0, n=150, m=450, seed=3901, reps=3, tau_terms=tau)
        rows = self._effect_rows(monkeypatch, tau, lambda: run_monte_carlo(sim))
        assert rows == [len(sim.probes)]

    def test_a_replicate_builds_each_design_once(self, monkeypatch):
        # the draw itself evaluates the effect basis on the cohort rows, so
        # only the fit and its summaries are counted
        cfg = make_config(beta=1.0, n=150, m=450, seed=5, knots=0)
        data = generate_replicate(cfg, 0)
        monkeypatch.setattr(simulation, "generate_replicate", lambda cfg, rep: data)
        assert self._count_repeats(monkeypatch, lambda: simulation.run_replicate(cfg, 0)) == []


class TestSourceBlocks:
    def test_per_source_selections_are_views_of_the_pooled_arrays(self, study, monkeypatch):
        # records are held trial first, so the trial-only equations and the
        # cohort's effect rows are slices, not copies (the trial dataset's
        # columns: tests/test_model.py)
        cfg, data, model = study
        fit = run_pipeline(data, model, which=("integrative", "rct", "meta"))
        pooled, trial = fit.integrative.workspace, fit.rct.workspace
        for name in ("grad", "resid_design", "base_resid", "eps_a"):
            assert np.shares_memory(getattr(trial, name), getattr(pooled, name)), name
        designs, average = [], inference.ate_estimate

        def recording(est, design):
            designs.append(design)
            return average(est, design)

        monkeypatch.setattr(inference, "ate_estimate", recording)
        inference._summaries(data, fit, model.tau_basis.design(np.zeros((1, data.d))),
                             BasisSpec(()), BasisSpec(()), False)
        assert len(designs) == 2
        for design in designs:
            assert np.shares_memory(design, fit.effect_design)
            assert np.array_equal(design, model.tau_basis.design(data.x[data.s == 0]))
