"""Memory layout of the record-by-column matrices and the kernels that read them.

Every design and workspace matrix a fit builds is column-major, and row
selections keep that layout, so that a held design's rows and a design
built from the same covariates give bit-identical fits.  Sums over records
run as products (``ScoreWorkspace.mean_score``) or symmetric products (the IRLS Gram).
"""

import numpy as np
import pytest

from htefusion import (
    BasisSpec,
    ValidationError,
    ate_estimate,
    build_spline_basis,
    build_workspace,
    constant_term,
    fit_additive,
    generate_replicate,
    linear_term,
    run_pipeline,
    sandwich_covariance,
    square_term,
    tau_curve,
)
from htefusion.io import AnalysisConfig, run_fit
from htefusion.nuisance import _source_rows, source_designs
import htefusion.simulation as simulation
from conftest import make_config, true_psi, true_values


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
        ws = build_workspace(data, model, true_values(cfg, data))
        trial = ws.trial(data.rows(1))
        for mat in (ws.grad, ws.resid_design, trial.grad, trial.resid_design):
            assert mat.flags.f_contiguous
        pooled = run_pipeline(data, model).integrative.workspace  # after profiling
        assert pooled.grad.flags.f_contiguous and pooled.resid_design.flags.f_contiguous

    @pytest.mark.parametrize("source, arm", [(0, 0), (0, 1), (1, 0), (1, 1), (0, None)])
    def test_held_cell_rows_equal_a_fresh_design(self, study, source, arm):
        cfg, data, model = study
        spec = build_spline_basis(data, 4)
        mask = data.rows(source, arm)
        design = _source_rows(source_designs(data, spec), data.s, source, mask)
        assert design.flags.f_contiguous
        assert np.array_equal(design, spec.design(data.x[mask]))


class TestKernels:
    def test_mean_score_equals_the_score_matrix_means(self, study):
        cfg, data, model = study
        ws = build_workspace(data, model, true_values(cfg, data))
        psi = true_psi(cfg)
        for params in (psi, np.zeros(ws.p), psi + 0.3):
            np.testing.assert_allclose(ws.mean_score(params),
                                       ws.score_matrix(params).mean(axis=0),
                                       rtol=1e-12, atol=0.0)
        trial = ws.trial(data.rows(1))
        np.testing.assert_allclose(trial.mean_score(psi[:model.p1]),
                                   trial.score_matrix(psi[:model.p1]).mean(axis=0),
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
        obs = model.tau_basis.design(data.x[data.rows(0)])
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

    def test_a_replicate_builds_each_design_once(self, monkeypatch):
        # the draw itself evaluates the effect basis on the cohort rows, so
        # only the fit and its summaries are counted
        cfg = make_config(beta=1.0, n=150, m=450, seed=5, knots=0)
        data = generate_replicate(cfg, 0)
        monkeypatch.setattr(simulation, "generate_replicate", lambda cfg, rep: data)
        assert self._count_repeats(monkeypatch, lambda: simulation.run_replicate(cfg, 0)) == []
