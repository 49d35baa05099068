"""The synthetic study: generator moments, replicate analysis, aggregation."""

import ctypes
import dataclasses
import json
import os

import numpy as np
import pytest
from scipy.special import expit

import htefusion.simulation as simulation
from htefusion import (
    BasisSpec,
    BasisTerm,
    McSummary,
    SimConfig,
    ValidationError,
    constant_term,
    default_lambda_basis,
    default_probes,
    default_tau_basis,
    generate_replicate,
    linear_term,
    probe_label,
    product_term,
    replicate_rng,
    run_monte_carlo,
    run_replicate,
    square_term,
    summarize,
    true_ate,
    true_tau,
    true_tau_coefficients,
)
from htefusion.io import AnalysisConfig, run_fit
from htefusion.model import _expit
from conftest import make_config, run_child
from oracles import fold_cells


class TestStreams:
    def test_same_key_same_stream(self):
        a = replicate_rng(7, 3).standard_normal(5)
        b = replicate_rng(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_replicates_distinct_streams(self):
        a = replicate_rng(7, 3).standard_normal(5)
        b = replicate_rng(7, 4).standard_normal(5)
        c = replicate_rng(8, 3).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValidationError):
            replicate_rng(7, -1)


class TestTruth:
    def test_coefficient_patterns(self):
        assert np.array_equal(true_tau_coefficients("opposed"),
                              [1.0, 1.0, 1.0, -1.0, -1.0])
        assert np.array_equal(true_tau_coefficients("aligned"),
                              [1.0, 1.0, 1.0, 1.0, 1.0])

    def test_effect_surface_by_hand(self):
        cfg = make_config()
        pt = np.zeros(5)
        assert true_tau(cfg, pt)[0] == pytest.approx(1.0)
        pt = np.array([-3.0, 0.0, 0.0, 0.0, 0.0])
        assert true_tau(cfg, pt)[0] == pytest.approx(1.0 - 3.0 + 9.0)
        pt = np.array([0.0, 3.0, 0.0, 0.0, 0.0])
        assert true_tau(cfg, pt)[0] == pytest.approx(1.0 - 3.0 - 9.0)
        flipped = make_config(tau_form="aligned")
        assert true_tau(flipped, pt)[0] == pytest.approx(1.0 + 3.0 + 9.0)

    def test_average_effect_matches_large_draw(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200_000, 5))
        for form, want in (("opposed", 1.0), ("aligned", 3.0)):
            cfg = make_config(tau_form=form)
            assert true_ate(cfg) == want
            assert true_tau(cfg, X).mean() == pytest.approx(want, abs=0.03)

    def test_confounding_curve_scaling(self):
        X = np.arange(10.0).reshape(2, 5)
        unit = simulation.true_confounding(make_config(beta=1.0), X)
        assert np.allclose(unit, X.sum(axis=1))
        double = simulation.true_confounding(make_config(beta=2.0), X)
        assert np.allclose(double, 2.0 * X.sum(axis=1))


class TestConfig:
    @pytest.mark.parametrize("bad", [
        {"n": 1}, {"m": 1}, {"reps": 0}, {"jobs": 0},
        {"tau_form": "mixed"},
        {"estimators": ("integrative", "oracle")}, {"estimators": ()},
    ])
    def test_rejects_bad_settings(self, bad):
        with pytest.raises(ValidationError):
            make_config(**bad)

    @pytest.mark.parametrize("probes", [
        ((1.0, 2.0, 3.0),), ((1.0,),), ((float("nan"), 0.0),), ((0.0, 0.0), (0.0, float("inf"))),
    ])
    def test_rejects_probes_that_are_not_finite_pairs(self, probes):
        with pytest.raises(ValidationError, match="probes must each be 2 finite numbers"):
            make_config(probes=probes)

    @pytest.mark.parametrize("bad, text", [
        ({"beta": "12345"}, "'beta' must be a list of numbers"),
        ({"n": "300"}, "'n' must be an integer"),
        ({"estimators": "meta"}, "'estimators' must be a list of strings"),
        ({"tau_terms": ("1", "x1")}, "'tau_terms' must be a basis"),
    ])
    def test_rejects_values_of_the_wrong_type(self, bad, text):
        with pytest.raises(ValidationError, match=text):
            SimConfig(**bad)

    def test_jobs_capped_at_cpu_count(self):
        # constructing the config starts no worker process
        cores = simulation._usable_cpus()
        assert make_config(jobs=10**6).jobs == cores
        assert make_config(jobs=1).jobs == 1

    def test_worker_processes_capped_at_the_affinity_mask(self, monkeypatch):
        # as under taskset -c 0 on a two-core host: one worker process
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert simulation._usable_cpus() == 1
        assert make_config(jobs=4).jobs == 1
        # where the OS keeps no affinity mask, every CPU of the host
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert simulation._usable_cpus() == 2

    def test_beta_length_checked(self):
        with pytest.raises(ValidationError):
            SimConfig(beta=(1.0, 2.0))

    def test_gof_enabled_property(self):
        assert not make_config().gof_enabled
        assert make_config(gof_alt_tau=BasisSpec((square_term(1),))).gof_enabled
        assert make_config(gof_alt_lambda=BasisSpec((square_term(0),))).gof_enabled

    @pytest.mark.parametrize("alt", ["gof_alt_tau", "gof_alt_lambda"])
    def test_gof_without_the_integrative_estimator_is_rejected(self, alt):
        # the specification test runs on the pooled fit alone: without it the
        # alternative terms would be ignored
        with pytest.raises(ValidationError, match="need the integrative estimator"):
            make_config(estimators=("rct", "meta"), **{alt: BasisSpec((square_term(0),))})
        assert not make_config(estimators=("rct",), gof_alt_tau=BasisSpec(())).gof_enabled

    def test_model_uses_overrides(self):
        cfg = make_config()
        assert cfg.model().tau_basis.labels() == default_tau_basis().labels()
        assert cfg.model().lambda_basis.labels() == default_lambda_basis().labels()
        small = BasisSpec((constant_term(), linear_term(0)))
        cfg = make_config(tau_terms=small, lambda_terms=BasisSpec((linear_term(2),)))
        assert cfg.model().tau_basis.labels() == small.labels()
        assert cfg.model().lambda_basis.labels() == ["x3"]


class TestGenerator:
    def test_layout_and_determinism(self):
        cfg = make_config(beta=1.0, n=150, m=400, seed=5)
        data = generate_replicate(cfg, 2)
        again = generate_replicate(cfg, 2)
        other = generate_replicate(cfg, 3)
        assert data.n == 550 and data.x.shape == (550, 5)
        assert np.all(data.s[:150] == 1) and np.all(data.s[150:] == 0)
        assert np.array_equal(data.y, again.y)
        assert not np.array_equal(data.y, other.y)

    def test_trial_is_a_fair_coin(self):
        cfg = make_config(n=20_000, m=2, seed=6)
        data = generate_replicate(cfg, 0)
        assert data.a[data.s == 1].mean() == pytest.approx(0.5, abs=0.02)

    def test_cohort_treatment_follows_covariates(self):
        cfg = make_config(n=2, m=60_000, seed=6)
        data = generate_replicate(cfg, 0)
        x = data.x[data.s == 0]
        a = data.a[data.s == 0]
        p = expit(-x.sum(axis=1))
        # bin the fitted propensity and compare observed rates
        for lo, hi in ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)):
            sel = (p >= lo) & (p < hi)
            if sel.sum() > 500:
                assert a[sel].mean() == pytest.approx(p[sel].mean(), abs=0.03)

    def test_trial_outcome_moments(self):
        cfg = make_config(beta=1.0, n=40_000, m=2, seed=7)
        data = generate_replicate(cfg, 0)
        sel = data.s == 1
        resid = (data.y[sel] - data.a[sel] * true_tau(cfg, data.x[sel])
                 - data.x[sel].sum(axis=1))
        assert resid.mean() == pytest.approx(0.0, abs=0.03)
        assert resid.var() == pytest.approx(1.0, rel=0.05)

    def test_cohort_confounding_and_noise(self):
        """The arm-specific shift recovers half the confounding curve."""
        cfg = make_config(beta=1.0, n=2, m=80_000, seed=8)
        data = generate_replicate(cfg, 0)
        sel = data.s == 0
        x, a = data.x[sel], data.a[sel]
        resid = (data.y[sel] - a * true_tau(cfg, x) - x.sum(axis=1))
        cols = np.column_stack([np.ones(x.shape[0]), x])
        for arm, sign in ((1, +0.5), (0, -0.5)):
            coefs, *_ = np.linalg.lstsq(cols[a == arm], resid[a == arm], rcond=None)
            assert coefs[0] == pytest.approx(0.0, abs=0.05)
            assert np.allclose(coefs[1:], sign * np.ones(5), atol=0.06)
            fit = cols[a == arm] @ coefs
            assert (resid[a == arm] - fit).var() == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("beta", [(1.0,) * 5, (0.5, -1.0, 2.0, 0.0, 1.5)],
                             ids=["unit", "mixed"])
    def test_outcomes_equal_a_draw_of_the_shift_by_rng_normal(self, beta):
        # the reference draws the cohort shift with rng.normal(loc, 1.0) from
        # the replicate's stream; the generator's loc + standard_normal must
        # take the same numbers from it and give the same bits
        cfg = SimConfig(beta=beta, n=150, m=400, seed=12)
        rng = replicate_rng(cfg.seed, 3)
        x_t = rng.standard_normal((cfg.n, 5))
        a_t = (rng.random(cfg.n) < 0.5).astype(np.int8)
        y_t = a_t * true_tau(cfg, x_t) + x_t.sum(axis=1) + rng.standard_normal(cfg.n)
        x_o = rng.standard_normal((cfg.m, 5))
        a_o = (rng.random(cfg.m) < _expit(-x_o.sum(axis=1))).astype(np.int8)
        u_o = rng.normal((a_o - 0.5) * simulation.true_confounding(cfg, x_o), 1.0)
        y_o = a_o * true_tau(cfg, x_o) + x_o.sum(axis=1) + u_o + rng.standard_normal(cfg.m)
        data = generate_replicate(cfg, 3)
        assert np.array_equal(data.x, np.vstack([x_t, x_o]))
        assert np.array_equal(data.a, np.concatenate([a_t, a_o]))
        assert np.array_equal(data.y, np.concatenate([y_t, y_o]))

    def test_double_scale_doubles_the_shift(self):
        cfg = make_config(beta=2.0, n=2, m=80_000, seed=8)
        data = generate_replicate(cfg, 0)
        sel = (data.s == 0) & (data.a == 1)
        x = data.x[sel]
        resid = (data.y[sel] - true_tau(cfg, x) - x.sum(axis=1))
        cols = np.column_stack([np.ones(x.shape[0]), x])
        coefs, *_ = np.linalg.lstsq(cols, resid, rcond=None)
        assert np.allclose(coefs[1:], np.ones(5), atol=0.06)


class TestProbeLabels:
    def test_formatting(self):
        assert probe_label((-3.0, 0.0)) == "tau(-3,0)"
        assert probe_label((1.5, 0.0)) == "tau(1.5,0)"
        assert probe_label((0.0, -1.5)) == "tau(0,-1.5)"

    def test_default_probe_set(self):
        labels = [probe_label(p) for p in default_probes()]
        assert len(labels) == len(set(labels)) == 9
        assert "tau(0,0)" in labels


@pytest.fixture(scope="module")
def small_cfg():
    return make_config(beta=1.0, n=200, m=600, seed=9,
                       gof_alt_tau=BasisSpec((square_term(2),)))


@pytest.fixture(scope="module")
def tiny_study():
    cfg = make_config(beta=1.0, n=200, m=600, seed=10, reps=4,
                      gof_alt_tau=BasisSpec((square_term(2),)))
    return cfg, run_monte_carlo(cfg)


class TestRunReplicate:
    def test_result_layout(self, small_cfg):
        out = run_replicate(small_cfg, 0)
        assert set(out) == {"fallback", "estimates", "gof_p"}
        assert set(out["estimates"]) == {"integrative", "rct", "meta"}
        labels = [probe_label(p) for p in small_cfg.probes] + ["ate"]
        for name, cells in out["estimates"].items():
            assert set(cells) == set(labels)
            for lab in labels:
                pt, ve = cells[lab]
                assert np.isfinite(pt)
                if name == "meta":
                    assert ve is None
                else:
                    assert ve > 0.0
        assert 0.0 <= out["gof_p"] <= 1.0

    @pytest.mark.parametrize("knots", [0, 4])
    def test_numbers_equal_those_of_a_fit_on_the_same_data(self, monkeypatch, knots):
        # a replicate and ``htefusion fit`` share one summary path, so on the
        # same records they report the same numbers, variances as squared SEs
        cfg = make_config(beta=1.0, n=150, m=450, seed=5, knots=knots,
                          gof_alt_tau=BasisSpec((product_term(0, 1),)))
        data = generate_replicate(cfg, 0)
        monkeypatch.setattr(simulation, "generate_replicate", lambda cfg, rep: data)
        out = run_replicate(cfg, 0)
        names = [f"x{j + 1}" for j in range(5)]
        points = simulation._study(cfg)[1]
        doc = run_fit(AnalysisConfig(
            data="unused.csv", covariates=names, tau_terms=("1", "x1", "x1^2", "x2", "x2^2"),
            lambda_terms=names, estimators=("integrative", "rct", "meta"), knots=knots,
            trial_known=cfg.trial_known, probes=tuple(map(tuple, points)),
            gof_tau_terms=("x1*x2",)), data).results
        labels = [probe_label(p) for p in cfg.probes]
        for name in ("integrative", "rct"):
            want = {lab: (row["estimate"], row["se"] ** 2)
                    for lab, row in zip(labels, doc[name]["curve"])}
            want["ate"] = (doc[name]["ate"]["estimate"], doc[name]["ate"]["se"] ** 2)
            assert out["estimates"][name] == want, name
        coef = [doc["meta"]["tau_coefficients"][lab] for lab in cfg.model().tau_basis.labels()]
        want = dict(zip(labels, ((float(v), None)
                                 for v in cfg.model().tau_basis.design(points) @ coef)))
        want["ate"] = (doc["meta"]["ate"]["estimate"], None)
        assert out["estimates"]["meta"] == want
        assert out["gof_p"] == doc["integrative"]["gof"]["p_value"]

    def test_spline_knots_given_as_a_list_run(self):
        # a study's constants are held by its config, so each of its terms
        # must hash, a spline term given a list of knots too
        spline = BasisTerm("spline", j=0, knots=[-1.0, 0.0, 1.0])
        cfg = make_config(beta=1.0, n=200, m=600, seed=9, estimators=("integrative",),
                          lambda_terms=BasisSpec((linear_term(0), spline)))
        assert spline.knots == (-1.0, 0.0, 1.0)
        assert set(run_replicate(cfg, 0)["estimates"]) == {"integrative"}

    def test_gof_skipped_without_alternative(self):
        cfg = make_config(beta=0.0, n=200, m=600, seed=9,
                          estimators=("integrative",))
        out = run_replicate(cfg, 0)
        assert out["gof_p"] is None
        assert set(out["estimates"]) == {"integrative"}

    def test_estimator_subset_respected(self):
        cfg = make_config(beta=0.0, n=200, m=600, seed=9,
                          estimators=("rct", "meta"))
        out = run_replicate(cfg, 0)
        assert set(out["estimates"]) == {"rct", "meta"}


def _blas_threads() -> int:
    """The bundled OpenBLAS's thread count in the calling process."""
    get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _log(x: float) -> float:
    """numpy's log, which warns (RuntimeWarning) at a negative ``x``."""
    return float(np.log(x))


class TestRunMonteCarlo:
    def test_summary_layout(self, tiny_study):
        cfg, mc = tiny_study
        assert isinstance(mc, McSummary)
        assert mc.reps == 4 and mc.n_fallback == 0
        assert len(mc.targets) == len(cfg.probes) + 1
        assert mc.targets[-1][0] == "ate"
        assert set(mc.cells) == {"integrative", "rct", "meta"}
        for lab, truth in mc.targets:
            st = mc.cells["integrative"][lab]
            assert np.isfinite(st.mc_mean)
            assert st.mc_var > 0.0 and st.mean_ve > 0.0
            assert 0.0 <= st.coverage <= 1.0
            assert mc.cells["meta"][lab].mean_ve is None
        assert mc.gof is not None
        assert len(mc.gof["p_values"]) == 4

    def test_a_study_without_probes_reports_the_average_effect_alone(self):
        cfg = make_config(beta=1.0, n=150, m=450, seed=11, reps=2, probes=())
        mc = run_monte_carlo(cfg)
        assert mc.targets == (("ate", 1.0),)
        assert all(set(per_est) == {"ate"} for per_est in mc.cells.values())
        assert mc.to_dict()["targets"] == [{"label": "ate", "truth": 1.0}]

    def test_truth_column(self, tiny_study):
        cfg, mc = tiny_study
        by_label = dict(mc.targets)
        assert by_label["tau(0,0)"] == pytest.approx(1.0)
        assert by_label["tau(-3,0)"] == pytest.approx(7.0)
        assert by_label["tau(0,3)"] == pytest.approx(-11.0)
        assert by_label["ate"] == pytest.approx(1.0)

    def test_aggregates_match_replicates(self, tiny_study):
        cfg, mc = tiny_study
        pts = np.array([run_replicate(cfg, r)["estimates"]["rct"]["tau(0,0)"][0]
                        for r in range(cfg.reps)])
        st = mc.cells["rct"]["tau(0,0)"]
        assert st.mc_mean == pytest.approx(pts.mean())
        assert st.mc_var == pytest.approx(pts.var(ddof=1))

    def test_worker_count_does_not_change_results(self, monkeypatch, tiny_study):
        cfg, mc = tiny_study
        # two workers even on a one-core host, where jobs is capped at one
        monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
        twice = run_monte_carlo(dataclasses.replace(cfg, jobs=2))
        a, b = mc.to_dict(), twice.to_dict()
        assert a.pop("config")["jobs"] == 1
        assert b.pop("config")["jobs"] == 2
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_worker_count_does_not_change_large_study_results(self, monkeypatch):
        # a cohort of 12,000 on the 26-column spline basis.  This process
        # starts on two BLAS threads, as numpy's default is on two cores, and
        # the serial study runs BLAS on one, as the workers do
        cfg = make_config(beta=1.0, n=300, m=12_000, knots=4, reps=2, seed=5,
                          estimators=("integrative", "rct"))
        monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
        before = simulation._blas_threads(2)
        try:
            a = run_monte_carlo(cfg).to_dict()
            assert simulation._blas_threads() in (0, 2)  # restored after the study
            b = run_monte_carlo(dataclasses.replace(cfg, jobs=2)).to_dict()
        finally:
            simulation._blas_threads(before)
        a["config"].pop("jobs")
        b["config"].pop("jobs")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_a_serial_study_builds_its_constants_once(self, monkeypatch):
        cfg = make_config(beta=1.0, n=100, m=300, seed=13, reps=4, jobs=1,
                          gof_alt_tau=BasisSpec((product_term(0, 1),)))
        built = []
        model = SimConfig.model
        monkeypatch.setattr(SimConfig, "model", lambda self: built.append(self) or model(self))
        simulation._study.cache_clear()
        once = run_monte_carlo(cfg)
        assert len(built) == 1
        # the same study with its constants built anew for every use
        monkeypatch.setattr(simulation, "_study", simulation._study.__wrapped__)
        rebuilt = run_monte_carlo(cfg)
        assert len(built) == 1 + cfg.reps + 1
        assert json.dumps(once.to_dict()) == json.dumps(rebuilt.to_dict())

    def test_serial_study_runs_its_replicates_on_one_blas_thread(self, monkeypatch):
        before = simulation._blas_threads(2)
        if before == 0:
            pytest.skip("numpy's BLAS is not the bundled OpenBLAS")
        seen = []

        def recording(cfg_, rep_):
            seen.append(simulation._blas_threads())
            return run_replicate(cfg_, rep_)

        monkeypatch.setattr(simulation, "run_replicate", recording)
        try:
            run_monte_carlo(make_config(n=100, m=300, reps=2, jobs=1))
            assert seen == [1, 1]
            assert simulation._blas_threads() == 2  # restored after the study
        finally:
            simulation._blas_threads(before)

    def test_a_workers_runtime_warning_fails_the_caller(self):
        # forked workers keep the suite's RuntimeWarning filter, so a NaN in a
        # replicate fails the study that drew it; a start method that imports
        # afresh, such as forkserver, drops the filter and fails this test
        with simulation._worker_pool(2) as pool:
            with pytest.raises(RuntimeWarning, match="invalid value"):
                list(pool.map(_log, [1.0, -1.0]))

    def test_workers_run_blas_on_one_thread(self):
        try:
            blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
            get, set_ = (blas.scipy_openblas_get_num_threads64_,
                         blas.scipy_openblas_set_num_threads64_)
        except (AttributeError, OSError):
            pytest.skip("numpy's BLAS is not the bundled OpenBLAS")
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        before = get()
        set_(2)  # the suite pins this process to one thread; a worker would inherit it
        try:
            assert get() == 2
            with simulation._worker_pool(1) as pool:
                assert pool.submit(_blas_threads).result() == 1
        finally:
            set_(before)
        assert get() == before

    def test_excess_fallbacks_abort(self, monkeypatch, tiny_study):
        cfg, _ = tiny_study

        def always_fallback(cfg_, rep_):
            out = run_replicate(cfg_, rep_)
            out["fallback"] = True
            return out

        monkeypatch.setattr(simulation, "run_replicate", always_fallback)
        with pytest.raises(simulation.NumericalError):
            run_monte_carlo(cfg)

    def test_report_text(self, tiny_study):
        cfg, mc = tiny_study
        text = summarize(mc)
        assert "tau(0,0)" in text and "integrative" in text
        assert "replicates: 4" in text
        assert "specification test" in text
        widths = {len(line) for line in text.splitlines()[:3]}
        assert len(widths) <= 2  # aligned table

    def test_round_trips_through_json(self, tiny_study):
        cfg, mc = tiny_study
        blob = json.loads(json.dumps(mc.to_dict()))
        assert blob["reps"] == 4
        assert blob["cells"]["integrative"]["ate"]["coverage"] is not None


class TestFold:
    """The study's fold reduces all targets at once with the bits of a fold of
    one cell at a time."""

    @staticmethod
    def assert_cells_equal(got: dict, want: dict) -> None:
        assert list(got) == list(want)
        for est, per_est in want.items():
            assert list(got[est]) == list(per_est)
            for lab, cell in per_est.items():
                for f in dataclasses.fields(cell):
                    # == on every field: equal floats, or None on both sides
                    assert getattr(got[est][lab], f.name) == getattr(cell, f.name), \
                        (est, lab, f.name)

    @pytest.mark.parametrize("reps", [1, 3, 20])
    @pytest.mark.parametrize("estimators", [("integrative", "rct", "meta"), ("rct",)],
                             ids=["all", "single"])
    def test_study_equals_the_per_cell_fold(self, reps, estimators):
        cfg = make_config(beta=1.0, n=200, m=600, seed=12, reps=reps, estimators=estimators)
        mc = run_monte_carlo(cfg)
        results = [run_replicate(cfg, r) for r in range(reps)]
        want = fold_cells(results, mc.targets, estimators)
        self.assert_cells_equal(mc.cells, want)
        if reps == 1:
            assert all(st.mc_var is None for st in mc.cells[estimators[0]].values())
        if "meta" in estimators:
            assert all(st.mean_ve is None and st.coverage is None
                       for st in mc.cells["meta"].values())

    def test_long_study_equals_the_per_cell_fold(self, monkeypatch):
        # 4,000 replicates, as the acceptance study runs: rows long enough for
        # numpy's pairwise summation to split them into blocks
        cfg = make_config(reps=4000)
        labels = [probe_label(p) for p in cfg.probes] + ["ate"]
        rng = np.random.default_rng(5)
        results = [{"fallback": False, "gof_p": None, "estimates": {
            "integrative": {lab: (float(rng.normal(1.0, 0.3)), float(rng.gamma(2.0, 0.05)))
                            for lab in labels},
            "meta": {lab: (float(rng.normal(1.0, 0.5)), None) for lab in labels}}}
            for _ in range(cfg.reps)]
        monkeypatch.setattr(simulation, "run_replicate", lambda cfg_, rep: results[rep])
        mc = run_monte_carlo(cfg)
        want = fold_cells(results, mc.targets, cfg.estimators)
        assert list(want) == ["integrative", "meta"]  # rct is absent from the results
        self.assert_cells_equal(mc.cells, want)


# Paper-size replicates, their minor page faults counted after each one; run
# in a fresh interpreter, so that the suite's heap cannot hide the faults
_COUNT_FAULTS = """
import resource
from htefusion import SimConfig, run_replicate, simulation

CFG = SimConfig(beta=(1.0,) * 5, n=300, m=5000, reps=12)


def faults_per_replicate(study):
    \"\"\"Minor faults per replicate over replicates 2..11 of ``study``, which
    runs the replicates of CFG through the counting function it is given.\"\"\"
    seen = []

    def counted(cfg, rep):
        out = run_replicate(cfg, rep)
        seen.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return out

    study(counted)
    return (seen[11] - seen[1]) / 10
"""


def _faults_in_child(script: str) -> float:
    if simulation._native("libc", "mallopt", ctypes.c_int, ctypes.c_int, ctypes.c_int) is None:
        pytest.skip("the C library has no mallopt")
    proc = run_child(["-c", _COUNT_FAULTS + script])
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.split()[-1])


class TestKeepHeap:
    """A study keeps its freed heap, so that a replicate does not fault its
    working set in again from the OS."""

    def test_serial_study_reuses_its_heap(self):
        faults = _faults_in_child(
            "def serial(counted):\n"
            "    simulation.run_replicate = counted\n"
            "    simulation.run_monte_carlo(CFG)\n"
            "print(faults_per_replicate(serial))\n")
        assert faults <= 20  # ~460 under glibc's default heap policy

    def test_worker_reuses_its_heap(self):
        # the worker's caller never ran a serial study, so the worker's
        # initializer alone sets the heap policy
        faults = _faults_in_child(
            "def in_worker():\n"
            "    return faults_per_replicate(\n"
            "        lambda counted: [counted(CFG, r) for r in range(CFG.reps)])\n"
            "assert simulation._keep_heap.cache_info().currsize == 0\n"
            "with simulation._worker_pool(1) as pool:\n"
            "    print(pool.submit(in_worker).result())\n")
        assert faults <= 20

    def test_heap_policy_keeps_every_output(self):
        # a study's summary and a 20,000-record fit's document, before and
        # after the policy is set in one process; arrays of 128 KiB or more
        # move from fresh mappings to the heap
        script = """
import dataclasses, json
from htefusion import SimConfig, generate_replicate, run_monte_carlo, simulation
from htefusion.io import AnalysisConfig, run_fit

cfg = SimConfig(beta=(1.0,) * 5, n=300, m=5000, reps=2, knots=4)
data = generate_replicate(dataclasses.replace(cfg, m=20_000), 0)
names = tuple(f"x{j + 1}" for j in range(5))
fit = AnalysisConfig(data="unused.csv", covariates=names,
                     tau_terms=("1", "x1", "x1^2", "x2", "x2^2"), lambda_terms=names,
                     estimators=("integrative", "rct", "meta"), probes=((0.0,) * 5,),
                     gof_tau_terms=("x1*x2",))


def outputs():
    return (json.dumps(run_monte_carlo(cfg).to_dict(), sort_keys=True),
            run_fit(fit, data).to_json())


keep_heap = simulation._keep_heap
simulation._keep_heap = lambda: None  # else the study would set the policy
before = outputs()
simulation._keep_heap = keep_heap
keep_heap()
assert outputs() == before
"""
        proc = run_child(["-c", script])
        assert proc.returncode == 0, proc.stderr
