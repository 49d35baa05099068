"""Acceptance gate: the package's stated guarantees, run end to end.

Every test prints one ``ACCEPTANCE <tag>: PASS/FAIL`` line with the
measured numbers, then asserts, so the gate reads as a checklist in the
test report.  All studies run at fixed seeds; a green gate is
reproducible bit for bit.

The heavyweight fixtures are session scoped and shared across criteria:
two 200-replicate desk studies with all three estimators, and two
2000-replicate studies of the pooled estimator alone for variance
calibration and interval coverage (the wider bands make the +/- 2.5
point coverage window statistically meaningful, which it is not at
small replicate counts where the Monte Carlo error of coverage itself
approaches the window width).
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import htefusion.simulation as simulation
from htefusion import (
    BasisSpec,
    SimConfig,
    build_spline_basis,
    build_workspace,
    constant_term,
    default_tau_basis,
    generate_replicate,
    linear_term,
    precision_gain,
    product_term,
    run_monte_carlo,
    run_pipeline,
    sandwich_covariance,
    solve_integrative,
    square_term,
)
from htefusion.estimators import preliminary_estimate
from htefusion.nuisance import fit_conditional_outcomes, fit_outcome_mean, source_designs
from htefusion.simulation import _usable_cpus
from conftest import make_config, true_psi, true_values
from oracles import pseudo_outcomes, score_matrix


def verdict(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------- fixtures

# The studies run on every core: results do not depend on the worker count
# (criterion 8d), and forked workers keep the warning filters, so a
# RuntimeWarning in a replicate still fails the run.
JOBS = _usable_cpus()


@pytest.fixture(scope="session")
def desk_s1():
    """Desk-scale study without unmeasured confounding, all estimators."""
    return run_monte_carlo(SimConfig(beta=(0.0,) * 5, reps=200, jobs=JOBS))


@pytest.fixture(scope="session")
def desk_s2():
    """Desk-scale study with unit confounding loadings, all estimators."""
    return run_monte_carlo(SimConfig(beta=(1.0,) * 5, reps=200, jobs=JOBS))


@pytest.fixture(scope="session")
def calib_s1():
    return run_monte_carlo(
        SimConfig(beta=(0.0,) * 5, reps=2000, estimators=("integrative",), jobs=JOBS))


@pytest.fixture(scope="session")
def calib_s2():
    return run_monte_carlo(
        SimConfig(beta=(1.0,) * 5, reps=2000, estimators=("integrative",), jobs=JOBS))


# Pooled-estimator cells pinned from a 2000-replicate reference study of
# the same design: (mean x 1e-2, Monte Carlo variance x 1e-3) per target.
# The reference fitted heavier spline nuisance models, so its variances
# run above this package's; only its means are reproduction targets.
REF_REPS = 2000
REF_S1 = {
    "tau(-3,0)": (699, 577), "tau(-1.5,0)": (175, 154), "tau(1.5,0)": (476, 154),
    "tau(3,0)": (1300, 577), "tau(0,0)": (101, 37), "tau(0,-3)": (-500, 551),
    "tau(0,-1.5)": (25, 147), "tau(0,1.5)": (-274, 147), "tau(0,3)": (-1098, 551),
    "ate": (101, 36),
}
REF_S2 = {
    "tau(-3,0)": (697, 705), "tau(-1.5,0)": (175, 165), "tau(1.5,0)": (475, 165),
    "tau(3,0)": (1298, 705), "tau(0,0)": (101, 40), "tau(0,-3)": (-502, 687),
    "tau(0,-1.5)": (25, 159), "tau(0,1.5)": (-274, 159), "tau(0,3)": (-1100, 687),
    "ate": (101, 36),
}


def mean_reproduction(mc, refs):
    """Check the pooled means against truth and the reference cells.

    Unbiasedness uses the run's own Monte Carlo SE.  The reference
    comparison widens the band by the reference study's Monte Carlo SE
    (from its pinned variance column) plus half a display unit, since
    the reference means are rounded to 1e-2.
    """
    worst_z, worst_z_lab, worst_use, worst_use_lab = 0.0, None, 0.0, None
    for lab, truth in mc.targets:
        st = mc.cells["integrative"][lab]
        se_run = math.sqrt(st.mc_var / mc.reps)
        z = (st.mc_mean - truth) / se_run
        if abs(z) > abs(worst_z):
            worst_z, worst_z_lab = z, lab
        ref_mean = refs[lab][0] / 100.0
        se_ref = math.sqrt(refs[lab][1] / 1000.0 / REF_REPS)
        band = 3.0 * math.sqrt(se_run ** 2 + se_ref ** 2) + 0.005
        use = abs(st.mc_mean - ref_mean) / band
        if use > worst_use:
            worst_use, worst_use_lab = use, lab
    ok = abs(worst_z) <= 3.0 and worst_use <= 1.0
    detail = (f"max |z| vs truth = {abs(worst_z):.2f} at {worst_z_lab} "
              f"(limit 3); worst reference-cell deviation uses "
              f"{worst_use * 100:.0f}% of its 3 SE + rounding band at "
              f"{worst_use_lab}")
    return ok, detail


# ---------------------------------------------------- criteria 1-3: means

def test_criterion_1_means_without_confounding(desk_s1):
    ok, detail = mean_reproduction(desk_s1, REF_S1)
    verdict("1", ok,
            f"pooled-estimator means reproduce the unconfounded reference "
            f"column at all 10 targets: {detail}")


def test_criterion_2_means_under_confounding(desk_s2):
    ok, detail = mean_reproduction(desk_s2, REF_S2)
    # the unadjusted comparator must also reproduce its pinned bias
    # pattern: pulled toward zero on the x1 axis, pushed past truth on
    # the negative x2 axis
    refs = {"tau(-3,0)": 4.33, "tau(1.5,0)": 6.21, "tau(0,3)": -8.26}
    ratios = {lab_: desk_s2.cells["meta"][lab_].mc_mean / want
              for lab_, want in refs.items()}
    meta_ok = all(0.85 <= r <= 1.15 for r in ratios.values())
    shown = ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
    verdict("2", ok and meta_ok,
            f"confounded study: pooled means reproduce the reference column "
            f"({detail}) and the unadjusted comparator lands on its "
            f"reference bias pattern within 15% ({shown})")


def test_criterion_3_pooling_reduces_variance(desk_s1, desk_s2):
    wins, total, ratios = 0, 0, []
    for mc in (desk_s1, desk_s2):
        for lab, _ in mc.targets:
            total += 1
            vi = mc.cells["integrative"][lab].mc_var
            vr = mc.cells["rct"][lab].mc_var
            ratios.append(vr / vi)
            wins += vi < vr
    verdict("3", wins == total,
            f"pooled Monte Carlo variance beats trial-only at {wins}/{total} "
            f"targets across both settings (variance ratios "
            f"{min(ratios):.2f}x to {max(ratios):.2f}x)")


# ------------------------------------------- criteria 4-5: inference quality

def test_criterion_4_variance_estimator_calibrated(calib_s1, calib_s2):
    ratios = {}
    for tag, mc in (("S1", calib_s1), ("S2", calib_s2)):
        for lab, _ in mc.targets:
            st = mc.cells["integrative"][lab]
            ratios[f"{tag} {lab}"] = st.mean_ve / st.mc_var
    lo_k = min(ratios, key=ratios.get)
    hi_k = max(ratios, key=ratios.get)
    ok = all(0.85 <= r <= 1.15 for r in ratios.values())
    verdict("4", ok,
            f"mean variance estimate within 15% of Monte Carlo variance at "
            f"all {len(ratios)} cells over {calib_s1.reps} replicates "
            f"(range {ratios[lo_k]:.3f} at {lo_k} to {ratios[hi_k]:.3f} at {hi_k})")


def test_criterion_5_interval_coverage(calib_s1, calib_s2):
    cvg = {}
    for tag, mc in (("S1", calib_s1), ("S2", calib_s2)):
        for lab, _ in mc.targets:
            cvg[f"{tag} {lab}"] = mc.cells["integrative"][lab].coverage
    lo_k = min(cvg, key=cvg.get)
    hi_k = max(cvg, key=cvg.get)
    ok = all(0.925 <= c <= 0.975 for c in cvg.values())
    verdict("5", ok,
            f"95% interval coverage inside [92.5%, 97.5%] at all {len(cvg)} "
            f"cells over {calib_s1.reps} replicates (range "
            f"{cvg[lo_k] * 100:.1f}% at {lo_k} to {cvg[hi_k] * 100:.1f}% at {hi_k})")


# --------------------------------------------- criterion 6: specification test

def test_criterion_6_specification_test_size_and_power():
    size_mc = run_monte_carlo(SimConfig(
        beta=(1.0,) * 5, reps=500, estimators=("integrative",),
        gof_alt_tau=BasisSpec((product_term(0, 1),)),
        gof_alt_lambda=BasisSpec((square_term(0),)), jobs=JOBS,
    ))
    size = size_mc.gof["rejection_rate"]
    power_mc = run_monte_carlo(SimConfig(
        beta=(0.0,) * 5, reps=500, estimators=("integrative",),
        tau_terms=BasisSpec((constant_term(), linear_term(0), square_term(0),
                             linear_term(1))),
        gof_alt_tau=BasisSpec((square_term(1),)), jobs=JOBS,
    ))
    power = power_mc.gof["rejection_rate"]
    ok = 0.025 <= size <= 0.075 and power >= 0.80
    verdict("6", ok,
            f"specification test at alpha = 5% over 500 replicates: size "
            f"{size * 100:.1f}% under a correct model (window [2.5%, 7.5%]), "
            f"power {power * 100:.1f}% against an omitted curvature term "
            f"(floor 80%)")


# -------------------------------------- criterion 7: shared-basis boundary

def test_criterion_7_no_gain_when_bases_coincide():
    """With one working basis for both curves, pooling adds nothing.

    The confounding loading is (1, 0, 0, 0, 0) so the generating curve
    stays inside the shared span and the fit is correctly specified.
    The precision gain then cancels identically per replicate, so both
    the per-replicate magnitude and the replicate mean sit at machine
    zero next to the precision scale (about 0.07 per coefficient).
    """
    shared = default_tau_basis()
    cfg = SimConfig(beta=(1.0, 0.0, 0.0, 0.0, 0.0), reps=50, lambda_terms=shared)
    gains = []
    for r in range(cfg.reps):
        data = generate_replicate(cfg, r)
        model = cfg.model()
        fit = run_pipeline(data, model, ("integrative", "rct"), knots=cfg.knots,
                           trial_known=cfg.trial_known)
        est_i = sandwich_covariance(data, fit.integrative.psi_hat,
                                    fit.integrative.workspace)
        est_r = sandwich_covariance(data, fit.rct.psi_hat, fit.rct.workspace)
        gains.append(precision_gain(est_i, est_r).gain)
    gains = np.array(gains)
    per_rep = np.abs(gains).max(axis=(1, 2))
    mean = gains.mean(axis=0)
    se = gains.std(axis=0, ddof=1) / math.sqrt(len(gains))
    mean_ok = np.all(np.abs(mean) <= np.maximum(3.0 * se, 1e-10))
    ok = bool(per_rep.max() < 1e-10 and mean_ok)
    verdict("7", ok,
            f"identical effect and confounding bases leave zero precision "
            f"gain: per-replicate max |gain| = {per_rep.max():.1e} over "
            f"{len(gains)} replicates, mean within max(3 SE, 1e-10) "
            f"entrywise (max |mean| = {np.abs(mean).max():.1e})")


# ------------------------------------------------ criterion 8: oracle suites

def test_criterion_8a_score_centered_at_truth():
    cfg = make_config(beta=1.0, n=50_000, m=50_000, seed=101)
    data = generate_replicate(cfg, 0)
    ws = build_workspace(data, cfg.model(), **true_values(cfg, data))
    scores = score_matrix(ws, true_psi(cfg))
    z = scores.mean(axis=0) / (scores.std(axis=0, ddof=1) / math.sqrt(ws.n))
    worst = np.abs(z).max()
    verdict("8a", worst <= 3.0,
            f"estimating equations centered at the generating coefficients "
            f"with the true nuisances on {ws.n} units: max |z| = {worst:.2f} "
            f"over {scores.shape[1]} coordinates (limit 3)")


def test_criterion_8b_jacobian_matches_finite_differences():
    cfg = make_config(beta=1.0, n=400, m=1200, seed=103)
    data = generate_replicate(cfg, 0)
    ws = build_workspace(data, cfg.model(), **true_values(cfg, data))
    jac = ws.jacobian
    psi0 = true_psi(cfg) + 0.1
    h = 1e-6
    fd = np.empty_like(jac)
    for j in range(len(psi0)):
        up, dn = psi0.copy(), psi0.copy()
        up[j] += h
        dn[j] -= h
        fd[:, j] = (ws.mean_score(up) - ws.mean_score(dn)) / (2.0 * h)
    rel = np.abs(fd - jac).max() / np.abs(jac).max()
    verdict("8b", rel <= 1e-6,
            f"analytic equation Jacobian agrees with central differences to "
            f"relative error {rel:.1e} (limit 1e-6)")


def _projection_draw(cfg, r):
    """Replicate ``r`` of criterion 8c: the solve at the generator's
    propensities and variances, with two explicit outcome-mean refits."""
    data = generate_replicate(cfg, r)
    model = cfg.model()
    e_true = np.where(data.s == 1, 0.5, expit(-data.x.sum(axis=1)))
    v_true = np.where(data.s == 1, 1.0, 2.0)
    spec0 = build_spline_basis(data, 0)
    designs = source_designs(data, spec0)
    cond_y = fit_conditional_outcomes(data, spec0, designs, ridge=1e-6)
    psi = preliminary_estimate(data, model, cond_y, designs)
    for _ in range(2):
        h = pseudo_outcomes(model, psi, data, e_true)
        mu = fit_outcome_mean(data, h, spec0, designs, ridge=1e-6)
        ws = build_workspace(data, model, e=e_true, mu=mu.predict(data.s, designs),
                             v1=v_true, v0=v_true)
        psi = solve_integrative(data, ws).psi_hat
    return psi


def test_criterion_8c_misspecified_fit_finds_the_projection():
    """Underspecified effect basis: the solver must land on the weighted
    least squares projection of the generating surface, with weights
    built from the inverse-variance overlap of the two samples.  The
    oracle below recovers that projection by direct numeric minimization
    of the population risk on an independent Monte Carlo draw, entirely
    outside the estimating-equation code path.
    """
    n, m, reps = 4000, 20_000, 200
    lin_tau = BasisSpec((constant_term(), linear_term(0), linear_term(1)))
    cfg = SimConfig(n=n, m=m, beta=(0.0,) * 5, reps=reps, tau_terms=lin_tau,
                    seed=77)

    # Replicates are independent and deterministic, so the draws do not
    # depend on the worker count.  They run while this process minimizes
    # the oracle, the larger share of the work.
    with simulation._worker_pool(JOBS) as pool:
        pending = pool.map(_projection_draw, [cfg] * reps, range(reps),
                           chunksize=max(1, reps // (4 * JOBS)))

        rng = np.random.default_rng(424242)
        X = rng.standard_normal((1_000_000, 5))
        surface = 1.0 + X[:, 0] + X[:, 0] ** 2 - X[:, 1] - X[:, 1] ** 2
        d_tau = np.column_stack([np.ones(len(X)), X[:, 0], X[:, 1]])
        d_lam = X
        pi1 = n / (n + m)
        w_trial = pi1 * 1.0 * 0.25  # variance weight 1, arm balance 1/4
        e_obs = expit(-X.sum(axis=1))
        w_obs = (1.0 - pi1) * 0.5 * e_obs * (1.0 - e_obs)

        def risk(theta, sl=slice(None)):
            """The weighted risk and its gradient in both coefficient blocks."""
            miss = surface[sl] - d_tau[sl] @ theta[:3]
            resid = miss - d_lam[sl] @ theta[3:]
            obs = w_obs[sl] * resid
            grad = np.concatenate([d_tau[sl].T @ (w_trial * miss + obs), d_lam[sl].T @ obs])
            return np.mean(w_trial * miss ** 2 + obs * resid), -2.0 * grad / len(miss)

        best = minimize(risk, np.zeros(8), jac=True, method="BFGS", options={"gtol": 1e-10})
        shards = [minimize(risk, best.x, args=(slice(k * 250_000, (k + 1) * 250_000),),
                           jac=True, method="BFGS", options={"gtol": 1e-9}).x
                  for k in range(4)]
        oracle_se = np.array(shards).std(axis=0, ddof=1) / 2.0
        draws = np.array(list(pending))
    mc_mean = draws.mean(axis=0)
    mc_se = draws.std(axis=0, ddof=1) / math.sqrt(reps)

    z = (mc_mean - best.x) / np.sqrt(mc_se ** 2 + oracle_se ** 2)
    worst = np.abs(z).max()
    verdict("8c", worst <= 3.0,
            f"under an underspecified effect basis the solver mean over "
            f"{reps} replicates matches the independently minimized "
            f"population projection on all 8 coefficients, max |z| = "
            f"{worst:.2f} (limit 3)")


def test_criterion_8d_results_independent_of_worker_count(monkeypatch):
    # two workers even on a one-core host, where jobs is capped at one
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    cfg = SimConfig(beta=(1.0,) * 5, reps=6,
                    gof_alt_tau=BasisSpec((product_term(0, 1),)))
    one = run_monte_carlo(cfg).to_dict()
    two = run_monte_carlo(dataclasses.replace(cfg, jobs=2)).to_dict()
    assert one.pop("config")["jobs"] == 1
    assert two.pop("config")["jobs"] == 2
    same = json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    verdict("8d", same,
            "summaries from 1 and 2 worker processes serialize to identical "
            "JSON over 6 replicates (all estimators, specification test on)")
