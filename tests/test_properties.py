"""Invariances of the fit that follow from the model, checked by Hypothesis.

Small studies are drawn from the built-in generator with random seeds
and sample sizes.  Both estimators must be equivariant in the outcome
scale, permuting the records must leave the coefficients and their
standard errors alone, duplicating every record must leave the
coefficients alone and halve their covariance, reordering the terms
of either basis must leave the fitted curve, the average effect and
their standard errors alone, and so must rescaling a covariate, without
a ridge penalty: the penalty is one multiple of the mean Gram diagonal
for every column, so a ridge makes the fit depend on the covariates'
units.  Permuting the cohort's outcomes and
arms among its records must leave the trial-only fit alone.  Duplication is checked with linear
nuisance surfaces only: spline knots sit at interpolated sample
quantiles, which move when every record appears twice.  The outcome-shift invariance is
left out: the ridge penalty of the nuisance smoothers still reaches the
intercept.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htefusion import (
    BasisSpec,
    Dataset,
    FitOptions,
    StructuralModel,
    ate_estimate,
    generate_replicate,
    run_pipeline,
    sandwich_covariance,
    tau_curve,
)
from conftest import make_config

RTOL = 1e-10

studies = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "n": st.integers(150, 300),
    "m": st.integers(300, 1200),
})


def _draw(study):
    cfg = make_config(beta=1.0, n=study["n"], m=study["m"], seed=study["seed"])
    return cfg, generate_replicate(cfg, 0)


def _estimates(data, model, knots, ridge=FitOptions.ridge):
    """Each estimator's coefficients with their sandwich covariance."""
    fit = run_pipeline(data, model, FitOptions(knots=knots, ridge=ridge, trial_known=0.5),
                       which=("integrative", "rct"))
    out = {}
    for name in ("integrative", "rct"):
        rep = getattr(fit, name)
        assert rep.converged, name
        out[name] = sandwich_covariance(data, rep.psi_hat, rep.workspace)
    return out


def _fits(data, model, knots):
    """Each estimator's coefficients and sandwich covariance."""
    return {name: (est.psi_hat, est.cov)
            for name, est in _estimates(data, model, knots).items()}


def _curve_and_average(data, model, est, grid):
    """The effect curve of ``est`` at ``grid`` and its cohort-average effect."""
    return (tau_curve(est, model.tau_basis.design(grid)),
            ate_estimate(est, model.tau_basis.design(data.x[data.rows(0)])))


def _close(got, want):
    """Agreement to ``RTOL`` relative to the largest entry of ``want``."""
    return np.abs(got - want).max() <= RTOL * np.abs(want).max()


@settings(max_examples=10, deadline=None)
@given(study=studies, knots=st.sampled_from((0, 4)),
       c=st.sampled_from((-3.0, 0.01, 250.0)))
def test_scaling_the_outcome_scales_coefficients_and_ses(study, knots, c):
    cfg, data = _draw(study)
    model = cfg.model()
    scaled = Dataset(data.s, data.a, c * data.y, data.x)
    base, moved = _fits(data, model, knots), _fits(scaled, model, knots)
    for name in base:
        (coef, cov), (coef_c, cov_c) = base[name], moved[name]
        assert _close(coef_c, c * coef), name
        assert _close(np.sqrt(np.diag(cov_c)), abs(c) * np.sqrt(np.diag(cov))), name


@settings(max_examples=10, deadline=None)
@given(study=studies, knots=st.sampled_from((0, 4)))
def test_permuting_records_leaves_coefficients_and_ses(study, knots):
    cfg, data = _draw(study)
    model = cfg.model()
    order = np.random.default_rng(study["seed"]).permutation(data.n)
    shuffled = Dataset(data.s[order], data.a[order], data.y[order], data.x[order])
    base, moved = _fits(data, model, knots), _fits(shuffled, model, knots)
    for name in base:
        (coef, cov), (coef_p, cov_p) = base[name], moved[name]
        assert _close(coef_p, coef), name
        assert _close(np.sqrt(np.diag(cov_p)), np.sqrt(np.diag(cov))), name


@settings(max_examples=10, deadline=None)
@given(study=studies)
def test_duplicating_records_halves_the_covariance(study):
    knots = 0
    cfg, data = _draw(study)
    model = cfg.model()
    twice = Dataset(np.tile(data.s, 2), np.tile(data.a, 2), np.tile(data.y, 2),
                    np.vstack([data.x, data.x]))
    base, doubled = _fits(data, model, knots), _fits(twice, model, knots)
    for name in base:
        (coef, cov), (coef_d, cov_d) = base[name], doubled[name]
        assert _close(coef_d, coef), name
        assert _close(cov_d, cov / 2.0), name


@settings(max_examples=10, deadline=None)
@given(study=studies, knots=st.sampled_from((0, 4)),
       tau_order=st.permutations(range(1, 5)), lambda_order=st.permutations(range(5)))
def test_reordering_basis_terms_leaves_the_curve_and_average(study, knots, tau_order,
                                                              lambda_order):
    cfg, data = _draw(study)
    model = cfg.model()
    tau_terms, lambda_terms = model.tau_basis.terms, model.lambda_basis.terms
    assert (len(tau_terms), len(lambda_terms)) == (5, 5)
    reordered = StructuralModel(
        BasisSpec((tau_terms[0],) + tuple(tau_terms[i] for i in tau_order)),
        BasisSpec(tuple(lambda_terms[i] for i in lambda_order)))
    grid = np.random.default_rng(study["seed"]).standard_normal((6, 5))
    base, moved = ({name: _curve_and_average(data, m, est, grid)
                    for name, est in _estimates(data, m, knots).items()}
                   for m in (model, reordered))
    for name in base:
        (curve, ate), (curve_r, ate_r) = base[name], moved[name]
        assert _close(curve_r.estimate, curve.estimate), name
        assert _close(curve_r.se, curve.se), name
        assert _close(np.array([ate_r.tau0_hat, ate_r.se]),
                      np.array([ate.tau0_hat, ate.se])), name


@settings(max_examples=10, deadline=None)
@given(study=studies, knots=st.sampled_from((0, 4)), c=st.sampled_from((0.25, 3.0, 10.0)))
def test_rescaling_a_covariate_leaves_the_curve_and_average(study, knots, c):
    cfg, data = _draw(study)
    model = cfg.model()
    scale = np.ones(data.d)
    scale[0] = c
    scaled = Dataset(data.s, data.a, data.y, data.x * scale)
    grid = np.random.default_rng(study["seed"]).standard_normal((6, 5))
    base, moved = ({name: _curve_and_average(d, model, est, g)
                    for name, est in _estimates(d, model, knots, ridge=0.0).items()}
                   for d, g in ((data, grid), (scaled, grid * scale)))
    for name in base:
        (curve, ate), (curve_c, ate_c) = base[name], moved[name]
        assert _close(curve_c.estimate, curve.estimate), name
        assert _close(curve_c.se, curve.se), name
        assert _close(np.array([ate_c.tau0_hat, ate_c.se]),
                      np.array([ate.tau0_hat, ate.se])), name


@pytest.mark.parametrize("trial_known", [0.5, None])
@pytest.mark.parametrize("knots", [0, 4])
@settings(max_examples=5, deadline=None)
@given(study=studies)
def test_cohort_outcomes_and_arms_leave_the_trial_fit(study, knots, trial_known):
    cfg, data = _draw(study)
    model = cfg.model()
    obs = np.flatnonzero(data.rows(0))
    rng = np.random.default_rng(study["seed"])
    y, a = data.y.copy(), data.a.copy()
    y[obs], a[obs] = y[rng.permutation(obs)], a[rng.permutation(obs)]
    moved = Dataset(data.s, a, y, data.x)
    opts = FitOptions(knots=knots, trial_known=trial_known)
    base, other = (run_pipeline(d, model, opts, which=("rct",)).rct for d in (data, moved))
    assert base.converged and other.converged
    est, est_m = (sandwich_covariance(d, rep.psi_hat, rep.workspace)
                  for d, rep in ((data, base), (moved, other)))
    assert _close(est_m.phi, est.phi)
    assert _close(est_m.se, est.se)
