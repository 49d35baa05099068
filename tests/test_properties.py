"""Invariances of the fit that follow from the model, checked by Hypothesis.

Small studies are drawn from the built-in generator with random seeds
and sample sizes.  Both estimators must be equivariant in the outcome
scale, and duplicating every record must leave the coefficients alone
and halve their covariance.  Duplication is checked with linear nuisance
surfaces only: spline knots sit at interpolated sample quantiles, which
move when every record appears twice.  The outcome-shift invariance is
left out: the ridge penalty of the nuisance smoothers still reaches the
intercept.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from htefusion import (
    Dataset,
    FitOptions,
    generate_replicate,
    run_pipeline,
    sandwich_covariance,
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


def _fits(data, model, knots):
    """Each estimator's coefficients and sandwich covariance."""
    fit = run_pipeline(data, model, FitOptions(knots=knots, trial_known=0.5),
                       which=("integrative", "rct"))
    out = {}
    for name in ("integrative", "rct"):
        rep = getattr(fit, name)
        assert rep.converged, name
        est = sandwich_covariance(data, model, rep.psi_hat, rep.workspace)
        out[name] = (est.psi_hat.stacked, est.cov)
    return out


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
