"""Double robustness of the integrative estimator.

The score weight ``k = (a - r) / v_a`` has conditional mean zero given
(X, S) whenever the propensity is right, for any positive variances; the
centered pseudo-outcome has conditional mean zero given (A, X, S) whenever
the outcome-mean smoother spans E[H | X, S].  So the pooled fit is unbiased
when either nuisance is right, and biased when both are wrong.

The draws come from a generator kept here, beside the built-in study's: the
trial is randomized at 1/2 as there, and a "wrong" nuisance is one that the
linear surfaces of a knots=0 fit cannot represent:

* wrong cohort propensity: logit ``-sum(x) + (x1^2 - 1)`` in place of
  ``-sum(x)``;
* wrong outcome mean: E[Y(0) | X] = ``sum(x) + 1.5 (x1^2 - 1)`` in place of
  ``sum(x)``, in both samples.

Under hidden confounding E[H | X, S=0] = E[Y(0) | X, S=0] + lam(X) {e_hat(X)
- e(X)}, so a wrong cohort propensity also makes a linear Y(0) model wrong
for H unless lam = 0.  That case is therefore tested at beta = 0 only.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

import htefusion.simulation as simulation
from htefusion import Dataset, SimConfig, run_pipeline, true_tau
from htefusion.simulation import _usable_cpus, replicate_rng, true_tau_coefficients

N, M, REPS, SEED = 300, 5000, 200, 777
JOBS = _usable_cpus()

# (tag, cohort propensity wrong, outcome mean wrong, beta)
ONE_WRONG = [
    ("DR-e", True, False, 0.0),
    ("DR-mu", False, True, 0.0),
    ("DR-mu-confounded", False, True, 1.0),
]
BOTH_WRONG = ("DR-control", True, True, 0.0)


def verdict(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def draw(e_wrong: bool, mu_wrong: bool, beta: float, rep: int) -> Dataset:
    """Replicate ``rep`` of one case: the built-in study's design at n=N,
    m=M, with the cohort propensity and the untreated outcome mean bent by
    ``x1^2 - 1`` where asked."""
    rng = replicate_rng(SEED, rep)
    x = rng.standard_normal((N + M, 5))
    total, bend = x.sum(axis=1), x[:, 0] ** 2 - 1.0
    logit = -total[N:] + (bend[N:] if e_wrong else 0.0)
    a = np.r_[rng.random(N) < 0.5, rng.random(M) < expit(logit)].astype(np.int8)
    s = np.r_[np.ones(N, dtype=np.int8), np.zeros(M, dtype=np.int8)]
    # the built-in study's hidden shift in the cohort: mean (2a - 1) x'beta / 2,
    # unit variance, with every loading equal to beta
    shift = (1 - s) * ((a - 0.5) * beta * total + rng.standard_normal(N + M))
    y0 = total + (1.5 * bend if mu_wrong else 0.0)
    y = a * true_tau(SimConfig(), x) + y0 + shift + rng.standard_normal(N + M)
    return Dataset(s, a, y, x)


def effect_coefficients(case: tuple, rep: int) -> np.ndarray:
    """The pooled fit's effect coefficients on replicate ``rep`` of ``case``."""
    _, e_wrong, mu_wrong, beta = case
    data = draw(e_wrong, mu_wrong, beta, rep)
    model = SimConfig().model()
    fit = run_pipeline(data, model, knots=0, trial_known=0.5)
    return fit.integrative.psi_hat[:model.p1]


@pytest.fixture(scope="module")
def max_z():
    """Each case's largest |z| over the effect coefficients' Monte Carlo mean bias."""
    cases = ONE_WRONG + [BOTH_WRONG]
    jobs = [(case, rep) for case in cases for rep in range(REPS)]
    # forked workers keep the suite's RuntimeWarning filter, and the draws do
    # not depend on the worker count
    with simulation._worker_pool(JOBS) as pool:
        fits = list(pool.map(effect_coefficients, *zip(*jobs),
                             chunksize=max(1, len(jobs) // (4 * JOBS))))
    truth = true_tau_coefficients("opposed")
    out = {}
    for i, case in enumerate(cases):
        draws = np.array(fits[i * REPS:(i + 1) * REPS])
        z = (draws.mean(axis=0) - truth) / (draws.std(axis=0, ddof=1) / math.sqrt(REPS))
        out[case[0]] = float(np.abs(z).max())
    return out


@pytest.mark.parametrize("case", ONE_WRONG, ids=[c[0] for c in ONE_WRONG])
def test_one_wrong_nuisance_leaves_the_fit_unbiased(max_z, case):
    tag, e_wrong, mu_wrong, beta = case
    wrong = "cohort propensity" if e_wrong else "outcome mean"
    verdict(tag, max_z[tag] <= 3.0,
            f"with the {wrong} wrong at beta={beta:g}, the pooled fit's mean over "
            f"{REPS} replicates matches the 5 effect coefficients, max |z| = "
            f"{max_z[tag]:.2f} (limit 3)")


def test_both_wrong_biases_the_fit(max_z):
    tag = BOTH_WRONG[0]
    verdict(tag, max_z[tag] >= 10.0,
            f"with the cohort propensity and the outcome mean both wrong at beta=0, "
            f"the bias is detected over {REPS} replicates, max |z| = {max_z[tag]:.1f} "
            f"(at least 10)")
