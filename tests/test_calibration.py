"""Sandwich calibration with spline nuisance surfaces.

The acceptance criteria check calibration with linear nuisance surfaces
(the study's ``knots=0``).  This check runs the library default,
``knots=4``, where the outcome-mean smoother is flexible enough for its
in-sample fit to correlate with the score weights through each record's
own leverage; a sandwich whose bread holds that fit fixed underestimates
the variance there.

Bounds come from the Monte Carlo error of R = 400 replicates, not from
the observed results.  For normal estimates the sample variance has
relative standard error sqrt(2 / (R - 1)) = 0.071, which dominates the
error of a variance ratio (mean sandwich variance over Monte Carlo
variance); a 95% interval's coverage has standard error
sqrt(0.95 * 0.05 / R) = 0.011.  Each effect coefficient of both
estimators must stay above three standard errors below nominal: a
variance ratio of at least 0.787 and a coverage of at least 0.917.  Only
lower bounds are checked, because the failure mode is anti-conservative
inference.  With ten one-sided checks at three standard errors, a
calibrated estimator fails by chance with probability about 1.3%.
"""

import math

import numpy as np

from htefusion import FitOptions, SimConfig, generate_replicate, run_pipeline
from htefusion import sandwich_covariance
from htefusion.inference import _Z95
from htefusion.simulation import true_tau_coefficients

REPS = 400
RATIO_FLOOR = 1.0 - 3.0 * math.sqrt(2.0 / (REPS - 1))
COVERAGE_FLOOR = 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / REPS)


def test_effect_coefficients_calibrated_with_spline_nuisances():
    cfg = SimConfig(beta=(1.0,) * 5, seed=777, knots=4, trial_known=0.5)
    model = cfg.model()
    opts = FitOptions(knots=cfg.knots, trial_known=cfg.trial_known)
    draws = {"integrative": ([], []), "rct": ([], [])}
    for rep in range(REPS):
        data = generate_replicate(cfg, rep)
        fit = run_pipeline(data, model, opts, which=tuple(draws))
        for name, (phi, se) in draws.items():
            report = getattr(fit, name)
            est = sandwich_covariance(data, report.psi_hat, report.workspace)
            phi.append(est.phi)
            se.append(est.se[:model.p1])
    truth = true_tau_coefficients(cfg.tau_form)
    failures = []
    for name, (phi, se) in draws.items():
        phi, se = np.array(phi), np.array(se)
        ratio = (se ** 2).mean(axis=0) / phi.var(axis=0, ddof=1)
        coverage = (np.abs(phi - truth) <= _Z95 * se).mean(axis=0)
        print(f"{name}: variance ratios {np.round(ratio, 3)}, "
              f"coverage {np.round(coverage, 3)}")
        for j in range(model.p1):
            if ratio[j] < RATIO_FLOOR or coverage[j] < COVERAGE_FLOOR:
                failures.append(f"{name} coefficient {j}: ratio {ratio[j]:.3f}, "
                                f"coverage {coverage[j]:.3f}")
    assert not failures, (f"below the floors (ratio {RATIO_FLOOR:.3f}, coverage "
                          f"{COVERAGE_FLOOR:.3f}): " + "; ".join(failures))
