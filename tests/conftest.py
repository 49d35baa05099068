"""Shared builders for the test suite.

Most tests run on small synthetic draws from the same data-generating
process as the built-in study, either with library-fitted nuisances or
with the known truth injected as its values on the records.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

# Each process runs BLAS on one thread: the Monte Carlo fixtures run one
# worker per core, and the suite's small products gain nothing from more.
# Set before numpy loads its BLAS; a value set by the caller is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from scipy.special import expit

import htefusion
from htefusion import (
    Dataset,
    SimConfig,
    generate_replicate,
)


def run_child(args):
    """Run the interpreter with ``args``; the child imports the package from
    where this process found it, which need not be an installed copy."""
    src = str(Path(htefusion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def pipeline_settings(**settings) -> dict:
    """``run_pipeline``'s nuisance settings, by keyword: its own defaults,
    read from its signature, with ``settings`` in their place."""
    params = inspect.signature(htefusion.run_pipeline).parameters.values()
    defaults = {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}
    return {**defaults, **settings}


def make_config(beta=0.0, **kw):
    """SimConfig with a scalar beta broadcast to all five covariates."""
    return SimConfig(beta=(float(beta),) * 5, **kw)


@pytest.fixture(scope="session")
def desk_data():
    """One replicate at the study's desk-scale sample sizes."""
    return generate_replicate(make_config(beta=1.0, seed=3), 0)


@pytest.fixture(scope="session")
def clean_data():
    """One replicate without unmeasured confounding."""
    return generate_replicate(make_config(beta=0.0, seed=3), 0)


def by_source(data: Dataset, trial, obs) -> np.ndarray:
    """``trial`` or ``obs`` evaluated on each source's covariate rows."""
    out = np.empty(data.n)
    for source, fn in ((1, trial), (0, obs)):
        rows = data.s == source
        if rows.any():
            out[rows] = fn(data.x[rows])
    return out


def subset(data: Dataset, mask) -> Dataset:
    """The records ``mask`` selects, as a new dataset."""
    return Dataset(data.s[mask], data.a[mask], data.y[mask], data.x[mask])


def values_subset(values: dict, mask) -> dict:
    """The values of the records ``mask`` selects."""
    return {name: arr[mask] for name, arr in values.items()}


def true_values(cfg: SimConfig, data: Dataset) -> dict:
    """The generator's own nuisance surfaces on the records of ``data``, as
    ``build_workspace``'s keyword arguments ``e``, ``mu``, ``v1`` and ``v0``.

    The pseudo-outcome at the true coefficients has conditional mean
    sum(x) on trial records and sum(x) + lam(x) * (e(x) - 1/2) on
    observational ones, for either arm, so the outcome-mean surface
    below is exact.
    """
    beta = np.asarray(cfg.beta, dtype=float)

    def e_obs(X):
        return expit(-X.sum(axis=1))

    def mu_obs(X):
        lam = X @ beta
        return X.sum(axis=1) + lam * (e_obs(X) - 0.5)

    e = np.clip(by_source(data, lambda X: 0.5, e_obs), 1e-12, 1.0 - 1e-12)
    mu = by_source(data, lambda X: X.sum(axis=1), mu_obs)
    v = by_source(data, lambda X: 1.0, lambda X: 2.0)
    return {"e": e, "mu": mu, "v1": v, "v0": v}


def true_psi(cfg: SimConfig) -> np.ndarray:
    """Stacked coefficients of the generating curves on the default bases:
    the effect block, then the confounding block."""
    from htefusion.simulation import true_tau_coefficients

    phi = true_tau_coefficients(cfg.tau_form)
    lam = np.asarray(cfg.beta, dtype=float)
    return np.concatenate([phi, lam])


def toy_dataset(seed=0, n=40, d=3, trial_frac=0.5):
    """Small generic dataset with both sources and both arms present."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    s = (rng.random(n) < trial_frac).astype(int)
    a = (rng.random(n) < 0.5).astype(int)
    # force full (a, s) cell coverage
    s[:4] = [1, 1, 0, 0]
    a[:4] = [0, 1, 0, 1]
    y = rng.standard_normal(n) + x[:, 0] + a * (1.0 + x[:, 1])
    return Dataset(s, a, y, x)
