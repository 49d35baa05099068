"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest bench -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TOY = {
    "fit_tall": dict(n_trial=400, n_obs=1600),
    "mc_paper": dict(n=300, m=1000, reps_per_op=3, traced_ops=1),
    "fit_wide": dict(n_trial=600, n_obs=1200, covariates=6, knots=2,
                     lam=tuple(f"x{j}" for j in range(1, 7)), probes=((0,) * 6,)),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_toy_workload_reports_every_declared_metric(name, trace):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TOY[name])
    outcome = run.run_workload(workload, seed=7, seconds=0.0, trace=trace, setup_children=0)
    assert outcome.failed == 0, outcome.problems
    result = run.report(run.load_spec(), name, trace, outcome)
    metrics = outcome.metrics
    declared = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert result["correct"] and result["attempted"] >= 1
    if trace:
        # self times of all spans add up to the traced operations' wall time
        assert abs(metrics["bench.unattributed_frac"][0]) < 0.01
        assert metrics["model.BasisSpec.design.calls"][0] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _bindings():
    """Every attribute of every htefusion module and of the classes they define."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "htefusion" or mod_name.startswith("htefusion.")):
            continue
        for attr, val in vars(mod).items():
            out[(mod_name, attr)] = val
            if isinstance(val, type) and val.__module__ == mod_name:
                for cls_attr, cls_val in vars(val).items():
                    out[(mod_name, attr, cls_attr)] = cls_val
    return out


def test_tracer_restores_every_binding():
    htefusion = workloads.import_package(str(run.SRC))
    import htefusion.cli  # noqa: F401  (the tracer wraps cli.main too)

    before = _bindings()
    cfg = htefusion.SimConfig(n=200, m=600, beta=(1.0,) * 5, reps=1, seed=1)
    with Tracer() as tracer:
        assert htefusion.inference.build_workspace is not before[
            ("htefusion.inference", "build_workspace")]
        htefusion.run_replicate(cfg, 0)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    names = {span[0] for span in tracer.spans}
    assert {"simulation.run_replicate", "estimators.build_workspace",
            "nuisance.predict", "model.BasisSpec.design"} <= names


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
                    ["b", 5.0, 6.0, 0]]
    times = tracer.self_times()
    assert times["a"] == [6.0, 1]
    assert times["b"] == [3.0, 2]
    assert times["c"] == [1.0, 1]
    assert sum(total for total, _ in times.values()) == 10.0
