"""Run an htefusion benchmark workload and print its metrics.

    python3 bench/run.py --workload fit_tall --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload runs in a fresh process with BLAS pinned to one thread, as a
closed loop: the next operation starts only after the previous one ended.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` first repeats the operation untraced, then traced,
and reports the per-layer metrics.  The last line of standard output is one
JSON object; the exit code is non-zero when any output check failed.
``bench/README.md`` describes the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracer import COMPUTED, DIGEST_SPAN, TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CHILDREN = 2      # set-up is timed in these plus the measuring process
CHILD_TIMEOUT_S = 170

SPAN_NAMES = sorted({span for _, _, span in TRACED} | {DIGEST_SPAN})
CALL_COUNTED = ("model.BasisSpec.design", "nuisance.predict", "estimators.build_workspace")
COUNTERS = ("io.load_csv.cells", "model.BasisSpec.design.mbytes",
            "nuisance.fit_additive.calls", "nuisance.fit_additive.gram_gflop",
            "estimators.solve.iterations", "estimators.solve.fallbacks")


@dataclass
class Outcome:
    metrics: dict                 # name -> (value, sample count)
    attempted: int
    failed: int
    problems: list
    notes: list = field(default_factory=list)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_child(task: str, workload, workdir: Path, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")), task,
         workloads.to_json(workload), str(workdir), str(seed), str(SRC)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child task {task!r} failed:\n{proc.stderr[-4000:]}")
    return proc.stdout


def measure(session, calibrate, seconds: float, min_ops: int, repeats: int) -> list:
    """Closed loop: repeat the operation until ``seconds`` and ``min_ops`` are met.

    The calibration kernel runs ``repeats`` times between operations; each
    operation's speed factor uses the kernel times just before and just after it.
    """
    ops = []
    start = perf_counter()
    before = calibrate(repeats)
    while len(ops) < min_ops or perf_counter() - start < seconds:
        op = session.op()
        after = calibrate(repeats)
        op.speed = speed.REFERENCE_S / ((before + after) / 2.0)
        ops.append(op)
        before = after
    return ops


def _per_fit(ops) -> list:
    """Time per fit of each operation, rescaled to the reference speed."""
    return [op.wall_s * op.speed / op.fits for op in ops]


def end_to_end(measured, setups) -> tuple:
    """Metrics from the measured loop and the set-up samples, plus a note."""
    fits = sum(op.fits for op in measured)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    metrics = {
        "fit_s": (statistics.median(_per_fit(measured)), len(measured)),
        "replicates_per_s": (fits / sum(op.wall_s * op.speed for op in measured), fits),
        # not rescaled: set-up includes imports from disk, which the kernel
        # does not represent
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (rss_mib, 1),
    }
    raw_fit_s = statistics.median(op.wall_s / op.fits for op in measured)
    note = (f"unscaled: fit_s {raw_fit_s:.6g} s, replicates_per_s "
            f"{fits / sum(op.wall_s for op in measured):.6g} 1/s; speed factors "
            f"{min(op.speed for op in measured):.3f} to {max(op.speed for op in measured):.3f}")
    return metrics, [note]


def per_layer(tracer: Tracer, untraced, traced) -> dict:
    """Per-layer metrics; times and counts are per operation."""
    n_ops = len(traced)
    times = tracer.self_times()
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = (times.get(name, (0.0, 0))[0] / n_ops, n_ops)
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (times.get(name, (0.0, 0))[1] / n_ops, n_ops)
    for name in COUNTERS:
        out[name] = (tracer.counts[name] / n_ops, n_ops)
    design_calls = times.get("model.BasisSpec.design", (0.0, 0))[1]
    redundant = tracer.counts["model.BasisSpec.design.redundant"]
    out["model.BasisSpec.design.redundant_frac"] = (
        redundant / design_calls if design_calls else 0.0, design_calls)
    reps_ms = sorted(1000.0 * d for d in tracer.durations("simulation.run_replicate"))
    out["simulation.run_replicate.ms.p50"] = (
        statistics.median(reps_ms) if reps_ms else 0.0, len(reps_ms))
    out["simulation.run_replicate.ms.p90"] = (
        reps_ms[math.ceil(0.9 * len(reps_ms)) - 1] if reps_ms else 0.0, len(reps_ms))
    out["bench.trace_overhead_frac"] = (
        statistics.median(_per_fit(traced)) / statistics.median(_per_fit(untraced)) - 1.0,
        n_ops)
    self_sum = sum(total for total, _ in times.values())
    out["bench.unattributed_frac"] = (1.0 - self_sum / sum(op.wall_s for op in traced), n_ops)
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 setup_children: int = SETUP_CHILDREN) -> Outcome:
    """Run one workload in this process."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if workload.kind == "fit":
            run_child("generate", workload, workdir, seed)
        children = [json.loads(run_child("setup", workload, workdir, seed))
                    for _ in range(0 if trace else setup_children)]
        session, setup_s, first = workloads.set_up(workload, str(workdir), seed, str(SRC))
        setups = [c["setup_s"] for c in children] + [setup_s]
        ops = [first]
        # about 0.14 s of calibration per second of operation, so that the
        # kernel's own jitter averages out on long operations
        repeats = min(8, max(1, round(first.wall_s)))
        calibrate = speed.Calibrator()
        if trace:
            untraced = measure(session, calibrate, seconds / 2.0, 1, repeats)
            with Tracer() as tracer:
                traced = measure(session, calibrate, seconds / 2.0, workload.traced_ops,
                                 repeats)
            ops += untraced + traced
            metrics, notes = per_layer(tracer, untraced, traced), []
            tracer.dump(WORK / f"spans-{workload.name}-seed{seed}.json",
                        {"workload": workload.name, "seed": seed, "ops": len(traced),
                         "blas_pin": BLAS_PIN})
        else:
            measured = measure(session, calibrate, seconds, 1, repeats)
            ops += measured
            metrics, notes = end_to_end(measured, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Outcome(
        metrics,
        attempted=sum(op.fits for op in ops) + sum(c["fits"] for c in children),
        failed=sum(op.failed for op in ops) + sum(c["failed"] for c in children),
        problems=[p for op in ops for p in op.problems]
        + [p for c in children for p in c["problems"]],
        notes=notes)


def report(spec: dict, workload_name: str, trace: bool, outcome: Outcome) -> dict:
    """Print the metrics for people and return the result object."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(outcome.metrics):
        raise RuntimeError("metrics measured do not match BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(outcome.metrics))}")
    print(f"workload {workload_name}, trace {int(trace)}, BLAS pinned: "
          + " ".join(f"{k}={v}" for k, v in BLAS_PIN.items()))
    for m in declared:
        value, samples = outcome.metrics[m["name"]]
        tag = "  [computed from array shapes]" if m["name"] in COMPUTED else ""
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']:<6} (n={samples}){tag}")
    for note in outcome.notes:
        print(f"  {note}")
    print(f"  fail_frac {outcome.failed}/{outcome.attempted} = "
          f"{outcome.failed / outcome.attempted:.4g}")
    for problem in outcome.problems[:10]:
        print(f"  check failed: {problem}")
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {m["name"]: {"value": outcome.metrics[m["name"]][0], "unit": m["unit"]}
                        for m in declared}}


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "htefusion" / "__init__.py").is_file():
        print(f"error: no htefusion sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy loads, here and in every child
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    result = report(load_spec(), workload.name, bool(args.trace), outcome)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
