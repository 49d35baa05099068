"""Golden outputs: a fixed-seed CLI fit and two 20-replicate studies.

The stored files hold the result document and curve CSV of one
``htefusion fit`` on a generated study CSV, and ``McSummary.to_dict()``
of a 20-replicate setting-2 study at knots 0 and at knots 4 with the
specification test on.  Every number must match at a relative tolerance
of 1e-10, so a refactor that is meant to leave the estimates alone is
checked against the numbers of the code before it.  The one exception is
each solve's ``final_score_norm``: it is the rounding residual of an exact
linear solve (about 1e-17), whose digits follow the BLAS kernels and the
summation order rather than the estimates, so it is checked against a
fixed bound instead.

Regenerate the files only for an intended change of the estimates:

    PYTHONPATH=src python tests/test_golden.py

To see how far fresh outputs have moved from the files, without writing
anything, print the largest relative differences:

    PYTHONPATH=src python tests/test_golden.py --drift
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from htefusion import (
    BasisSpec,
    SimConfig,
    generate_replicate,
    product_term,
    run_monte_carlo,
)
from htefusion.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-10
NAMES = ("x1", "x2", "x3", "x4", "x5")
PATH_KEYS = ("data", "output", "curve_output")
# rounding residuals, checked as 0 <= value <= RESIDUAL_BOUND
RESIDUAL_FIELDS = ("fit.json/diagnostics/integrative/final_score_norm",
                   "fit.json/diagnostics/rct/final_score_norm")
RESIDUAL_BOUND = 1e-12


def _write_study_csv(path):
    data = generate_replicate(SimConfig(n=600, m=2400, beta=(1.0,) * 5, seed=4242), 0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "y", *NAMES])
        for s, a, y, x in zip(data.s, data.a, data.y, data.x):
            writer.writerow([int(s), int(a), float(y), *(float(v) for v in x)])


def cli_fit_outputs(workdir) -> tuple:
    """Run the fixed CLI fit in ``workdir``; return (document, curve rows)."""
    workdir = Path(workdir)
    data = workdir / "study.csv"
    _write_study_csv(data)
    argv = ["fit", "--data", str(data), "--covariates", ",".join(NAMES),
            "--knots", "4", "--tau", "1,x1,x1^2,x2,x2^2", "--lambda", ",".join(NAMES),
            "--estimators", "integrative,rct,meta", "--probe", "1.5,0,0,0,0",
            "--gof-tau", "x1*x2", "--out", str(workdir / "fit.json"),
            "--curve-out", str(workdir / "curve.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    doc = json.loads((workdir / "fit.json").read_text())
    for key in PATH_KEYS:  # machine-specific paths
        doc["config"][key] = os.path.basename(doc["config"][key])
    with open(workdir / "curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return doc, rows


def mc_summary(knots: int) -> dict:
    cfg = SimConfig(beta=(1.0,) * 5, reps=20, seed=20261017, knots=knots,
                    gof_alt_tau=BasisSpec((product_term(0, 1),)))
    return run_monte_carlo(cfg).to_dict()


def _leaves(got, want, where=""):
    """Yield ``(where, got, want)`` for every leaf of ``want``, after
    asserting that ``got`` has the same keys and lengths around it."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            yield from _leaves(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _leaves(g, w, f"{where}[{i}]")
    else:
        yield where, got, want


def _close(got, want, where=""):
    """Assert ``got`` equals ``want`` with numbers compared at RTOL."""
    for path, g, w in _leaves(got, want, where):
        if path in RESIDUAL_FIELDS:
            assert isinstance(g, float) and 0.0 <= g <= RESIDUAL_BOUND, (
                f"{path}: {g!r} is not within [0, {RESIDUAL_BOUND}]")
        elif isinstance(w, float) and not isinstance(g, bool):
            assert isinstance(g, (int, float)), path
            assert math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0), f"{path}: {g!r} != {w!r}"
        else:
            assert g == w, f"{path}: {g!r} != {w!r}"


def _as_numbers(rows):
    """CSV cells as floats where they parse, so they compare at RTOL."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        out.append(cells)
    return out


def test_cli_fit_matches_golden(tmp_path):
    doc, rows = cli_fit_outputs(tmp_path)
    _close(doc, json.loads((GOLDEN / "fit.json").read_text()), "fit.json")
    with open(GOLDEN / "curve.csv", newline="") as fh:
        want = list(csv.reader(fh))
    _close(_as_numbers(rows), _as_numbers(want), "curve.csv")


@pytest.mark.parametrize("knots", [0, 4])
def test_monte_carlo_summary_matches_golden(knots):
    want = json.loads((GOLDEN / f"mc_knots{knots}.json").read_text())
    _close(mc_summary(knots), want, f"mc_knots{knots}.json")


def fresh_outputs() -> dict:
    """Each golden file's name mapped to its fresh content: a JSON value, or
    the CSV's rows of strings."""
    with tempfile.TemporaryDirectory() as tmp:
        doc, rows = cli_fit_outputs(tmp)
    return {"fit.json": doc, "curve.csv": rows,
            **{f"mc_knots{knots}.json": mc_summary(knots) for knots in (0, 4)}}


def print_drift(top: int = 5) -> None:
    """Print, per golden file, the largest relative differences of fresh
    outputs from it, and the largest overall; write nothing.

    A difference is ``|got - want| / max(|got|, |want|)``, the measure RTOL
    bounds.  The rounding residuals of RESIDUAL_FIELDS are left out.
    """
    overall = (0.0, "none")
    for name, got in fresh_outputs().items():
        if name.endswith(".csv"):
            with open(GOLDEN / name, newline="") as fh:
                got, want = _as_numbers(got), _as_numbers(list(csv.reader(fh)))
        else:
            want = json.loads((GOLDEN / name).read_text())
        numbers = [(g, w, where) for where, g, w in _leaves(got, want, name)
                   if isinstance(w, float) and where not in RESIDUAL_FIELDS]
        diffs = sorted(((abs(g - w) / max(abs(g), abs(w)), where)
                        for g, w, where in numbers if g != w), reverse=True)
        print(f"{name}: {len(diffs)} of {len(numbers)} numbers differ")
        for rel, where in diffs[:top]:
            print(f"  {rel:.2e}  {where}")
        overall = max([overall, *diffs[:1]])
    print(f"largest relative difference: {overall[0]:.2e} at {overall[1]}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--drift"]:
        print_drift()
        sys.exit()
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--drift]")
    GOLDEN.mkdir(exist_ok=True)
    for name, out in fresh_outputs().items():
        with open(GOLDEN / name, "w", newline="") as fh:
            if name.endswith(".csv"):
                csv.writer(fh).writerows(out)
            else:
                fh.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"golden files written to {GOLDEN}", file=sys.stderr)
