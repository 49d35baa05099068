"""End-to-end runs of the command line interface."""

import argparse
import csv
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import shutil
from types import ModuleType

import numpy as np
import pytest

import htefusion
from htefusion import (
    AnalysisConfig,
    BasisSpec,
    SimConfig,
    __version__,
    generate_replicate,
    run_monte_carlo,
    square_term,
)
from htefusion.cli import _build_parser, main
from conftest import make_config, run_child

NAMES = ("age", "bmi", "x3", "x4", "x5")


def write_csv(path, s, a, y, x):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "y", *NAMES])
        for si, ai, yi, xi in zip(s, a, y, x):
            writer.writerow([int(si), int(ai), float(yi), *(float(v) for v in xi)])
    return path


@pytest.fixture(scope="module")
def study():
    return generate_replicate(make_config(beta=1.0, n=150, m=450, seed=25), 0)


@pytest.fixture(scope="module")
def data_csv(study, tmp_path_factory):
    return write_csv(tmp_path_factory.mktemp("cli") / "study.csv",
                     study.s, study.a, study.y, study.x)


FIT_FLAGS = [
    "fit", "--covariates", "age,bmi,x3,x4,x5",
    "--tau", "1,age,age^2,bmi,bmi^2", "--lambda", "age,bmi,x3,x4,x5",
    "--knots", "0", "--trial-known", "0.5",
]


def _single_arm_cohort(s, a, y, x):
    a[s == 0] = 1


def _separated_cohort(s, a, y, x):
    a[s == 0] = x[s == 0, 0] > 0


def _no_trial(s, a, y, x):
    s[:] = 0


def _tied_first_covariate(s, a, y, x):
    x[:, 0] = np.clip(np.round(x[:, 0]), -1.0, 1.0)


def _huge_age(scale):
    def mutate(s, a, y, x):
        x[:, 0] *= scale
    return mutate


def _huge_outcome(scale):
    def mutate(s, a, y, x):
        y *= scale
    return mutate


def _finite(node) -> bool:
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


def _exit_code(argv) -> int:
    """``main(argv)``, with a flag that argparse rejects giving its exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Bad or degenerate input: (id, change to the study's columns, extra fit
# flags, exit code, text in stderr, or in diagnostics.warnings on success).
# A dict in place of the flags is written to a file and passed as --config.
HOSTILE = [
    ("single-arm-cohort", _single_arm_cohort, [], 2,
     "source s=0 contains a single treatment arm"),
    ("separated-cohort", _separated_cohort, ["--estimators", "integrative,rct"], 0, None),
    ("separated-cohort-meta", _separated_cohort, ["--estimators", "meta"], 3,
     "meta comparator: fitted propensities reached 0 or 1"),
    ("no-trial-bad-trial-known", _no_trial, ["--estimators", "meta", "--trial-known", "1.5"],
     2, "trial_known must lie in (0, 1)"),
    ("no-trial-rct", _no_trial, ["--estimators", "rct"], 2,
     "trial-only fitting requires s=1 records"),
    ("tied-quantile-knots", _tied_first_covariate, ["--knots", "4"], 0,
     "tied quantiles reduced its spline terms to 1"),
    ("duplicate-tau-term", None, ["--tau", "1,age,age,bmi"], 3,
     "sandwich bread is numerically singular"),
    ("duplicate-lambda-term", None, ["--lambda", "age,age,bmi"], 3,
     "sandwich bread is numerically singular"),
    # the bread's entries overflow: LAPACK's SVD would not converge on them
    ("age-times-1e80", _huge_age(1e80), [], 3, "sandwich bread is numerically singular"),
    ("age-times-1e100", _huge_age(1e100), [], 3, "sandwich bread is numerically singular"),
    # squares of the outcome overflow: its variance, which bounds the cell
    # variances, is not finite, and the fit stops before any solve
    ("y-times-1e160", _huge_outcome(1e160), [], 3, "the outcome is too large to square"),
    ("far-probe", None, ["--probe", "1e6,0,0,0,0"], 0, None),
    ("overflowing-probe", None, ["--probe", "1e160,0,0,0,0"], 3, "effect curve"),
    ("nan-probe", None, ["--probe", "nan,0,0,0,0"], 2, "probes"),
    ("inf-probe", None, ["--probe", "inf,0,0,0,0"], 2, "probes"),
    ("negative-ridge", None, ["--ridge", "-1"], 2, "ridge"),
    ("nan-ridge", None, ["--ridge", "nan"], 2, "ridge"),
    ("inf-ridge", None, ["--ridge", "inf"], 2, "ridge"),
    ("unparsable-probe", None, ["--probe", "abc,0,0,0,0"], 2, "argument --probe"),
    ("negative-knots", None, ["--knots", "-1"], 2, "knots must be >= 0"),
    ("clip-above-half", None, ["--clip-e", "0.7"], 2, "clip_e must lie in (0, 0.5)"),
    ("config-knots-string", None, {"knots": "4"}, 2, "'knots' must be an integer"),
    ("config-ridge-string", None, {"ridge": "x"}, 2, "'ridge' must be a number"),
    ("config-clip-null", None, {"clip_e": None}, 2, "'clip_e' must be a number"),
    ("config-probe-text", None, {"probes": [["a", 0, 0, 0, 0]]}, 2,
     "'probes' must be a list of number lists"),
    ("config-probe-flat", None, {"probes": [1, 2]}, 2,
     "'probes' must be a list of number lists"),
    ("config-covariates-string", None, {"covariates": "x1"}, 2,
     "'covariates' must be a list of strings"),
    ("config-estimators-string", None, {"estimators": "integrative"}, 2,
     "'estimators' must be a list of strings"),
    ("no-estimators", None, ["--estimators", ","], 2, "estimators must list at least one"),
]


class TestFit:
    @pytest.mark.parametrize("mutate, flags, code, text", [row[1:] for row in HOSTILE],
                             ids=[row[0] for row in HOSTILE])
    def test_hostile_input(self, study, tmp_path, capsys, mutate, flags, code, text):
        cols = [np.array(c) for c in (study.s, study.a, study.y, study.x)]
        if mutate is not None:
            mutate(*cols)
        path = write_csv(tmp_path / "hostile.csv", *cols)
        out = tmp_path / "fit.json"
        if isinstance(flags, dict):
            blob = tmp_path / "cfg.json"
            blob.write_text(json.dumps(flags))
            flags = ["--config", str(blob)]
        got = _exit_code(FIT_FLAGS + ["--data", str(path), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert got == code, err
        if code != 0:
            assert text in err
            return
        doc = json.loads(out.read_text())
        assert _finite(doc["results"])
        if text is not None:
            assert any(text in w for w in doc["diagnostics"]["warnings"])

    def test_end_to_end(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(FIT_FLAGS + [
            "--data", str(data_csv), "--estimators", "integrative,rct,meta",
            "--probe", "0,0,0,0,0", "--gof-tau", "age*bmi",
            "--out", str(out),
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "[integrative]" in text and "[rct]" in text and "[meta]" in text
        assert "average effect" in text
        assert "specification test" in text
        assert f"result document written to {out}" in text
        doc = json.loads(out.read_text())
        assert doc["version"] == __version__
        assert len(doc["results"]["integrative"]["curve"]) == 1

    def test_cohort_first_records_give_the_same_document(self, study, data_csv, tmp_path,
                                                         capsys):
        # the loaded dataset holds the records trial first, each source in
        # its file order, so only the data path tells the two documents apart
        order = np.concatenate([np.flatnonzero(study.s == 0), np.flatnonzero(study.s == 1)])
        cohort_first = write_csv(tmp_path / "cohort_first.csv", study.s[order],
                                 study.a[order], study.y[order], study.x[order])
        out, docs = tmp_path / "fit.json", []
        for path in (data_csv, cohort_first):
            assert main(FIT_FLAGS + [
                "--data", str(path), "--knots", "4", "--estimators", "integrative,rct,meta",
                "--probe", "0,0,0,0,0", "--gof-tau", "age*bmi", "--out", str(out),
            ]) == 0
            docs.append(json.loads(out.read_text()))
            del docs[-1]["config"]["data"]
        assert docs[0] == docs[1]

    def test_config_file_wins_over_flags(self, data_csv, tmp_path, capsys):
        blob = tmp_path / "cfg.json"
        blob.write_text(json.dumps({
            "data": str(data_csv), "covariates": NAMES,
            "tau_terms": ["1", "age"], "lambda_terms": ["bmi"],
            "estimators": ["meta"], "knots": 0, "trial_known": 0.5,
        }))
        code = main(FIT_FLAGS + ["--data", str(data_csv),
                                 "--config", str(blob)])
        text = capsys.readouterr().out
        assert code == 0
        assert "[meta]" in text and "[integrative]" not in text
        assert "age^2" not in text

    def test_output_set_in_the_config_is_reported(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        blob = tmp_path / "cfg.json"
        blob.write_text(json.dumps({
            "data": str(data_csv), "covariates": NAMES,
            "tau_terms": ["1", "age"], "lambda_terms": ["bmi"],
            "estimators": ["meta"], "knots": 0, "trial_known": 0.5, "output": str(out),
        }))
        assert main(["fit", "--config", str(blob)]) == 0
        assert f"result document written to {out}" in capsys.readouterr().out
        assert out.exists()

    @pytest.mark.parametrize("extra", [[], ["--estimators", "rct,meta",
                                            "--probe", "0,0,0,0,0"]],
                             ids=["no-probe", "no-integrative"])
    def test_curve_output_without_a_curve_is_rejected(self, data_csv, tmp_path, capsys,
                                                      extra):
        curve = tmp_path / "curve.csv"
        code = main(FIT_FLAGS + ["--data", str(data_csv), "--curve-out", str(curve),
                                 *extra])
        assert code == 2
        assert "curve_output" in capsys.readouterr().err
        assert not curve.exists()

    @pytest.mark.parametrize("extra", [["--gof-tau", "age*bmi"], ["--gof-lambda", "age^2"]],
                             ids=["gof-tau", "gof-lambda"])
    def test_gof_without_the_integrative_estimator_is_rejected(self, data_csv, tmp_path,
                                                                capsys, extra):
        out = tmp_path / "fit.json"
        code = main(FIT_FLAGS + ["--data", str(data_csv), "--estimators", "rct,meta",
                                 "--out", str(out), *extra])
        assert code == 2
        assert "need the integrative estimator" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_settings(self, capsys):
        code = main(["fit", "--covariates", "age"])
        assert code == 2
        assert "missing required" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(FIT_FLAGS + ["--data", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_duplicate_covariates_are_rejected(self, data_csv, tmp_path, capsys):
        flags = ["fit", "--data", str(data_csv), "--covariates", "age,age,bmi",
                 "--tau", "1,age", "--lambda", "bmi", "--knots", "0"]
        blob = tmp_path / "dup.json"
        blob.write_text(json.dumps({"data": str(data_csv), "covariates": ["age", "bmi", "age"],
                                    "tau_terms": ["1", "age"], "lambda_terms": ["bmi"]}))
        for argv in (flags, ["fit", "--config", str(blob)]):
            assert main(argv) == 2
            assert "listed more than once: ['age']" in capsys.readouterr().err

    @pytest.mark.parametrize("col, role", [("s", "source"), ("a", "treatment"),
                                           ("y", "outcome")])
    def test_covariate_named_like_a_role_column_is_rejected(self, data_csv, tmp_path,
                                                           capsys, col, role):
        flags = ["fit", "--data", str(data_csv), "--covariates", f"age,{col}",
                 "--tau", "1,age", "--lambda", "age", "--knots", "0"]
        blob = tmp_path / "role.json"
        blob.write_text(json.dumps({"data": str(data_csv), "covariates": ["age", col],
                                    "tau_terms": ["1", "age"], "lambda_terms": ["age"]}))
        for argv in (flags, ["fit", "--config", str(blob)]):
            assert main(argv) == 2
            assert f"covariate '{col}' is also the {role} column" in capsys.readouterr().err

    def test_repeated_data_column_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "repeated.csv"
        path.write_text("s,a,y,x,x\n1,0,1.0,0.5,9.0\n0,1,2.0,0.7,8.0\n")
        code = main(["fit", "--data", str(path), "--covariates", "x", "--tau", "1",
                     "--lambda", "x", "--knots", "0"])
        assert code == 2
        assert "more than one column named: ['x']" in capsys.readouterr().err

    def test_degenerate_basis_is_a_numerical_error(self, data_csv, capsys):
        code = main([
            "fit", "--data", str(data_csv), "--covariates", "age,bmi,x3,x4,x5",
            "--tau", "1,age,age", "--lambda", "bmi",
            "--knots", "0", "--trial-known", "0.5",
            "--estimators", "integrative",
        ])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err


class TestSimulate:
    def test_tiny_study_with_summary_file(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = main([
            "simulate", "--setting", "1", "--n", "150", "--m", "450",
            "--reps", "2", "--estimators", "integrative",
            "--out", str(out),
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "tau(0,0)" in text and "replicates: 2" in text
        assert f"summary written to {out}" in text
        blob = json.loads(out.read_text())
        assert blob["reps"] == 2
        assert blob["config"]["beta"] == [0.0] * 5

    def test_quiet_suppresses_table(self, capsys):
        code = main(["simulate", "--n", "150", "--m", "450", "--reps", "1",
                     "--estimators", "meta", "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_setting_two_uses_unit_loadings(self, tmp_path):
        out = tmp_path / "mc.json"
        code = main(["simulate", "--setting", "2", "--n", "150", "--m", "450",
                     "--reps", "1", "--estimators", "meta", "--quiet",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["beta"] == [1.0] * 5

    def test_custom_setting_needs_beta(self, capsys):
        code = main(["simulate", "--setting", "custom", "--reps", "1"])
        assert code == 2
        assert "requires --beta" in capsys.readouterr().err

    def test_custom_beta_must_be_numbers(self, capsys):
        code = _exit_code(["simulate", "--setting", "custom", "--beta", "a,b",
                           "--reps", "1"])
        assert code == 2
        assert "argument --beta" in capsys.readouterr().err

    def test_custom_beta_parsed(self, tmp_path):
        out = tmp_path / "mc.json"
        code = main(["simulate", "--setting", "custom", "--beta", "1,0,0,0,-1",
                     "--n", "150", "--m", "450", "--reps", "1",
                     "--estimators", "meta", "--quiet", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["beta"] == [1, 0, 0, 0, -1]


class TestGof:
    def test_reuses_a_saved_fit(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(FIT_FLAGS + ["--data", str(data_csv), "--estimators",
                                 "integrative", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["gof", "--fit", str(out), "--tau-alt", "age*bmi",
                     "--lambda-alt", "age^2,bmi^2"])
        text = capsys.readouterr().out
        assert code == 0
        assert "specification test" in text and "on 3 df" in text

    def test_runs_from_another_directory(self, data_csv, tmp_path, monkeypatch, capsys):
        # a fit given a relative data path, re-tested from elsewhere
        run, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
        run.mkdir()
        elsewhere.mkdir()
        shutil.copy(data_csv, run / "study.csv")
        monkeypatch.chdir(run)
        assert main(FIT_FLAGS + ["--data", "study.csv", "--estimators", "integrative",
                                 "--out", "fit.json"]) == 0
        monkeypatch.chdir(elsewhere)
        capsys.readouterr()
        code = main(["gof", "--fit", str(run / "fit.json"), "--tau-alt", "age*bmi"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "on 1 df" in captured.out
        saved = json.loads((run / "fit.json").read_text())["config"]["data"]
        assert os.path.isabs(saved) and os.path.samefile(saved, run / "study.csv")

    def test_missing_document(self, tmp_path, capsys):
        for name, text, message in (("absent.json", None, "not found"),
                                    ("five.json", "5", "must hold a JSON object"),
                                    ("null.json", "null", "must hold a JSON object")):
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            code = main(["gof", "--fit", str(path), "--tau-alt", "age^2"])
            assert code == 2
            assert message in capsys.readouterr().err

    def test_no_alternative_terms(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(FIT_FLAGS + ["--data", str(data_csv), "--estimators",
                                 "integrative", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["gof", "--fit", str(out)])
        assert code == 2
        assert "alternative" in capsys.readouterr().err


def _dests(command: str) -> dict:
    """Each option of a subcommand: its dest and its default."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.default for a in sub.choices[command]._actions if a.dest != "help"}


class TestFlagsNameFields:
    def test_fit_flags_set_config_keys(self):
        keys = {f.name for f in dataclasses.fields(AnalysisConfig)}
        assert set(_dests("fit")) - {"config"} <= keys

    def test_simulate_flags_default_to_the_config(self):
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        dests = _dests("simulate")
        for name in ("setting", "beta", "out", "quiet"):
            dests.pop(name)
        assert set(dests) <= fields
        assert set(dests.values()) == {None}


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_star_import_binds_no_module(self):
        namespace = {}
        exec("from htefusion import *", namespace)
        modules = [name for name, val in namespace.items()
                   if name != "__builtins__" and isinstance(val, ModuleType)]
        assert modules == []
        assert "run_pipeline" in namespace

    def test_submodules_list_only_package_exports(self):
        # the submodules' __all__ are the one list of what ``htefusion``
        # exports, with its version: none names something the package
        # leaves out, and the package adds nothing; other names stay
        # importable from their modules
        exported = set(htefusion.__all__)
        declared = {"__version__"}
        for info in pkgutil.iter_modules(htefusion.__path__):
            module = importlib.import_module(f"htefusion.{info.name}")
            assert set(getattr(module, "__all__", ())) <= exported, info.name
            declared.update(getattr(module, "__all__", ()))
        assert exported == declared

    def test_console_script(self):
        proc = run_child(["-m", "htefusion.cli", "--version"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_import_leaves_the_process_pool_unloaded(self):
        # the pool, and the sockets and subprocesses it brings, load only
        # when a Monte Carlo study asks for more than one worker
        script = ("import sys, htefusion.cli; "
                  "sys.exit('multiprocessing' in sys.modules)")
        proc = run_child(["-c", script])
        assert proc.returncode == 0, proc.stderr

    def test_runs_without_scipy(self, data_csv, tmp_path):
        """A fit and a Monte Carlo study in a child where importing scipy
        fails give the documents this process computes."""
        out, curve, mc_out = (tmp_path / name for name in ("fit.json", "curve.csv",
                                                             "summary.json"))
        argv = FIT_FLAGS + ["--data", str(data_csv), "--estimators", "integrative,rct,meta",
                            "--probe", "0,0,0,0,0", "--gof-tau", "age*bmi",
                            "--out", str(out), "--curve-out", str(curve)]
        study = dict(n=120, m=400, reps=2, seed=5, knots=4, beta=(1.0,) * 5)
        script = "\n".join([
            "import json, sys",
            "sys.modules['scipy'] = None",  # any scipy import raises ImportError
            "from htefusion import BasisSpec, SimConfig, run_monte_carlo, square_term",
            "from htefusion.cli import main",
            f"code = main({argv!r})",
            f"cfg = SimConfig(**{study!r}, gof_alt_tau=BasisSpec((square_term(0),)))",
            "summary = run_monte_carlo(cfg).to_dict()",
            f"open({str(mc_out)!r}, 'w').write(json.dumps(summary, sort_keys=True))",
            "assert 'scipy' not in {m.partition('.')[0] for m, v in sys.modules.items() if v}",
            "sys.exit(code)",
        ])
        proc = run_child(["-c", script])
        assert proc.returncode == 0, proc.stderr
        child = [p.read_text() for p in (out, curve, mc_out)]

        assert main(argv) == 0
        cfg = SimConfig(**study, gof_alt_tau=BasisSpec((square_term(0),)))
        want = run_monte_carlo(cfg).to_dict()
        assert [out.read_text(), curve.read_text()] == child[:2]
        assert json.dumps(want, sort_keys=True) == child[2]
