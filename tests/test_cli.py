"""End-to-end runs of the command line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import htefusion
from htefusion import __version__, generate_replicate
from htefusion.cli import main
from conftest import make_config

NAMES = ("age", "bmi", "x3", "x4", "x5")


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    data = generate_replicate(make_config(beta=1.0, n=150, m=450, seed=25), 0)
    path = tmp_path_factory.mktemp("cli") / "study.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "y", *NAMES])
        for s, a, y, x in zip(data.s, data.a, data.y, data.x):
            writer.writerow([int(s), int(a), float(y), *(float(v) for v in x)])
    return path


FIT_FLAGS = [
    "fit", "--covariates", "age,bmi,x3,x4,x5",
    "--tau", "1,age,age^2,bmi,bmi^2", "--lambda", "age,bmi,x3,x4,x5",
    "--knots", "0", "--trial-known", "0.5",
]


class TestFit:
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
        assert "FitOptions" in namespace

    def test_console_script(self):
        # the child imports the package from where this process found it,
        # which need not be an installed copy
        src = str(Path(htefusion.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "htefusion.cli", "--version"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__
