"""Config parsing, CSV loading, and the serialized result document."""

import csv
import json
import re

import numpy as np
import pytest

from htefusion import (
    AnalysisConfig,
    ResultDocument,
    SimConfig,
    ValidationError,
    generate_replicate,
    load_csv,
    parse_terms,
    run_fit,
    run_simulate,
)
from conftest import make_config

NAMES = ("age", "bmi", "x3", "x4", "x5")


def write_csv(path, data, names=NAMES):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "y", *names])
        for s, a, y, x in zip(data.s, data.a, data.y, data.x):
            writer.writerow([int(s), int(a), float(y), *(float(v) for v in x)])


def base_config(data_path, **kw):
    base = dict(
        data=str(data_path),
        covariates=NAMES,
        tau_terms=("1", "age", "age^2", "bmi", "bmi^2"),
        lambda_terms=NAMES,
        estimators=("integrative", "rct", "meta"),
        knots=0,
        trial_known=0.5,
    )
    base.update(kw)
    return AnalysisConfig(**base)


@pytest.fixture(scope="module")
def csv_fixture(tmp_path_factory):
    data = generate_replicate(make_config(beta=1.0, seed=21), 0)
    path = tmp_path_factory.mktemp("data") / "study.csv"
    write_csv(path, data)
    return path, data


class TestParseTerms:
    def test_all_forms(self):
        spec = parse_terms(("1", "bmi", "age^2", "age*bmi", " x3 "), NAMES)
        assert spec.labels(list(NAMES)) == ["1", "bmi", "age^2", "age*bmi", "x3"]
        row = spec.design(np.array([[2.0, 3.0, 5.0, 7.0, 11.0]]))[0]
        assert np.allclose(row, [1.0, 3.0, 4.0, 6.0, 5.0])

    @pytest.mark.parametrize("expr", ["", "height", "height^2", "age*height",
                                      "age^3", "age+bmi"])
    def test_rejects_unknown_forms(self, expr):
        with pytest.raises(ValidationError):
            parse_terms((expr,), NAMES)


class TestAnalysisConfig:
    def test_required_keys(self):
        with pytest.raises(ValidationError, match="missing required"):
            AnalysisConfig.from_dict({"data": "x.csv", "covariates": ["age"]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            AnalysisConfig.from_dict({
                "data": "x.csv", "covariates": ["age"], "tau_terms": ["1"],
                "lambda_terms": ["age"], "bandwidth": 2.0,
            })

    def test_field_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            base_config(tmp_path / "d.csv", tau_terms=())
        with pytest.raises(ValidationError):
            base_config(tmp_path / "d.csv", lambda_terms=())
        with pytest.raises(ValidationError):
            base_config(tmp_path / "d.csv", estimators=("bayes",))
        with pytest.raises(ValidationError, match="probe"):
            base_config(tmp_path / "d.csv", probes=((1.0, 2.0),))

    def test_values_of_the_declared_types_are_accepted(self, tmp_path):
        cfg = base_config(tmp_path / "d.csv", covariates=list(NAMES), ridge=1,
                          probes=[[0, 1, 2, 3, 4]], trial_known=None, output=None)
        assert cfg.covariates == NAMES
        assert cfg.ridge == 1.0 and isinstance(cfg.ridge, float)
        assert cfg.probes == ((0.0, 1.0, 2.0, 3.0, 4.0),)
        assert cfg.trial_known is None and cfg.output is None

    @pytest.mark.parametrize("key, value", [("knots", 4.0), ("knots", True), ("ridge", False),
                                            ("gof_efficient_weight", 1), ("data", None),
                                            ("tau_terms", ["1", 2])])
    def test_values_of_other_types_are_rejected(self, tmp_path, key, value):
        with pytest.raises(ValidationError, match=f"config key '{key}' must be"):
            base_config(tmp_path / "d.csv", **{key: value})

    def test_from_file_and_roundtrip(self, tmp_path):
        cfg = base_config(tmp_path / "d.csv", probes=((0.0,) * 5,))
        blob = tmp_path / "cfg.json"
        blob.write_text(json.dumps(cfg.to_dict()))
        again = AnalysisConfig.from_file(str(blob))
        assert again.to_dict() == cfg.to_dict()

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            AnalysisConfig.from_file(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            AnalysisConfig.from_file(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="JSON object"):
            AnalysisConfig.from_file(str(arr))


class TestLoadCsv:
    def test_roundtrip(self, csv_fixture, tmp_path):
        path, data = csv_fixture
        cfg = base_config(path)
        loaded = load_csv(str(path), cfg)
        assert loaded.n == data.n
        assert np.array_equal(loaded.s, data.s)
        assert np.array_equal(loaded.a, data.a)
        assert np.allclose(loaded.y, data.y)
        assert np.allclose(loaded.x, data.x)

    def test_byte_order_mark_is_ignored(self, csv_fixture, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with the UTF-8 mark
        path, _ = csv_fixture
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        cfg = base_config(path)
        want, got = load_csv(str(path), cfg), load_csv(str(marked), cfg)
        for name in ("s", "a", "y", "x"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # and a bad cell after it is still located by line and column
        marked.write_bytes(b"\xef\xbb\xbf" + b"s,a,y," + ",".join(NAMES).encode()
                           + b"\n1,0,1.0,0.1,0.2,0.3,0.4,0.5\n1,0,x,0.1,0.2,0.3,0.4,0.5\n")
        with pytest.raises(ValidationError, match="line 3, column 'y'"):
            load_csv(str(marked), cfg)

    def test_missing_file(self, tmp_path):
        cfg = base_config(tmp_path / "absent.csv")
        with pytest.raises(ValidationError, match="not found"):
            load_csv(cfg.data, cfg)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("s,a,y,age\n1,0,1.0,0.5\n")
        cfg = base_config(path)
        with pytest.raises(ValidationError, match="missing columns"):
            load_csv(str(path), cfg)

    @pytest.mark.parametrize("header, repeated", [
        ("s,a,y,x,x", "['x']"),  # a covariate
        ("s,a,y,x,s", "['s']"),  # the source flag
    ])
    def test_repeated_needed_column(self, tmp_path, header, repeated):
        path = tmp_path / "repeated.csv"
        path.write_text(header + "\n1,0,1.0,0.5,0\n0,1,2.0,0.7,0\n")
        cfg = base_config(path, covariates=("x",), tau_terms=("1",), lambda_terms=("x",))
        needle = re.escape(f"more than one column named: {repeated}")
        with pytest.raises(ValidationError, match=needle):
            load_csv(str(path), cfg)

    def test_repeated_unread_column_is_allowed(self, tmp_path):
        path = tmp_path / "repeated.csv"
        path.write_text("s,a,y,x,note,note\n1,0,1.0,0.5,p,q\n0,1,2.0,0.7,r,t\n")
        cfg = base_config(path, covariates=("x",), tau_terms=("1",), lambda_terms=("x",))
        loaded = load_csv(str(path), cfg)
        assert loaded.s.tolist() == [1, 0] and loaded.x[:, 0].tolist() == [0.5, 0.7]

    def test_cell_errors_carry_line_numbers(self, tmp_path):
        head = "s,a,y," + ",".join(NAMES) + "\n"
        ok = "1,0,1.0,0.1,0.2,0.3,0.4,0.5\n"
        cases = [
            (ok, "2,0,1.0,0.1,0.2,0.3,0.4,0.5", 3, "column 's'"),
            (ok, "1,x,1.0,0.1,0.2,0.3,0.4,0.5", 3, "column 'a'"),
            (ok, "1,0,inf,0.1,0.2,0.3,0.4,0.5", 3, "column 'y'"),
            (ok, "1,0,1.0,0.1,oops,0.3,0.4,0.5", 3, "column 'bmi'"),
            # blank lines count: the bad cell is on physical line 5
            (ok + "\n\n", "1,0,oops,0.1,0.2,0.3,0.4,0.5", 5, "column 'y'"),
            (ok, "1,0,1.0,0.1", 3, "column 'bmi': missing value"),
        ]
        for before, body, line, needle in cases:
            path = tmp_path / "bad.csv"
            path.write_text(head + before + body + "\n")
            cfg = base_config(path)
            with pytest.raises(ValidationError, match=f"line {line}, {needle}"):
                load_csv(str(path), cfg)

    def test_empty_inputs(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        cfg = base_config(empty)
        with pytest.raises(ValidationError, match="empty"):
            load_csv(str(empty), cfg)
        headers = tmp_path / "headers.csv"
        headers.write_text("s,a,y," + ",".join(NAMES) + "\n")
        cfg = base_config(headers)
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(str(headers), cfg)


@pytest.fixture(scope="module")
def fitted(csv_fixture, tmp_path_factory):
    path, data = csv_fixture
    out_dir = tmp_path_factory.mktemp("out")
    cfg = base_config(
        path,
        probes=((0.0,) * 5, (1.5, 0.0, 0.0, 0.0, 0.0)),
        gof_tau_terms=("age*bmi",),
        gof_lambda_terms=("age^2",),
        output=str(out_dir / "fit.json"),
        curve_output=str(out_dir / "curve.csv"),
    )
    return cfg, run_fit(cfg)


class TestRunFit:
    def test_document_layout(self, fitted):
        cfg, doc = fitted
        assert set(doc.to_dict()) == {"version", "config", "results", "diagnostics"}
        assert set(doc.results) == {"integrative", "rct", "meta"}
        blk = doc.results["integrative"]
        assert [row["term"] for row in blk["tau"]] == \
            ["1", "age", "age^2", "bmi", "bmi^2"]
        assert [row["term"] for row in blk["lambda"]] == list(NAMES)
        for row in blk["tau"] + blk["lambda"]:
            assert row["lower"] < row["estimate"] < row["upper"]
            assert row["se"] > 0.0
        assert blk["ate"]["lower"] < blk["ate"]["estimate"] < blk["ate"]["upper"]
        assert 0.0 < blk["ate"]["pi0"] < 1.0
        assert len(blk["curve"]) == 2
        assert blk["gof"]["df"] == 2
        assert 0.0 <= blk["gof"]["p_value"] <= 1.0

    def test_rct_and_meta_blocks(self, fitted):
        cfg, doc = fitted
        assert "lambda" not in doc.results["rct"]
        assert len(doc.results["rct"]["tau"]) == 5
        assert set(doc.results["meta"]["tau_coefficients"]) == \
            {"1", "age", "age^2", "bmi", "bmi^2"}
        assert "estimate" in doc.results["meta"]["ate"]

    def test_diagnostics(self, fitted):
        cfg, doc = fitted
        d = doc.diagnostics
        assert d["n_trial"] == 300 and d["n_obs"] == 5000
        assert d["integrative"]["converged"] is True
        assert d["integrative"]["final_score_norm"] < 1e-8
        assert isinstance(d["warnings"], list)

    def test_output_files(self, fitted):
        cfg, doc = fitted
        on_disk = ResultDocument.from_json(open(cfg.output).read())
        assert on_disk.to_dict() == doc.to_dict()
        with open(cfg.curve_output, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [*NAMES, "estimate", "se", "lower", "upper"]
        assert len(rows) == 3
        assert float(rows[1][5]) == pytest.approx(
            doc.results["integrative"]["curve"][0]["estimate"])

    def test_json_is_deterministic(self, fitted):
        cfg, doc = fitted
        again = run_fit(cfg)
        assert again.to_json() == doc.to_json()

    def test_document_is_plain_json(self, fitted):
        cfg, doc = fitted
        parsed = json.loads(doc.to_json())
        assert parsed["results"]["integrative"]["ate"]["estimate"] == \
            doc.results["integrative"]["ate"]["estimate"]

    def test_covariate_count_mismatch(self, csv_fixture):
        path, data = csv_fixture
        cfg = base_config(path, covariates=("age", "bmi"),
                          tau_terms=("1", "age"), lambda_terms=("bmi",))
        with pytest.raises(ValidationError, match="covariates"):
            run_fit(cfg, data=data)

    def test_estimator_subset(self, csv_fixture):
        path, data = csv_fixture
        cfg = base_config(path, estimators=("meta",))
        doc = run_fit(cfg, data=data)
        assert set(doc.results) == {"meta"}


class TestResultDocument:
    def test_from_dict_checks_keys(self):
        with pytest.raises(ValidationError, match="missing keys"):
            ResultDocument.from_dict({"version": "0", "results": {}})

    def test_json_roundtrip(self):
        doc = ResultDocument("0.1.0", {"a": 1}, {"b": [1.5]}, {"c": None})
        assert ResultDocument.from_json(doc.to_json()) == doc


class TestRunSimulate:
    def test_writes_summary_json(self, tmp_path):
        cfg = make_config(beta=0.0, n=150, m=450, seed=23, reps=2,
                          estimators=("integrative",))
        out = tmp_path / "mc.json"
        mc = run_simulate(cfg, out=str(out))
        blob = json.loads(out.read_text())
        assert blob == json.loads(json.dumps(mc.to_dict(), sort_keys=True))
        assert blob["reps"] == 2

    def test_no_file_without_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = make_config(beta=0.0, n=150, m=450, seed=23, reps=1,
                          estimators=("meta",))
        run_simulate(cfg)
        assert list(tmp_path.iterdir()) == []
