"""CSV ingestion, analysis configuration, and the result document."""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._version import __version__
from .errors import ValidationError
from .estimators import _check_estimators, run_pipeline
from .inference import _Z95, _summaries
from .model import (
    BasisSpec,
    Dataset,
    StructuralModel,
    _check_fields,
    _check_probes,
    _plain,
    constant_term,
    linear_term,
    product_term,
    square_term,
)
from .simulation import McSummary, SimConfig, run_monte_carlo

__all__ = [
    "AnalysisConfig",
    "ResultDocument",
    "parse_terms",
    "load_csv",
    "run_fit",
    "run_simulate",
]


def parse_terms(exprs, names) -> BasisSpec:
    """Turn term expressions into a basis over named covariates.

    Supported forms: ``1`` (constant), ``name`` (linear), ``name^2``
    (square), ``nameA*nameB`` (product).
    """
    index = {nm: i for i, nm in enumerate(names)}
    terms = []
    for raw in exprs:
        expr = str(raw).strip()
        if not expr:
            raise ValidationError("empty basis term expression")
        if expr == "1":
            terms.append(constant_term())
            continue
        if "*" in expr:
            left, _, right = expr.partition("*")
            left, right = left.strip(), right.strip()
            if left not in index or right not in index:
                raise ValidationError(f"unknown covariate in term {expr!r}")
            terms.append(product_term(index[left], index[right]))
            continue
        if expr.endswith("^2"):
            nm = expr[:-2].strip()
            if nm not in index:
                raise ValidationError(f"unknown covariate in term {expr!r}")
            terms.append(square_term(index[nm]))
            continue
        if expr in index:
            terms.append(linear_term(index[expr]))
            continue
        raise ValidationError(f"cannot parse basis term {expr!r}")
    return BasisSpec(tuple(terms))


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything needed to run one fit on a CSV file."""

    data: str
    covariates: tuple[str, ...]
    tau_terms: tuple[str, ...]
    lambda_terms: tuple[str, ...]
    source_col: str = "s"
    treatment_col: str = "a"
    outcome_col: str = "y"
    estimators: tuple[str, ...] = ("integrative",)
    knots: int = 4
    ridge: float = 1e-6
    clip_e: float = 0.01
    trial_known: float | None = None
    probes: tuple[tuple[float, ...], ...] = ()
    gof_tau_terms: tuple[str, ...] = ()
    gof_lambda_terms: tuple[str, ...] = ()
    gof_efficient_weight: bool = False
    output: str | None = None
    curve_output: str | None = None

    def __post_init__(self):
        _check_fields(self)
        if not self.covariates:
            raise ValidationError("config must list at least one covariate column")
        repeated = sorted({c for c in self.covariates if self.covariates.count(c) > 1})
        if repeated:
            raise ValidationError(f"covariate columns listed more than once: {repeated}")
        roles = {self.source_col: "source", self.treatment_col: "treatment",
                 self.outcome_col: "outcome"}
        for col in self.covariates:
            if col in roles:
                raise ValidationError(f"covariate {col!r} is also the {roles[col]} column")
        if not self.tau_terms:
            raise ValidationError("config must define the effect basis (tau_terms)")
        if not self.lambda_terms:
            raise ValidationError(
                "config must define at least one confounding basis term (lambda_terms)"
            )
        _check_estimators(self.estimators)
        _check_probes(self.probes, len(self.covariates), "one per covariate")
        if self.curve_output and not (self.probes and "integrative" in self.estimators):
            raise ValidationError("curve_output needs a probe and the integrative estimator")
        if (self.gof_tau_terms or self.gof_lambda_terms) and "integrative" not in self.estimators:
            raise ValidationError("gof_*_terms need the integrative estimator")

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        missing = {"data", "covariates", "tau_terms", "lambda_terms"} - set(raw)
        if missing:
            raise ValidationError(f"config is missing required keys: {sorted(missing)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str) -> "AnalysisConfig":
        return cls.from_dict(_read_json_object(path, "config file"))

    def to_dict(self) -> dict:
        return _plain(asdict(self))


def _read_json_object(path: str, what: str) -> dict:
    """Parse a JSON file that must hold an object; ``what`` names it in errors."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must hold a JSON object")
    return raw


def _cell_error(token, binary: bool) -> str | None:
    """Why one CSV cell is unusable, or None when it parses."""
    if token is None:
        return "missing value"
    try:
        val = float(token)
    except ValueError:
        return f"{token!r} is not a number"
    if binary and val not in (0.0, 1.0):
        return f"expected 0 or 1, got {token!r}"
    if not np.isfinite(val):
        return "value is not finite"
    return None


def _locate_bad_cell(path: str, needed: list, index: dict) -> str | None:
    """Scan the file row by row for the first unusable cell.

    Runs only after the bulk parse has failed or rejected a value, to name
    the physical line (blank lines included) and the column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:  # blank line
                continue
            for pos, col in enumerate(needed):
                i = index[col]
                problem = _cell_error(row[i] if i < len(row) else None, binary=pos < 2)
                if problem is not None:
                    return f"line {reader.line_num}, column {col!r}: {problem}"
    return None


def load_csv(path: str, cfg: AnalysisConfig) -> Dataset:
    """Read a combined-sample CSV, validating every cell it uses.

    The needed columns are parsed in one numpy call and checked once, by
    ``Dataset``.  If the parse fails or ``Dataset`` rejects a value, the
    file is scanned again to report the first bad cell by physical line
    and column.
    """
    try:
        # utf-8-sig drops the byte-order mark of a spreadsheet's "CSV UTF-8"
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise ValidationError(f"data file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"data file {path} is empty")
        header_lines = reader.line_num
    index = {name: i for i, name in enumerate(header)}
    needed = [cfg.source_col, cfg.treatment_col, cfg.outcome_col, *cfg.covariates]
    missing = [c for c in needed if c not in index]
    if missing:
        raise ValidationError(f"data file {path} is missing columns: {missing}")
    # a repeated column the config does not read is harmless
    repeated = sorted({c for c in needed if header.count(c) > 1})
    if repeated:
        raise ValidationError(f"data file {path} has more than one column named: {repeated}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body is reported below
            table = np.loadtxt(path, delimiter=",", comments=None, quotechar='"',
                               skiprows=header_lines, usecols=[index[c] for c in needed],
                               dtype=float, ndmin=2, encoding="utf-8")
    except ValueError as exc:
        failure = str(exc)
    else:
        if table.shape[0] == 0:
            raise ValidationError(f"data file {path} contains no data rows")
        try:
            return Dataset(table[:, 0], table[:, 1], table[:, 2].copy(),
                           np.asfortranarray(table[:, 3:]))
        except ValidationError:  # a flag that is not 0/1, or a value that is not finite
            failure = "a value is out of range"
    located = _locate_bad_cell(path, needed, index)
    raise ValidationError(located or f"data file {path} could not be parsed: {failure}")


@dataclass(frozen=True)
class ResultDocument:
    """Losslessly serializable record of one fit."""

    version: str
    config: dict
    results: dict
    diagnostics: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ResultDocument":
        missing = {"version", "config", "results", "diagnostics"} - set(raw)
        if missing:
            raise ValidationError(f"result document is missing keys: {sorted(missing)}")
        return cls(raw["version"], raw["config"], raw["results"], raw["diagnostics"])

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        return cls.from_dict(json.loads(text))


def _interval(val, se) -> dict:
    """An estimate with its standard error and Wald 95% interval."""
    return {"estimate": float(val), "se": float(se),
            "lower": float(val - _Z95 * se), "upper": float(val + _Z95 * se)}


def run_fit(cfg: AnalysisConfig, data: Dataset | None = None) -> ResultDocument:
    """Load the data (unless provided), fit the requested estimators with
    ``run_pipeline``, and assemble their inference into a result document.
    Its ``config`` names a CSV read by absolute path, for ``gof`` to find."""
    config = cfg.to_dict()
    if data is None:
        data = load_csv(cfg.data, cfg)
        config["data"] = os.path.abspath(cfg.data)
    if data.d != len(cfg.covariates):
        raise ValidationError(
            f"data has {data.d} covariates but config names {len(cfg.covariates)}"
        )
    names = list(cfg.covariates)
    model = StructuralModel(parse_terms(cfg.tau_terms, names),
                            parse_terms(cfg.lambda_terms, names))
    results: dict = {}
    diagnostics: dict = {"n_trial": data.n_trial, "n_obs": data.n_obs}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = run_pipeline(data, model, cfg.estimators, knots=cfg.knots, ridge=cfg.ridge,
                           clip_e=cfg.clip_e, trial_known=cfg.trial_known)
        probe = model.tau_basis.design(np.reshape(cfg.probes, (-1, data.d)))
        summaries = _summaries(data, fit, probe, parse_terms(cfg.gof_tau_terms, names),
                               parse_terms(cfg.gof_lambda_terms, names),
                               cfg.gof_efficient_weight)

    tau_labels = model.tau_basis.labels(names)
    for name, got in summaries.items():
        if name == "meta":
            results[name] = {"tau_coefficients": dict(zip(tau_labels, fit.meta_coef))}
            if "ate" in got:
                results[name]["ate"] = {"estimate": got["ate"]}
            continue
        est, rep = got["est"], getattr(fit, name)
        coefs = [{"term": lab, **_interval(v, se)} for lab, v, se in
                 zip(tau_labels + model.lambda_basis.labels(names), est.psi_hat, est.se)]
        results[name] = block = {"tau": coefs[:model.p1]}
        if name == "integrative":
            block["lambda"] = coefs[model.p1:]
        if "ate" in got:
            ate = got["ate"]
            block["ate"] = {**_interval(ate.tau0_hat, ate.se), "pi0": ate.pi0_hat}
        if cfg.probes:
            curve = got["curve"]
            block["curve"] = [{"x": list(x), **_interval(v, se)}
                              for x, v, se in zip(cfg.probes, curve.estimate, curve.se)]
        if "gof" in got:
            block["gof"] = asdict(got["gof"])
        diagnostics[name] = {key: getattr(rep, key) for key in
                             ("iterations", "final_score_norm", "converged", "fallback_used")}

    diagnostics["warnings"] = sorted({str(w.message) for w in caught})
    doc = ResultDocument(__version__, config, _plain(results),
                         _plain(diagnostics))
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(doc.to_json() + "\n")
    if cfg.curve_output:
        with open(cfg.curve_output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*names, "estimate", "se", "lower", "upper"])
            for row in results["integrative"]["curve"]:
                writer.writerow([*row["x"], row["estimate"], row["se"],
                                 row["lower"], row["upper"]])
    return doc


def run_simulate(cfg: SimConfig, out: str | None = None) -> McSummary:
    """Run a Monte Carlo study and optionally write its JSON summary."""
    mc = run_monte_carlo(cfg)
    if out:
        with open(out, "w") as fh:
            json.dump(mc.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return mc
