"""Command line interface: fit, simulate, and gof subcommands."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from ._version import __version__
from .errors import NumericalError, ValidationError
from .io import AnalysisConfig, ResultDocument, _read_json_object, run_fit, run_simulate
from .simulation import N_COVARIATES, SimConfig, summarize


def _split(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _numbers(text: str) -> tuple:
    try:
        return tuple(float(part) for part in _split(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htefusion",
        description="Treatment-effect heterogeneity from fused trial and "
                    "observational samples.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the effect and confounding models to a CSV")
    fit.add_argument("--config", help="JSON config file; its keys override flags")
    fit.add_argument("--data", help="CSV with source, treatment, outcome, covariates")
    fit.add_argument("--covariates", type=_split,
                     help="comma-separated covariate column names")
    fit.add_argument("--source-col")
    fit.add_argument("--treatment-col")
    fit.add_argument("--outcome-col")
    fit.add_argument("--tau", dest="tau_terms", type=_split,
                     help="comma-separated effect basis terms, e.g. '1,age,age^2'")
    fit.add_argument("--lambda", dest="lambda_terms", type=_split,
                     help="comma-separated confounding basis terms")
    fit.add_argument("--estimators", type=_split,
                     help="comma-separated subset of integrative,rct,meta")
    fit.add_argument("--knots", type=int)
    fit.add_argument("--ridge", type=float)
    fit.add_argument("--clip-e", type=float)
    fit.add_argument("--trial-known", type=float,
                     help="known trial randomization probability")
    fit.add_argument("--probe", dest="probes", type=_numbers, action="append",
                     help="covariate point 'v1,v2,...' to evaluate the effect at "
                          "(repeatable)")
    fit.add_argument("--gof-tau", dest="gof_tau_terms", type=_split,
                     help="alternative effect terms for the specification test")
    fit.add_argument("--gof-lambda", dest="gof_lambda_terms", type=_split,
                     help="alternative confounding terms for the specification test")
    fit.add_argument("--gof-efficient-weight", action="store_true", default=None)
    fit.add_argument("--out", dest="output", help="path for the JSON result document")
    fit.add_argument("--curve-out", dest="curve_output",
                     help="path for a CSV of the probed effect curve")

    # defaults of None leave SimConfig's own in place
    sim = sub.add_parser("simulate", help="run the built-in Monte Carlo study")
    sim.add_argument("--setting", choices=["1", "2", "custom"], default="1",
                     help="1: no confounding; 2: unit beta; custom: supply --beta")
    sim.add_argument("--beta", type=_numbers,
                     help="comma-separated confounding loadings (custom)")
    sim.add_argument("--n", type=int)
    sim.add_argument("--m", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--jobs", type=int)
    sim.add_argument("--knots", type=int)
    sim.add_argument("--tau-form", choices=["opposed", "aligned"])
    sim.add_argument("--estimators", type=_split)
    sim.add_argument("--out", help="path for the JSON summary")
    sim.add_argument("--quiet", action="store_true", help="suppress the text table")

    gof = sub.add_parser("gof", help="specification test reusing a saved fit")
    gof.add_argument("--fit", required=True, help="result document from 'fit'")
    gof.add_argument("--tau-alt", default="", help="alternative effect terms")
    gof.add_argument("--lambda-alt", default="", help="alternative confounding terms")
    gof.add_argument("--efficient-weight", action="store_true")
    return parser


def _given(args: argparse.Namespace, cls) -> dict:
    """The options set on the command line whose dest names a field of ``cls``."""
    names = {f.name for f in fields(cls)}
    return {key: val for key, val in vars(args).items() if key in names and val is not None}


def _fit_config(args: argparse.Namespace) -> AnalysisConfig:
    raw = _given(args, AnalysisConfig)
    if args.config:
        # config file takes precedence over flags
        raw.update(_read_json_object(args.config, "config file"))
    return AnalysisConfig.from_dict(raw)


def _print_fit(doc: ResultDocument) -> None:
    res = doc.results
    for name in ("integrative", "rct"):
        if name not in res:
            continue
        print(f"[{name}]")
        for part in ("tau", "lambda"):
            if part not in res[name]:
                continue
            for row in res[name][part]:
                print(f"  {part} {row['term']:>12}: {row['estimate']:+.4f} "
                      f"(se {row['se']:.4f}, 95% CI {row['lower']:+.4f} "
                      f"to {row['upper']:+.4f})")
        if "ate" in res[name]:
            ate = res[name]["ate"]
            print(f"  average effect: {ate['estimate']:+.4f} (se {ate['se']:.4f})")
        if "gof" in res[name]:
            g = res[name]["gof"]
            print(f"  specification test: T = {g['t_stat']:.3f} on {g['df']} df, "
                  f"p = {g['p_value']:.3f}")
    if "meta" in res:
        print("[meta]")
        for term, val in res["meta"]["tau_coefficients"].items():
            print(f"  tau {term:>12}: {val:+.4f}")
        if "ate" in res["meta"]:
            print(f"  average effect: {res['meta']['ate']['estimate']:+.4f}")


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = _fit_config(args)
    _print_fit(run_fit(cfg))
    if cfg.output:
        print(f"result document written to {cfg.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    given = _given(args, SimConfig)
    if args.setting != "custom":  # the setting fixes the loadings
        given["beta"] = (1.0 if args.setting == "2" else 0.0,) * N_COVARIATES
    elif args.beta is None:
        raise ValidationError("--setting custom requires --beta")
    cfg = SimConfig(**given)
    mc = run_simulate(cfg, out=args.out)
    if not args.quiet:
        print(summarize(mc))
    if args.out:
        print(f"summary written to {args.out}")
    return 0


def _cmd_gof(args: argparse.Namespace) -> int:
    doc = ResultDocument.from_dict(_read_json_object(args.fit, "result document"))
    tau_alt, lambda_alt = _split(args.tau_alt), _split(args.lambda_alt)
    if not tau_alt and not lambda_alt:
        raise ValidationError(
            "the specification test needs at least one alternative term "
            "(--tau-alt or --lambda-alt)"
        )
    raw = dict(doc.config, estimators=("integrative",), gof_tau_terms=tau_alt,
               gof_lambda_terms=lambda_alt, gof_efficient_weight=bool(args.efficient_weight),
               output=None, curve_output=None)
    new_doc = run_fit(AnalysisConfig.from_dict(raw))
    g = new_doc.results["integrative"]["gof"]
    print(f"specification test: T = {g['t_stat']:.4f} on {g['df']} df, "
          f"p = {g['p_value']:.4f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_gof(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
