"""Command line interface: fit, simulate, and gof subcommands."""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .errors import NumericalError, ValidationError
from .io import AnalysisConfig, ResultDocument, _read_json_object, run_fit, run_simulate
from .simulation import SimConfig, summarize


def _split(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


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
    fit.add_argument("--covariates", help="comma-separated covariate column names")
    fit.add_argument("--source-col", default=None)
    fit.add_argument("--treatment-col", default=None)
    fit.add_argument("--outcome-col", default=None)
    fit.add_argument("--tau", help="comma-separated effect basis terms, e.g. '1,age,age^2'")
    fit.add_argument("--lambda", dest="lambda_terms_flag",
                     help="comma-separated confounding basis terms")
    fit.add_argument("--estimators", default=None,
                     help="comma-separated subset of integrative,rct,meta")
    fit.add_argument("--knots", type=int, default=None)
    fit.add_argument("--ridge", type=float, default=None)
    fit.add_argument("--clip-e", type=float, default=None)
    fit.add_argument("--trial-known", type=float, default=None,
                     help="known trial randomization probability")
    fit.add_argument("--probe", action="append", default=None,
                     help="covariate point 'v1,v2,...' to evaluate the effect at "
                          "(repeatable)")
    fit.add_argument("--gof-tau", default=None,
                     help="alternative effect terms for the specification test")
    fit.add_argument("--gof-lambda", default=None,
                     help="alternative confounding terms for the specification test")
    fit.add_argument("--gof-efficient-weight", action="store_true", default=None)
    fit.add_argument("--out", help="path for the JSON result document")
    fit.add_argument("--curve-out", help="path for a CSV of the probed effect curve")

    sim = sub.add_parser("simulate", help="run the built-in Monte Carlo study")
    sim.add_argument("--setting", choices=["1", "2", "custom"], default="1",
                     help="1: no confounding; 2: unit beta; custom: supply --beta")
    sim.add_argument("--beta", help="comma-separated confounding loadings (custom)")
    sim.add_argument("--n", type=int, default=300)
    sim.add_argument("--m", type=int, default=5000)
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--seed", type=int, default=20260815)
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--knots", type=int, default=0)
    sim.add_argument("--tau-form", choices=["opposed", "aligned"], default="opposed")
    sim.add_argument("--confounding-form", choices=["unit", "double"], default="unit")
    sim.add_argument("--estimators", default="integrative,rct,meta")
    sim.add_argument("--out", help="path for the JSON summary")
    sim.add_argument("--quiet", action="store_true", help="suppress the text table")

    gof = sub.add_parser("gof", help="specification test reusing a saved fit")
    gof.add_argument("--fit", required=True, help="result document from 'fit'")
    gof.add_argument("--tau-alt", default="", help="alternative effect terms")
    gof.add_argument("--lambda-alt", default="", help="alternative confounding terms")
    gof.add_argument("--efficient-weight", action="store_true")
    return parser


# fit flag -> (config key, conversion); a flag left unset keeps the
# config's default
_FIT_FLAGS = {
    "data": ("data", str), "covariates": ("covariates", _split),
    "source_col": ("source_col", str), "treatment_col": ("treatment_col", str),
    "outcome_col": ("outcome_col", str), "tau": ("tau_terms", _split),
    "lambda_terms_flag": ("lambda_terms", _split), "estimators": ("estimators", _split),
    "knots": ("knots", int), "ridge": ("ridge", float), "clip_e": ("clip_e", float),
    "trial_known": ("trial_known", float),
    "probe": ("probes", lambda flags: tuple(tuple(float(v) for v in _split(p))
                                            for p in flags)),
    "gof_tau": ("gof_tau_terms", _split), "gof_lambda": ("gof_lambda_terms", _split),
    "gof_efficient_weight": ("gof_efficient_weight", bool),
    "out": ("output", str), "curve_out": ("curve_output", str),
}


def _fit_config(args: argparse.Namespace) -> AnalysisConfig:
    raw = {key: convert(getattr(args, flag)) for flag, (key, convert) in _FIT_FLAGS.items()
           if getattr(args, flag) is not None}
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
    doc = run_fit(_fit_config(args))
    _print_fit(doc)
    if args.out:
        print(f"result document written to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.setting == "1":
        beta = (0.0,) * 5
    elif args.setting == "2":
        beta = (1.0,) * 5
    else:
        if not args.beta:
            raise ValidationError("--setting custom requires --beta")
        beta = tuple(float(v) for v in _split(args.beta))
    cfg = SimConfig(n=args.n, m=args.m, beta=beta, reps=args.reps, seed=args.seed,
                    estimators=tuple(_split(args.estimators)), tau_form=args.tau_form,
                    confounding_form=args.confounding_form, knots=args.knots,
                    jobs=args.jobs)
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
