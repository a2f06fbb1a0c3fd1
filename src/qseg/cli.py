"""Command-line entry point.

Subcommands: ``approx`` (model a CSV series or a named function),
``profile`` (measure a target and persist a runtime profile), ``classify``
(rank candidate complexity classes), ``eval`` (evaluate a persisted model).

Exit codes: 0 success, 1 domain error (bad data, failed target), 2 usage.
The environment variable QSEG_SEED supplies the default seed; an explicit
--seed flag wins over it.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from typing import Optional, Sequence

import numpy as np

from . import reportio
from .accuracy import NAMED_REFERENCES, accuracy_vs, validate_profile
from .classify import (
    CANDIDATES_BY_NAME,
    DEFAULT_CANDIDATES,
    ClassificationReport,
    classify,
    classify_profile,
)
from .errors import GridTooSmall, QsegError
from .interp import BlendMode, build_piecewise, nodes_from_bounds, sample_function
from .profiler import MeasureConfig, TargetSpec, build_runtime_profile, integer_grid
from .targets import batch_scale

MODE_CHOICES = [m.value for m in BlendMode]

#: One-sided derivatives further apart than this (relative) get a warning.
KNOT_WARN_TOL = 1e-9


def _resolve_seed(flag_value: Optional[int], parser: argparse.ArgumentParser) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("QSEG_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        parser.error(f"QSEG_SEED must be an integer, got {env!r}")


def _parse_grid_flag(text: str, parser: argparse.ArgumentParser) -> tuple[str, list[int]]:
    try:
        name, spec = text.split("=", 1)
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = int(lo_s), int(hi_s), int(n_s)
    except ValueError:
        parser.error(f"--grid expects VAR=lo:hi:n, got {text!r}")
    try:
        grid = integer_grid(lo, hi, n)
    except GridTooSmall as exc:
        parser.error(f"--grid {text!r}: {exc}")
    return name.strip(), grid


def _parse_candidates(text: Optional[str], parser: argparse.ArgumentParser):
    if text is None:
        return DEFAULT_CANDIDATES
    names = [n.strip() for n in text.split(",") if n.strip()]
    unknown = [n for n in names if n not in CANDIDATES_BY_NAME]
    if unknown:
        parser.error(
            f"unknown candidate(s) {unknown}; known: {sorted(CANDIDATES_BY_NAME)}"
        )
    if len(names) < 2:
        parser.error("--candidates needs at least two class names")
    return tuple(CANDIDATES_BY_NAME[n] for n in names)


def _print_report(report: ClassificationReport, heading: str) -> None:
    print(heading)
    print(f"  {'rank':<4} {'class':<10} {'k':>14} {'C':>14} {'nrmse':>12}")
    for rank, fit in enumerate(report.fits, start=1):
        print(f"  {rank:<4} {fit.name:<10} {fit.k:>14.6e} {fit.c:>14.6e} {fit.nrmse:>12.4e}")
        if fit.note:
            print(f"       note: {fit.note}")
    for name, reason in report.skipped:
        print(f"  skipped {name}: {reason}")
    print(f"  winner: {report.winner.name} (margin {report.margin:.3g})")


# --- approx ----------------------------------------------------------------

def _segment_bounds(lo: float, hi: float, segments: int, spacing: str,
                    parser: argparse.ArgumentParser) -> list[float]:
    if spacing == "even":
        return list(np.linspace(lo, hi, segments + 1))
    if lo <= 0:
        parser.error("--spacing geometric needs a positive --from")
    return list(np.geomspace(lo, hi, segments + 1))


def cmd_approx(args, parser: argparse.ArgumentParser) -> int:
    if (args.input is None) == (args.fn is None):
        parser.error("give exactly one of --input or --fn")
    mode = BlendMode(args.mode)
    ref = None
    if args.fn is not None:
        if None in (args.from_, args.to, args.segments):
            parser.error("--fn needs --from, --to and --segments")
        if args.to <= args.from_:
            parser.error("--to must exceed --from")
        if args.segments < 1:
            parser.error("--segments must be >= 1")
        ref = NAMED_REFERENCES.get(args.fn)
        if ref is None:
            parser.error(
                f"unknown function {args.fn!r}; known: {sorted(NAMED_REFERENCES)}"
            )
        bounds = _segment_bounds(args.from_, args.to, args.segments, args.spacing, parser)
        try:
            series = sample_function(ref.fn, nodes_from_bounds(bounds), label=args.fn)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            print(f"error: cannot sample {args.fn} on [{args.from_}, {args.to}]: {exc}",
                  file=sys.stderr)
            return 1
        source = {
            "variable": "x",
            "function": args.fn,
            "from": args.from_,
            "to": args.to,
            "segments": args.segments,
            "spacing": args.spacing,
            "mode": mode.value,
        }
    else:
        series = reportio.read_series(args.input)
        source = {"variable": "x", "input": str(args.input), "mode": mode.value}

    pw = build_piecewise(series, mode)
    report = accuracy_vs(pw, ref) if ref else None
    reportio.dump_document(reportio.approx_document(pw, source, report), args.out)
    if args.plot:
        reportio.emit_plot_data(pw, args.plot, ref)
    lo, hi = pw.domain
    print(f"model: {len(pw.segments)} segments on [{lo!r}, {hi!r}], mode {mode.value}")
    if report:
        print(f"A = {report.aggregate_a!r}")
    print(f"wrote {args.out}")
    return 0


# --- profile ----------------------------------------------------------------

def cmd_profile(args, parser: argparse.ArgumentParser) -> int:
    grids = {}
    for flag in args.grid or []:
        name, grid = _parse_grid_flag(flag, parser)
        if name in grids:
            parser.error(f"duplicate --grid for {name!r}")
        grids[name] = grid

    if args.target:
        target = TargetSpec.for_builtin(args.target)
    else:
        command = shlex.split(args.exec_cmd)
        if not command:
            parser.error("--exec command is empty")
        variables = args.vars.split(",") if args.vars else list(grids)
        if not variables:
            parser.error("--exec needs --vars or at least one --grid")
        target = TargetSpec.for_command(command, variables)

    missing = [n for n in target.variable_names if n not in grids]
    if missing:
        parser.error(f"missing --grid for declared variable(s) {missing}")
    extra = [n for n in grids if n not in target.variable_names]
    if extra:
        parser.error(f"--grid given for unknown variable(s) {extra}")

    seed = _resolve_seed(args.seed, parser)
    try:
        cfg = MeasureConfig(
            warmup_runs=args.warmups, repetitions=args.reps, seed=seed
        )
    except ValueError as exc:
        parser.error(str(exc))
    mode = BlendMode(args.mode)
    profile = build_runtime_profile(target, grids, cfg, mode)
    validation = {
        vp.variable: validate_profile(vp.model, vp.sweep.series)
        for vp in profile.profiles
    }
    config = {
        "seed": cfg.seed,
        "repetitions": cfg.repetitions,
        "warmup_runs": cfg.warmup_runs,
        "aggregator": cfg.aggregator,
        "mode": mode.value,
        "grids": {name: list(grid) for name, grid in grids.items()},
    }
    if target.builtin is not None:
        config["batch_scale"] = batch_scale()
    reportio.dump_document(
        reportio.profile_document(profile, config, validation=validation), args.out
    )
    for vp in profile.profiles:
        lo, hi = vp.model.domain
        print(f"{vp.variable}: {len(vp.model.segments)} segments on "
              f"[{lo:g}, {hi:g}], fixed {vp.fixed_values}, "
              f"validation {validation[vp.variable]:.4f}")
    for label in profile.interactions:
        print(f"{label.pair[0]}~{label.pair[1]}: {label.label} "
              f"(evidence {label.evidence:.3e}, threshold {label.threshold:.3e})")
    print(f"wrote {args.out}")
    return 0


# --- classify ----------------------------------------------------------------

def cmd_classify(args, parser: argparse.ArgumentParser) -> int:
    if (args.profile is None) == (args.input is None):
        parser.error("give exactly one of --profile or --input")
    candidates = _parse_candidates(args.candidates, parser)

    if args.input is not None:
        series = reportio.read_series(args.input)
        report = classify(series, candidates)
        _print_report(report, f"series {args.input}:")
        return 0

    doc = reportio.load_document(args.profile)
    result = classify_profile(reportio.profile_from_document(doc), candidates)
    doc["classification"] = reportio.classification_to_json(result)
    reportio.dump_document(doc, args.profile)
    for variable, report in result.per_variable.items():
        _print_report(report, f"variable {variable}:")
    print(f"summary: {result.summary}")
    print(f"updated {args.profile}")
    return 0


# --- eval ----------------------------------------------------------------

def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    doc = reportio.load_document(args.model)
    models = reportio.models_from_document(doc)
    if not models:
        print(f"error: {args.model} contains no models", file=sys.stderr)
        return 1
    if args.var is not None:
        if args.var not in models:
            parser.error(f"no model for variable {args.var!r}; have {sorted(models)}")
        pw = models[args.var]
    elif len(models) == 1:
        pw = next(iter(models.values()))
    else:
        parser.error(f"document has several models ({sorted(models)}); pick one with --var")

    if args.derivative:
        left, right = pw.derivative_at(args.at)
        print(f"left={left!r} right={right!r}")
        if abs(left - right) > KNOT_WARN_TOL * max(1.0, abs(left)):
            print(
                f"warning: one-sided derivatives differ at x={args.at}; "
                "the model is not differentiable at segment boundaries",
                file=sys.stderr,
            )
    else:
        print(repr(pw.evaluate(args.at)))
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qseg",
        description="Segmented-quadratic models of sampled functions and "
                    "measured runtimes, with complexity classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx", help="model a series or a named function")
    p_approx.add_argument("--input", help="CSV series with an x,y header")
    p_approx.add_argument("--fn", help="named reference function "
                          f"({', '.join(sorted(NAMED_REFERENCES))})")
    p_approx.add_argument("--from", dest="from_", type=float, help="domain start")
    p_approx.add_argument("--to", type=float, help="domain end")
    p_approx.add_argument("--segments", type=int, help="segment count")
    p_approx.add_argument("--spacing", choices=["even", "geometric"], default="even",
                          help="segment bound layout for --fn (default even)")
    p_approx.add_argument("--mode", choices=MODE_CHOICES,
                          default=BlendMode.ENDPOINT_SECANT.value)
    p_approx.add_argument("--out", default="report.json", help="report path")
    p_approx.add_argument("--plot", help="optional dense plot-data CSV path")

    p_profile = sub.add_parser("profile", help="measure a target and build its profile")
    group = p_profile.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="builtin target name")
    group.add_argument("--exec", dest="exec_cmd",
                       help="external command invoked as CMD --var NAME=VALUE ...")
    p_profile.add_argument("--vars", help="comma-separated variable names for --exec")
    p_profile.add_argument("--grid", action="append", metavar="VAR=lo:hi:n",
                           help="odd-count integer grid for one variable (repeatable)")
    p_profile.add_argument("--reps", type=int, default=5, help="timed repetitions per point")
    p_profile.add_argument("--warmups", type=int, default=1, help="untimed warmup runs")
    p_profile.add_argument("--seed", type=int, default=None,
                           help="input-data seed (default: QSEG_SEED or 0)")
    p_profile.add_argument("--mode", choices=MODE_CHOICES,
                           default=BlendMode.ENDPOINT_SECANT.value)
    p_profile.add_argument("--out", default="profile.json", help="profile document path")

    p_classify = sub.add_parser("classify", help="rank candidate complexity classes")
    p_classify.add_argument("--profile", help="profile document to classify and update")
    p_classify.add_argument("--input", help="CSV series to classify")
    p_classify.add_argument("--candidates", help="comma-separated class names "
                            f"(default: {','.join(c.name for c in DEFAULT_CANDIDATES)})")

    p_eval = sub.add_parser("eval", help="evaluate a persisted model")
    p_eval.add_argument("--model", required=True, help="report/profile JSON path")
    p_eval.add_argument("--at", type=float, required=True, help="evaluation point")
    p_eval.add_argument("--var", help="variable name when several models exist")
    p_eval.add_argument("--derivative", action="store_true",
                        help="print one-sided derivatives instead of the value")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "approx": cmd_approx,
        "profile": cmd_profile,
        "classify": cmd_classify,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args, parser)
    except QsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
