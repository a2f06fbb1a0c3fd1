"""Command-line entry point.

Subcommands: ``approx`` (model a CSV series or a named function),
``profile`` (measure a target and persist a runtime profile), ``classify``
(rank candidate complexity classes), ``eval`` (evaluate a persisted model).

Exit codes: 0 success, 1 domain error (bad data, failed target, unwritable
output), 2 usage.  ``main`` may be called many times in one process: it
builds its parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import shlex
import sys
import warnings
from typing import Optional, Sequence

from . import reportio
from .accuracy import NAMED_REFERENCES, accuracy_vs, validate_profile
from .classify import (
    CANDIDATES_BY_NAME,
    DEFAULT_CANDIDATES,
    ClassificationReport,
    classify,
    classify_profile,
)
from .errors import GridTooSmall, OutOfDomain, ParseError, QsegError, WriteError
from .interp import (SPACINGS, BlendMode, build_piecewise, knot_sides_differ,
                     nodes_from_bounds, sample_function)
from .profiler import (MeasureConfig, TargetSpec, TimerResolutionWarning, build_runtime_profile,
                       integer_grid)
from .targets import batch_scale


def _grid_flag(text: str) -> tuple[str, list[int]]:
    try:
        name, spec = text.split("=", 1)
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = int(lo_s), int(hi_s), int(n_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects VAR=lo:hi:n, got {text!r}") from None
    name = name.strip()
    if not name:
        raise argparse.ArgumentTypeError(f"{text!r} names no variable")
    try:
        return name, integer_grid(lo, hi, n)
    except GridTooSmall as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _check_writable(path: str) -> None:
    """Fail before the work, not after it, if ``path`` cannot be written."""
    if not path:
        raise WriteError("cannot write an empty path")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise WriteError(f"cannot write {path}: no directory {directory}")
    if os.path.isdir(path):
        raise WriteError(f"cannot write {path}: it is a directory")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _candidates(text: str):
    names = [n.strip() for n in text.split(",") if n.strip()]
    unknown = [n for n in names if n not in CANDIDATES_BY_NAME]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown candidate(s) {unknown}; known: {sorted(CANDIDATES_BY_NAME)}"
        )
    if len(names) < 2:
        raise argparse.ArgumentTypeError("needs at least two class names")
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"repeats a class name: {names}")
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
    if spacing == "geometric" and lo <= 0:
        parser.error("--spacing geometric needs a positive --from")
    return list(SPACINGS[spacing](lo, hi, segments + 1))


def cmd_approx(args, parser: argparse.ArgumentParser) -> int:
    mode = BlendMode(args.mode)
    ref = None
    if args.fn is not None:
        if None in (args.from_, args.to, args.segments):
            parser.error("--fn needs --from, --to and --segments")
        if args.to <= args.from_:
            parser.error("--to must exceed --from")
        if not math.isfinite(args.to - args.from_):
            parser.error("--to minus --from exceeds the float range")
        if args.segments < 1:
            parser.error("--segments must be >= 1")
        ref = NAMED_REFERENCES[args.fn]
        spacing = args.spacing or "even"
        bounds = _segment_bounds(args.from_, args.to, args.segments, spacing, parser)
        source = {
            "variable": "x",
            "function": args.fn,
            "from": args.from_,
            "to": args.to,
            "segments": args.segments,
            "spacing": spacing,
            "mode": mode.value,
        }
    else:
        flags = zip(("--from", "--to", "--segments", "--spacing"),
                    (args.from_, args.to, args.segments, args.spacing))
        if given := [flag for flag, value in flags if value is not None]:
            parser.error(f"--input does not take {', '.join(given)}, only --fn does")
        source = {"variable": "x", "input": str(args.input), "mode": mode.value}

    if args.plot and os.path.realpath(args.plot) == os.path.realpath(args.out):
        parser.error(f"--out and --plot name the same file, {args.out}")
    for path in (args.out, args.plot):
        if path is not None:
            _check_writable(path)
    if ref is None:
        series = reportio.read_series(args.input)
    else:
        try:
            series = sample_function(ref.fn, nodes_from_bounds(bounds))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise OutOfDomain(
                f"cannot sample {args.fn} on [{args.from_}, {args.to}]: {exc}"
            ) from exc
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
    for name, grid in args.grid or []:
        if name in grids:
            parser.error(f"duplicate --grid for {name!r}")
        grids[name] = grid

    if args.target:
        target = TargetSpec.for_builtin(args.target)
        grids = {**target.default_grids(), **grids}
    else:
        if not args.exec_cmd:
            parser.error("--exec command is empty")
        if not grids:
            parser.error("--exec needs at least one --grid")
        target = TargetSpec.for_command(args.exec_cmd, list(grids))

    if extra := [n for n in grids if n not in target.variable_names]:
        parser.error(f"--grid given for unknown variable(s) {extra}")

    if not 0 <= args.seed <= 0xFFFFFFFF:
        parser.error("--seed must be in 0..4294967295: seeds fold to 32 bits")
    try:
        cfg = MeasureConfig(repetitions=args.reps, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    _check_writable(args.out)
    with warnings.catch_warnings():
        show = warnings.showwarning

        def show_line(message, category, *rest, **kwargs):
            # one stderr line per point near the clock step, as eval warns
            if issubclass(category, TimerResolutionWarning):
                print(f"warning: {message}", file=sys.stderr)
            else:
                show(message, category, *rest, **kwargs)

        warnings.showwarning = show_line
        profile = build_runtime_profile(target, grids, cfg)
    validation = {vp.variable: validate_profile(vp.model, vp.sweep.series)
                  for vp in profile.profiles}
    config = {**dataclasses.asdict(cfg), "mode": profile.profiles[0].model.mode.value,
              "grids": grids}
    if target.builtin is not None:
        config["batch_scale"] = batch_scale()
    doc = reportio.profile_document(profile, config, validation=validation)
    reportio.dump_document(doc, args.out)
    for vp in profile.profiles:
        lo, hi = vp.model.domain
        print(f"{vp.variable}: {len(vp.model.segments)} segments on "
              f"[{lo:g}, {hi:g}], fixed {vp.sweep.fixed_values}, "
              f"validation {validation[vp.variable]:.4f}")
    for label in profile.interactions:
        print(f"{label.pair[0]}~{label.pair[1]}: {label.label} "
              f"(evidence {label.evidence:.3e}, threshold {label.threshold:.3e})")
    print(f"wrote {args.out}")
    return 0


# --- classify ----------------------------------------------------------------

def cmd_classify(args, parser: argparse.ArgumentParser) -> int:
    if args.input is not None:
        series = reportio.read_series(args.input)
        report = classify(series, args.candidates)
        _print_report(report, f"series {args.input}:")
        return 0

    doc = reportio.load_document(args.profile)
    result = classify_profile(reportio.profile_from_document(doc), args.candidates)
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
        raise ParseError(f"{args.model} contains no models")
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
        if knot_sides_differ(left, right):
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

    def add_command(name: str, handler, help: str) -> argparse.ArgumentParser:
        # usage errors are reported through the subcommand's own parser
        command = sub.add_parser(name, help=help)
        command.set_defaults(run=handler, parser=command)
        return command

    p_approx = add_command("approx", cmd_approx, "model a series or a named function")
    group = p_approx.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="CSV series with an x,y header")
    group.add_argument("--fn", choices=sorted(NAMED_REFERENCES), help="named reference function")
    p_approx.add_argument("--from", dest="from_", type=_finite_float, help="domain start")
    p_approx.add_argument("--to", type=_finite_float, help="domain end")
    p_approx.add_argument("--segments", type=int, help="segment count")
    p_approx.add_argument("--spacing", choices=list(SPACINGS),
                          help="segment bound layout for --fn (default even)")
    p_approx.add_argument("--mode", choices=[m.value for m in BlendMode],
                          default=BlendMode.ENDPOINT_SECANT.value)
    p_approx.add_argument("--out", default="report.json", help="report path")
    p_approx.add_argument("--plot", help="optional dense plot-data CSV path")

    p_profile = add_command("profile", cmd_profile, "measure a target and build its profile")
    group = p_profile.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="builtin target name")
    group.add_argument("--exec", dest="exec_cmd", type=shlex.split,
                       help="command run as CMD --var NAME=VALUE ... for each --grid")
    p_profile.add_argument("--grid", action="append", type=_grid_flag, metavar="VAR=lo:hi:n",
                           help="odd-count integer grid for one variable (repeatable); "
                           "a builtin target's own grid for any variable not given")
    p_profile.add_argument("--reps", type=int, default=MeasureConfig.repetitions,
                           help="timed repetitions per point")
    p_profile.add_argument("--seed", type=int, default=MeasureConfig.seed,
                           help="input-data seed (default 0)")
    p_profile.add_argument("--out", default="profile.json", help="profile document path")

    p_classify = add_command("classify", cmd_classify, "rank candidate complexity classes")
    group = p_classify.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", help="profile document to classify and update")
    group.add_argument("--input", help="CSV series to classify")
    p_classify.add_argument("--candidates", type=_candidates, default=DEFAULT_CANDIDATES,
                            help="comma-separated class names "
                            f"(default: {','.join(c.name for c in DEFAULT_CANDIDATES)})")

    p_eval = add_command("eval", cmd_eval, "evaluate a persisted model")
    p_eval.add_argument("--model", required=True, help="report/profile JSON path")
    p_eval.add_argument("--at", type=_finite_float, required=True, help="evaluation point")
    p_eval.add_argument("--var", help="variable name when several models exist")
    p_eval.add_argument("--derivative", action="store_true",
                        help="print one-sided derivatives instead of the value")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing neither changes the parser nor shares a mutable default with
    # the namespace it returns, so main() builds it once, on its first call.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, extras = _parser().parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.run(args, args.parser)
    except QsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
