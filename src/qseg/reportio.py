"""Stable file formats: CSV series, dense plot data, JSON documents.

Floats are serialized with their shortest round-trip representation (plain
``repr``), so parse(serialize(v)) is bit-exact.  JSON documents carry a
``format_version``; readers tolerate unknown fields but reject documents
written by a newer major version.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .accuracy import AccuracyReport, ReferenceFn
from .classify import ProfileClassification
from .errors import NonMonotonicX, ParseError
from .interp import (
    BlendMode,
    PiecewisePoly,
    QuadraticSegment,
    SamplePoint,
    SampleSeries,
)
from .profiler import RuntimeProfile

FORMAT_VERSION = "1.0"
FORMAT_MAJOR = 1

#: Knot values closer than this (relative) collapse to a single plot row.
KNOT_MATCH_TOL = 1e-9

#: Dense evaluation points per segment in plot data.
PLOT_POINTS_PER_SEGMENT = 200

PathLike = Union[str, Path]


# --- series CSV ----------------------------------------------------------

def write_series(series: SampleSeries, path: PathLike) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y"])
        for point in series:
            writer.writerow([repr(point.x), repr(point.y)])


def read_series(path: PathLike, label: str = "") -> SampleSeries:
    """Parse a two-column CSV with an ``x,y`` header.

    Length and parity are not checked here; an even-length series fails
    later, when a model is built from it.
    """
    points = []
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and [c.strip().lower() for c in row[:2]] == ["x", "y"]:
                continue
            if len(row) < 2:
                raise ParseError(f"{path}:{lineno}: expected two columns, got {row!r}")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not numeric: {row!r}") from None
            points.append(SamplePoint(x, y))
    previous = -math.inf
    for point in points:
        if point.x <= previous:
            raise NonMonotonicX(f"{path}: x values must strictly increase (x={point.x})")
        previous = point.x
    return SampleSeries(tuple(points), label or str(path))


# --- plot data ------------------------------------------------------------

def emit_plot_data(pw: PiecewisePoly, path: PathLike,
                   ref: Optional[ReferenceFn] = None) -> None:
    """Dense per-segment evaluations plus flagged knot rows.

    Knot rows where the adjacent segments disagree (trailing-secant jumps) are
    written twice, once per side, so plots can show the discontinuity.

    The file is the CSV ``csv.writer`` would write (CRLF line ends; ``repr``
    floats never need quoting).  A segment's dense x and F values come from
    one numpy pass in the scalar operation order, so they are bit-identical
    to ``seg.value(x)``; each segment's rows go out in one write.
    """
    fn = ref.fn if ref else None

    def rows(xs: list, values: list, tail: str) -> list:
        if fn:
            return [f"{x!r},{v!r},{float(fn(x))!r}{tail}" for x, v in zip(xs, values)]
        return [f"{x!r},{v!r}{tail}" for x, v in zip(xs, values)]

    step_count = PLOT_POINTS_PER_SEGMENT
    steps = np.arange(step_count, dtype=float)
    with open(path, "w", newline="") as handle:
        handle.write("x,F," + ("G," if fn else "") + "segment_index,is_knot\r\n")
        for i, seg in enumerate(pw.segments):
            xs = seg.lo + (seg.hi - seg.lo) * steps / (step_count - 1)
            values = (seg.a * xs + seg.b) * xs + seg.c
            lines = rows(xs.tolist(), values.tolist(), f",{i},0\r\n")
            if i + 1 < len(pw.segments):
                knot = seg.hi
                left = seg.value(knot)
                right = pw.segments[i + 1].value(knot)
                lines += rows([knot], [left], f",{i},1\r\n")
                if abs(left - right) > KNOT_MATCH_TOL * max(1.0, abs(left)):
                    lines += rows([knot], [right], f",{i + 1},1\r\n")
            handle.write("".join(lines))


# --- JSON documents -------------------------------------------------------

def _segment_to_json(seg: QuadraticSegment) -> dict:
    return {
        "a": seg.a, "b": seg.b, "c": seg.c,
        "lo": seg.lo, "hi": seg.hi,
        "node_xs": list(seg.node_xs),
    }


def _model_to_json(pw: PiecewisePoly) -> dict:
    return {
        "mode": pw.mode.value,
        "segments": [_segment_to_json(s) for s in pw.segments],
    }


def model_from_json(obj: dict) -> PiecewisePoly:
    try:
        mode = BlendMode(obj["mode"])
        segments = tuple(
            QuadraticSegment(
                float(s["a"]), float(s["b"]), float(s["c"]),
                float(s["lo"]), float(s["hi"]),
                tuple(float(v) for v in s["node_xs"]),
                mode,
            )
            for s in obj["segments"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model: {exc}") from exc
    return PiecewisePoly(segments, mode)


def accuracy_to_json(report: AccuracyReport) -> dict:
    return {
        "aggregate_a": report.aggregate_a,
        "per_segment": [
            {
                "lo": row.lo, "hi": row.hi,
                "integral_reference": row.integral_reference,
                "integral_model": row.integral_model,
                "ratio": row.ratio,
            }
            for row in report.per_segment
        ],
    }


def classification_to_json(result: ProfileClassification) -> dict:
    return {
        "summary": result.summary,
        "per_variable": {
            variable: {
                "winner": report.winner.name,
                "margin": min(report.margin, 1e300),
                "skipped": [list(item) for item in report.skipped],
                "fits": [
                    {
                        "class": fit.name,
                        "k": fit.k,
                        "c": fit.c,
                        "rmse": fit.rmse,
                        "nrmse": fit.nrmse,
                        "n_used": fit.n_used,
                        "note": fit.note,
                    }
                    for fit in report.fits
                ],
            }
            for variable, report in result.per_variable.items()
        },
    }


def _sweep_to_json(sweep) -> dict:
    return {
        "variable": sweep.swept_variable,
        "fixed_values": dict(sweep.fixed_values),
        "samples": [
            {
                "args": dict(s.args),
                "cpu_seconds": s.cpu_seconds,
                "dispersion": s.dispersion,
                "clock": s.clock,
            }
            for s in sweep.samples
        ],
    }


def profile_document(profile: RuntimeProfile, config: dict,
                     classification: Optional[ProfileClassification] = None,
                     validation: Optional[dict] = None) -> dict:
    target = profile.target
    return {
        "format_version": FORMAT_VERSION,
        "kind": "profile",
        "target": {
            "kind": target.kind.value,
            "name": target.name,
            "variables": list(target.variable_names),
            "command": list(target.command) if target.command else None,
        },
        "config": config,
        "sweeps": [_sweep_to_json(vp.sweep) for vp in profile.profiles],
        "models": {vp.variable: _model_to_json(vp.model) for vp in profile.profiles},
        "interactions": [
            {
                "pair": list(label.pair),
                "label": label.label,
                "evidence": label.evidence,
                "threshold": label.threshold,
            }
            for label in profile.interactions
        ],
        "classification": classification_to_json(classification) if classification else None,
        "validation": validation,
    }


def approx_document(pw: PiecewisePoly, source: dict,
                    accuracy: Optional[AccuracyReport] = None) -> dict:
    variable = source.get("variable", "x")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "approx",
        "source": source,
        "models": {variable: _model_to_json(pw)},
        "accuracy": accuracy_to_json(accuracy) if accuracy else None,
    }


def dump_document(doc: dict, path: PathLike) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as handle:
        handle.write(text + "\n")


def load_document(path: PathLike) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ParseError(f"{path}: missing format_version")
    version = str(doc["format_version"])
    try:
        major = int(version.split(".")[0])
    except ValueError:
        raise ParseError(f"{path}: malformed format_version {version!r}") from None
    if major > FORMAT_MAJOR:
        raise ParseError(
            f"{path}: format version {version} is newer than supported major {FORMAT_MAJOR}"
        )
    return doc


def models_from_document(doc: dict) -> dict[str, PiecewisePoly]:
    models = doc.get("models") or {}
    return {name: model_from_json(obj) for name, obj in models.items()}


def series_from_sweep_json(sweep: dict) -> SampleSeries:
    variable = sweep["variable"]
    xs = [s["args"][variable] for s in sweep["samples"]]
    ys = [s["cpu_seconds"] for s in sweep["samples"]]
    return SampleSeries.from_arrays(xs, ys, label=f"sweep:{variable}")
