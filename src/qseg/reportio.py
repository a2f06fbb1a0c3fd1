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
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import _plotrows
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
from .profiler import (
    InteractionLabel,
    RuntimeProfile,
    SweepResult,
    TargetKind,
    TargetSpec,
    TimingSample,
    VariableProfile,
)
from .targets import ArgSpec

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

#: Least dense rows in each run a plot file is split into, one run per usable
#: CPU.  Measured on a 2-core Xeon at 2.1 GHz: a helper interpreter takes
#: 11-13ms to start, and a row takes 1.5us to format (2.5us with the
#: reference column).  A helper's run of 10,000 rows spares this process
#: 15-25ms of formatting, so it outlasts the helper's start-up; on two CPUs
#: the split starts at 20,000 rows (100 segments).
PLOT_ROWS_PER_RUN = 10_000

_HELPER = Path(__file__).with_name("_plotrows.py")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _plot_runs(segment_count: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` segment runs, one per file part: a
    single run on one CPU, without an interpreter to start helpers from,
    or for a small file."""
    runs = 1
    if sys.executable:
        dense_rows = segment_count * PLOT_POINTS_PER_SEGMENT
        runs = max(1, min(_usable_cpus(), dense_rows // PLOT_ROWS_PER_RUN))
    bounds = [segment_count * k // runs for k in range(runs + 1)]
    return list(zip(bounds, bounds[1:]))


def _segment_rows(pw: PiecewisePoly, fn, i: int) -> tuple[int, int, list]:
    """Segment ``i``'s plot rows as columns x, F and, with a reference, G,
    plus how many knot rows end them.  The dense x and F values come from
    one numpy pass in the scalar operation order, so they are bit-identical
    to ``seg.value(x)``."""
    seg = pw.segments[i]
    steps = np.arange(PLOT_POINTS_PER_SEGMENT, dtype=float)
    xs = seg.lo + (seg.hi - seg.lo) * steps / (PLOT_POINTS_PER_SEGMENT - 1)
    columns = [xs.tolist(), ((seg.a * xs + seg.b) * xs + seg.c).tolist()]
    knots = 0
    if i + 1 < len(pw.segments):
        knot = seg.hi
        left = seg.value(knot)
        right = pw.segments[i + 1].value(knot)
        knots = 2 if abs(left - right) > KNOT_MATCH_TOL * max(1.0, abs(left)) else 1
        columns[0] += [knot] * knots
        columns[1] += [left, right][:knots]
    if fn:
        columns.append([float(fn(x)) for x in columns[0]])
    return i, knots, columns


def _plot_chunks(pw: PiecewisePoly, fn, run: tuple[int, int]):
    """The CSV bytes of a run, one chunk per segment."""
    for i in range(*run):
        yield _plotrows.segment_text(*_segment_rows(pw, fn, i)).encode()


def _start_helper(pw: PiecewisePoly, fn, run: tuple[int, int], part):
    """Start an interpreter that formats ``run`` into ``part``; None when
    it cannot be started.  Every value of the run, the reference's too, is
    computed here first, so an error in them is raised before any helper
    starts."""
    with tempfile.TemporaryFile() as numbers:
        for i in range(*run):
            numbers.write(_plotrows.segment_record(*_segment_rows(pw, fn, i)))
        numbers.seek(0)
        try:
            return subprocess.Popen([sys.executable, "-I", "-S", str(_HELPER)],
                                    stdin=numbers, stdout=part, stderr=subprocess.DEVNULL)
        except OSError:
            return None


def _write_runs_split(out, pw: PiecewisePoly, fn, runs: list[tuple[int, int]]) -> None:
    """Write the first run here while helper processes format the others
    into anonymous temporary files, then append those in order.  A run
    whose helper failed is written here."""
    parts = [tempfile.TemporaryFile() for _ in runs[1:]]
    helpers = []
    try:
        for part, run in zip(parts, runs[1:]):
            helpers.append(_start_helper(pw, fn, run, part))
        out.writelines(_plot_chunks(pw, fn, runs[0]))
        for part, run, helper in zip(parts, runs[1:], helpers):
            if helper is not None and helper.wait() == 0:
                part.seek(0)
                shutil.copyfileobj(part, out)
            else:
                out.writelines(_plot_chunks(pw, fn, run))
    finally:
        for helper in helpers:
            if helper is not None and helper.returncode is None:
                helper.kill()
                helper.wait()
        for part in parts:
            part.close()


def emit_plot_data(pw: PiecewisePoly, path: PathLike,
                   ref: Optional[ReferenceFn] = None) -> None:
    """Dense per-segment evaluations plus flagged knot rows.

    Knot rows where the adjacent segments disagree (trailing-secant jumps) are
    written twice, once per side, so plots can show the discontinuity.

    The file is the CSV ``csv.writer`` would write (CRLF line ends; ``repr``
    floats never need quoting).

    A large file is split into contiguous runs of segments, one per usable
    CPU, each of at least ``PLOT_ROWS_PER_RUN`` dense rows.  This process
    computes every value and writes the first run into ``path``; helper
    interpreters format the other runs into anonymous temporary files,
    which are appended in order.  The bytes are those of a single writer,
    nothing but ``path`` appears in its directory, and an error from
    ``ref`` is raised here, as without helpers.  A run whose helper fails
    is formatted here instead.  The file is written by this process alone
    on one usable CPU, without ``sys.executable``, or when it holds fewer
    than two runs' rows.
    """
    fn = ref.fn if ref else None
    runs = _plot_runs(len(pw.segments))
    with open(path, "wb") as out:
        out.write(("x,F," + ("G," if fn else "") + "segment_index,is_knot\r\n").encode())
        if len(runs) == 1:
            out.writelines(_plot_chunks(pw, fn, runs[0]))
        else:
            _write_runs_split(out, pw, fn, runs)


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


def _sweep_from_json(sweep: dict) -> SweepResult:
    samples = tuple(
        TimingSample(dict(s["args"]), float(s["cpu_seconds"]), float(s["dispersion"]), s["clock"])
        for s in sweep["samples"]
    )
    return SweepResult(sweep["variable"], dict(sweep["fixed_values"]), samples,
                       series_from_sweep_json(sweep))


def profile_from_document(doc: dict) -> RuntimeProfile:
    """The runtime profile a profile document records: one sweep and model
    per variable and the pair labels, under a target that keeps its kind,
    name, variables and command but has no runner (validity floors are not
    recorded).  Raises ParseError when the document holds no sweeps or is
    malformed."""
    if not doc.get("sweeps"):
        raise ParseError("profile document contains no sweeps")
    try:
        target = doc["target"]
        spec = TargetSpec(
            TargetKind(target["kind"]), target["name"],
            tuple(ArgSpec(name) for name in target["variables"]),
            command=tuple(target["command"]) if target["command"] else None,
        )
        models = models_from_document(doc)
        profiles = tuple(
            VariableProfile(sweep["variable"], _sweep_from_json(sweep), models[sweep["variable"]])
            for sweep in doc["sweeps"]
        )
        interactions = tuple(
            InteractionLabel(tuple(item["pair"]), item["label"],
                             float(item["evidence"]), float(item["threshold"]))
            for item in doc.get("interactions") or []
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed profile document: {exc}") from exc
    return RuntimeProfile(spec, profiles, interactions)
