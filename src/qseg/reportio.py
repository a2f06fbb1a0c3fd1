"""Stable file formats: CSV series, dense plot data, JSON documents.

Floats are serialized with their shortest round-trip representation (plain
``repr``), so parse(serialize(v)) is bit-exact.  JSON documents carry a
``format_version``; readers tolerate unknown fields but reject documents
written by a newer major version.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional, Union

from .accuracy import AccuracyReport, ReferenceFn
from .classify import ProfileClassification
from .errors import ParseError, WriteError
from .interp import (
    BlendMode,
    PiecewisePoly,
    QuadraticSegment,
    SamplePoint,
    SampleSeries,
    knot_sides_differ,
)
from .profiler import (
    CLOCKS,
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

PathLike = Union[str, Path]


# --- series CSV ----------------------------------------------------------

def write_series(series: SampleSeries, path: PathLike) -> None:
    """Write an ``x,y`` CSV; a failed write raises :class:`WriteError`."""
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            for point in series:
                writer.writerow([repr(point.x), repr(point.y)])
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


def read_series(path: PathLike) -> SampleSeries:
    """Parse a two-column CSV with an ``x,y`` header.

    Length and parity are not checked here; an even-length series fails
    later, when a model is built from it.  x values that do not strictly
    increase raise NonMonotonicX, from :class:`SampleSeries`.
    """
    points = []
    try:
        with open(path, newline="") as handle:
            for lineno, row in enumerate(csv.reader(handle), start=1):
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
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV: {exc}") from exc
    return SampleSeries(tuple(points))


# --- plot data ------------------------------------------------------------
#
# Each segment has ``PLOT_POINTS_PER_SEGMENT`` dense rows at x = lo + (hi -
# lo) * j / (PLOT_POINTS_PER_SEGMENT - 1), with F from
# ``QuadraticSegment.value``.  All but the last segment end in a knot row at
# hi, and in a second, flagged as the next segment, where the next segment's
# F differs by ``interp.knot_sides_differ``.  A reference adds G at each
# row's x.

#: Dense evaluation points per segment.
PLOT_POINTS_PER_SEGMENT = 200

#: Each dense row's j as a float, which multiplies faster and rounds the same.
_STEPS = [float(j) for j in range(PLOT_POINTS_PER_SEGMENT)]

#: Least dense rows in each run a plot file is split into, one run per usable
#: CPU.  Measured on a shared 2-core Xeon at 2.1 GHz: forking a child of a
#: process that holds a 1000-segment model, its exit and its reaping take
#: 4-5 ms, and a row takes 1.5-3us of CPU to format (2.5-4.5us with the
#: reference column), as the machine's load varies.  A child's run of 10,000
#: rows spares this process 15-45ms of formatting, several times the fork's
#: cost; on two CPUs the split starts at 20,000 rows (100 segments).
PLOT_ROWS_PER_RUN = 10_000


def header(with_reference: bool) -> bytes:
    return ("x,F," + ("G," if with_reference else "") + "segment_index,is_knot\r\n").encode()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _plot_runs(segment_count: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` segment runs, one per file part: a
    single run on one CPU, for a small file, or where this process cannot
    fork safely (no ``os.fork``, or other Python threads that may hold a
    lock the child would wait on for ever)."""
    runs = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        dense_rows = segment_count * PLOT_POINTS_PER_SEGMENT
        runs = max(1, min(_usable_cpus(), dense_rows // PLOT_ROWS_PER_RUN))
    bounds = [segment_count * k // runs for k in range(runs + 1)]
    return list(zip(bounds, bounds[1:]))


def _plot_chunks(pw: PiecewisePoly, fn, run: tuple[int, int]):
    """The CSV bytes of a run, one chunk per segment."""
    segments, last = pw.segments, _STEPS[-1]
    for i in range(*run):
        seg = segments[i]
        lo, hi, width, value = seg.lo, seg.hi, seg.hi - seg.lo, seg.value
        xs = [lo + width * j / last for j in _STEPS]
        tail = f",{i},0\r\n"
        if fn is None:
            lines = [f"{x!r},{value(x)!r}{tail}" for x in xs]
        else:
            lines = [f"{x!r},{value(x)!r},{float(fn(x))!r}{tail}" for x in xs]
        if i + 1 < len(segments):
            g = "" if fn is None else f",{float(fn(hi))!r}"
            left, right = value(hi), segments[i + 1].value(hi)
            lines.append(f"{hi!r},{left!r}{g},{i},1\r\n")
            if knot_sides_differ(left, right):
                lines.append(f"{hi!r},{right!r}{g},{i + 1},1\r\n")
        yield "".join(lines).encode()


def _fork_run(part, pw: PiecewisePoly, fn, run: tuple[int, int]) -> Optional[int]:
    """Fork a child that formats ``run`` into ``part`` and exits 0; its pid,
    or None when the fork fails.  The child leaves only through ``os._exit``,
    so no exception, exit handler or inherited file buffer escapes it."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            part.writelines(_plot_chunks(pw, fn, run))
            part.flush()
            status = 0
        finally:
            os._exit(status)
    return pid


def _write_runs(out, pw: PiecewisePoly, fn, runs: list[tuple[int, int]]) -> None:
    """Write the first run here while forked children format the others
    into anonymous temporary files, then append those in order.  A run
    whose child failed, or could not be forked, is written here; no child
    outlives this call."""
    parts = [tempfile.TemporaryFile() for _ in runs[1:]]
    pids = []
    try:
        for part, run in zip(parts, runs[1:]):
            pids.append(_fork_run(part, pw, fn, run))
        out.writelines(_plot_chunks(pw, fn, runs[0]))
        for k, (part, run) in enumerate(zip(parts, runs[1:])):
            done = pids[k] is not None and os.waitpid(pids[k], 0)[1] == 0
            pids[k] = None
            if done:
                part.seek(0)
                shutil.copyfileobj(part, out)
            else:
                out.writelines(_plot_chunks(pw, fn, run))
    finally:
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
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
    writes the first run into ``path``; forked children format the other
    runs, reference column included, into anonymous temporary files, which
    are appended in order.  The bytes are those of a single writer, nothing
    but ``path`` appears in its directory, and an error from ``ref`` is
    raised here, as from one writer: a run whose child fails is formatted
    here instead.  See :func:`_plot_runs` for when one process writes the
    whole file.  A failed write raises :class:`WriteError`.
    """
    fn = ref.fn if ref else None
    try:
        with open(path, "wb") as out:
            out.write(header(fn is not None))
            _write_runs(out, pw, fn, _plot_runs(len(pw.segments)))
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


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


def _finite(value) -> float:
    """A finite JSON number as a float; a string, a boolean or any other
    JSON value raises ValueError."""
    if type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"{value!r} is not a finite JSON number")
    return float(value)


def _array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} is a JSON {type(value).__name__}, not an array")
    return value


def _segment_from_json(s: dict, mode: BlendMode) -> QuadraticSegment:
    """A segment whose ``node_xs`` are ``lo``, a point strictly inside the
    bounds, and ``hi``, as :func:`build_segment` writes them."""
    node_xs = tuple(_finite(v) for v in _array(s["node_xs"], "node_xs"))
    if len(node_xs) != 3:
        raise ValueError(f"node_xs holds {len(node_xs)} values, not 3")
    lo, hi = _finite(s["lo"]), _finite(s["hi"])
    # bounds that do not increase are left to PiecewisePoly, which raises
    # NonMonotonicX for them
    if lo < hi and not node_xs[0] == lo < node_xs[1] < hi == node_xs[2]:
        raise ValueError(f"node_xs {list(node_xs)} are not lo, a point inside, hi of [{lo}, {hi}]")
    return QuadraticSegment(_finite(s["a"]), _finite(s["b"]), _finite(s["c"]), lo, hi, node_xs, mode)


def model_from_json(obj: dict) -> PiecewisePoly:
    try:
        mode = BlendMode(obj["mode"])
        segments = tuple(_segment_from_json(s, mode) for s in _array(obj["segments"], "segments"))
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


#: Encoder chunks joined at a time while a document is encoded (about 70 KB).
_DUMP_BATCH = 1024


def dump_document(doc: dict, path: PathLike) -> None:
    """Write ``doc`` as sorted, indented JSON; a failed write raises
    :class:`WriteError`.

    The document is encoded in full before ``path`` is opened, so an
    encoding error (a NaN, say) leaves an existing file as it was.  The
    encoder's chunks are joined a batch at a time, so the text is held
    once, as joined batches, beside one batch of chunks."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False).iterencode(doc)
    text = []
    while batch := list(itertools.islice(chunks, _DUMP_BATCH)):
        text.append("".join(batch))
    text.append("\n")
    try:
        with open(path, "w") as handle:
            handle.writelines(text)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def load_document(path: PathLike) -> dict:
    """Read a JSON document; NaN and Infinity tokens, which
    :func:`dump_document` never writes, are rejected as invalid JSON."""
    try:
        with open(path) as handle:
            doc = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
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
    if not isinstance(models, dict):
        raise ParseError(f"models is a JSON {type(models).__name__}, not an object")
    return {name: model_from_json(obj) for name, obj in models.items()}


def _numbers(obj, name: str) -> dict:
    """A JSON object of finite numbers, as it is."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} is a JSON {type(obj).__name__}, not an object")
    for value in obj.values():
        _finite(value)
    return dict(obj)


def _sweep_from_json(sweep: dict) -> SweepResult:
    variable = sweep["variable"]
    samples = tuple(
        TimingSample(_numbers(s["args"], "args"), _finite(s["cpu_seconds"]),
                     _finite(s["dispersion"]), s["clock"])
        for s in _array(sweep["samples"], "samples")
    )
    fixed_values = _numbers(sweep["fixed_values"], "fixed_values")
    for s in samples:
        if s.clock not in CLOCKS:
            raise ValueError(f"sample clock {s.clock!r} is none of {', '.join(CLOCKS)}")
        if s.args != {**fixed_values, variable: s.args.get(variable)}:
            raise ValueError(f"sample args {s.args} are not the sweep of {variable!r} "
                             f"at fixed values {fixed_values}")
    series = SampleSeries.from_arrays([s.args[variable] for s in samples],
                                      [s.cpu_seconds for s in samples])
    return SweepResult(variable, fixed_values, samples, series)


def profile_from_document(doc: dict) -> RuntimeProfile:
    """The runtime profile a profile document records: one sweep and model
    per variable and the pair labels, under a target that keeps its kind,
    name, variables and command but has no runner (validity floors are not
    recorded).  Raises ParseError when the document holds no sweeps or is
    malformed: among other faults, when the sweeps repeat a variable or
    name one the target does not declare, a sample's clock is not one of
    ``profiler.CLOCKS`` or its args are not its sweep's fixed values plus
    the swept variable, or a pair label is not ``additive`` or
    ``composite`` of two distinct swept variables."""
    if not doc.get("sweeps"):
        raise ParseError("profile document contains no sweeps")
    try:
        target = doc["target"]
        command = target["command"]
        spec = TargetSpec(
            TargetKind(target["kind"]), target["name"],
            tuple(ArgSpec(name) for name in _array(target["variables"], "target.variables")),
            command=None if command is None else tuple(_array(command, "target.command")),
        )
        models = models_from_document(doc)
        profiles = tuple(
            VariableProfile(_sweep_from_json(sweep), models[sweep["variable"]])
            for sweep in _array(doc["sweeps"], "sweeps")
        )
        swept = [vp.variable for vp in profiles]
        if len(set(swept)) < len(swept) or not set(swept) <= set(spec.variable_names):
            raise ValueError(f"sweeps of {swept} repeat a variable or name one "
                             f"not in the target's {list(spec.variable_names)}")
        interactions = tuple(
            InteractionLabel(tuple(_array(item["pair"], "pair")), item["label"],
                             _finite(item["evidence"]), _finite(item["threshold"]))
            for item in _array(doc.get("interactions") or [], "interactions")
        )
        for label in interactions:
            pair = label.pair
            if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= set(swept):
                raise ValueError(f"pair {list(pair)} is not two distinct swept variables")
            if label.label not in ("additive", "composite"):
                raise ValueError(f"pair label {label.label!r} is neither additive nor composite")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed profile document: {exc}") from exc
    return RuntimeProfile(spec, profiles, interactions)
