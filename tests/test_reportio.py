"""Round-trip and format-stability tests for the persistence layer."""

import csv
import errno
import functools
import itertools
import json
import math
import os
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseg import reportio
from qseg.accuracy import NAMED_REFERENCES, ReferenceFn, accuracy_vs
from qseg.errors import EvenSeries, NonMonotonicX, ParseError, WriteError
from qseg.interp import (
    KNOT_MATCH_TOL,
    BlendMode,
    SampleSeries,
    build_piecewise,
    nodes_from_bounds,
    sample_function,
)
from qseg.profiler import CLOCKS, MeasureConfig, TargetSpec, build_runtime_profile
from qseg.reportio import (
    FORMAT_VERSION,
    PLOT_POINTS_PER_SEGMENT,
    PLOT_ROWS_PER_RUN,
    approx_document,
    dump_document,
    emit_plot_data,
    load_document,
    model_from_json,
    models_from_document,
    profile_document,
    profile_from_document,
    read_series,
    write_series,
)


def log2_model(mode=BlendMode.ENDPOINT_SECANT):
    return build_piecewise(
        sample_function(math.log2, nodes_from_bounds([8, 16, 32, 64])), mode
    )


@functools.cache
def synthetic_profile_json():
    """A two-variable synthetic profile document, with one pair label."""
    target = TargetSpec.for_callable(
        "add", lambda x, b: math.log2(x) + b, ["x", "b"], min_values={"x": 1}
    )
    grids = {"x": [8, 16, 32, 64, 128], "b": [1, 8, 16, 32, 64]}
    profile = build_runtime_profile(target, grids, MeasureConfig(seed=5))
    return json.dumps(profile_document(profile, {"seed": 5, "grids": grids}))


class TestSeriesCsv:
    def test_simple_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n8,3\n16,4\n32,5\n")
        series = read_series(path)
        np.testing.assert_allclose(series.xs, [8, 16, 32])
        np.testing.assert_allclose(series.ys, [3, 4, 5])

    def test_duplicate_x(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n1,1\n1,2\n")
        with pytest.raises(NonMonotonicX):
            read_series(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,1\nnot,numeric\n")
        with pytest.raises(ParseError, match=":3"):
            read_series(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x,y\n1\n")
        with pytest.raises(ParseError, match=":2"):
            read_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_series(tmp_path / "absent.csv")

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x,y\n1,1\n\n2,4\n   \n3,9\n")
        series = read_series(path)
        assert [(p.x, p.y) for p in series] == [(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]

    @pytest.mark.parametrize("content", [
        b"x,y\n1,1\n\xff\xfe,2\n",  # not UTF-8
        b"x,y\n1," + b"9" * (128 * 1024 + 1) + b"\n",  # over csv's field limit
    ], ids=["undecodable", "field-too-large"])
    def test_unreadable_csv_is_parse_error(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="bad.csv"):
            read_series(path)

    def test_even_file_reads_fails_at_build(self, tmp_path):
        path = tmp_path / "even.csv"
        path.write_text("x,y\n1,1\n2,2\n3,3\n4,4\n")
        series = read_series(path)
        assert len(series) == 4
        with pytest.raises(EvenSeries):
            build_piecewise(series, BlendMode.ENDPOINT_SECANT)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(555)
        for i in range(200):
            n = int(rng.integers(1, 12))
            xs = np.cumsum(rng.uniform(0.1, 3.0, size=n)) * rng.choice([1e-8, 1.0, 1e8])
            ys = rng.standard_normal(n) * rng.choice([1e-12, 1.0, 1e12])
            series = SampleSeries.from_arrays(xs, ys)
            path = tmp_path / f"rt{i}.csv"
            write_series(series, path)
            back = read_series(path)
            assert [p.x for p in back] == [p.x for p in series]
            assert [p.y for p in back] == [p.y for p in series]

    def test_unwritable_path_raises_write_error(self, tmp_path):
        # the same error as the document and plot writers raise
        path = tmp_path / "missing" / "s.csv"
        with pytest.raises(WriteError) as exc:
            write_series(SampleSeries.from_arrays([1, 2, 3], [1.0, 4.0, 9.0]), path)
        assert str(exc.value).startswith(f"cannot write {path}: ")


class TestPlotData:
    def read_rows(self, path):
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))

    def test_dense_rows_and_knots(self, tmp_path):
        path = tmp_path / "plot.csv"
        emit_plot_data(log2_model(), path, NAMED_REFERENCES["log2"])
        rows = self.read_rows(path)
        knots = [r for r in rows if r["is_knot"] == "1"]
        assert len(rows) >= 600
        assert len(knots) == 2
        assert all("G" in r for r in rows)
        # continuity-preserving mode: single row per knot
        assert sorted(float(r["x"]) for r in knots) == [16.0, 32.0]

    def test_directory_path_raises_write_error(self, tmp_path):
        with pytest.raises(WriteError) as exc:
            emit_plot_data(log2_model(), tmp_path)
        assert str(exc.value).startswith(f"cannot write {tmp_path}: ")

    def test_no_reference_column_without_ref(self, tmp_path):
        path = tmp_path / "plot.csv"
        emit_plot_data(log2_model(), path)
        with open(path) as handle:
            header = handle.readline().strip().split(",")
        assert header == ["x", "F", "segment_index", "is_knot"]

    def test_paper_secant_jump_duplicates_knot_rows(self, tmp_path):
        # a visibly discontinuous model: trailing-secant on curved data
        pw = build_piecewise(
            sample_function(lambda x: x ** 3, nodes_from_bounds([0, 2, 4])),
            BlendMode.TRAILING_SECANT,
        )
        left = pw.segments[0].value(2.0)
        right = pw.segments[1].value(2.0)
        assert abs(left - right) > 1e-6
        path = tmp_path / "plot.csv"
        emit_plot_data(pw, path)
        knot_rows = [r for r in self.read_rows(path) if r["is_knot"] == "1"]
        assert len(knot_rows) == 2
        assert {r["segment_index"] for r in knot_rows} == {"0", "1"}


def reference_plot_data(pw, path, ref=None):
    """The row-at-a-time ``csv.writer`` plot emitter; ``emit_plot_data``
    must write exactly its bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["x", "F"] + (["G"] if ref else []) + ["segment_index", "is_knot"]
        writer.writerow(header)

        def row(x, value, index, is_knot):
            cells = [repr(x), repr(value)]
            if ref:
                cells.append(repr(float(ref.fn(x))))
            cells += [index, is_knot]
            writer.writerow(cells)

        step_count = PLOT_POINTS_PER_SEGMENT
        for i, seg in enumerate(pw.segments):
            width = seg.hi - seg.lo
            for j in range(step_count):
                x = seg.lo + width * j / (step_count - 1)
                row(x, seg.value(x), i, 0)
            if i + 1 < len(pw.segments):
                knot = seg.hi
                left = seg.value(knot)
                right = pw.segments[i + 1].value(knot)
                row(knot, left, i, 1)
                if abs(left - right) > KNOT_MATCH_TOL * max(1.0, abs(left)):
                    row(knot, right, i + 1, 1)


#: Segments enough for three runs of PLOT_ROWS_PER_RUN dense rows each.
SPLIT_SEGMENTS = 3 * PLOT_ROWS_PER_RUN // PLOT_POINTS_PER_SEGMENT + 1


def assert_single_writer_bytes(tmp_path, ref):
    """A trailing-secant cospix plot of SPLIT_SEGMENTS segments is written
    with the single writer's bytes."""
    pw = cospix_model(BlendMode.TRAILING_SECANT, SPLIT_SEGMENTS)
    emit_plot_data(pw, tmp_path / "plot.csv", ref)
    reference_plot_data(pw, tmp_path / "reference.csv", ref)
    assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.fixture()
def children(monkeypatch):
    """Fix the usable CPUs at 3, so files split the same on any machine,
    and record every child forked: its pid, in fork order, maps to its exit
    code once it is reaped (minus the signal number if it was killed)."""
    monkeypatch.setattr(reportio, "_usable_cpus", lambda: 3)
    codes = {}
    real_fork_run, real_waitpid = reportio._fork_run, os.waitpid

    def fork_run(*args):
        pid = real_fork_run(*args)
        if pid is not None:
            codes[pid] = None
        return pid

    def waitpid(pid, options):
        reaped, status = real_waitpid(pid, options)
        if reaped in codes:
            codes[reaped] = os.waitstatus_to_exitcode(status)
        return reaped, status

    monkeypatch.setattr(reportio, "_fork_run", fork_run)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return codes


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child left, running or unreaped


def cospix_model(mode, segments):
    bounds = np.linspace(0.0, 1.5, segments + 1)
    return build_piecewise(sample_function(NAMED_REFERENCES["cospix"].fn, nodes_from_bounds(bounds)), mode)


def cubic_model(segments):
    """Trailing-secant on a cubic, which jumps at every knot."""
    return build_piecewise(
        sample_function(lambda x: x ** 3, nodes_from_bounds(np.linspace(0.0, 8.0, segments + 1))),
        BlendMode.TRAILING_SECANT,
    )


class TestPlotBytes:
    @pytest.mark.parametrize("with_ref", [False, True])
    @pytest.mark.parametrize("segments", [1, 3, 129, SPLIT_SEGMENTS])
    @pytest.mark.parametrize("mode", list(BlendMode))
    def test_matches_reference_writer(self, tmp_path, children, mode, segments, with_ref):
        ref = NAMED_REFERENCES["cospix"] if with_ref else None
        pw = cospix_model(mode, segments)
        emit_plot_data(pw, tmp_path / "plot.csv", ref)
        reference_plot_data(pw, tmp_path / "reference.csv", ref)
        assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        runs = min(3, segments * PLOT_POINTS_PER_SEGMENT // PLOT_ROWS_PER_RUN)
        # every child formatted its run: none fell back to this process
        assert list(children.values()) == [0] * max(0, runs - 1)
        assert_no_child_left()
        assert sorted(os.listdir(tmp_path)) == ["plot.csv", "reference.csv"]

    @pytest.mark.parametrize("with_ref", [False, True])
    def test_jumping_knots_match_reference_writer(self, tmp_path, with_ref):
        # trailing-secant on a cubic jumps at every knot, so every knot row
        # is written twice
        ref = NAMED_REFERENCES["exp2"] if with_ref else None
        pw = cubic_model(8)
        emit_plot_data(pw, tmp_path / "plot.csv", ref)
        reference_plot_data(pw, tmp_path / "reference.csv", ref)
        written = (tmp_path / "plot.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b",1\r\n") == 2 * (len(pw.segments) - 1)

    @pytest.mark.parametrize("with_ref", [False, True])
    def test_jumping_knots_on_the_split_match_reference_writer(self, tmp_path, children,
                                                               monkeypatch, with_ref):
        # on two CPUs the model splits into two runs at its middle knot,
        # whose two rows end the first run
        monkeypatch.setattr(reportio, "_usable_cpus", lambda: 2)
        segments = 2 * PLOT_ROWS_PER_RUN // PLOT_POINTS_PER_SEGMENT
        half = segments // 2
        assert reportio._plot_runs(segments) == [(0, half), (half, segments)]
        ref = NAMED_REFERENCES["exp2"] if with_ref else None
        pw = cubic_model(segments)
        emit_plot_data(pw, tmp_path / "plot.csv", ref)
        reference_plot_data(pw, tmp_path / "reference.csv", ref)
        written = (tmp_path / "plot.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b",1\r\n") == 2 * (segments - 1)
        assert list(children.values()) == [0]

    def test_fallbacks_write_the_same_bytes(self, tmp_path, children, monkeypatch):
        pw = cospix_model(BlendMode.TRAILING_SECANT, SPLIT_SEGMENTS)
        ref = NAMED_REFERENCES["cospix"]
        emit_plot_data(pw, tmp_path / "split.csv", ref)
        assert list(children.values()) == [0, 0]
        # one usable CPU: no child at all
        monkeypatch.setattr(reportio, "_usable_cpus", lambda: 1)
        emit_plot_data(pw, tmp_path / "one-cpu.csv", ref)
        assert len(children) == 2
        assert (tmp_path / "one-cpu.csv").read_bytes() == (tmp_path / "split.csv").read_bytes()

    def test_failed_children_leave_their_runs_to_this_process(self, tmp_path, children):
        # the reference raises in the children alone, so each exits 1 and
        # this process formats its run
        test_pid = os.getpid()

        def cospix_here(x):
            if os.getpid() != test_pid:
                raise RuntimeError("not in the test's process")
            return math.cos(math.pi * x)

        assert_single_writer_bytes(tmp_path, ReferenceFn("cospix-here", cospix_here))
        assert list(children.values()) == [1, 1]
        assert_no_child_left()

    def test_fork_error_leaves_the_runs_to_this_process(self, tmp_path, children, monkeypatch):
        def fork():
            raise OSError(errno.EAGAIN, "no process slots")

        monkeypatch.setattr(os, "fork", fork)
        assert_single_writer_bytes(tmp_path, NAMED_REFERENCES["cospix"])
        assert children == {}

    def test_no_fork_writes_one_run(self, tmp_path, children, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert reportio._plot_runs(SPLIT_SEGMENTS) == [(0, SPLIT_SEGMENTS)]
        assert_single_writer_bytes(tmp_path, NAMED_REFERENCES["cospix"])
        assert children == {}

    def test_other_thread_writes_one_run(self, tmp_path, children):
        # a fork beside a thread that holds a lock can deadlock the child
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert reportio._plot_runs(SPLIT_SEGMENTS) == [(0, SPLIT_SEGMENTS)]
            assert_single_writer_bytes(tmp_path, NAMED_REFERENCES["cospix"])
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert children == {}

    def test_split_forks_without_a_warning(self, tmp_path, children):
        # from Python 3.12, fork() beside another OS thread warns that the
        # child may deadlock; a warning turned into an error may be cleared
        # inside fork(), so every warning is recorded instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_single_writer_bytes(tmp_path, NAMED_REFERENCES["cospix"])
        assert [str(w.message) for w in caught] == []
        assert list(children.values()) == [0, 0]

    @pytest.mark.parametrize("cpus, failing", [(1, 0.6), (3, 0.6), (3, 0.2)])
    def test_reference_error_as_from_one_writer(self, tmp_path, children, monkeypatch,
                                                cpus, failing):
        # the reference fails in one third of the domain: the middle run,
        # whose child fails so that this process formats it again, or the
        # first, which this process formats while the children run
        monkeypatch.setattr(reportio, "_usable_cpus", lambda: cpus)
        pw = cospix_model(BlendMode.ENDPOINT_SECANT, SPLIT_SEGMENTS)
        if cpus == 3:
            starts = [pw.segments[start].lo for start, _ in reportio._plot_runs(SPLIT_SEGMENTS)]
            assert starts[1] < 0.5 and 0.95 < starts[2]

        def fragile(x):
            if abs(x - failing) < 0.1:
                raise ZeroDivisionError(f"no value at {x!r}")
            return math.cos(math.pi * x)

        with pytest.raises(ZeroDivisionError, match="no value at"):
            emit_plot_data(pw, tmp_path / "plot.csv", ReferenceFn("fragile", fragile))
        assert len(children) == (2 if cpus == 3 else 0)
        assert None not in children.values()
        assert_no_child_left()
        assert os.listdir(tmp_path) == ["plot.csv"]

    def test_extreme_reference_values_on_the_split(self, tmp_path, children):
        # children format G as this process does: a signed zero, the least
        # subnormal and a value near the largest float keep their repr
        extremes = (-0.0, 5e-324, 1.7e308)
        ref = ReferenceFn("extremes", lambda x: extremes[hash(x) % 3])
        pw = cospix_model(BlendMode.TRAILING_SECANT, SPLIT_SEGMENTS)
        emit_plot_data(pw, tmp_path / "plot.csv", ref)
        reference_plot_data(pw, tmp_path / "reference.csv", ref)
        written = (tmp_path / "plot.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert all(f",{value!r},".encode() in written for value in extremes)
        assert list(children.values()) == [0, 0]

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("ref", [ReferenceFn("floor", math.floor),
                                     ReferenceFn("np-log2", np.log2)])
    def test_non_float_references(self, tmp_path, children, monkeypatch, cpus, ref):
        # G is written as a float: an int and a numpy float keep a float's
        # repr (under numpy 2, a bare repr of np.log2(8.0) is
        # "np.float64(3.0)"); this process calls the reference at each row of
        # its own run, once at a knot that is written twice, in row order
        monkeypatch.setattr(reportio, "_usable_cpus", lambda: cpus)
        pw = build_piecewise(
            sample_function(lambda x: x ** 3,
                            nodes_from_bounds(np.linspace(1.0, 9.0, SPLIT_SEGMENTS + 1))),
            BlendMode.TRAILING_SECANT,
        )
        calls = []

        def recorded(x):
            calls.append(x)
            return ref.fn(x)

        emit_plot_data(pw, tmp_path / "plot.csv", ReferenceFn(ref.name, recorded))
        reference_plot_data(pw, tmp_path / "reference.csv", ref)
        written = (tmp_path / "plot.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert b"np.float64(" not in written
        assert list(children.values()) == [0] * (cpus - 1)
        stop = reportio._plot_runs(SPLIT_SEGMENTS)[0][1]
        knots = stop - (stop == SPLIT_SEGMENTS)
        assert len(calls) == PLOT_POINTS_PER_SEGMENT * stop + knots
        with open(tmp_path / "plot.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        # the second row of a jumping knot follows the first
        firsts = [r for r, before in zip(rows, [None] + rows)
                  if not (r["is_knot"] == "1" and before and before["is_knot"] == "1")]
        assert calls == [float(r["x"]) for r in firsts][:len(calls)]


def traced_peak(write) -> int:
    """The most memory traced while ``write()`` runs, in bytes."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    """The writers hold one segment, or one batch of encoder chunks, at a
    time, so their memory does not grow with plot rows."""

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_plot_peak_is_bounded(self, tmp_path, children, monkeypatch, cpus):
        monkeypatch.setattr(reportio, "_usable_cpus", lambda: cpus)
        pw = cospix_model(BlendMode.TRAILING_SECANT, 1200)
        peak = traced_peak(lambda: emit_plot_data(pw, tmp_path / "plot.csv",
                                                  NAMED_REFERENCES["cospix"]))
        assert list(children.values()) == [0] * (cpus - 1)
        assert peak < 512 * 1024

    def test_dump_peak_under_one_and_a_half_times_the_file(self, tmp_path):
        pw = cospix_model(BlendMode.ENDPOINT_SECANT, 1200)
        doc = approx_document(pw, {"variable": "x"}, accuracy_vs(pw, NAMED_REFERENCES["cospix"]))
        path = tmp_path / "report.json"
        peak = traced_peak(lambda: dump_document(doc, path))
        assert peak < 1.5 * path.stat().st_size

    def test_series_reader_holds_the_rows_once(self, tmp_path):
        path = tmp_path / "large.csv"
        path.write_text("x,y\n" + "".join(f"{i},{i * 0.5}\n" for i in range(1, 50_002)))
        tracemalloc.start()
        try:
            series = read_series(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == 50_001
        assert peak < 1.5 * held

    def test_encoding_error_leaves_an_existing_document(self, tmp_path):
        path = tmp_path / "report.json"
        doc = approx_document(log2_model(), {"variable": "x"})
        dump_document(doc, path)
        before = path.read_bytes()
        # "source" sorts after "models", so the error comes late in encoding
        doc["source"]["from"] = math.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_document(doc, path)
        assert path.read_bytes() == before


@st.composite
def plotted_models(draw):
    """A model of 1..8 segments in any blend mode, some narrow and far from
    0, over random samples, so trailing-secant knots jump; and a reference
    or none."""
    m = draw(st.integers(1, 8))
    start = draw(st.sampled_from([-3.0, 0.0, 1e6]) | st.floats(-100, 100))
    widths = draw(st.lists(st.sampled_from([1e-3]) | st.floats(1e-3, 10), min_size=m, max_size=m))
    xs = nodes_from_bounds(list(itertools.accumulate(widths, initial=start)))
    ys = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                       min_size=len(xs), max_size=len(xs)))
    pw = build_piecewise(SampleSeries.from_arrays(xs, ys), draw(st.sampled_from(BlendMode)))
    return pw, draw(st.sampled_from([None, NAMED_REFERENCES["cospix"]]))


class TestPlotRowsProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(plotted_models(), st.sampled_from([1, 3]))
    def test_matches_reference_writer(self, case, cpus):
        # on three CPUs, runs as short as one segment go to children
        pw, ref = case
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(reportio, "_usable_cpus", lambda: cpus)
            patch.setattr(reportio, "PLOT_ROWS_PER_RUN", PLOT_POINTS_PER_SEGMENT)
            emit_plot_data(pw, Path(tmp) / "plot.csv", ref)
            reference_plot_data(pw, Path(tmp) / "reference.csv", ref)
            assert (Path(tmp) / "plot.csv").read_bytes() == (Path(tmp) / "reference.csv").read_bytes()


class TestDocuments:
    def test_approx_document_round_trip(self, tmp_path):
        pw = log2_model()
        report = accuracy_vs(pw, NAMED_REFERENCES["log2"])
        doc = approx_document(pw, {"variable": "x", "function": "log2"}, report)
        path = tmp_path / "report.json"
        dump_document(doc, path)
        loaded = load_document(path)
        assert loaded["format_version"] == FORMAT_VERSION
        models = models_from_document(loaded)
        back = models["x"]
        assert back.mode == pw.mode
        for s1, s2 in zip(back.segments, pw.segments):
            assert (s1.a, s1.b, s1.c, s1.lo, s1.hi) == (s2.a, s2.b, s2.c, s2.lo, s2.hi)
        assert loaded["accuracy"]["aggregate_a"] == report.aggregate_a

    def test_dump_is_byte_stable(self, tmp_path):
        pw = log2_model()
        doc = approx_document(pw, {"variable": "x", "function": "log2"})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_document(doc, p1)
        dump_document(json.loads(p1.read_text()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reader_rejects_newer_major(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format_version": "2.0"}))
        with pytest.raises(ParseError):
            load_document(path)

    def test_reader_tolerates_unknown_fields(self, tmp_path):
        pw = log2_model()
        doc = approx_document(pw, {"variable": "x"})
        doc["unknown_extension"] = {"nested": [1, 2, 3]}
        path = tmp_path / "ext.json"
        dump_document(doc, path)
        models = models_from_document(load_document(path))
        assert "x" in models

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_document(path)

    def test_malformed_version(self, tmp_path):
        path = tmp_path / "badver.json"
        path.write_text(json.dumps({"format_version": "x.1"}))
        with pytest.raises(ParseError, match="malformed format_version 'x.1'"):
            load_document(path)

    def test_dump_to_directory_raises_write_error(self, tmp_path):
        doc = approx_document(log2_model(), {"variable": "x"})
        with pytest.raises(WriteError) as exc:
            dump_document(doc, tmp_path)
        assert str(exc.value).startswith(f"cannot write {tmp_path}: ")

    def test_missing_version(self, tmp_path):
        path = tmp_path / "nover.json"
        path.write_text("{}")
        with pytest.raises(ParseError):
            load_document(path)

    def test_model_from_json_malformed(self):
        with pytest.raises(ParseError):
            model_from_json({"mode": "endpoint-secant", "segments": [{"a": 1}]})

    @staticmethod
    def segment_json(lo, hi, fields=None):
        return {"a": 0.0, "b": 0.0, "c": 1.0, "lo": lo, "hi": hi,
                "node_xs": [lo, 0.5 * (lo + hi), hi], **(fields or {})}

    def test_model_from_json_rejects_decreasing_bounds(self):
        obj = {"mode": "endpoint-secant", "segments": [
            self.segment_json(0.0, 5.0), self.segment_json(5.0, 3.0), self.segment_json(3.0, 10.0)]}
        with pytest.raises(NonMonotonicX):
            model_from_json(obj)

    @pytest.mark.parametrize("fields", [
        {"a": math.nan}, {"b": math.inf}, {"c": -math.inf}, {"hi": math.nan},
        {"a": "nan"}, {"node_xs": [0.0, math.inf, 2.0]},
        {"node_xs": [0.0, 2.0]}, {"node_xs": [0.0, 0.5, 1.0, 2.0]},
        # numbers and arrays written as other JSON values
        {"a": "0.5"}, {"lo": "0"}, {"b": True}, {"c": 10 ** 400},
        {"node_xs": "012"}, {"node_xs": {"0": 0, "1": 1, "2": 2}},
        # nodes that are not lo, a point strictly inside, hi
        {"node_xs": [5.0, 6.0, 7.0]}, {"node_xs": [0.5, 1.0, 2.0]},
        {"node_xs": [0.0, 1.0, 3.0]}, {"node_xs": [0.0, 0.0, 2.0]},
        {"node_xs": [0.0, 2.0, 2.0]}, {"node_xs": [0.0, 3.0, 2.0]},
    ])
    def test_model_from_json_rejects_non_finite_and_bad_nodes(self, fields):
        obj = {"mode": "endpoint-secant", "segments": [self.segment_json(0.0, 2.0, fields)]}
        with pytest.raises(ParseError):
            model_from_json(obj)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_reader_rejects_non_finite_tokens(self, tmp_path, token):
        path = tmp_path / "nan.json"
        path.write_text('{"format_version": "1.0", "value": %s}' % token)
        with pytest.raises(ParseError):
            load_document(path)

    def test_profile_document_and_sweep_series(self, tmp_path):
        target = TargetSpec.for_callable(
            "add", lambda x, b: math.log2(x) + b, ["x", "b"], min_values={"x": 1}
        )
        grids = {"x": [8, 16, 32, 64, 128, 256, 512], "b": [1, 8, 16, 32, 64, 128, 256]}
        profile = build_runtime_profile(target, grids, MeasureConfig(seed=5))
        doc = profile_document(profile, {"seed": 5, "grids": grids})
        path = tmp_path / "profile.json"
        dump_document(doc, path)
        loaded = load_document(path)
        assert loaded["kind"] == "profile"
        assert [s["variable"] for s in loaded["sweeps"]] == ["x", "b"]
        series = profile_from_document(loaded).profiles[0].sweep.series
        np.testing.assert_allclose(series.xs, grids["x"])
        assert set(models_from_document(loaded)) == {"x", "b"}
        assert loaded["interactions"][0]["label"] == "additive"


    def test_profile_from_document_round_trip(self, tmp_path):
        target = TargetSpec.for_callable(
            "mul", lambda x, b: math.log2(x) * b, ["x", "b"], min_values={"x": 1}
        )
        grids = {"x": [8, 16, 32, 64, 128, 256, 512], "b": [1, 8, 16, 32, 64, 128, 256]}
        profile = build_runtime_profile(target, grids, MeasureConfig(seed=5))
        path = tmp_path / "profile.json"
        dump_document(profile_document(profile, {"seed": 5}), path)
        back = profile_from_document(load_document(path))
        assert (back.target.kind, back.target.name, back.target.variable_names) == \
               (target.kind, target.name, target.variable_names)
        assert back.interactions == profile.interactions
        for vp_back, vp in zip(back.profiles, profile.profiles, strict=True):
            assert vp_back.variable == vp.variable
            assert vp_back.sweep == vp.sweep
            assert vp_back.model.segments == vp.model.segments

    @pytest.mark.parametrize("clock", CLOCKS)
    def test_profile_from_document_reads_every_clock(self, clock):
        doc = json.loads(synthetic_profile_json())
        doc["sweeps"][0]["samples"][0]["clock"] = clock
        assert profile_from_document(doc).profiles[0].sweep.samples[0].clock == clock

    @pytest.mark.parametrize("doc", [
        {"target": {"kind": "synthetic", "name": "f", "variables": ["x"], "command": None},
         "sweeps": [], "models": {}},
        {"target": {"kind": "warp-drive", "name": "f", "variables": ["x"], "command": None},
         "sweeps": [], "models": {}},
        {"sweeps": [{"variable": "x"}]},
        # mutations of a real synthetic profile document
        pytest.param(lambda d: d["interactions"][0].update(pair=["x", "zz"]), id="pair-unswept"),
        pytest.param(lambda d: d["interactions"][0].update(pair=["x"]), id="pair-of-one"),
        pytest.param(lambda d: d["interactions"][0].update(pair=["b", "b"]), id="pair-repeated"),
        pytest.param(lambda d: d["interactions"][0].update(label="bogus"), id="label-unknown"),
        pytest.param(lambda d: d["sweeps"].append(d["sweeps"][0]), id="sweep-repeated"),
        pytest.param(lambda d: d["target"].update(variables=["x", "c"]), id="sweep-undeclared"),
        pytest.param(lambda d: d["target"].update(variables=["x", "x", "b"]),
                     id="variables-repeated"),
        pytest.param(lambda d: d.update(models=[1]), id="models-list"),
        pytest.param(lambda d: d["target"].update(variables="xb"), id="variables-string"),
        pytest.param(lambda d: d["target"].update(variables={"x": 0, "b": 1}),
                     id="variables-object"),
        pytest.param(lambda d: d["target"].update(command="ab"), id="command-string"),
        pytest.param(lambda d: d["target"].update(command={"a": 1}), id="command-object"),
        pytest.param(lambda d: d["interactions"][0].update(pair="xb"), id="pair-string"),
        pytest.param(lambda d: d["interactions"][0].update(evidence="0.5"),
                     id="evidence-string"),
        pytest.param(lambda d: d["interactions"][0].update(threshold=True),
                     id="threshold-boolean"),
        pytest.param(lambda d: d["sweeps"][0]["samples"][0].update(cpu_seconds="0.5"),
                     id="cpu-seconds-string"),
        pytest.param(lambda d: d["sweeps"][0]["samples"][0].update(dispersion=False),
                     id="dispersion-boolean"),
        pytest.param(lambda d: d["sweeps"][0]["samples"][0].update(clock=5), id="clock-number"),
        pytest.param(lambda d: d["sweeps"][0]["samples"][0].update(clock=None), id="clock-null"),
        pytest.param(lambda d: d["sweeps"][0]["samples"][0].update(clock="cpu"),
                     id="clock-unknown"),
        pytest.param(lambda d: d["sweeps"][0]["samples"][0]["args"].update(x="8"),
                     id="args-string"),
        pytest.param(lambda d: d["sweeps"][0]["fixed_values"].update(b="1"),
                     id="fixed-value-string"),
        pytest.param(lambda d: d["sweeps"][0].update(fixed_values=[["b", 1]]),
                     id="fixed-values-list"),
        pytest.param(lambda d: d["sweeps"][0]["fixed_values"].update(b=999),
                     id="fixed-value-not-run"),
        pytest.param(lambda d: d["sweeps"][0]["samples"][0]["args"].update(zzz=1),
                     id="args-undeclared"),
        pytest.param(lambda d: d["sweeps"][0]["samples"][-1]["args"].pop("b"),
                     id="args-missing-fixed"),
        pytest.param(lambda d: d["sweeps"][1]["fixed_values"].pop("x"),
                     id="fixed-values-missing"),
        pytest.param(lambda d: d["models"]["x"]["segments"][0].update(a="0.5"),
                     id="model-number-string"),
        pytest.param(lambda d: d["models"]["x"]["segments"][0].update(node_xs="012"),
                     id="node-xs-string"),
    ])
    def test_profile_from_document_rejects_malformed(self, doc):
        if callable(doc):
            mutate, doc = doc, json.loads(synthetic_profile_json())
            profile_from_document(doc)
            mutate(doc)
        with pytest.raises(ParseError):
            profile_from_document(doc)


class TestFloatFidelity:
    def test_tricky_values_round_trip(self, tmp_path):
        values = [0.1, 1 / 3, math.pi, 1e-300, 1e300, 5e-324, 123456789.123456789]
        series = SampleSeries.from_arrays(list(range(1, len(values) + 1)), values)
        path = tmp_path / "f.csv"
        write_series(series, path)
        assert [p.y for p in read_series(path)] == values
