"""Round-trip and format-stability tests for the persistence layer."""

import csv
import json
import math
import os
import sys

import numpy as np
import pytest

from qseg import reportio
from qseg.accuracy import NAMED_REFERENCES, ReferenceFn, accuracy_vs
from qseg.errors import EvenSeries, NonMonotonicX, ParseError
from qseg.interp import (
    BlendMode,
    SampleSeries,
    build_piecewise,
    nodes_from_bounds,
    sample_function,
)
from qseg.profiler import MeasureConfig, TargetSpec, build_runtime_profile
from qseg.reportio import (
    FORMAT_VERSION,
    KNOT_MATCH_TOL,
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
    series_from_sweep_json,
    write_series,
)


def log2_model(mode=BlendMode.ENDPOINT_SECANT):
    return build_piecewise(
        sample_function(math.log2, nodes_from_bounds([8, 16, 32, 64])), mode
    )


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


@pytest.fixture()
def helpers(monkeypatch):
    """Fix the usable CPUs at 3, so files split the same on any machine,
    and record every helper process started."""
    monkeypatch.setattr(reportio, "_usable_cpus", lambda: 3)
    started = []
    real_start = reportio._start_helper

    def start(*args):
        helper = real_start(*args)
        started.append(helper)
        return helper

    monkeypatch.setattr(reportio, "_start_helper", start)
    return started


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
    def test_matches_reference_writer(self, tmp_path, helpers, mode, segments, with_ref):
        ref = NAMED_REFERENCES["cospix"] if with_ref else None
        pw = cospix_model(mode, segments)
        emit_plot_data(pw, tmp_path / "plot.csv", ref)
        reference_plot_data(pw, tmp_path / "reference.csv", ref)
        assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        runs = min(3, segments * PLOT_POINTS_PER_SEGMENT // PLOT_ROWS_PER_RUN)
        # every helper formatted its run: none fell back to this process
        assert [helper.returncode for helper in helpers] == [0] * max(0, runs - 1)
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
    def test_jumping_knots_on_the_split_match_reference_writer(self, tmp_path, helpers,
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
        assert [helper.returncode for helper in helpers] == [0]

    def test_fallbacks_write_the_same_bytes(self, tmp_path, helpers, monkeypatch):
        pw = cospix_model(BlendMode.TRAILING_SECANT, SPLIT_SEGMENTS)
        ref = NAMED_REFERENCES["cospix"]
        emit_plot_data(pw, tmp_path / "split.csv", ref)
        assert [helper.returncode for helper in helpers] == [0, 0]
        # helpers that fail: this process formats their runs
        monkeypatch.setattr(reportio, "_HELPER", tmp_path / "absent.py")
        emit_plot_data(pw, tmp_path / "failed.csv", ref)
        assert [helper.returncode for helper in helpers[2:]] == [2, 2]
        # one usable CPU, or no interpreter to start: no helper at all
        monkeypatch.setattr(reportio, "_usable_cpus", lambda: 1)
        emit_plot_data(pw, tmp_path / "one-cpu.csv", ref)
        monkeypatch.setattr(reportio, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(sys, "executable", "")
        emit_plot_data(pw, tmp_path / "no-interpreter.csv", ref)
        assert len(helpers) == 4
        split = (tmp_path / "split.csv").read_bytes()
        for name in ("failed.csv", "one-cpu.csv", "no-interpreter.csv"):
            assert (tmp_path / name).read_bytes() == split

    @pytest.mark.parametrize("cpus, failing", [(1, 0.6), (3, 0.6), (3, 0.2)])
    def test_reference_error_as_from_one_writer(self, tmp_path, helpers, monkeypatch,
                                                cpus, failing):
        # the reference fails in one third of the domain: the middle run,
        # which a helper would format, or the first, which this process
        # formats while the helpers run
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
        assert len(helpers) == (2 if failing < 0.5 and cpus == 3 else 0)
        assert all(helper.returncode is not None for helper in helpers)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left, running or unreaped
        assert os.listdir(tmp_path) == ["plot.csv"]


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

    def test_missing_version(self, tmp_path):
        path = tmp_path / "nover.json"
        path.write_text("{}")
        with pytest.raises(ParseError):
            load_document(path)

    def test_model_from_json_malformed(self):
        with pytest.raises(ParseError):
            model_from_json({"mode": "endpoint-secant", "segments": [{"a": 1}]})

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
        series = series_from_sweep_json(loaded["sweeps"][0])
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
            assert vp_back.sweep.fixed_values == vp.sweep.fixed_values
            assert vp_back.sweep.samples == vp.sweep.samples
            assert vp_back.sweep.series.points == vp.sweep.series.points
            assert vp_back.model.segments == vp.model.segments

    @pytest.mark.parametrize("doc", [
        {"target": {"kind": "synthetic", "name": "f", "variables": ["x"], "command": None},
         "sweeps": [], "models": {}},
        {"target": {"kind": "warp-drive", "name": "f", "variables": ["x"], "command": None},
         "sweeps": [], "models": {}},
        {"sweeps": [{"variable": "x"}]},
    ])
    def test_profile_from_document_rejects_malformed(self, doc):
        with pytest.raises(ParseError):
            profile_from_document(doc)


class TestFloatFidelity:
    def test_tricky_values_round_trip(self, tmp_path):
        values = [0.1, 1 / 3, math.pi, 1e-300, 1e300, 5e-324, 123456789.123456789]
        series = SampleSeries.from_arrays(list(range(1, len(values) + 1)), values)
        path = tmp_path / "f.csv"
        write_series(series, path)
        assert [p.y for p in read_series(path)] == values
