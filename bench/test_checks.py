"""Each of the benchmark's checks accepts the program's output and rejects
a deliberately wrong one built from public types.

    python3 -m pytest bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from qseg import (  # noqa: E402
    BlendMode,
    MeasureConfig,
    PiecewisePoly,
    QuadraticSegment,
    SamplePoint,
    TargetSpec,
    TimingSample,
    accuracy_vs,
    build_piecewise,
    build_runtime_profile,
    lagrange_quadratic,
    nodes_from_bounds,
    sample_function,
    secant_line,
)
from qseg import NAMED_REFERENCES, reportio  # noqa: E402

MODES = [m.value for m in BlendMode]


def paper_model(mode="endpoint-secant", fn="log2", bounds=(8, 16, 32, 64)):
    xs = nodes_from_bounds(bounds)
    ys = [checks.REFERENCES[fn](x) for x in xs]
    return build_piecewise(sample_function(NAMED_REFERENCES[fn].fn, xs), BlendMode(mode)), xs, ys


def blended_with_weight(xs, ys, weight):
    """Endpoint-secant segments whose chord weight is ``weight``, not 0.5."""
    segments = []
    for i in range(0, len(xs) - 2, 2):
        p = [SamplePoint(xs[i + k], ys[i + k]) for k in range(3)]
        a, b, c = lagrange_quadratic(*p)
        chord = secant_line(p[0], p[2])
        segments.append(QuadraticSegment(
            (1 - weight) * a, (1 - weight) * b + weight * chord.slope,
            (1 - weight) * c + weight * chord.intercept,
            xs[i], xs[i + 2], (xs[i], xs[i + 1], xs[i + 2]), BlendMode.ENDPOINT_SECANT))
    return PiecewisePoly(tuple(segments), BlendMode.ENDPOINT_SECANT)


def query(pw, local):
    xs = list(np.linspace(*local.domain, 41))
    intervals = [(local.domain[0], x) for x in xs[1:]]
    return (xs, [pw.evaluate(x) for x in xs], [pw.derivative_at(x) for x in xs],
            intervals, [pw.integral(a, b) for a, b in intervals])


@pytest.mark.parametrize("mode", MODES)
def test_model_checks_accept_the_program(mode):
    pw, xs, ys = paper_model(mode)
    checks.check_model_samples(pw, xs, ys)
    local = checks.LocalModel(xs, ys, mode)
    checks.check_queries(local, *query(pw, local))


def test_blend_weight_06_is_rejected():
    _, xs, ys = paper_model()
    wrong = blended_with_weight(xs, ys, 0.6)
    with pytest.raises(checks.CheckFailed, match="integral of segment"):
        checks.check_model_samples(wrong, xs, ys)
    local = checks.LocalModel(xs, ys, "endpoint-secant")
    with pytest.raises(checks.CheckFailed):
        checks.check_queries(local, *query(wrong, local))


def test_wrong_integral_query_is_rejected():
    pw, xs, ys = paper_model()
    local = checks.LocalModel(xs, ys, "endpoint-secant")
    qx, values, derivatives, intervals, integrals = query(pw, local)
    integrals[-1] *= 1 + 1e-7
    with pytest.raises(checks.CheckFailed, match="integral over"):
        checks.check_queries(local, qx, values, derivatives, intervals, integrals)


@pytest.mark.parametrize("fn", sorted(checks.REFERENCES))
@pytest.mark.parametrize("mode", MODES)
def test_accuracy_check(fn, mode):
    bounds = {"log2": (8, 16, 32, 64), "cospix": (0, 0.5, 1, 1.5),
              "exp2": (3, 4, 5, 6), "ratio": (2, 4, 8, 16)}[fn]
    pw, xs, ys = paper_model(mode, fn, bounds)
    reported = accuracy_vs(pw, NAMED_REFERENCES[fn]).aggregate_a
    reference = checks.reference_integral(fn, bounds[0], bounds[-1])
    checks.check_accuracy(reported, reference, xs, ys, mode)
    with pytest.raises(checks.CheckFailed, match="accuracy score"):
        checks.check_accuracy(reported + 1e-8, reference, xs, ys, mode)


@pytest.mark.parametrize("mode", MODES)
def test_plot_with_one_row_missing_is_rejected(tmp_path, mode):
    pw, xs, ys = paper_model(mode, "cospix", (0, 0.5, 1, 1.5))
    local = checks.LocalModel(xs, ys, mode)
    path = tmp_path / "plot.csv"
    reportio.emit_plot_data(pw, path, NAMED_REFERENCES["cospix"])
    checks.check_plot(path, local, with_reference=True)
    assert checks.count_rows(path) >= 3 * checks.PLOT_POINTS_PER_SEGMENT + 2
    lines = path.read_text().splitlines(keepends=True)
    for drop in (5, len(lines) - 1, next(i for i, l in enumerate(lines) if l.endswith(",1\n"))):
        path.write_text("".join(lines[:drop] + lines[drop + 1:]))
        with pytest.raises(checks.CheckFailed):
            checks.check_plot(path, local, with_reference=True)


def test_document_that_redumps_differently_is_rejected(tmp_path):
    pw, _, _ = paper_model()
    doc = reportio.approx_document(pw, {"variable": "x"})
    path, copy = tmp_path / "doc.json", tmp_path / "copy.json"
    reportio.dump_document(doc, path)
    checks.check_redump(path, copy, reportio.load_document, reportio.dump_document)
    path.write_text(json.dumps(doc, sort_keys=True, indent=4) + "\n")
    with pytest.raises(checks.CheckFailed, match="re-dumps"):
        checks.check_redump(path, copy, reportio.load_document, reportio.dump_document)


def test_changed_rerun_is_rejected():
    checks.check_same_digests({"a": "1", "b": "2"}, {"a": "1", "b": "2"})
    with pytest.raises(checks.CheckFailed, match="changed b"):
        checks.check_same_digests({"a": "1", "b": "2"}, {"a": "1", "b": "3"})


def synthetic_profile():
    """A two-variable profile whose times come from a formula, recorded
    sweep by sweep as the benchmark records them."""
    target = TargetSpec.for_callable(
        "synthetic", lambda x, b: 1e-3 * (math.log2(x + 1) + 0.01 * b), ["x", "b"])
    grids = {"x": [4, 16, 64, 256, 1024], "b": [2, 8, 32, 128, 512]}
    records = []
    with workloads.recording_sweeps(records):
        build_runtime_profile(target, grids, MeasureConfig())
    return [r[:3] for r in records], grids


def test_sweep_checks_accept_the_program():
    records, grids = synthetic_profile()
    phases = checks.check_sweeps(records, ("x", "b"), grids, {"x": 0, "b": 0})
    assert phases == ["coarse"] * 2 + ["refined"] * 2 + ["probe"] * 2


def test_sweep_with_one_wrong_argument_is_rejected():
    records, grids = synthetic_profile()
    variable, fixed, result = records[3]
    samples = list(result.samples)
    samples[2] = TimingSample({**samples[2].args, variable: samples[2].args[variable] + 1},
                              samples[2].cpu_seconds, samples[2].dispersion)
    records[3] = (variable, fixed, type(result)(result.swept_variable, result.fixed_values,
                                                tuple(samples), result.series))
    with pytest.raises(checks.CheckFailed, match="sample args"):
        checks.check_sweeps(records, ("x", "b"), grids, {"x": 0, "b": 0})


def test_probe_pinned_off_grid_end_is_rejected():
    records, grids = synthetic_profile()
    variable, fixed, result = records[4]
    records[4] = (variable, {**fixed, "b": fixed["b"] + 1}, result)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweeps(records, ("x", "b"), grids, {"x": 0, "b": 0})


def test_missing_sweep_is_rejected():
    records, grids = synthetic_profile()
    with pytest.raises(checks.CheckFailed, match="sweeps, expected 6"):
        checks.check_sweeps(records[:-1], ("x", "b"), grids, {"x": 0, "b": 0})


def test_target_run_count():
    records, grids = synthetic_profile()
    runs = 6 * 5 * (1 + 7)
    checks.check_target_runs(runs, records, grids, 1, 7)
    with pytest.raises(checks.CheckFailed, match="target runs"):
        checks.check_target_runs(runs + 1, records, grids, 1, 7)


@pytest.mark.parametrize("seconds", [0.0, -1e-3, math.nan, math.inf])
def test_bad_time_is_rejected(seconds):
    checks.check_times([TimingSample({"x": 1}, 1e-3, 0.0)])
    with pytest.raises(checks.CheckFailed):
        checks.check_times([TimingSample({"x": 1}, seconds, 0.0)])


def test_queries_that_change_between_passes_are_rejected():
    pw, xs, ys = paper_model()
    local = checks.LocalModel(xs, ys, "endpoint-secant")
    queries = workloads.Queries.draw(np.random.default_rng(0), batches=2)
    workloads.run_queries(pw, queries, local, workloads.Stats(), passes=2)

    class Drifting:
        """Evaluates like ``pw`` until its first integral pass is over."""

        def __init__(self):
            self.calls = 0

        def evaluate(self, x):
            return pw.evaluate(x) * (1.0 if self.calls < 2 * workloads.INTEGRAL_BATCH else 1 + 1e-15)

        def derivative_at(self, x):
            return pw.derivative_at(x)

        def integral(self, a, b):
            self.calls += 1
            return pw.integral(a, b)

    with pytest.raises(checks.CheckFailed, match="repeated queries"):
        workloads.run_queries(Drifting(), queries, local, workloads.Stats(), passes=2)
