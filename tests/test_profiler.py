"""Tests for measurement, sweeps, interaction detection, and profiles.

Synthetic targets (function evaluation substituted for timing) carry the
behavioural checks; real builtin targets get smoke coverage here and full
classification coverage in the integration part of the acceptance suite.
"""

import itertools
import math
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import qseg.profiler as profiler
import qseg.targets as targets
from qseg.errors import (
    GridTooSmall,
    InsufficientArity,
    TargetFailure,
)
from qseg.interp import Concavity, SampleSeries
from qseg.profiler import (
    MeasureConfig,
    SweepResult,
    TargetSpec,
    TimerResolutionWarning,
    TimingSample,
    build_runtime_profile,
    detect_interaction,
    integer_grid,
    label_pair,
    profile_variable,
    sweep_single,
)

CFG = MeasureConfig(repetitions=3, seed=42)

LOG_GRID = [8, 16, 32, 64, 128, 256, 512]
LIN_GRID = [1, 8, 16, 32, 64, 128, 256]

#: Every builtin's default grids, by value.
PINNED_DEFAULT_GRIDS = {
    "binary-search": {"x": [64, 203, 645, 2048, 6502, 20643, 65536]},
    "merge-sort": {"x": [64, 144, 323, 724, 1625, 3649, 8192]},
    "search-sort": {"x": [16, 64, 256, 1024, 4096, 16384, 65536],
                    "b": [4, 13, 40, 128, 406, 1290, 4096]},
    "custom": {"m": [2, 4, 6, 8, 10, 12, 14],
               "x": [16, 48, 80, 112, 144, 176, 208],
               "b": [4, 20, 102, 512, 2580, 13004, 65536]},
}

#: Synthetic targets of every pair kind, with their grids: (fn, variables,
#: validity floors, grids).
PAIR_TARGETS = {
    "add": (lambda x, b: math.log2(x) + 0.1 * b, ["x", "b"], {"x": 1},
            {"x": LOG_GRID, "b": LIN_GRID}),
    "mul": (lambda x, b: math.log2(x) * b, ["x", "b"], {"x": 1},
            {"x": LOG_GRID, "b": LIN_GRID}),
    "tri": (lambda m, x, b: 1e-3 * m * x + math.log2(max(b, 2)), ["m", "x", "b"], {"b": 2},
            {"m": [1, 2, 3, 4, 5, 6, 7], "x": LIN_GRID, "b": [2, 4, 8, 16, 32, 64, 128]}),
}


def measure_point(target, args, cfg):
    """One point through the profiler's measurement loop."""
    return profiler._measure_points(target, [args], cfg)[0]


def synthetic(name, fn, variables, **kw):
    return TargetSpec.for_callable(name, fn, variables, **kw)


class TestMeasureConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasureConfig(repetitions=2)
        with pytest.raises(ValueError):
            MeasureConfig(warmup_runs=0)
        with pytest.raises(ValueError):
            MeasureConfig(aggregator="mode")

    def test_mean_is_not_an_aggregator(self):
        with pytest.raises(ValueError, match="unknown aggregator 'mean'"):
            MeasureConfig(aggregator="mean")

    def test_aggregators_accepted(self):
        for agg in ("median", "min"):
            assert MeasureConfig(aggregator=agg).aggregator == agg


class TestMeasureSynthetic:
    @pytest.mark.parametrize("aggregator", ["median", "min"])
    def test_value_passthrough(self, aggregator):
        target = synthetic("f", lambda x, b: (x - b) / 20, ["x", "b"])
        cfg = MeasureConfig(repetitions=3, aggregator=aggregator)
        sample = measure_point(target, {"x": 3, "b": 1}, cfg)
        assert sample.cpu_seconds == 0.1
        assert sample.dispersion == 0.0
        assert sample.clock == "synthetic"

    def test_no_resolution_warning(self):
        target = synthetic("f", lambda x: 1e-9, ["x"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", TimerResolutionWarning)
            assert measure_point(target, {"x": 1}, CFG).cpu_seconds == 1e-9

    def test_missing_args(self):
        target = synthetic("f", lambda x, b: x + b, ["x", "b"])
        with pytest.raises(ValueError):
            measure_point(target, {"x": 3}, CFG)

    def test_evaluator_exception_wrapped(self):
        target = synthetic("f", lambda x: math.log2(x), ["x"])
        with pytest.raises(TargetFailure):
            measure_point(target, {"x": 0}, CFG)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_value_rejected(self, value):
        target = synthetic("f", lambda x: value, ["x"])
        with pytest.raises(TargetFailure):
            measure_point(target, {"x": 1}, CFG)
        with pytest.raises(TargetFailure):
            sweep_single(target, "x", [1, 2, 3], {}, CFG)


class TestMeasureBuiltin:
    def test_unknown_builtin(self):
        with pytest.raises(TargetFailure):
            TargetSpec.for_builtin("quick-sort")

    def test_empty_input_near_clock_floor(self):
        target = TargetSpec.for_builtin("binary-search")
        sample = measure_point(target, {"x": 0}, CFG)
        assert sample.cpu_seconds >= 0.0
        assert sample.cpu_seconds < 0.2

    def test_repeatability_same_seed(self):
        target = TargetSpec.for_builtin("binary-search")
        a = measure_point(target, {"x": 1024}, CFG)
        b = measure_point(target, {"x": 1024}, CFG)
        spread = max(a.dispersion, b.dispersion, 0.02)
        assert abs(a.cpu_seconds - b.cpu_seconds) <= 4 * spread

    def test_input_data_deterministic(self):
        target = TargetSpec.for_builtin("merge-sort")
        rng1 = np.random.default_rng(profiler._seed_material(CFG, {"x": 64}, 1))
        rng2 = np.random.default_rng(profiler._seed_material(CFG, {"x": 64}, 1))
        p1 = target.builtin.setup({"x": 64}, rng1)
        p2 = target.builtin.setup({"x": 64}, rng2)
        assert p1 == p2
        rng3 = np.random.default_rng(profiler._seed_material(CFG, {"x": 64}, 2))
        assert target.builtin.setup({"x": 64}, rng3) != p1

    def test_timer_resolution_warning(self, monkeypatch):
        # pin the tick: the fake clock reads every run as 0s
        monkeypatch.setattr(targets, "_effective_tick", 1e-6)
        ticks = iter([0.0, 0.0] * 100)
        monkeypatch.setattr(profiler, "_cpu_clock", lambda: next(ticks))
        target = TargetSpec.for_builtin("binary-search")
        with pytest.warns(TimerResolutionWarning):
            measure_point(target, {"x": 4}, CFG)

    @pytest.mark.parametrize("run_seconds, warns", [(0.05, True), (0.2, False)])
    def test_resolution_warning_uses_measured_tick(self, monkeypatch, run_seconds, warns):
        # with a 1ms step the threshold is 0.1s, far above the 1ns the
        # clock advertises
        monkeypatch.setattr(targets, "_effective_tick", 1e-3)
        ticks = itertools.count(0.0, run_seconds)
        monkeypatch.setattr(profiler, "_cpu_clock", lambda: next(ticks))
        target = TargetSpec.for_builtin("merge-sort")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sample = measure_point(target, {"x": 4}, CFG)
        assert sample.cpu_seconds == pytest.approx(run_seconds)
        assert any(issubclass(w.category, TimerResolutionWarning) for w in caught) == warns


    @pytest.mark.parametrize("broken", ["run", "setup"])
    def test_run_failure_is_target_failure(self, broken):
        def boom(*args):
            raise RuntimeError("boom")

        builtin = targets.BUILTIN_TARGETS["merge-sort"]
        parts = {"setup": builtin.setup, "run": builtin.run, broken: boom}
        target = TargetSpec(profiler.TargetKind.BUILTIN, "broken", builtin.args,
                            builtin=targets.BuiltinTarget("broken", builtin.args, **parts))
        with pytest.raises(TargetFailure, match="builtin broken raised: boom"):
            measure_point(target, {"x": 4}, CFG)


class TestMeasureExternal:
    @pytest.fixture()
    def script(self, tmp_path):
        path = tmp_path / "spin.py"
        path.write_text(
            "import sys\n"
            "args = dict(a.split('=') for a in sys.argv[2::2])\n"
            "n = int(args.get('x', 0))\n"
            "if n < 0: sys.exit(3)\n"
            "s = 0\n"
            "for i in range(n * 1000): s += i\n"
        )
        return path

    def test_success_and_clock_recorded(self, script):
        target = TargetSpec.for_command([sys.executable, str(script)], ["x"])
        sample = measure_point(target, {"x": 5}, CFG)
        assert sample.cpu_seconds >= 0.0
        assert sample.clock in ("process-cpu", "wall")

    def test_nonzero_exit(self, script):
        target = TargetSpec.for_command([sys.executable, str(script)], ["x"])
        with pytest.raises(TargetFailure):
            measure_point(target, {"x": -1}, CFG)

    def test_missing_binary(self):
        target = TargetSpec.for_command(["/nonexistent/binary"], ["x"])
        with pytest.raises(TargetFailure):
            measure_point(target, {"x": 1}, CFG)

    def test_stdout_is_not_kept(self, tmp_path):
        script = tmp_path / "loud.py"
        script.write_text("import sys\nsys.stdout.buffer.write(b'x' * 20_000_000)\n")
        target = TargetSpec.for_command([sys.executable, str(script)], ["x"])
        tracemalloc.start()
        try:
            measure_point(target, {"x": 1}, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_stderr_is_reported(self, tmp_path):
        script = tmp_path / "fail.py"
        script.write_text("import sys\nprint('out')\nsys.exit('bad input')\n")
        target = TargetSpec.for_command([sys.executable, str(script)], ["x"])
        with pytest.raises(TargetFailure, match="exited 1: bad input$"):
            measure_point(target, {"x": 1}, CFG)

    def test_empty_stderr_leaves_no_separator(self):
        target = TargetSpec.for_command([sys.executable, "-c", "import sys; sys.exit(3)"], ["x"])
        with pytest.raises(TargetFailure, match="exited 3$"):
            measure_point(target, {"x": 1}, CFG)

    def test_other_exception_is_target_failure(self):
        # subprocess.run raises ValueError, not OSError, for a NUL in argv
        target = TargetSpec.for_command(["pro\0g"], ["x"])
        with pytest.raises(TargetFailure, match="external pro\0g raised: embedded null byte"):
            measure_point(target, {"x": 1}, CFG)


class TestSweepSingle:
    def test_grid_validation(self):
        target = synthetic("f", lambda x: float(x), ["x"])
        with pytest.raises(GridTooSmall):
            sweep_single(target, "x", [1, 2], {}, CFG)
        with pytest.raises(GridTooSmall):
            sweep_single(target, "x", [1, 2, 3, 4], {}, CFG)
        with pytest.raises(GridTooSmall):
            sweep_single(target, "x", [1, 3, 2], {}, CFG)

    def test_message_names_the_first_pair_that_does_not_increase(self):
        target = synthetic("f", lambda x: float(x), ["x"])
        with pytest.raises(GridTooSmall) as raised:
            sweep_single(target, "x", [1, 3, 2, *range(4, 1000)], {}, CFG)
        assert str(raised.value) == "grid for x is not strictly increasing: 2 follows 3"

    def test_missing_fixed_value(self):
        target = synthetic("f", lambda x, b: float(x + b), ["x", "b"])
        with pytest.raises(ValueError):
            sweep_single(target, "x", [1, 2, 3], {}, CFG)

    def test_series_and_metadata(self):
        target = synthetic("f", lambda x, b: float(2 * x + b), ["x", "b"])
        sweep = sweep_single(target, "x", [1, 2, 3], {"b": 4}, CFG)
        assert sweep.swept_variable == "x"
        assert sweep.fixed_values == {"b": 4}
        np.testing.assert_allclose(sweep.series.xs, [1, 2, 3])
        np.testing.assert_allclose(sweep.series.ys, [6, 8, 10])

    def test_pin_of_the_swept_variable_is_dropped(self):
        target = synthetic("f", lambda x, b: float(2 * x + b), ["x", "b"])
        sweep = sweep_single(target, "x", [1, 2, 3], {"x": 9, "b": 4}, CFG)
        assert sweep.fixed_values == {"b": 4}
        assert [s.args for s in sweep.samples] == [{"b": 4, "x": x} for x in (1, 2, 3)]
        np.testing.assert_allclose(sweep.series.ys, [6, 8, 10])

    def test_interleaved_repetition_order(self, monkeypatch):
        calls = []
        target = TargetSpec.for_builtin("binary-search")
        monkeypatch.setattr(
            profiler, "_runner",
            lambda t, cfg: ("process-cpu",
                            lambda args, rep: calls.append((rep, args["x"])) or (0.01, 1.0)),
        )
        cfg = MeasureConfig(repetitions=3, seed=0)
        sweep_single(target, "x", [1, 2, 3], {}, cfg)
        # round-robin: every grid point at rep r before any point at r+1
        reps = [r for r, _ in calls]
        assert reps == sorted(reps)
        assert [x for _, x in calls[:3]] == [1, 2, 3]

        calls.clear()
        measure_point(target, {"x": 5}, cfg)
        assert calls == [(rep, 5) for rep in range(cfg.warmup_runs + cfg.repetitions)]

    def test_one_runner_per_measurement(self, monkeypatch):
        chosen = []
        runner = profiler._runner
        monkeypatch.setattr(profiler, "_runner",
                            lambda t, cfg: chosen.append(t.name) or runner(t, cfg))
        target = synthetic("f", lambda x: float(x), ["x"])
        sweep_single(target, "x", [1, 2, 3], {}, CFG)
        measure_point(target, {"x": 5}, CFG)
        assert chosen == ["f", "f"]

    def test_synthetic_sweep_runs_every_repetition(self):
        # synthetic targets go through the same loop as timed ones
        calls = []
        target = synthetic("f", lambda x: calls.append(x) or float(x), ["x"])
        cfg = MeasureConfig(warmup_runs=2, repetitions=3)
        sweep_single(target, "x", [1, 2, 3], {}, cfg)
        assert calls == [1, 2, 3] * (cfg.warmup_runs + cfg.repetitions)


class TestProfileVariable:
    def test_constant_target_all_linear(self):
        target = synthetic("c", lambda x: 5.0, ["x"])
        vp = profile_variable(sweep_single(target, "x", LIN_GRID, {}, CFG))
        assert all(s.concavity() is Concavity.LINEAR for s in vp.model.segments)

    def test_linear_cost_slope_recovered(self):
        c = 3.5e-6
        target = synthetic("lin", lambda x: c * x, ["x"])
        vp = profile_variable(sweep_single(target, "x", LIN_GRID, {}, CFG))
        for seg in vp.model.segments:
            mid = 0.5 * (seg.lo + seg.hi)
            assert seg.derivative(mid) == pytest.approx(c, rel=0.1)

    def test_log_shape_three_downward_segments(self):
        target = synthetic("lg", lambda x: math.log2(x), ["x"], min_values={"x": 1})
        vp = profile_variable(sweep_single(target, "x", LOG_GRID, {}, CFG))
        assert len(vp.model.segments) == 3
        assert all(s.concavity() is Concavity.DOWNWARD for s in vp.model.segments)


class TestDetectInteraction:
    def test_additive_translation(self):
        target = synthetic("add", lambda x, b: math.log2(x) + b, ["x", "b"],
                           min_values={"x": 1})
        label = detect_interaction(target, "x", "b", LOG_GRID, [1, 5], {}, CFG)
        assert label.label == "additive"
        assert label.evidence <= label.threshold

    def test_composite_reshaping(self):
        target = synthetic("mul", lambda x, b: math.log2(x) / b, ["x", "b"],
                           min_values={"x": 1, "b": 1})
        label = detect_interaction(target, "x", "b", LOG_GRID, [2, 4], {}, CFG)
        assert label.label == "composite"
        assert label.evidence > label.threshold

    def test_single_arity_rejected(self):
        target = synthetic("one", lambda x: float(x), ["x"])
        with pytest.raises(InsufficientArity):
            detect_interaction(target, "x", "x", LOG_GRID, [1, 2], {}, CFG)

    def test_needs_two_probes(self):
        target = synthetic("add", lambda x, b: float(x + b), ["x", "b"])
        with pytest.raises(ValueError):
            detect_interaction(target, "x", "b", LOG_GRID, [3, 3], {}, CFG)

    @pytest.mark.parametrize("var_a, var_b", [("x", "zz"), ("zz", "b"), ("x", "x")])
    def test_needs_two_target_variables(self, var_a, var_b):
        target = synthetic("mul", lambda x, b: math.log2(x) * b, ["x", "b"],
                           min_values={"x": 1})
        with pytest.raises(ValueError, match="two distinct variables"):
            detect_interaction(target, var_a, var_b, LOG_GRID, [1, 5], {"b": 1}, CFG)


def made_sweep(ys, clock, dispersion=0.0, xs=None, swept="x", fixed="b"):
    xs = list(range(1, len(ys) + 1)) if xs is None else xs
    samples = tuple(TimingSample({fixed: 1, swept: x}, y, dispersion, clock) for x, y in zip(xs, ys))
    return SweepResult(swept, {fixed: 1}, samples, SampleSeries.from_arrays(xs, ys))


class TestLabelPair:
    @pytest.mark.parametrize("name", sorted(PAIR_TARGETS))
    def test_relabels_sweeps_taken_apart_from_the_profile(self, name):
        fn, variables, floors, grids = PAIR_TARGETS[name]
        target = synthetic(name, fn, variables, min_values=floors)
        profile = build_runtime_profile(target, grids, CFG)
        pins = {}
        for vp in profile.profiles:
            pins.update(vp.sweep.fixed_values)
        tick = profiler.effective_clock_tick()
        relabelled = []
        for var_a, var_b in itertools.combinations(variables, 2):
            rest = {n: v for n, v in pins.items() if n not in (var_a, var_b)}
            sweeps = [sweep_single(target, var_a, grids[var_a], {**rest, var_b: end}, CFG)
                      for end in (grids[var_b][0], grids[var_b][-1])]
            relabelled.append(label_pair((var_a, var_b), sweeps, tick))
        # dataclass equality: pair, label, evidence and threshold bit for bit
        assert tuple(relabelled) == profile.interactions
        assert [l.label for l in relabelled] == {
            "add": ["additive"], "mul": ["composite"],
            "tri": ["composite", "additive", "additive"]}[name]

    def test_uses_the_given_tick(self, monkeypatch):
        def no_clock():
            raise AssertionError("label_pair read the clock")

        monkeypatch.setattr(profiler, "effective_clock_tick", no_clock)
        monkeypatch.setattr(targets, "effective_clock_tick", no_clock)
        # difference curve [1.0, 1.0, 1.2]: spread about 0.2; 5% of the
        # widest range is about 0.02
        lower, upper = [1.0, 1.1, 1.2], [2.0, 2.1, 2.4]
        clocked = [made_sweep(lower, "process-cpu"), made_sweep(upper, "process-cpu")]
        coarse = label_pair(("x", "b"), clocked, 0.1)
        assert (coarse.label, coarse.threshold) == ("additive", 3.0 * 0.1)
        fine = label_pair(("x", "b"), clocked, 0.001)
        assert fine.label == "composite"
        assert fine.evidence == coarse.evidence
        assert fine.threshold == pytest.approx(0.05 * 0.4)
        # synthetic samples have no clock step to allow for
        synthetic_sweeps = [made_sweep(lower, "synthetic"), made_sweep(upper, "synthetic")]
        assert label_pair(("x", "b"), synthetic_sweeps, 0.1).threshold == fine.threshold

    def test_needs_a_sweep(self):
        with pytest.raises(ValueError, match=r"at least one sweep to label \('x', 'b'\)"):
            label_pair(("x", "b"), [], 0.0)

    def test_one_sweep_is_additive(self):
        label = label_pair(("x", "b"), [made_sweep([1.0, 5.0, 2.0], "synthetic")], 0.0)
        assert (label.label, label.evidence) == ("additive", 0.0)

    @pytest.mark.parametrize("other", [
        # x + b over x = 10..50: read as composite (evidence 36, threshold 2)
        made_sweep([12.0, 22.0, 32.0, 42.0, 52.0], "synthetic", xs=[10, 20, 30, 40, 50]),
        # 3 points against 5: numpy's broadcast error
        made_sweep([2.0, 3.0, 4.0], "synthetic"),
        # a sweep of b at x = 1: read as additive
        made_sweep([2.0, 3.0, 4.0, 5.0, 6.0], "synthetic", swept="b", fixed="x"),
    ], ids=["other-grid", "other-length", "other-variable"])
    def test_sweeps_of_one_variable_over_one_grid(self, other):
        # x + b over x = 1..5 at b = 1
        first = made_sweep([2.0, 3.0, 4.0, 5.0, 6.0], "synthetic")
        with pytest.raises(ValueError, match="sweep 'x' over one grid"):
            label_pair(("x", "b"), [first, other], 0.0)

    def test_pooled_dispersion_term(self):
        sweeps = [made_sweep([1.0, 1.1, 1.2], "synthetic", 0.1),
                  made_sweep([2.0, 2.1, 2.4], "synthetic", 0.1)]
        label = label_pair(("x", "b"), sweeps, 0.0)
        assert (label.label, label.threshold) == ("additive", pytest.approx(3.0 * 0.1))


class TestBuildRuntimeProfile:
    @pytest.mark.parametrize("make", [
        lambda: synthetic("dup", lambda x: 1.0, ["x", "x"]),
        lambda: TargetSpec.for_command(["prog"], ["x", "b", "x"]),
    ], ids=["callable", "command"])
    def test_repeated_variable_name_rejected(self, make):
        with pytest.raises(ValueError, match="repeats a variable name"):
            make()

    def test_no_variables_rejected(self):
        with pytest.raises(InsufficientArity, match="none has no variables"):
            build_runtime_profile(synthetic("none", lambda: 1.0, []), {}, CFG)

    def test_arity_one(self):
        target = synthetic("lg", lambda x: math.log2(x), ["x"], min_values={"x": 1})
        profile = build_runtime_profile(target, {"x": LOG_GRID}, CFG)
        assert len(profile.profiles) == 1
        assert profile.interactions == ()

    def test_arity_two_additive(self):
        target = synthetic("add", lambda x, b: math.log2(x) + 0.1 * b, ["x", "b"],
                           min_values={"x": 1})
        profile = build_runtime_profile(target, {"x": LOG_GRID, "b": LIN_GRID}, CFG)
        assert [vp.variable for vp in profile.profiles] == ["x", "b"]
        assert len(profile.interactions) == 1
        assert profile.interactions[0].label == "additive"
        # second pass pins the partner at its representative input, not 0
        assert profile.profiles[0].sweep.fixed_values["b"] > 0

    def test_arity_three_pair_count(self):
        target = synthetic(
            "tri", lambda m, x, b: 1e-3 * m * x + math.log2(max(b, 2)), ["m", "x", "b"],
            min_values={"b": 2},
        )
        grids = {"m": [1, 2, 3, 4, 5, 6, 7], "x": LIN_GRID, "b": [2, 4, 8, 16, 32, 64, 128]}
        profile = build_runtime_profile(target, grids, CFG)
        assert len(profile.profiles) == 3
        assert len(profile.interactions) == 3
        assert {tuple(l.pair) for l in profile.interactions} == {("m", "x"), ("m", "b"), ("x", "b")}

    def test_missing_grid(self):
        target = synthetic("add", lambda x, b: float(x + b), ["x", "b"])
        with pytest.raises(GridTooSmall):
            build_runtime_profile(target, {"x": LIN_GRID}, CFG)

    @pytest.mark.parametrize("grid_b", [[], [1, 2]])
    def test_short_grid_rejected_before_measuring(self, grid_b):
        calls = []
        target = synthetic("add", lambda x, b: calls.append(x) or float(x + b), ["x", "b"])
        with pytest.raises(GridTooSmall, match="grid for b"):
            build_runtime_profile(target, {"x": LIN_GRID, "b": grid_b}, CFG)
        assert calls == []

    def test_grid_below_validity_floor(self):
        target = synthetic("lg", lambda x: math.log2(x), ["x"], min_values={"x": 1})
        with pytest.raises(GridTooSmall):
            build_runtime_profile(target, {"x": [0, 1, 2]}, CFG)

    def test_first_pass_zero_fallback(self):
        # b=0 is valid and used in the coarse pass; x has a floor of 1 so
        # the x constant falls back to the smallest grid value
        seen = []

        def fn(x, b):
            seen.append((x, b))
            return math.log2(x) + b

        target = synthetic("add", fn, ["x", "b"], min_values={"x": 1})
        build_runtime_profile(target, {"x": LOG_GRID, "b": LIN_GRID}, CFG)
        assert any(b == 0 for _, b in seen)
        assert all(x >= 1 for x, _ in seen)

    def test_sweep_plan(self, monkeypatch):
        # coarse pins at 0 (b's floor is 2), refined pins at the coarse
        # models' representative inputs, then per pair a probe sweep at each
        # end of the second variable's grid
        calls = []
        sweep = profiler.sweep_single

        def record(target, variable, grid, fixed, cfg):
            result = sweep(target, variable, grid, fixed, cfg)
            calls.append((variable, result.fixed_values))
            return result

        monkeypatch.setattr(profiler, "sweep_single", record)
        fn, variables, floors, grids = PAIR_TARGETS["tri"]
        build_runtime_profile(synthetic("tri", fn, variables, min_values=floors), grids, CFG)
        assert calls == [
            ("m", {"x": 0, "b": 2}), ("x", {"m": 0, "b": 2}), ("b", {"m": 0, "x": 0}),
            ("m", {"x": 40, "b": 19}), ("x", {"m": 4, "b": 19}), ("b", {"m": 4, "x": 40}),
            ("m", {"b": 19, "x": 1}), ("m", {"b": 19, "x": 256}),
            ("m", {"x": 40, "b": 2}), ("m", {"x": 40, "b": 128}),
            ("x", {"m": 4, "b": 2}), ("x", {"m": 4, "b": 128}),
        ]

    def test_orchestration_deterministic(self):
        target = synthetic("add", lambda x, b: math.log2(x) + 0.1 * b, ["x", "b"],
                           min_values={"x": 1})
        p1 = build_runtime_profile(target, {"x": LOG_GRID, "b": LIN_GRID}, CFG)
        p2 = build_runtime_profile(target, {"x": LOG_GRID, "b": LIN_GRID}, CFG)
        for vp1, vp2 in zip(p1.profiles, p2.profiles):
            assert vp1.sweep.fixed_values == vp2.sweep.fixed_values
            np.testing.assert_array_equal(vp1.sweep.series.xs, vp2.sweep.series.xs)


class TestDefaultGrids:
    def test_seven_points_per_variable(self):
        for name in ("binary-search", "merge-sort", "search-sort", "custom"):
            target = TargetSpec.for_builtin(name)
            grids = target.default_grids()
            assert set(grids) == set(target.variable_names)
            for spec in target.variables:
                grid = grids[spec.name]
                assert len(grid) == 7
                assert all(b > a for a, b in zip(grid, grid[1:]))
                assert grid[0] >= spec.min_value


    @pytest.mark.parametrize("name, grids", PINNED_DEFAULT_GRIDS.items(),
                             ids=list(PINNED_DEFAULT_GRIDS))
    def test_pinned_values(self, name, grids):
        # criterion 8 and the benchmark measure at these grids
        assert TargetSpec.for_builtin(name).default_grids() == grids

    @pytest.mark.parametrize("spacing", ["even", "geometric"],
                             ids=["integer_grid", "geometric_grid"])
    @pytest.mark.parametrize("lo, hi, points", [
        (1, 100, 4), (1, 100, 1), (1, 100, -3),  # even, short, negative counts
        (100, 1, 5), (5, 5, 3), (1, 3, 7),  # decreasing, flat, collapsed by rounding
        (1, 5, 1_000_000_000_001),  # rejected before 8 TB of grid is allocated
    ])
    def test_builders_reject_what_a_sweep_rejects(self, spacing, lo, hi, points):
        with pytest.raises(GridTooSmall):
            integer_grid(lo, hi, points, spacing)

    @pytest.mark.parametrize("spacing, lo, message", [
        ("even", 0, "grid 0:10:99 has more points than integers in 0..10"),
        ("geometric", 1, "geometric grid 1:10:99 has more points than integers in 1..10"),
        ("geometric", 0, "geometric grids need a positive lower bound"),
    ])
    def test_builder_messages(self, spacing, lo, message):
        with pytest.raises(GridTooSmall) as exc:
            integer_grid(lo, 10, 99, spacing)
        assert str(exc.value) == message


class TestBuiltinTargets:
    """Each builtin's setup and run, untimed."""

    @pytest.mark.parametrize("name", sorted(targets.BUILTIN_TARGETS))
    def test_seeded_setup_then_one_run(self, monkeypatch, name):
        monkeypatch.setattr(targets, "_effective_tick", 1e-6)  # 1/8 batches
        builtin = targets.BUILTIN_TARGETS[name]
        args = {n: grid[0] for n, grid in PINNED_DEFAULT_GRIDS[name].items()}
        payloads = [builtin.setup(args, np.random.default_rng(
            profiler._seed_material(CFG, args, 0))) for _ in range(2)]
        assert payloads[0] == payloads[1]
        assert isinstance(builtin.run(payloads[0]), (int, float))

    @pytest.mark.parametrize("n, depth", [(1, 0), (2, 1), (4, 2), (16, 3), (65536, 5)])
    def test_sqrt_depth(self, n, depth):
        assert targets.sqrt_depth(n) == depth


class TestBatchScale:
    @pytest.mark.parametrize("tick, scale", [
        (15.6e-3, 1.0), (1e-3, 1.0), (16e-6, 1.0),  # coarse clocks keep full batches
        (15.9e-6, 0.125), (4e-6, 0.125), (3.1e-6, 0.125), (2.1e-6, 0.125),  # finer ones: 1/8
        (1.6e-6, 0.125), (0.9e-6, 0.125), (0.1e-6, 0.125),
    ])
    def test_power_of_two_from_tick(self, monkeypatch, tick, scale):
        monkeypatch.setattr(targets, "_effective_tick", tick)
        assert targets.batch_scale() == scale

    @staticmethod
    def _script_clock(monkeypatch, process_time, resolution=1e-9):
        # each process_time read advances a fake perf_counter by 100us
        state = {"t": 0.0}

        def read_process_time():
            state["t"] += 1e-4
            return process_time(state["t"])

        monkeypatch.setattr(targets, "time", types.SimpleNamespace(
            process_time=read_process_time,
            perf_counter=lambda: state["t"],
            get_clock_info=lambda name: types.SimpleNamespace(resolution=resolution)))
        monkeypatch.setattr(targets, "_effective_tick", None)

    def test_tick_of_a_coarse_clock(self, monkeypatch):
        self._script_clock(monkeypatch, lambda t: math.floor(t / 15.6e-3) * 15.6e-3)
        assert targets.effective_clock_tick() == pytest.approx(15.6e-3)
        assert targets.batch_scale() == 1.0

    def test_tick_is_the_smallest_step(self, monkeypatch):
        # three microsecond steps, all above 2us: still a fine clock
        reads = iter([0.0, 3.1e-6, 5.3e-6, 7.4e-6])
        self._script_clock(monkeypatch, lambda t: next(reads))
        assert targets.effective_clock_tick() == pytest.approx(2.1e-6)
        assert targets.batch_scale() == targets.MIN_BATCH_SCALE

    def test_tick_of_a_clock_that_never_steps(self, monkeypatch):
        self._script_clock(monkeypatch, lambda t: 1.0, resolution=4e-3)
        assert targets.effective_clock_tick() == 4e-3

    def test_profiler_reads_the_same_step(self, monkeypatch):
        assert profiler.effective_clock_tick is targets.effective_clock_tick
        monkeypatch.setattr(targets, "_effective_tick", 2e-3)
        assert profiler.effective_clock_tick() == 2e-3

    @pytest.mark.parametrize("tick, keys, sorts", [(1.6e-6, 3125, 36), (1e-3, 25000, 16)])
    def test_payloads_follow_scale(self, monkeypatch, tick, keys, sorts):
        monkeypatch.setattr(targets, "_effective_tick", tick)
        rng = np.random.default_rng(0)
        _, search_keys = targets.BUILTIN_TARGETS["binary-search"].setup({"x": 64}, rng)
        _, sort_batch, _ = targets.BUILTIN_TARGETS["merge-sort"].setup({"x": 64}, rng)
        assert len(search_keys) == keys
        assert sort_batch == sorts

    @pytest.mark.parametrize("tick, sorts", [
        # fine clock: at least two 724-element sorts of work; x = 0 and 1
        # count as work 1
        (1.6e-6, [13756, 13756, 36, 14, 6, 2, 1, 1, 1]),
        (1e-3, [16] * 9),  # coarse clock: the full batch at every x
    ])
    def test_merge_sort_runs_sized_by_work(self, monkeypatch, tick, sorts):
        monkeypatch.setattr(targets, "_effective_tick", tick)
        nominal = round(16 * targets.batch_scale())
        builtin = targets.BUILTIN_TARGETS["merge-sort"]
        for x, count in zip([0, 1, *PINNED_DEFAULT_GRIDS["merge-sort"]["x"]], sorts):
            data, made, factor = builtin.setup({"x": x}, np.random.default_rng(0))
            assert (len(data), made, factor) == (x, count, nominal / count)
            assert builtin.run((data, made, factor)) == factor

    @pytest.mark.parametrize("tick", [1.6e-6, 1e-3])
    def test_other_payloads_keep_their_batches(self, monkeypatch, tick):
        monkeypatch.setattr(targets, "_effective_tick", tick)
        scale = targets.batch_scale()

        def batch(full):
            return max(1, round(full * scale))

        expected = {
            "binary-search": lambda p: (len(p[0]), len(p[1])) == (64, batch(25000)),
            "search-sort": lambda p: (len(p[0]), len(p[1]), len(p[2]), p[3])
                                     == (16, 4, batch(67000), batch(15000)),
            "custom": lambda p: (len(p[0]),) + p[1:] == (16, 2, 4, batch(400), batch(100000)),
        }
        for name, matches in expected.items():
            builtin = targets.BUILTIN_TARGETS[name]
            args = {n: grid[0] for n, grid in PINNED_DEFAULT_GRIDS[name].items()}
            payload = builtin.setup(args, np.random.default_rng(0))
            assert matches(payload), name
            assert builtin.run(payload) == 1.0

    @pytest.mark.parametrize("tick, x, reported", [
        (1.6e-6, 64, 0.2 * 2 / 36), (1.6e-6, 724, 0.2), (1.6e-6, 8192, 0.4),
        (1e-3, 64, 0.2), (1e-3, 8192, 0.2),
    ])
    def test_merge_sort_reports_its_nominal_batch(self, monkeypatch, tick, x, reported):
        # every run reads 0.2s on the fake clock: elapsed x nominal / sorts
        monkeypatch.setattr(targets, "_effective_tick", tick)
        ticks = itertools.count(0.0, 0.2)
        monkeypatch.setattr(profiler, "_cpu_clock", lambda: next(ticks))
        sample = measure_point(TargetSpec.for_builtin("merge-sort"), {"x": x}, CFG)
        assert sample.cpu_seconds == pytest.approx(reported)

    @pytest.mark.parametrize("x, run_seconds, warns", [
        (8192, 1e-4, True),  # scaled to 2e-4, over the 1.6e-4 margin, but raw under it
        (64, 2e-4, False),  # scaled to 1.1e-5, under the margin, but raw over it
    ])
    def test_resolution_warning_reads_raw_runs(self, monkeypatch, x, run_seconds, warns):
        monkeypatch.setattr(targets, "_effective_tick", 1.6e-6)
        ticks = itertools.count(0.0, run_seconds)
        monkeypatch.setattr(profiler, "_cpu_clock", lambda: next(ticks))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            measure_point(TargetSpec.for_builtin("merge-sort"), {"x": x}, CFG)
        assert any(issubclass(w.category, TimerResolutionWarning) for w in caught) == warns

    def test_one_batch_per_profile(self, monkeypatch):
        # measure the tick afresh; every run of the profile sees one scale
        monkeypatch.setattr(targets, "_effective_tick", None)
        builtin = targets.BUILTIN_TARGETS["binary-search"]
        batches = []

        def setup(args, rng):
            payload = builtin.setup(args, rng)
            batches.append(len(payload[1]))
            return payload

        target = TargetSpec(profiler.TargetKind.BUILTIN, builtin.name, builtin.args,
                            builtin=targets.BuiltinTarget(builtin.name, builtin.args,
                                                          setup, builtin.run))
        build_runtime_profile(target, {"x": [64, 128, 256]}, CFG)
        assert len(batches) == 3 * (CFG.warmup_runs + CFG.repetitions)
        assert set(batches) == {round(25000 * targets.batch_scale())}


@pytest.mark.integration
class TestBuiltinTimingInvariants:
    def test_superlinear_workload_mostly_monotone(self):
        # median times of a superlinear target rise along the grid in at
        # least 90% of adjacent pairs across 5 seeded runs
        target = TargetSpec.for_builtin("merge-sort")
        grid = target.default_grids()["x"]
        rising = total = 0
        for seed in range(5):
            cfg = MeasureConfig(repetitions=3, aggregator="median", seed=seed)
            ys = sweep_single(target, "x", grid, {}, cfg).series.ys
            rising += sum(b >= a for a, b in zip(ys, ys[1:]))
            total += len(ys) - 1
        assert rising / total >= 0.9

    def test_binary_search_cheapest_run_clears_resolution_margin(self):
        # x = 64, the cheapest default-grid point, stays well clear of the
        # resolution warning at this process's batch scale.  Batches are
        # sized for fine clocks; a coarse clock keeps the full batch and
        # reads the cheapest points in fewer steps
        if targets.batch_scale() == 1.0:
            pytest.skip("a coarse clock keeps the full batch")
        target = TargetSpec.for_builtin("binary-search")
        with warnings.catch_warnings():
            warnings.simplefilter("error", TimerResolutionWarning)
            sample = measure_point(target, {"x": 64}, MeasureConfig(repetitions=5))
        floor = 4 * profiler.RESOLUTION_MARGIN * profiler.effective_clock_tick()
        assert sample.cpu_seconds >= floor

    def test_merge_sort_cheapest_run_clears_resolution_margin(self):
        # x = 64 makes enough sorts on a fine clock that its raw run, not
        # only the time it reports, stays well clear of the warning
        if targets.batch_scale() == 1.0:
            pytest.skip("a coarse clock keeps the full batch")
        target = TargetSpec.for_builtin("merge-sort")
        with warnings.catch_warnings():
            warnings.simplefilter("error", TimerResolutionWarning)
            sample = measure_point(target, {"x": 64}, MeasureConfig(repetitions=5))
        _, _, factor = target.builtin.setup({"x": 64}, np.random.default_rng(0))
        floor = 4 * profiler.RESOLUTION_MARGIN * profiler.effective_clock_tick()
        assert sample.cpu_seconds / factor >= floor

    def test_validate_profile_under_ten_percent_all_builtins(self):
        import warnings as _warnings

        from qseg.accuracy import validate_profile

        for name in ("binary-search", "merge-sort", "search-sort", "custom"):
            target = TargetSpec.for_builtin(name)
            grids = target.default_grids()
            cfg = MeasureConfig(repetitions=3, aggregator="min", seed=0)
            for spec in target.variables:
                fixed = {
                    o.name: (0 if o.min_value <= 0 else grids[o.name][0])
                    for o in target.variables if o.name != spec.name
                }
                with _warnings.catch_warnings():
                    _warnings.simplefilter("ignore", TimerResolutionWarning)
                    vp = profile_variable(
                        sweep_single(target, spec.name, grids[spec.name], fixed, cfg))
                err = validate_profile(vp.model, vp.sweep.series)
                assert err < 0.1, (name, spec.name, err)
