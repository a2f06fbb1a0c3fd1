"""Tests for measurement, sweeps, interaction detection, and profiles.

Synthetic targets (function evaluation substituted for timing) carry the
behavioural checks; real builtin targets get smoke coverage here and full
classification coverage in the integration part of the acceptance suite.
"""

import itertools
import math
import sys
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
from qseg.interp import BlendMode, Concavity
from qseg.profiler import (
    MeasureConfig,
    TargetSpec,
    TimerResolutionWarning,
    build_runtime_profile,
    detect_interaction,
    geometric_grid,
    integer_grid,
    measure,
    profile_variable,
    sweep_single,
)

CFG = MeasureConfig(repetitions=3, seed=42)

LOG_GRID = [8, 16, 32, 64, 128, 256, 512]
LIN_GRID = [1, 8, 16, 32, 64, 128, 256]


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

    def test_aggregators_accepted(self):
        for agg in ("median", "mean", "min"):
            assert MeasureConfig(aggregator=agg).aggregator == agg


class TestMeasureSynthetic:
    def test_value_passthrough(self):
        target = synthetic("f", lambda x, b: 2.0 * x + b, ["x", "b"])
        sample = measure(target, {"x": 3, "b": 1}, CFG)
        assert sample.cpu_seconds == 7.0
        assert sample.dispersion == 0.0
        assert sample.clock == "synthetic"

    def test_missing_args(self):
        target = synthetic("f", lambda x, b: x + b, ["x", "b"])
        with pytest.raises(ValueError):
            measure(target, {"x": 3}, CFG)

    def test_evaluator_exception_wrapped(self):
        target = synthetic("f", lambda x: math.log2(x), ["x"])
        with pytest.raises(TargetFailure):
            measure(target, {"x": 0}, CFG)


class TestMeasureBuiltin:
    def test_unknown_builtin(self):
        with pytest.raises(TargetFailure):
            TargetSpec.for_builtin("quick-sort")

    def test_empty_input_near_clock_floor(self):
        target = TargetSpec.for_builtin("binary-search")
        sample = measure(target, {"x": 0}, CFG)
        assert sample.cpu_seconds >= 0.0
        assert sample.cpu_seconds < 0.2

    def test_repeatability_same_seed(self):
        target = TargetSpec.for_builtin("binary-search")
        a = measure(target, {"x": 1024}, CFG)
        b = measure(target, {"x": 1024}, CFG)
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
        # pin the tick so its probe does not use up the fake clock
        monkeypatch.setattr(profiler, "_effective_tick", 1e-6)
        ticks = iter([0.0, 0.0] * 100)
        monkeypatch.setattr(profiler, "_cpu_clock", lambda: next(ticks))
        target = TargetSpec.for_builtin("binary-search")
        with pytest.warns(TimerResolutionWarning):
            measure(target, {"x": 4}, CFG)

    @pytest.mark.parametrize("run_seconds, warns", [(0.05, True), (0.2, False)])
    def test_resolution_warning_uses_measured_tick(self, monkeypatch, run_seconds, warns):
        # with a 1ms step the threshold is 0.1s, far above the 1ns the
        # clock advertises
        monkeypatch.setattr(profiler, "_effective_tick", 1e-3)
        ticks = itertools.count(0.0, run_seconds)
        monkeypatch.setattr(profiler, "_cpu_clock", lambda: next(ticks))
        target = TargetSpec.for_builtin("merge-sort")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sample = measure(target, {"x": 4}, CFG)
        assert sample.cpu_seconds == pytest.approx(run_seconds)
        assert any(issubclass(w.category, TimerResolutionWarning) for w in caught) == warns


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
        sample = measure(target, {"x": 5}, CFG)
        assert sample.cpu_seconds >= 0.0
        assert sample.clock in ("process-cpu", "wall")

    def test_nonzero_exit(self, script):
        target = TargetSpec.for_command([sys.executable, str(script)], ["x"])
        with pytest.raises(TargetFailure):
            measure(target, {"x": -1}, CFG)

    def test_missing_binary(self):
        target = TargetSpec.for_command(["/nonexistent/binary"], ["x"])
        with pytest.raises(TargetFailure):
            measure(target, {"x": 1}, CFG)


class TestSweepSingle:
    def test_grid_validation(self):
        target = synthetic("f", lambda x: float(x), ["x"])
        with pytest.raises(GridTooSmall):
            sweep_single(target, "x", [1, 2], {}, CFG)
        with pytest.raises(GridTooSmall):
            sweep_single(target, "x", [1, 2, 3, 4], {}, CFG)
        with pytest.raises(GridTooSmall):
            sweep_single(target, "x", [1, 3, 2], {}, CFG)

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

    def test_interleaved_repetition_order(self, monkeypatch):
        calls = []
        target = TargetSpec.for_builtin("binary-search")
        monkeypatch.setattr(
            profiler, "_run_once",
            lambda t, args, cfg, rep: calls.append((rep, args["x"])) or 0.01,
        )
        sweep_single(target, "x", [1, 2, 3], {}, MeasureConfig(repetitions=3, seed=0))
        # round-robin: every grid point at rep r before any point at r+1
        reps = [r for r, _ in calls]
        assert reps == sorted(reps)
        assert [x for _, x in calls[:3]] == [1, 2, 3]


class TestProfileVariable:
    def test_constant_target_all_linear(self):
        target = synthetic("c", lambda x: 5.0, ["x"])
        vp = profile_variable(sweep_single(target, "x", LIN_GRID, {}, CFG),
                              BlendMode.ENDPOINT_SECANT)
        assert all(s.concavity() is Concavity.LINEAR for s in vp.model.segments)

    def test_linear_cost_slope_recovered(self):
        c = 3.5e-6
        target = synthetic("lin", lambda x: c * x, ["x"])
        vp = profile_variable(sweep_single(target, "x", LIN_GRID, {}, CFG),
                              BlendMode.ENDPOINT_SECANT)
        for seg in vp.model.segments:
            mid = 0.5 * (seg.lo + seg.hi)
            assert seg.derivative(mid) == pytest.approx(c, rel=0.1)

    def test_log_shape_three_downward_segments(self):
        target = synthetic("lg", lambda x: math.log2(x), ["x"], min_values={"x": 1})
        vp = profile_variable(sweep_single(target, "x", LOG_GRID, {}, CFG),
                              BlendMode.ENDPOINT_SECANT)
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


class TestBuildRuntimeProfile:
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
        assert profile.profiles[0].fixed_values["b"] > 0

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

    def test_orchestration_deterministic(self):
        target = synthetic("add", lambda x, b: math.log2(x) + 0.1 * b, ["x", "b"],
                           min_values={"x": 1})
        p1 = build_runtime_profile(target, {"x": LOG_GRID, "b": LIN_GRID}, CFG)
        p2 = build_runtime_profile(target, {"x": LOG_GRID, "b": LIN_GRID}, CFG)
        for vp1, vp2 in zip(p1.profiles, p2.profiles):
            assert vp1.fixed_values == vp2.fixed_values
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


    @pytest.mark.parametrize("build", [integer_grid, geometric_grid])
    @pytest.mark.parametrize("lo, hi, points", [
        (1, 100, 4), (1, 100, 1), (1, 100, -3),  # even, short, negative counts
        (100, 1, 5), (5, 5, 3), (1, 3, 7),  # decreasing, flat, collapsed by rounding
    ])
    def test_builders_reject_what_a_sweep_rejects(self, build, lo, hi, points):
        with pytest.raises(GridTooSmall):
            build(lo, hi, points)


class TestBatchScale:
    @pytest.mark.parametrize("tick, scale", [
        (15.6e-3, 1.0), (1e-3, 1.0), (16e-6, 1.0),  # coarse clocks keep full batches
        (4e-6, 0.25),
        (1.6e-6, 0.125), (0.9e-6, 0.125), (0.1e-6, 0.125),  # floored at 1/8
    ])
    def test_power_of_two_from_tick(self, monkeypatch, tick, scale):
        monkeypatch.setattr(profiler, "_effective_tick", tick)
        assert targets.batch_scale() == scale

    @pytest.mark.parametrize("tick, keys, sorts", [(1.6e-6, 12500, 2), (1e-3, 100000, 16)])
    def test_payloads_follow_scale(self, monkeypatch, tick, keys, sorts):
        monkeypatch.setattr(profiler, "_effective_tick", tick)
        rng = np.random.default_rng(0)
        _, search_keys = targets.BUILTIN_TARGETS["binary-search"].setup({"x": 64}, rng)
        _, sort_batch = targets.BUILTIN_TARGETS["merge-sort"].setup({"x": 64}, rng)
        assert len(search_keys) == keys
        assert sort_batch == sorts

    def test_one_batch_per_profile(self, monkeypatch):
        # measure the tick afresh; every run of the profile sees one scale
        monkeypatch.setattr(profiler, "_effective_tick", None)
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
        assert set(batches) == {round(100000 * targets.batch_scale())}


@pytest.mark.integration
class TestBuiltinTimingInvariants:
    def test_superlinear_workload_mostly_monotone(self):
        # mean times of a superlinear target rise along the grid in at
        # least 90% of adjacent pairs across 5 seeded runs
        target = TargetSpec.for_builtin("merge-sort")
        grid = target.default_grids()["x"]
        rising = total = 0
        for seed in range(5):
            cfg = MeasureConfig(repetitions=3, aggregator="mean", seed=seed)
            ys = sweep_single(target, "x", grid, {}, cfg).series.ys
            rising += sum(b >= a for a, b in zip(ys, ys[1:]))
            total += len(ys) - 1
        assert rising / total >= 0.9

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
                        sweep_single(target, spec.name, grids[spec.name], fixed, cfg),
                        BlendMode.ENDPOINT_SECANT,
                    )
                err = validate_profile(vp.model, vp.sweep.series)
                assert err < 0.1, (name, spec.name, err)
