"""Tests for candidate-class fitting, ranking, and profile summaries."""

import math

import numpy as np
import pytest

from qseg.classify import (
    CANDIDATES_BY_NAME,
    CandidateClass,
    DEFAULT_CANDIDATES,
    classify,
    classify_profile,
    compose_summary,
    fit_class,
)
from qseg.errors import DegenerateDesign
from qseg.interp import SampleSeries
from qseg.profiler import MeasureConfig, TargetSpec, build_runtime_profile

GRID = [16, 64, 256, 1024, 4096, 16384, 65536]


def series_for(fn, grid=GRID):
    return SampleSeries.from_arrays(grid, [fn(x) for x in grid])


class TestFitClass:
    def test_named_log_parameters(self):
        series = series_for(lambda x: math.log2(x) / 11 + 0.22,
                            [45, 102, 158, 215, 272, 328, 385])
        fit = fit_class(series, CANDIDATES_BY_NAME["log"])
        assert fit.k == pytest.approx(1 / 11, rel=1e-9)
        assert fit.c == pytest.approx(0.22, rel=1e-9)
        assert fit.nrmse < 1e-9

    def test_const_reproduces_constant(self):
        fit = fit_class(series_for(lambda x: 3.0), CANDIDATES_BY_NAME["const"])
        assert fit.k == 0.0
        assert fit.c == pytest.approx(3.0)
        assert fit.rmse == pytest.approx(0.0, abs=1e-15)

    def test_wrong_family_much_worse(self):
        series = series_for(lambda x: float(x) ** 2, [2, 4, 6, 8, 10, 12, 14])
        log_fit = fit_class(series, CANDIDATES_BY_NAME["log"])
        quad_fit = fit_class(series, CANDIDATES_BY_NAME["quadratic"])
        assert quad_fit.nrmse < 1e-9
        assert log_fit.nrmse > 100 * max(quad_fit.nrmse, 1e-12)

    def test_negative_slope_clamped(self):
        series = series_for(lambda x: 10.0 - math.log2(x))
        fit = fit_class(series, CANDIDATES_BY_NAME["log"])
        assert fit.k == 0.0
        assert fit.c == pytest.approx(float(np.mean(series.ys)))

    def test_degenerate_design(self):
        flat = CandidateClass("flatline", lambda n: 5.0)
        with pytest.raises(DegenerateDesign):
            fit_class(series_for(math.log2), flat)

    def test_overflow_exclusion_note(self):
        fit = fit_class(series_for(math.log2), CANDIDATES_BY_NAME["exp"])
        assert fit.n_used < len(GRID)
        assert fit.note is not None

    def test_exact_recovery_every_family(self):
        rng = np.random.default_rng(17)
        grids = {
            "exp": [2, 4, 6, 8, 10, 12, 14],
            "quadratic": [2, 4, 8, 16, 32, 64, 128],
        }
        for cand in DEFAULT_CANDIDATES:
            grid = grids.get(cand.name, [4, 16, 64, 256, 1024, 4096, 16384])
            k = 0.0 if cand.name == "const" else float(rng.uniform(0.5, 3))
            c = float(rng.uniform(-1, 1))
            series = series_for(lambda x, k=k, c=c, g=cand.fn: k * g(x) + c, grid)
            fit = fit_class(series, cand)
            assert fit.k == pytest.approx(k, rel=1e-6, abs=1e-9)
            assert fit.c == pytest.approx(c, rel=1e-6, abs=1e-9)

    def test_scale_equivariance(self):
        series = series_for(lambda x: 2.0 * math.log2(x) + 1.0)
        base = fit_class(series, CANDIDATES_BY_NAME["log"])
        for s in (10.0, 0.125):
            scaled = SampleSeries.from_arrays(series.xs, s * series.ys)
            fit = fit_class(scaled, CANDIDATES_BY_NAME["log"])
            assert fit.k == pytest.approx(s * base.k, rel=1e-9)
            assert fit.c == pytest.approx(s * base.c, rel=1e-9)
            assert fit.nrmse == pytest.approx(base.nrmse, abs=1e-9)

    @staticmethod
    def _probe_optimum(objective, fit):
        best = objective(fit.k, fit.c)
        for dk in (0.99, 1.0, 1.01):
            for dc in (0.99, 1.0, 1.01):
                if dk == dc == 1.0:
                    continue
                assert objective(fit.k * dk, fit.c * dc) >= best - 1e-15
        return best

    def test_local_optimality_probe(self):
        # a positive series is fitted by relative error, and nrmse is that error
        rng = np.random.default_rng(3)
        series = SampleSeries.from_arrays(
            GRID, [2.5 * math.log2(x) + 0.7 + rng.normal(0, 0.2) for x in GRID]
        )
        fit = fit_class(series, CANDIDATES_BY_NAME["log"])
        g = np.array([math.log2(x) for x in series.xs])

        def relative_rms(k, c):
            return float(np.sqrt(np.mean(((series.ys - k * g - c) / series.ys) ** 2)))

        assert fit.nrmse == pytest.approx(self._probe_optimum(relative_rms, fit), rel=1e-12)

    def test_nonpositive_series_fits_unweighted(self):
        # with a y <= 0 there is no relative error: plain least squares,
        # and nrmse is the RMSE over the data range
        rng = np.random.default_rng(3)
        series = SampleSeries.from_arrays(
            GRID, [2.5 * math.log2(x) - 12.0 + rng.normal(0, 0.2) for x in GRID]
        )
        assert series.ys.min() <= 0.0 < series.ys.max()
        fit = fit_class(series, CANDIDATES_BY_NAME["log"])
        g = np.array([math.log2(x) for x in series.xs])

        def rmse(k, c):
            return float(np.sqrt(np.mean((series.ys - k * g - c) ** 2)))

        best = self._probe_optimum(rmse, fit)
        assert fit.rmse == pytest.approx(best, rel=1e-12)
        assert fit.nrmse == pytest.approx(best / np.ptp(series.ys), rel=1e-12)


class TestClassify:
    def test_noiseless_nlogn_winner(self):
        report = classify(series_for(lambda x: 3e-6 * x * math.log2(x) + 0.01))
        assert report.winner.name == "nlogn"

    def test_winner_invariant_under_scaling(self):
        series = series_for(lambda x: 1e-5 * x + 2.0)
        s2 = SampleSeries.from_arrays(series.xs, 100.0 * series.ys)
        assert classify(series).winner.name == classify(s2).winner.name == "linear"

    def test_needs_two_candidates(self):
        with pytest.raises(ValueError):
            classify(series_for(math.log2), [CANDIDATES_BY_NAME["log"]])

    def test_ranking_deterministic_and_total(self):
        report = classify(series_for(lambda x: math.log2(x)))
        names = [f.name for f in report.fits] + [name for name, _ in report.skipped]
        assert sorted(names) == sorted(c.name for c in DEFAULT_CANDIDATES)
        nrmses = [f.nrmse for f in report.fits]
        full = max(f.n_used for f in report.fits)
        full_nrmses = [f.nrmse for f in report.fits if f.n_used == full]
        assert full_nrmses == sorted(full_nrmses)

    def test_partial_coverage_ranks_below_full(self):
        # exp survives on a 3-point subset here and must not win on it
        report = classify(series_for(lambda x: math.log2(x), [16, 64, 256, 1024, 4096, 16384, 65536]))
        assert report.winner.name == "log"
        full = max(f.n_used for f in report.fits)
        partial_ranks = [i for i, f in enumerate(report.fits) if f.n_used < full]
        full_ranks = [i for i, f in enumerate(report.fits) if f.n_used == full]
        assert not partial_ranks or min(partial_ranks) > max(full_ranks)

    def test_noisy_log_recovery_smoke(self):
        rng = np.random.default_rng(9)
        wins = 0
        for _ in range(20):
            ys = [(math.log2(x) + 2) * (1 + rng.normal(0, 0.05)) for x in GRID]
            wins += classify(SampleSeries.from_arrays(GRID, ys)).winner.name == "log"
        assert wins >= 18

    def test_margin_finite_for_perfect_fit(self):
        report = classify(series_for(lambda x: 5.0 * x + 1.0))
        assert math.isfinite(report.margin)
        assert report.margin >= 1.0


class TestComposeSummary:
    def test_single_variable(self):
        assert compose_summary(["x"], {"x": "log"}, []) == "log"

    def test_additive_pair(self):
        assert compose_summary(["x", "b"], {"x": "log", "b": "linear"}, []) == "log(x) + linear(b)"

    def test_composite_pair(self):
        out = compose_summary(["m", "x"], {"m": "linear", "x": "linear"}, [("m", "x")])
        assert out == "linear(m) · linear(x)"

    def test_three_variables_mixed(self):
        out = compose_summary(
            ["m", "x", "b"],
            {"m": "linear", "x": "linear", "b": "loglog"},
            [("m", "x")],
        )
        assert out == "linear(m) · linear(x) + loglog(b)"


class TestClassifyProfile:
    def test_additive_profile_summary(self):
        target = TargetSpec.for_callable(
            "add", lambda x, b: math.log2(x) + b, ["x", "b"], min_values={"x": 1}
        )
        profile = build_runtime_profile(
            target,
            {"x": [8, 16, 32, 64, 128, 256, 512], "b": [1, 8, 16, 32, 64, 128, 256]},
            MeasureConfig(seed=1),
        )
        result = classify_profile(profile)
        assert result.summary == "log(x) + linear(b)"

    def test_composite_profile_summary(self):
        target = TargetSpec.for_callable("mul", lambda m, x: 1e-6 * m * x, ["m", "x"])
        profile = build_runtime_profile(
            target,
            {"m": [1, 5, 9, 13, 17, 21, 25], "x": [8, 16, 32, 64, 128, 256, 512]},
            MeasureConfig(seed=1),
        )
        result = classify_profile(profile)
        assert result.summary == "linear(m) · linear(x)"
        assert [l.label for l in profile.interactions] == ["composite"]

    def test_single_variable_profile(self):
        target = TargetSpec.for_callable("lg", lambda x: math.log2(x), ["x"], min_values={"x": 1})
        profile = build_runtime_profile(
            target, {"x": [8, 16, 32, 64, 128, 256, 512]}, MeasureConfig(seed=1)
        )
        result = classify_profile(profile)
        assert result.summary == "log"
        assert list(result.per_variable) == ["x"]
