"""Tests for the integral-ratio accuracy metric and profile validation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qseg.accuracy import (
    NAMED_REFERENCES,
    QUADRATURE_MAX_EVALUATIONS,
    ReferenceFn,
    accuracy_vs,
    adaptive_simpson,
    validate_profile,
)
from qseg.errors import OutOfDomain, QuadratureBudget, SignMismatch, ZeroIntegral
from qseg.interp import (
    BlendMode,
    SampleSeries,
    build_piecewise,
    nodes_from_bounds,
    sample_function,
)


def model_of(fn, bounds, mode=BlendMode.ENDPOINT_SECANT):
    return build_piecewise(sample_function(fn, nodes_from_bounds(bounds)), mode)


class TestAdaptiveSimpson:
    def test_polynomial_closed_forms(self):
        # cubic rule is exact for polynomials up to degree 3; adaptivity
        # handles the rest
        cases = [
            (lambda x: 1.0, 0, 5, 5.0),
            (lambda x: x, 0, 2, 2.0),
            (lambda x: x ** 4, 0, 1, 0.2),
            (lambda x: 3 * x ** 2 - 2 * x + 1, -1, 2, 9.0),
        ]
        for fn, a, b, expected in cases:
            assert adaptive_simpson(fn, a, b) == pytest.approx(expected, abs=1e-9)

    def test_empty_interval(self):
        assert adaptive_simpson(math.sin, 2, 2) == 0.0

    def test_against_scipy_oracle(self):
        for name, (a, b) in [("log2", (8, 64)), ("exp2", (3, 6)),
                             ("cospix", (0, 1.5)), ("ratio", (2, 16))]:
            ref = NAMED_REFERENCES[name]
            want = quad(ref.fn, a, b, epsabs=1e-12, limit=200)[0]
            assert adaptive_simpson(ref.fn, a, b) == pytest.approx(want, abs=1e-8)

    def test_large_integral_meets_a_relative_tolerance(self):
        # rounding alone exceeds the absolute tolerance on [1e6, 1e12]
        want = quad(math.log2, 1e6, 1e12, epsrel=1e-13, limit=200)[0]
        assert adaptive_simpson(math.log2, 1e6, 1e12) == pytest.approx(want, rel=1e-12)

    def test_evaluation_budget(self):
        calls = []

        def noise(x):
            calls.append(x)
            return math.cos(math.pi * x)

        # beyond 2**53 every float is an even integer, and pi x rounds to
        # points cos takes anywhere in [-1, 1]
        with pytest.raises(QuadratureBudget, match=r"\[0.0, 1e\+300\] did not converge"):
            adaptive_simpson(noise, 0.0, 1e300)
        assert len(calls) <= QUADRATURE_MAX_EVALUATIONS

    @pytest.mark.parametrize("fn, a, b", [
        (math.log2, 1e154, 1e308),  # each half's Simpson sum overflows
        (lambda x: math.nan, 0.0, 1.0),
    ], ids=["overflow", "nan"])
    def test_non_finite_estimate_raises_at_once(self, fn, a, b):
        calls = []

        def counted(x):
            calls.append(x)
            return fn(x)

        with pytest.raises(OutOfDomain, match=r"the integral on \[.*\] is not finite: (inf|nan)"):
            adaptive_simpson(counted, a, b)
        # the three points of the whole interval and the two quarter points
        assert len(calls) == 5


class TestAccuracyVs:
    def test_identical_quadratic_scores_one(self):
        pw = model_of(lambda x: 2 * x * x + 1, [0, 1, 2, 3], BlendMode.PURE_LAGRANGE)
        ref = ReferenceFn("quad", lambda x: 2 * x * x + 1)
        report = accuracy_vs(pw, ref)
        assert report.aggregate_a == pytest.approx(1.0, rel=1e-9)

    def test_log2_paper_domain_golden(self):
        # frozen from an independent scipy.integrate.quad computation
        pw = model_of(NAMED_REFERENCES["log2"].fn, [8, 16, 32, 64])
        report = accuracy_vs(pw, NAMED_REFERENCES["log2"])
        assert report.aggregate_a == pytest.approx(0.994186754086, abs=1e-9)
        assert report.aggregate_a >= 0.99

    def test_reciprocal_rule_constant(self):
        pw = model_of(lambda x: 2.0, [0, 0.5, 1.0], BlendMode.PURE_LAGRANGE)
        ref = ReferenceFn("one", lambda x: 1.0)
        assert accuracy_vs(pw, ref).aggregate_a == pytest.approx(0.5, rel=1e-9)

    def test_per_segment_rows_cover_bounds(self):
        pw = model_of(NAMED_REFERENCES["log2"].fn, [8, 16, 32, 64])
        report = accuracy_vs(pw, NAMED_REFERENCES["log2"])
        assert [(r.lo, r.hi) for r in report.per_segment] == [(8, 16), (16, 32), (32, 64)]
        for row in report.per_segment:
            assert row.ratio is not None and 0 < row.ratio <= 1

    def test_sign_mismatch(self):
        pw = model_of(lambda x: 1.0, [0, 0.5, 1.0], BlendMode.PURE_LAGRANGE)
        ref = ReferenceFn("neg", lambda x: -1.0)
        with pytest.raises(SignMismatch):
            accuracy_vs(pw, ref)

    def test_zero_integral(self):
        pw = model_of(lambda x: x - 0.5, [0, 0.5, 1.0], BlendMode.PURE_LAGRANGE)
        ref = ReferenceFn("centered", lambda x: x - 0.5)
        with pytest.raises(ZeroIntegral):
            accuracy_vs(pw, ref)

    def test_reference_domain_guard(self):
        pw = model_of(math.log2, [8, 16, 32, 64])
        narrow = ReferenceFn("narrow", math.log2, lo=10.0)
        with pytest.raises(OutOfDomain):
            accuracy_vs(pw, narrow)

    def test_scale_invariance(self):
        fn = NAMED_REFERENCES["exp2"].fn
        pw = model_of(fn, [3, 4, 5, 6])
        base = accuracy_vs(pw, NAMED_REFERENCES["exp2"]).aggregate_a
        for s in (3.0, 0.25):
            pw_s = model_of(lambda x: s * fn(x), [3, 4, 5, 6])
            scaled = accuracy_vs(pw_s, ReferenceFn("scaled", lambda x: s * fn(x))).aggregate_a
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_symmetry_on_shared_bounds(self):
        bounds = [1, 2, 3, 4]
        pw_a = model_of(lambda x: x + 0.3 * math.sin(x), bounds)
        pw_b = model_of(lambda x: 1.1 * x, bounds)
        forward = accuracy_vs(pw_a, ReferenceFn("b", pw_b.evaluate, 0, 5)).aggregate_a
        backward = accuracy_vs(pw_b, ReferenceFn("a", pw_a.evaluate, 0, 5)).aggregate_a
        assert forward == pytest.approx(backward, abs=1e-9)


class TestValidateProfile:
    def test_constant_samples_zero_error(self):
        series = sample_function(lambda x: 4.2, [0, 1, 2, 3, 4])
        pw = build_piecewise(series, BlendMode.ENDPOINT_SECANT)
        assert validate_profile(pw, series) < 1e-9

    def test_linear_samples_zero_error(self):
        series = sample_function(float, [0, 1, 2])
        pw = build_piecewise(series, BlendMode.ENDPOINT_SECANT)
        assert validate_profile(pw, series) < 1e-9

    def test_noisy_log_bound(self):
        # 1%-of-range noise across 100 seeded trials stays under 0.05
        xs = [8, 12, 16, 24, 32, 48, 64]
        clean = np.array([math.log2(x) for x in xs])
        y_range = clean.max() - clean.min()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            noisy = clean + rng.normal(0, 0.01 * y_range, size=len(xs))
            series = SampleSeries.from_arrays(xs, noisy)
            pw = build_piecewise(series, BlendMode.ENDPOINT_SECANT)
            assert validate_profile(pw, series) < 0.05

    def test_out_of_domain_samples(self):
        series = sample_function(math.sqrt, [1, 2, 3])
        pw = build_piecewise(series, BlendMode.ENDPOINT_SECANT)
        wider = sample_function(math.sqrt, [0.5, 2, 3])
        with pytest.raises(OutOfDomain):
            validate_profile(pw, wider)

    def test_empty_samples(self):
        pw = build_piecewise(sample_function(math.sqrt, [1, 2, 3]), BlendMode.ENDPOINT_SECANT)
        with pytest.raises(OutOfDomain, match="empty sample series"):
            validate_profile(pw, SampleSeries(()))
