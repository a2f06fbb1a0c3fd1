"""Unit tests for segment construction, evaluation, and calculus."""

import itertools
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseg.accuracy import NAMED_REFERENCES
from qseg.errors import (
    DegenerateNodes,
    EvenSeries,
    NonFiniteSample,
    NonMonotonicX,
    OutOfDomain,
    TooFewPoints,
    TooManyNodes,
)
from qseg.interp import (
    BlendMode,
    Concavity,
    PiecewisePoly,
    QuadraticSegment,
    SamplePoint,
    SampleSeries,
    build_piecewise,
    build_segment,
    lagrange_general,
    lagrange_quadratic,
    nodes_from_bounds,
    sample_function,
    secant_line,
    self_similar_next,
)
from test_acceptance import quadrature_rule

P = SamplePoint


def log2_series(xs=(8, 12, 16, 24, 32, 48, 64)):
    return sample_function(math.log2, xs)


def random_smooth_functions(rng, count):
    """Seeded family of smooth test functions with O(1)-O(100) values."""
    for _ in range(count):
        amp = rng.uniform(0.5, 3.0)
        freq = rng.uniform(0.2, 1.5)
        phase = rng.uniform(0, 2 * math.pi)
        poly = rng.uniform(-1, 1, size=4)

        def fn(x, amp=amp, freq=freq, phase=phase, poly=poly):
            return amp * math.sin(freq * x + phase) + float(np.polyval(poly, x / 5.0))

        yield fn


#: The nodes of a segment's triple that each mode's segment passes through.
NODES_HIT = [
    (BlendMode.PURE_LAGRANGE, (0, 1, 2)),
    (BlendMode.TRAILING_SECANT, (1, 2)),
    (BlendMode.ENDPOINT_SECANT, (0, 2)),
]

#: The paper's reference segmentations: (function, from, to, bound layout).
PAPER_SEGMENTATIONS = [
    ("log2", 8.0, 64.0, np.geomspace),
    ("cospix", 0.0, 1.5, np.linspace),
    ("exp2", 3.0, 6.0, np.linspace),
    ("ratio", 2.0, 16.0, np.geomspace),
]


class TestSampleSeries:
    def test_rejects_non_increasing(self):
        with pytest.raises(NonMonotonicX):
            SampleSeries((P(0, 1), P(0, 2)))
        with pytest.raises(NonMonotonicX):
            SampleSeries((P(1, 1), P(0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteSample):
            SamplePoint(float("nan"), 1.0)
        with pytest.raises(NonFiniteSample):
            SamplePoint(0.0, float("inf"))

    def test_any_length_constructible(self):
        # parity is a model-build concern, not a construction concern
        assert len(SampleSeries((P(5, 7),))) == 1
        assert len(SampleSeries.from_arrays([1, 2], [3, 4])) == 2

    def test_from_arrays_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="x and y lengths differ"):
            SampleSeries.from_arrays([1, 2, 3], [3, 4])


class TestSecantLine:
    def test_identity_line(self):
        line = secant_line(P(0, 0), P(2, 2))
        assert line.slope == pytest.approx(1.0, rel=1e-12)
        assert line.intercept == pytest.approx(0.0, abs=1e-12)

    def test_vertical_rejected(self):
        with pytest.raises(DegenerateNodes):
            secant_line(P(1, 3), P(1, 5))

    def test_log2_nodes(self):
        line = secant_line(P(8, 3), P(16, 4))
        assert line.slope == pytest.approx(1 / 8, rel=1e-12)
        assert line.intercept == pytest.approx(2.0, rel=1e-12)

    def test_passes_through_both_points(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x0, dx = rng.uniform(-5, 5), rng.uniform(0.1, 4)
            y0, y1 = rng.uniform(-10, 10, size=2)
            line = secant_line(P(x0, y0), P(x0 + dx, y1))
            for x, y in ((x0, y0), (x0 + dx, y1)):
                assert line.slope * x + line.intercept == pytest.approx(y, rel=1e-12, abs=1e-12)


class TestLagrangeQuadratic:
    def test_square_reproduction(self):
        assert lagrange_quadratic(P(1, 1), P(2, 4), P(3, 9)) == pytest.approx((1, 0, 0), abs=1e-12)

    def test_collinear_degenerates_to_line(self):
        assert lagrange_quadratic(P(0, 0), P(1, 1), P(2, 2)) == pytest.approx((0, 1, 0), abs=1e-12)

    def test_hand_expanded_example(self):
        assert lagrange_quadratic(P(0, 0), P(1, 1), P(2, 4)) == pytest.approx((1, 0, 0), abs=1e-12)

    def test_repeated_x_rejected(self):
        with pytest.raises(DegenerateNodes):
            lagrange_quadratic(P(0, 0), P(0, 1), P(2, 4))

    def test_narrow_triple_far_from_zero(self):
        # the width is 1/1400 of x, where expanding the Lagrange basis
        # terms cancelled about (x / width)**2 of precision
        points = [P(x, 2.0 ** x) for x in (4.2, 4.2015, 4.203)]
        a, b, c = lagrange_quadratic(*points)
        for p in points:
            assert abs((a * p.x + b) * p.x + c - p.y) <= 1e-13 * p.y


class TestLagrangeGeneral:
    def test_quartic_system_oracle(self):
        # independent oracle: solve the Vandermonde system directly
        series = SampleSeries.from_arrays([0, 1, 2, 3], [1, 2, 5, 10])
        coeffs = lagrange_general(series)
        np.testing.assert_allclose(coeffs, [1, 0, 1, 0], atol=1e-9)

    def test_single_point_constant(self):
        np.testing.assert_allclose(lagrange_general(SampleSeries((P(5, 7),))), [7.0])

    def test_empty_series(self):
        with pytest.raises(TooFewPoints, match="empty series"):
            lagrange_general(SampleSeries(()))

    def test_agrees_with_three_point_path(self):
        series = SampleSeries.from_arrays([0, 1, 2], [0, 1, 4])
        a, b, c = lagrange_quadratic(*series.points)
        np.testing.assert_allclose(lagrange_general(series), [c, b, a], atol=1e-12)

    def test_node_cap(self):
        xs = np.arange(13.0)
        with pytest.raises(TooManyNodes):
            lagrange_general(SampleSeries.from_arrays(xs, xs))

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(404)
        for _ in range(40):
            n = rng.integers(2, 9)
            xs = np.sort(rng.uniform(-3, 3, size=n))
            while np.min(np.diff(xs)) < 1e-3:
                xs = np.sort(rng.uniform(-3, 3, size=n))
            ys = rng.uniform(-5, 5, size=n)
            coeffs = lagrange_general(SampleSeries.from_arrays(xs, ys))
            vander = np.vander(xs, increasing=True)
            expected = np.linalg.solve(vander, ys)
            probes = rng.uniform(xs[0], xs[-1], size=100)
            got = np.polynomial.polynomial.polyval(probes, coeffs)
            want = np.polynomial.polynomial.polyval(probes, expected)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


class TestBuildSegment:
    def test_paper_secant_blend(self):
        seg = build_segment(P(0, 0), P(1, 1), P(2, 4), BlendMode.TRAILING_SECANT)
        assert (seg.a, seg.b, seg.c) == pytest.approx((0.5, 1.5, -1.0), abs=1e-12)

    def test_endpoint_secant_blend(self):
        seg = build_segment(P(0, 0), P(1, 1), P(2, 4), BlendMode.ENDPOINT_SECANT)
        assert (seg.a, seg.b, seg.c) == pytest.approx((0.5, 1.0, 0.0), abs=1e-12)

    def test_pure_lagrange(self):
        seg = build_segment(P(0, 0), P(1, 1), P(2, 4), BlendMode.PURE_LAGRANGE)
        assert (seg.a, seg.b, seg.c) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_domain_and_nodes_recorded(self):
        seg = build_segment(P(0, 0), P(1, 1), P(2, 4), BlendMode.ENDPOINT_SECANT)
        assert (seg.lo, seg.hi) == (0.0, 2.0)
        assert seg.node_xs == (0.0, 1.0, 2.0)

    def test_decreasing_nodes_rejected(self):
        with pytest.raises(DegenerateNodes):
            build_segment(P(2, 0), P(1, 1), P(0, 4), BlendMode.PURE_LAGRANGE)

    @pytest.mark.parametrize("mode,nodes_hit", NODES_HIT)
    def test_interpolated_nodes_per_mode(self, mode, nodes_hit):
        # each mode pins the nodes its secant shares with the parabola; the
        # endpoint blend holds its middle node to the midpoint identity
        # instead of interpolation
        rng = np.random.default_rng(7)
        for _ in range(30):
            xs = np.sort(rng.uniform(-4, 4, size=3))
            while np.min(np.diff(xs)) < 1e-2:
                xs = np.sort(rng.uniform(-4, 4, size=3))
            ys = rng.uniform(-6, 6, size=3)
            seg = build_segment(P(xs[0], ys[0]), P(xs[1], ys[1]), P(xs[2], ys[2]), mode)
            for i in nodes_hit:
                assert seg.value(xs[i]) == pytest.approx(ys[i], rel=1e-9, abs=1e-9)

    def test_blend_midpoint_identity(self):
        # endpoint blend at the middle node equals the mean of the node's y
        # and the chord's value there
        rng = np.random.default_rng(21)
        for _ in range(30):
            xs = np.sort(rng.uniform(-4, 4, size=3))
            while np.min(np.diff(xs)) < 1e-2:
                xs = np.sort(rng.uniform(-4, 4, size=3))
            ys = rng.uniform(-6, 6, size=3)
            seg = build_segment(P(xs[0], ys[0]), P(xs[1], ys[1]), P(xs[2], ys[2]),
                                BlendMode.ENDPOINT_SECANT)
            chord = secant_line(P(xs[0], ys[0]), P(xs[2], ys[2]))
            expected = 0.5 * (ys[1] + (chord.slope * xs[1] + chord.intercept))
            assert seg.value(xs[1]) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestBuildPiecewise:
    def test_log2_paper_layout(self):
        pw = build_piecewise(log2_series(), BlendMode.ENDPOINT_SECANT)
        assert [(s.lo, s.hi) for s in pw.segments] == [(8, 16), (16, 32), (32, 64)]

    def test_single_quadratic_segment(self):
        pw = build_piecewise(sample_function(lambda x: x * x, [0, 1, 2]), BlendMode.PURE_LAGRANGE)
        assert len(pw.segments) == 1
        assert (pw.segments[0].a, pw.segments[0].b, pw.segments[0].c) == pytest.approx((1, 0, 0), abs=1e-12)

    def test_five_points_two_segments(self):
        pw = build_piecewise(sample_function(math.sqrt, [1, 2, 3, 4, 5]), BlendMode.ENDPOINT_SECANT)
        assert len(pw.segments) == 2
        assert pw.segments[0].hi == pw.segments[1].lo == 3

    def test_even_series_rejected(self):
        series = sample_function(math.sqrt, [1, 2, 3, 4])
        with pytest.raises(EvenSeries):
            build_piecewise(series, BlendMode.ENDPOINT_SECANT)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            build_piecewise(SampleSeries((P(0, 0),)), BlendMode.ENDPOINT_SECANT)

    def test_no_segments(self):
        with pytest.raises(TooFewPoints, match="at least one segment"):
            PiecewisePoly((), BlendMode.ENDPOINT_SECANT)

    def test_contiguity_enforced(self):
        seg1 = build_segment(P(0, 0), P(1, 1), P(2, 4), BlendMode.PURE_LAGRANGE)
        seg2 = build_segment(P(3, 9), P(4, 16), P(5, 25), BlendMode.PURE_LAGRANGE)
        with pytest.raises(NonMonotonicX):
            PiecewisePoly((seg1, seg2), BlendMode.PURE_LAGRANGE)

    @pytest.mark.parametrize("bounds", [
        [(0.0, 5.0), (5.0, 3.0), (3.0, 10.0)],  # contiguous, but the middle runs back
        [(0.0, 5.0), (5.0, 5.0), (5.0, 10.0)],  # an empty middle segment
        [(5.0, 3.0)],
        [(0.0, math.nan)],
    ])
    def test_bounds_must_increase(self, bounds):
        segments = tuple(
            QuadraticSegment(0.0, 0.0, float(k), lo, hi, (lo, 0.5 * (lo + hi), hi),
                             BlendMode.PURE_LAGRANGE)
            for k, (lo, hi) in enumerate(bounds, 1)
        )
        with pytest.raises(NonMonotonicX):
            PiecewisePoly(segments, BlendMode.PURE_LAGRANGE)

    @pytest.mark.parametrize("mode,nodes_hit", NODES_HIT)
    @pytest.mark.parametrize("name,lo,hi,layout", PAPER_SEGMENTATIONS,
                             ids=[case[0] for case in PAPER_SEGMENTATIONS])
    def test_thousand_segments_hit_nodes_and_rules(self, name, lo, hi, layout, mode, nodes_hit):
        # narrow segments far from 0, where the coefficients must not cancel
        xs = nodes_from_bounds(layout(lo, hi, 1001))
        series = sample_function(NAMED_REFERENCES[name].fn, xs)
        pw = build_piecewise(series, mode)
        ys = list(series.ys)
        y_range = max(ys) - min(ys)
        for i in range(len(pw.segments)):
            nx, ny = xs[2 * i:2 * i + 3], ys[2 * i:2 * i + 3]
            for k in nodes_hit:
                assert abs(pw.evaluate(nx[k]) - ny[k]) <= 1e-12 * y_range, (i, k)
            h = nx[2] - nx[0]
            rule = quadrature_rule(mode, h, *ny)
            assert abs(pw.integral(nx[0], nx[2]) - rule) <= 1e-12 * y_range * h, i


class TestEvaluate:
    def test_quadratic_interior(self):
        pw = build_piecewise(sample_function(lambda x: x * x, [0, 1, 2]), BlendMode.PURE_LAGRANGE)
        assert pw.evaluate(1.5) == pytest.approx(2.25, rel=1e-12)

    def test_out_of_domain(self):
        pw = build_piecewise(log2_series(), BlendMode.ENDPOINT_SECANT)
        with pytest.raises(OutOfDomain):
            pw.evaluate(7.999)
        with pytest.raises(OutOfDomain):
            pw.evaluate(64.001)

    def test_shared_knot_value(self):
        pw = build_piecewise(log2_series(), BlendMode.ENDPOINT_SECANT)
        assert pw.evaluate(16.0) == pytest.approx(4.0, rel=1e-9)

    def test_left_segment_owns_knot(self):
        pw = build_piecewise(log2_series(), BlendMode.TRAILING_SECANT)
        left = pw.segments[0].value(16.0)
        assert pw.evaluate(16.0) == left

    def test_domain_endpoints_evaluable(self):
        pw = build_piecewise(log2_series(), BlendMode.ENDPOINT_SECANT)
        assert pw.evaluate(8.0) == pytest.approx(3.0, rel=1e-9)
        assert pw.evaluate(64.0) == pytest.approx(6.0, rel=1e-9)


class TestDerivativeAt:
    def test_single_segment_both_sides(self):
        pw = build_piecewise(sample_function(lambda x: x * x, [0, 1, 2]), BlendMode.PURE_LAGRANGE)
        assert pw.derivative_at(1.0) == pytest.approx((2.0, 2.0), rel=1e-12)

    def test_knot_one_sided_values(self):
        # hand-built segments with slopes 3 and 5 at the shared knot x=1
        s1 = QuadraticSegment(0, 3, 0, 0, 1, (0, 0.5, 1), BlendMode.PURE_LAGRANGE)
        s2 = QuadraticSegment(0, 5, -2, 1, 2, (1, 1.5, 2), BlendMode.PURE_LAGRANGE)
        pw = PiecewisePoly((s1, s2), BlendMode.PURE_LAGRANGE)
        assert pw.derivative_at(1.0) == (3.0, 5.0)

    def test_collinear_data_constant_slope(self):
        pw = build_piecewise(sample_function(lambda x: 4 * x + 1, [0, 1, 2, 3, 4]),
                             BlendMode.ENDPOINT_SECANT)
        for x in (0.5, 1.7, 2.0, 3.3):
            left, right = pw.derivative_at(x)
            assert left == pytest.approx(4.0, rel=1e-9)
            assert right == pytest.approx(4.0, rel=1e-9)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(31)
        for fn in random_smooth_functions(rng, 10):
            bounds = np.sort(rng.uniform(0, 10, size=4))
            while np.min(np.diff(bounds)) < 0.5:
                bounds = np.sort(rng.uniform(0, 10, size=4))
            pw = build_piecewise(sample_function(fn, nodes_from_bounds(bounds)),
                                 BlendMode.ENDPOINT_SECANT)
            for seg in pw.segments:
                for t in (0.25, 0.5, 0.75):
                    x = seg.lo + t * (seg.hi - seg.lo)
                    h = 1e-6
                    approx = (pw.evaluate(x + h) - pw.evaluate(x - h)) / (2 * h)
                    left, right = pw.derivative_at(x)
                    assert left == right
                    assert left == pytest.approx(approx, rel=1e-4, abs=1e-6)


class TestIntegral:
    def test_closed_form_segment(self):
        pw = PiecewisePoly(
            (QuadraticSegment(0.5, 1, 0, 0, 2, (0, 1, 2), BlendMode.ENDPOINT_SECANT),),
            BlendMode.ENDPOINT_SECANT,
        )
        assert pw.integral(0, 2) == pytest.approx(10 / 3, rel=1e-12)

    def test_empty_interval(self):
        pw = build_piecewise(log2_series(), BlendMode.ENDPOINT_SECANT)
        assert pw.integral(20, 20) == 0.0

    def test_quadratic_reproduction(self):
        pw = build_piecewise(sample_function(lambda x: x * x, [0, 1, 2, 3, 4]),
                             BlendMode.PURE_LAGRANGE)
        assert pw.integral(0, 4) == pytest.approx(64 / 3, rel=1e-9)

    def test_out_of_domain(self):
        pw = build_piecewise(log2_series(), BlendMode.ENDPOINT_SECANT)
        with pytest.raises(OutOfDomain):
            pw.integral(0, 16)
        with pytest.raises(OutOfDomain):
            pw.integral(32, 16)
        for a, b in ((math.nan, 20), (20, math.nan), (math.nan, math.nan)):
            with pytest.raises(OutOfDomain):
                pw.integral(a, b)

    def test_matches_segment_average_sum(self):
        pw = build_piecewise(log2_series(), BlendMode.ENDPOINT_SECANT)
        lo, hi = pw.domain
        total = sum(s.average() * (s.hi - s.lo) for s in pw.segments)
        assert pw.integral(lo, hi) == pytest.approx(total, rel=1e-9)


class TestSegmentAverage:
    def test_blended_example(self):
        seg = QuadraticSegment(0.5, 1, 0, 0, 2, (0, 1, 2), BlendMode.ENDPOINT_SECANT)
        assert seg.average() == pytest.approx(5 / 3, rel=1e-12)

    def test_constant(self):
        seg = QuadraticSegment(0, 0, 7.5, 4, 6, (4, 5, 6), BlendMode.PURE_LAGRANGE)
        assert seg.average() == pytest.approx(7.5, rel=1e-12)

    def test_square_over_unit_cube_third(self):
        seg = QuadraticSegment(1, 0, 0, 0, 3, (0, 1.5, 3), BlendMode.PURE_LAGRANGE)
        assert seg.average() == pytest.approx(3.0, rel=1e-12)


class TestConcavity:
    def test_upward(self):
        seg = QuadraticSegment(2, 0, 0, 0, 1, (0, 0.5, 1), BlendMode.PURE_LAGRANGE)
        assert seg.concavity() is Concavity.UPWARD

    def test_log_family_downward(self):
        seg = QuadraticSegment(-1 / 196, 0.25, 4 / 3, 8, 16, (8, 12, 16), BlendMode.PURE_LAGRANGE)
        assert seg.concavity() is Concavity.DOWNWARD

    def test_tolerance_linear(self):
        seg = QuadraticSegment(1e-15, 1, 0, 0, 1, (0, 0.5, 1), BlendMode.PURE_LAGRANGE)
        assert seg.concavity() is Concavity.LINEAR

    def test_upward_means_increasing_derivative(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            a, b, c = rng.uniform(-2, 2, size=3)
            lo = rng.uniform(-3, 0)
            hi = lo + rng.uniform(0.5, 3)
            seg = QuadraticSegment(a, b, c, lo, hi, (lo, (lo + hi) / 2, hi),
                                   BlendMode.PURE_LAGRANGE)
            if seg.concavity() is Concavity.UPWARD:
                xs = np.linspace(lo, hi, 12)[1:-1]
                derivs = [seg.derivative(x) for x in xs]
                assert all(d2 > d1 for d1, d2 in zip(derivs, derivs[1:]))


class TestRepresentativeInput:
    def test_square_root_three(self):
        seg = QuadraticSegment(1, 0, 0, 0, 3, (0, 1.5, 3), BlendMode.PURE_LAGRANGE)
        assert seg.representative_input() == pytest.approx(math.sqrt(3), rel=1e-9)

    def test_blended_example(self):
        seg = QuadraticSegment(0.5, 1, 0, 0, 2, (0, 1, 2), BlendMode.ENDPOINT_SECANT)
        assert seg.representative_input() == pytest.approx(-1 + math.sqrt(13 / 3), rel=1e-6)

    def test_constant_midpoint_fallback(self):
        seg = QuadraticSegment(0, 0, 3, 4, 6, (4, 5, 6), BlendMode.PURE_LAGRANGE)
        assert seg.representative_input() == pytest.approx(5.0)

    def test_residual_property(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            a, b, c = rng.uniform(-2, 2, size=3)
            lo = rng.uniform(-3, 3)
            hi = lo + rng.uniform(0.5, 3)
            seg = QuadraticSegment(a, b, c, lo, hi, (lo, (lo + hi) / 2, hi),
                                   BlendMode.PURE_LAGRANGE)
            delta = seg.representative_input()
            assert lo < delta < hi or seg.concavity() is Concavity.LINEAR
            assert abs(seg.value(delta) - seg.average()) < 1e-9


class TestSelfSimilarNext:
    def test_direct_formula(self):
        seg = QuadraticSegment(-1, 2, 0, 1, 2, (1, 1.5, 2), BlendMode.PURE_LAGRANGE)
        assert self_similar_next(seg) == pytest.approx((-0.25, 1.0, 1.0))

    def test_zero_case(self):
        seg = QuadraticSegment(0, 0, 0, 1, 2, (1, 1.5, 2), BlendMode.PURE_LAGRANGE)
        assert self_similar_next(seg) == (0.0, 0.0, 1.0)

    def test_log2_doubling_recurrence(self):
        pw = build_piecewise(log2_series(), BlendMode.PURE_LAGRANGE)
        for prev, nxt in zip(pw.segments, pw.segments[1:]):
            pred = self_similar_next(prev)
            np.testing.assert_allclose(pred, (nxt.a, nxt.b, nxt.c), atol=1e-9)


class TestContinuity:
    @pytest.mark.parametrize("mode", [BlendMode.ENDPOINT_SECANT, BlendMode.PURE_LAGRANGE])
    def test_knot_continuity_smooth_functions(self, mode):
        rng = np.random.default_rng(99)
        for fn in random_smooth_functions(rng, 25):
            bounds = np.sort(rng.uniform(0, 12, size=5))
            while np.min(np.diff(bounds)) < 0.4:
                bounds = np.sort(rng.uniform(0, 12, size=5))
            pw = build_piecewise(sample_function(fn, nodes_from_bounds(bounds)), mode)
            for left_seg, right_seg in zip(pw.segments, pw.segments[1:]):
                knot = left_seg.hi
                gap = abs(left_seg.value(knot) - right_seg.value(knot))
                assert gap / max(1.0, abs(left_seg.value(knot))) < 1e-9

    def test_quadratic_exactness_pure_lagrange(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            qa, qb, qc = rng.uniform(-3, 3, size=3)
            n = int(rng.choice([3, 5, 7, 9, 11]))
            xs = np.sort(rng.uniform(-5, 5, size=n))
            while np.min(np.diff(xs)) < 1e-2:
                xs = np.sort(rng.uniform(-5, 5, size=n))
            series = sample_function(lambda x: qa * x * x + qb * x + qc, xs)
            pw = build_piecewise(series, BlendMode.PURE_LAGRANGE)
            scale = max(1.0, abs(qa), abs(qb), abs(qc))
            for seg in pw.segments:
                assert abs(seg.a - qa) / scale < 1e-9
                assert abs(seg.b - qb) / scale < 1e-9
                assert abs(seg.c - qc) / scale < 1e-9


class TestNodesFromBounds:
    def test_midpoint_expansion(self):
        assert nodes_from_bounds([8, 16, 32, 64]) == [8, 12, 16, 24, 32, 48, 64]

    def test_errors(self):
        with pytest.raises(TooFewPoints):
            nodes_from_bounds([1])
        with pytest.raises(NonMonotonicX):
            nodes_from_bounds([1, 1])


# --- the indexed model against a linear scan --------------------------------
#
# The oracle answers each query the direct O(m) way: rebuild the bound list
# and bisect it, and sum the clipped integral of every segment.

def oracle_index(pw, x):
    lo, hi = pw.domain
    if not (lo <= x <= hi):
        raise OutOfDomain(f"x = {x} outside [{lo}, {hi}]")
    his = [seg.hi for seg in pw.segments]
    return min(bisect_left(his, x), len(his) - 1)


def oracle_derivative(pw, x):
    i = oracle_index(pw, x)
    left = right = pw.segments[i].derivative(x)
    if i + 1 < len(pw.segments) and x == pw.segments[i].hi:
        right = pw.segments[i + 1].derivative(x)
    return left, right


def oracle_segment_integral(seg, u, v):
    return (v - u) * (seg.a / 3.0 * (u * u + u * v + v * v) + seg.b / 2.0 * (u + v) + seg.c)


def composed_integral(pw, a, b):
    """The indexed integral built from the segment methods: the partial
    segments holding a and b plus the cached whole-segment sums between."""
    i, j = oracle_index(pw, a), oracle_index(pw, b)
    first, last = pw.segments[i], pw.segments[j]
    if i == j:
        return first.integral(a, b)
    return (first.integral(a, first.hi) + (pw._prefix[j] - pw._prefix[i + 1])
            + last.integral(last.lo, b))


def oracle_integral(pw, a, b):
    lo, hi = pw.domain
    if a > b:
        raise OutOfDomain(f"inverted bounds [{a}, {b}]")
    if a < lo or b > hi:
        raise OutOfDomain(f"[{a}, {b}] outside [{lo}, {hi}]")
    total = 0.0
    for seg in pw.segments:
        u = max(a, seg.lo)
        v = min(b, seg.hi)
        if u < v:
            total += oracle_segment_integral(seg, u, v)
    return total


@st.composite
def models_and_points(draw):
    """A model of 1..40 segments over random contiguous bounds, and its
    query points: every knot, both domain ends and random interior points."""
    m = draw(st.integers(1, 40))
    start = draw(st.floats(-100, 100))
    widths = draw(st.lists(st.floats(0.01, 10), min_size=m, max_size=m))
    bounds = list(itertools.accumulate(widths, initial=start))
    xs = nodes_from_bounds(bounds)
    ys = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                       min_size=len(xs), max_size=len(xs)))
    pw = build_piecewise(SampleSeries.from_arrays(xs, ys), draw(st.sampled_from(BlendMode)))
    lo, hi = pw.domain
    fractions = draw(st.lists(st.floats(0, 1), max_size=10))
    points = [seg.lo for seg in pw.segments] + [hi]
    points += [min(lo + f * (hi - lo), hi) for f in fractions]
    return pw, sorted(points)


QUERY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestIndexedModelMatchesLinearScan:
    @QUERY_SETTINGS
    @given(models_and_points())
    def test_queries_match_oracle(self, case):
        pw, points = case
        for x in points:
            assert pw.evaluate(x) == pw.segments[oracle_index(pw, x)].value(x)
            assert pw.derivative_at(x) == oracle_derivative(pw, x)
        whole = [seg.integral(seg.lo, seg.hi) for seg in pw.segments]
        assert whole == [oracle_segment_integral(s, s.lo, s.hi) for s in pw.segments]
        assert pw._prefix == list(itertools.accumulate(whole, initial=0.0))
        tol = 1e-12 * max(abs(v) for v in whole) * len(pw.segments)
        # every ordered pair, so a = b at a knot and a at a segment's right
        # end are both covered
        for a, b in itertools.combinations_with_replacement(points, 2):
            value = pw.integral(a, b)
            assert value == composed_integral(pw, a, b)
            assert abs(value - oracle_integral(pw, a, b)) <= tol

    @QUERY_SETTINGS
    @given(models_and_points(), st.floats(1e-6, 1e3))
    def test_bad_bounds_raise(self, case, beyond):
        pw, points = case
        lo, hi = pw.domain
        mid = points[len(points) // 2]
        outside = [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
                   lo - beyond, hi + beyond, math.nan, math.inf, -math.inf]
        for x in outside:
            with pytest.raises(OutOfDomain):
                pw.evaluate(x)
            with pytest.raises(OutOfDomain):
                pw.derivative_at(x)
        bad = [(hi, lo), (lo - beyond, mid), (mid, hi + beyond), (-math.inf, math.inf)]
        bad += [(x, mid) for x in (math.nan, math.inf)] + [(mid, x) for x in (math.nan, -math.inf)]
        bad.append((math.nan, math.nan))
        for a, b in bad:
            with pytest.raises(OutOfDomain):
                pw.integral(a, b)
