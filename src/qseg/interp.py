"""Segmented quadratic models built from sampled points.

Each segment is the parabola through three consecutive samples, optionally
averaged 50/50 with a secant line through two of those samples.  Segments
chain over shared endpoint nodes (nodes 0-1-2, 2-3-4, ...) into a piecewise
function covering the full sampled domain.

Three blend variants are supported:

* ``PURE_LAGRANGE``  -- the unblended parabola through all three nodes.
* ``ENDPOINT_SECANT`` -- average with the chord through the outer nodes;
  every segment still passes through both of its endpoints, so adjacent
  segments meet continuously.
* ``TRAILING_SECANT``   -- average with the chord through the last two nodes;
  the segment passes through its second and third nodes but generally not
  its first, so knots may jump.  Kept selectable for comparison studies.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateNodes,
    EvenSeries,
    NonFiniteSample,
    NonMonotonicX,
    NoRootInRange,
    OutOfDomain,
    TooFewPoints,
    TooManyNodes,
)

#: |a| at or below LINEAR_TOL * max(1, |b|, |c|) classifies a segment as a line.
LINEAR_TOL = 1e-12

#: Node cap for dense interpolation; conditioning degrades quickly above this.
MAX_GENERAL_NODES = 12

#: Point layouts between two bounds, by the names ``approx --spacing`` takes.
SPACINGS = {"even": np.linspace, "geometric": np.geomspace}

#: The two sides of a knot agree unless further apart than this (relative).
KNOT_MATCH_TOL = 1e-9


def knot_sides_differ(left: float, right: float) -> bool:
    """Whether a knot's left and right values (or slopes) disagree."""
    return abs(left - right) > KNOT_MATCH_TOL * max(1.0, abs(left))


class BlendMode(enum.Enum):
    """How a segment's parabola is combined with a secant line."""

    PURE_LAGRANGE = "pure-lagrange"
    TRAILING_SECANT = "trailing-secant"
    ENDPOINT_SECANT = "endpoint-secant"


class Concavity(enum.Enum):
    UPWARD = "upward"
    DOWNWARD = "downward"
    LINEAR = "linear"


@dataclass(frozen=True)
class SamplePoint:
    """One (x, y) measurement: x is the input value, y the observed output
    (a function value, or CPU seconds when produced by the profiler)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFiniteSample(f"non-finite sample ({self.x}, {self.y})")


@dataclass(frozen=True)
class SampleSeries:
    """Ordered samples with strictly increasing x.

    Length and parity are *not* checked here: a series read from disk may
    be any length, and the odd-length >= 3 requirement is enforced where it
    matters, in :func:`build_piecewise`.
    """

    points: tuple[SamplePoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        xs = [p.x for p in self.points]
        for left, right in zip(xs, xs[1:]):
            if right <= left:
                raise NonMonotonicX(
                    f"x values must strictly increase (got {left} then {right})"
                )

    @classmethod
    def from_arrays(cls, xs: Sequence[float], ys: Sequence[float]) -> "SampleSeries":
        if len(xs) != len(ys):
            raise ValueError("x and y lengths differ")
        return cls(tuple(SamplePoint(float(x), float(y)) for x, y in zip(xs, ys)))

    @property
    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points])

    @property
    def ys(self) -> np.ndarray:
        return np.array([p.y for p in self.points])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class LinearFn:
    """A line y = slope * x + intercept."""

    slope: float
    intercept: float


@dataclass(frozen=True)
class QuadraticSegment:
    """One parabola a*x**2 + b*x + c valid on [lo, hi].

    ``node_xs`` records the three sample x values the segment was built
    from; ``lo`` and ``hi`` are the first and third of them.
    """

    a: float
    b: float
    c: float
    lo: float
    hi: float
    node_xs: tuple[float, float, float]
    mode: BlendMode

    def value(self, x: float) -> float:
        return (self.a * x + self.b) * x + self.c

    def derivative(self, x: float) -> float:
        return 2.0 * self.a * x + self.b

    def integral(self, u: float, v: float) -> float:
        """Exact integral of the parabola from u to v.

        Factored as (v - u) times the mean value: the difference of the
        antiderivative at v and u would cancel about u / (v - u) of precision.
        """
        a3, b2, c = self.a / 3.0, self.b / 2.0, self.c
        return (v - u) * (a3 * (u * u + u * v + v * v) + b2 * (u + v) + c)

    def average(self) -> float:
        """Mean value of the segment over its own bounds."""
        return self.integral(self.lo, self.hi) / (self.hi - self.lo)

    def concavity(self) -> Concavity:
        tol = LINEAR_TOL * max(1.0, abs(self.b), abs(self.c))
        if self.a > tol:
            return Concavity.UPWARD
        if self.a < -tol:
            return Concavity.DOWNWARD
        return Concavity.LINEAR

    def representative_input(self) -> float:
        """The in-segment x whose value equals the segment average.

        For (near-)linear segments the average sits at the midpoint.  For a
        genuine parabola the quadratic formula gives two candidates; the
        smaller root inside (lo, hi) is returned.
        """
        avg = self.average()
        if self.concavity() is Concavity.LINEAR:
            return 0.5 * (self.lo + self.hi)
        disc = self.b * self.b - 4.0 * self.a * (self.c - avg)
        if disc < 0.0:
            disc = 0.0  # roundoff: the average is always attained
        root = math.sqrt(disc)
        candidates = sorted(((-self.b - root) / (2.0 * self.a), (-self.b + root) / (2.0 * self.a)))
        for delta in candidates:
            if self.lo < delta < self.hi:
                return delta
        raise NoRootInRange(
            f"no root of the average equation inside ({self.lo}, {self.hi})"
        )


def secant_line(p: SamplePoint, q: SamplePoint) -> LinearFn:
    """Line through two samples; rejects a shared x."""
    if p.x == q.x:
        raise DegenerateNodes(f"secant nodes share x = {p.x}")
    slope = (q.y - p.y) / (q.x - p.x)
    return LinearFn(slope, q.y - slope * q.x)


def lagrange_quadratic(p0: SamplePoint, p1: SamplePoint, p2: SamplePoint) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the parabola through three samples.

    Degenerates to a line (a == 0) when the points are collinear.  The
    coefficients expand the Newton form y0 + d1*(x - x0) + d2*(x - x0)*(x - x1)
    from divided differences d1, d2.  The Lagrange basis terms, expanded
    instead, are large on a narrow triple far from 0 and cancel about
    (x / width)**2 of precision; the Newton form keeps the nodes to a few ulps.
    """
    x0, x1, x2 = p0.x, p1.x, p2.x
    if x0 == x1 or x0 == x2 or x1 == x2:
        raise DegenerateNodes(f"repeated node x in ({x0}, {x1}, {x2})")
    d1 = (p1.y - p0.y) / (x1 - x0)
    d2 = ((p2.y - p1.y) / (x2 - x1) - d1) / (x2 - x0)
    return d2, d1 - d2 * (x0 + x1), p0.y - x0 * (d1 - d2 * x1)


def lagrange_general(series: SampleSeries) -> np.ndarray:
    """Dense interpolation through every point of ``series``.

    Returns ascending monomial coefficients ``coeffs`` (``coeffs[k]``
    multiplies ``x**k``) of the unique polynomial of degree < n through all
    n points.  Capped at ``MAX_GENERAL_NODES`` points; beyond that the
    monomial expansion is too ill-conditioned to be honest.
    """
    n = len(series)
    if n == 0:
        raise TooFewPoints("empty series")
    if n > MAX_GENERAL_NODES:
        raise TooManyNodes(f"{n} nodes exceeds the cap of {MAX_GENERAL_NODES}")
    xs = series.xs
    ys = series.ys
    coeffs = np.zeros(n)
    for j in range(n):
        basis = np.array([1.0])
        denom = 1.0
        for m in range(n):
            if m == j:
                continue
            # multiply by (x - x_m), ascending coefficient order
            basis = np.convolve(basis, np.array([-xs[m], 1.0]))
            denom *= xs[j] - xs[m]
        coeffs[: len(basis)] += ys[j] / denom * basis
    return coeffs


def build_segment(p0: SamplePoint, p1: SamplePoint, p2: SamplePoint, mode: BlendMode) -> QuadraticSegment:
    """Blend the 3-point parabola with the mode's secant into one segment.

    The blended coefficients are the plain average of the parabola and the
    line, so the result is still a quadratic on [p0.x, p2.x].
    """
    if not (p0.x < p1.x < p2.x):
        raise DegenerateNodes(
            f"nodes must strictly increase (got {p0.x}, {p1.x}, {p2.x})"
        )
    a, b, c = lagrange_quadratic(p0, p1, p2)
    if mode is not BlendMode.PURE_LAGRANGE:
        chord = secant_line(p1, p2) if mode is BlendMode.TRAILING_SECANT else secant_line(p0, p2)
        a = 0.5 * a
        b = 0.5 * (b + chord.slope)
        c = 0.5 * (c + chord.intercept)
    return QuadraticSegment(a, b, c, p0.x, p2.x, (p0.x, p1.x, p2.x), mode)


def build_piecewise(series: SampleSeries, mode: BlendMode) -> "PiecewisePoly":
    """Chain segments over consecutive node triples 0-1-2, 2-3-4, ...

    Needs an odd number of points: 2m+1 points give m segments.
    """
    points = series.points
    if len(points) % 2 == 0:
        raise EvenSeries(f"series has {len(points)} points; need an odd count >= 3")
    if len(points) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(points)}")
    segments = tuple(
        build_segment(points[i], points[i + 1], points[i + 2], mode)
        for i in range(0, len(points) - 2, 2)
    )
    return PiecewisePoly(segments, mode)


@dataclass(frozen=True)
class PiecewisePoly:
    """Contiguous quadratic segments; segment i ends where i+1 begins.

    Evaluation at a shared knot uses the left segment.  In the
    ENDPOINT_SECANT and PURE_LAGRANGE modes both sides agree there anyway;
    in TRAILING_SECANT mode the left-owner rule keeps evaluation deterministic
    across the jump.

    Construction costs O(m) for m segments.  It checks that every segment's
    bounds increase and meet the next segment's, and caches the upper
    bounds, each segment's antiderivative coefficients ``(a/3, b/2, c)``
    and the running sum of whole-segment integrals.  A query bisects the
    upper bounds, O(log m), and does the arithmetic of the segment methods
    (``QuadraticSegment.value``, ``derivative`` and ``integral``) on the
    owning segment, or on the end segments' triples and the prefix sums,
    so it equals them bit for bit.  The caches are plain attributes, not
    fields, so equality, ``repr`` and hashing see only ``segments`` and
    ``mode``.
    """

    segments: tuple[QuadraticSegment, ...]
    mode: BlendMode

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if not segments:
            raise TooFewPoints("piecewise model needs at least one segment")
        # _prefix[i] is the integral over segments 0 .. i-1.
        prefix = [0.0]
        edge = segments[0].lo
        for seg in segments:
            if seg.lo != edge:
                raise NonMonotonicX(
                    f"segment domains must be contiguous ({edge} != {seg.lo})"
                )
            if not seg.lo < seg.hi:
                raise NonMonotonicX(
                    f"segment bounds must increase (got [{seg.lo}, {seg.hi}])"
                )
            edge = seg.hi
            prefix.append(prefix[-1] + seg.integral(seg.lo, seg.hi))
        cache = {
            "_lo": segments[0].lo,
            "_hi": edge,
            "_his": [seg.hi for seg in segments],
            # as QuadraticSegment.integral computes them
            "_anti": [(seg.a / 3.0, seg.b / 2.0, seg.c) for seg in segments],
            "_prefix": prefix,
        }
        for name, value in cache.items():
            object.__setattr__(self, name, value)

    @property
    def domain(self) -> tuple[float, float]:
        return self._lo, self._hi

    # Each query repeats the segment methods inline, in their operation
    # order, so that it runs in one frame.

    def evaluate(self, x: float) -> float:
        if not (self._lo <= x <= self._hi):
            raise OutOfDomain(f"x = {x} outside [{self._lo}, {self._hi}]")
        seg = self.segments[bisect_left(self._his, x)]
        return (seg.a * x + seg.b) * x + seg.c

    def derivative_at(self, x: float) -> tuple[float, float]:
        """One-sided derivatives (left, right) at x.

        Inside a segment both sides agree; at a knot they come from the two
        adjacent segments and may differ, so callers must not assume
        differentiability there.
        """
        if not (self._lo <= x <= self._hi):
            raise OutOfDomain(f"x = {x} outside [{self._lo}, {self._hi}]")
        i = bisect_left(self._his, x)
        seg = self.segments[i]
        left = 2.0 * seg.a * x + seg.b
        if x == seg.hi and i + 1 < len(self.segments):
            seg = self.segments[i + 1]
            return left, 2.0 * seg.a * x + seg.b
        return left, left

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b]: the partial segments holding a and b
        plus the cached whole-segment integrals between them.

        Raises OutOfDomain for inverted, outside or NaN bounds.
        """
        if a > b:
            raise OutOfDomain(f"inverted bounds [{a}, {b}]")
        if not (self._lo <= a and b <= self._hi):
            raise OutOfDomain(f"[{a}, {b}] outside [{self._lo}, {self._hi}]")
        his = self._his
        i = bisect_left(his, a)
        j = bisect_left(his, b)
        p3, p2, p = self._anti[i]
        if i == j:
            return (b - a) * (p3 * (a * a + a * b + b * b) + p2 * (a + b) + p)
        v = his[i]
        head = (v - a) * (p3 * (a * a + a * v + v * v) + p2 * (a + v) + p)
        q3, q2, q = self._anti[j]
        u = his[j - 1]  # segment j's lo, by contiguity
        tail = (b - u) * (q3 * (u * u + u * b + b * b) + q2 * (u + b) + q)
        return head + (self._prefix[j] - self._prefix[i + 1]) + tail


def self_similar_next(seg: QuadraticSegment) -> tuple[float, float, float]:
    """Predicted coefficients of the next segment under node doubling for
    base-2 logarithmic data: (a/4, b/2, c+1)."""
    return seg.a / 4.0, seg.b / 2.0, seg.c + 1.0


def nodes_from_bounds(bounds: Sequence[float]) -> list[float]:
    """Expand segment bounds into node positions with arithmetic midpoints.

    ``[b0, b1, b2]`` becomes ``[b0, (b0+b1)/2, b1, (b1+b2)/2, b2]``: one
    interior node per segment, endpoints shared.
    """
    bounds = [float(b) for b in bounds]
    if len(bounds) < 2:
        raise TooFewPoints("need at least two bounds")
    for left, right in zip(bounds, bounds[1:]):
        if right <= left:
            raise NonMonotonicX("bounds must strictly increase")
    xs: list[float] = [bounds[0]]
    for left, right in zip(bounds, bounds[1:]):
        xs.append(0.5 * (left + right))
        xs.append(right)
    return xs


def sample_function(fn, xs: Sequence[float]) -> SampleSeries:
    """Evaluate ``fn`` at the given x positions and wrap as a series."""
    return SampleSeries.from_arrays(list(xs), [float(fn(float(x))) for x in xs])
