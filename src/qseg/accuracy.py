"""Agreement metrics between a piecewise model and a reference.

The headline metric is the ratio of aggregate integrals: sum the reference
integral and the model integral over every segment, then divide the smaller
magnitude by the larger so the score lands in (0, 1].  Reference integrals
come from adaptive Simpson quadrature; model integrals are closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import OutOfDomain, QuadratureBudget, SignMismatch, ZeroIntegral
from .interp import PiecewisePoly, SampleSeries

#: Aggregate integrals below this magnitude cannot form a meaningful ratio.
ZERO_INTEGRAL_TOL = 1e-12

#: Absolute tolerance and most interval halvings of the reference-side
#: quadrature.
QUADRATURE_TOL = 1e-10
QUADRATURE_MAX_DEPTH = 50

#: Tolerance relative to the magnitude of an interval's integral, for
#: integrals so large that rounding alone exceeds ``QUADRATURE_TOL``.
QUADRATURE_REL_TOL = 1e-14

#: Most reference evaluations in one quadrature.  The paper's references
#: need at most 353 on the paper's domains; an integrand that never
#: settles, such as cos(pi x) at x beyond 2**53, would otherwise take up to
#: 2**51.
QUADRATURE_MAX_EVALUATIONS = 100_000


@dataclass(frozen=True)
class ReferenceFn:
    """A reference function with the open domain it is defined on."""

    name: str
    fn: Callable[[float], float]
    lo: float = -math.inf
    hi: float = math.inf


#: Named references selectable from the CLI.
NAMED_REFERENCES: dict[str, ReferenceFn] = {
    "log2": ReferenceFn("log2", math.log2, lo=0.0),
    "cospix": ReferenceFn("cospix", lambda x: math.cos(math.pi * x)),
    "exp2": ReferenceFn("exp2", lambda x: 2.0 ** x),
    "ratio": ReferenceFn("ratio", lambda x: (x - 1.0) / x, lo=0.0),
}


@dataclass(frozen=True)
class SegmentAccuracy:
    """Per-segment integrals and their reciprocal-ruled ratio (None when the
    signs disagree and no ratio makes sense)."""

    lo: float
    hi: float
    integral_reference: float
    integral_model: float
    ratio: Optional[float]


@dataclass(frozen=True)
class AccuracyReport:
    per_segment: tuple[SegmentAccuracy, ...]
    aggregate_a: float


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature with absolute tolerance
    ``QUADRATURE_TOL``, or ``QUADRATURE_REL_TOL`` of an interval's integral
    where that is larger, halving at most ``QUADRATURE_MAX_DEPTH`` times.
    Raises OutOfDomain at once when a Simpson estimate is not finite (an
    integral beyond the float range), and QuadratureBudget once it would
    evaluate ``fn`` more than ``QUADRATURE_MAX_EVALUATIONS`` times."""
    if a == b:
        return 0.0
    evaluations = 3

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo: float, hi: float, flo: float, fmid: float, fhi: float,
                whole: float, eps: float, depth: int) -> float:
        nonlocal evaluations
        evaluations += 2
        if evaluations > QUADRATURE_MAX_EVALUATIONS:
            raise QuadratureBudget(
                f"the integral on [{a!r}, {b!r}] did not converge within "
                f"{QUADRATURE_MAX_EVALUATIONS} evaluations"
            )
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = fn(lmid)
        frmid = fn(rmid)
        left = simpson(lo, mid, flo, flmid, fmid)
        right = simpson(mid, hi, fmid, frmid, fhi)
        estimate = left + right
        if not math.isfinite(estimate):
            raise OutOfDomain(f"the integral on [{a!r}, {b!r}] is not finite: {estimate!r}")
        tolerance = max(15.0 * eps, QUADRATURE_REL_TOL * abs(estimate))
        if depth <= 0 or abs(estimate - whole) <= tolerance:
            return estimate + (estimate - whole) / 15.0
        return (
            recurse(lo, mid, flo, flmid, fmid, left, eps / 2.0, depth - 1)
            + recurse(mid, hi, fmid, frmid, fhi, right, eps / 2.0, depth - 1)
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = fn(a), fn(mid), fn(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), QUADRATURE_TOL,
                   QUADRATURE_MAX_DEPTH)


def _reciprocal_ratio(reference: float, model: float) -> Optional[float]:
    """Smaller-over-larger magnitude ratio, or None if it is meaningless."""
    if reference * model <= 0.0:
        return None
    lo, hi = sorted((abs(reference), abs(model)))
    return lo / hi


def accuracy_vs(pw: PiecewisePoly, ref: ReferenceFn) -> AccuracyReport:
    """Score the model against a reference over the model's own segments.

    Raises SignMismatch when the aggregate integrals disagree in sign and
    ZeroIntegral when either aggregate is too small to divide by.
    """
    lo, hi = pw.domain
    if not (ref.lo < lo and hi < ref.hi):
        raise OutOfDomain(f"reference {ref.name} not defined on [{lo}, {hi}]")
    rows = []
    total_ref = 0.0
    total_model = 0.0
    for seg in pw.segments:
        integral_ref = adaptive_simpson(ref.fn, seg.lo, seg.hi)
        integral_model = seg.integral(seg.lo, seg.hi)
        rows.append(SegmentAccuracy(
            seg.lo, seg.hi, integral_ref, integral_model,
            _reciprocal_ratio(integral_ref, integral_model),
        ))
        total_ref += integral_ref
        total_model += integral_model
    if abs(total_ref) < ZERO_INTEGRAL_TOL or abs(total_model) < ZERO_INTEGRAL_TOL:
        raise ZeroIntegral(
            f"aggregate integrals too small (reference {total_ref}, model {total_model})"
        )
    ratio = _reciprocal_ratio(total_ref, total_model)
    if ratio is None:
        raise SignMismatch(
            f"aggregate integrals differ in sign (reference {total_ref}, model {total_model})"
        )
    return AccuracyReport(tuple(rows), ratio)


def validate_profile(pw: PiecewisePoly, samples: SampleSeries) -> float:
    """Relative gap between the raw-sample mean and the mean of the
    per-segment averages of the model built over them."""
    lo, hi = pw.domain
    xs = samples.xs
    if len(xs) == 0:
        raise OutOfDomain("empty sample series")
    if xs[0] < lo or xs[-1] > hi:
        raise OutOfDomain(f"samples extend outside [{lo}, {hi}]")
    lhs = float(np.mean(samples.ys))
    rhs = float(np.mean([seg.average() for seg in pw.segments]))
    return abs(lhs - rhs) / max(abs(lhs), 1e-12)
