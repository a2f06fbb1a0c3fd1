"""Fit candidate asymptotic classes to measured series.

Each candidate is a shape function g(n); fitting finds the nonnegative
scale k and offset C minimizing the relative squared error of
y = k*g(x) + C. Candidates are ranked by that relative RMS error, so the
winner is the shape that tracks the measurements best regardless of units,
and the cheap points of a sweep weigh as much as the costly ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateDesign
from .interp import SampleSeries

#: Constant-design guard and zero-range fallbacks.
_EPS = 1e-12


def _exp2(n: float) -> float:
    # capped low enough that the fit's squared sums stay finite too; points
    # past the cap report inf and are excluded from that candidate's fit
    if n > 500:
        return math.inf
    return 2.0 ** n


@dataclass(frozen=True)
class CandidateClass:
    """A named complexity shape g(n), defined for n >= 2 and wherever else
    g returns a finite value: :func:`fit_class` leaves out each point where
    g raises or is not finite (log at 0, loglog at 1, 2**n past 500)."""

    name: str
    fn: Callable[[float], float]

    def __call__(self, n: float) -> float:
        return self.fn(n)


DEFAULT_CANDIDATES: tuple[CandidateClass, ...] = (
    CandidateClass("const", lambda n: 1.0),
    CandidateClass("log", math.log2),
    CandidateClass("sqrt", math.sqrt),
    CandidateClass("linear", float),
    CandidateClass("nlogn", lambda n: n * math.log2(n)),
    CandidateClass("quadratic", lambda n: n * n),
    CandidateClass("exp", _exp2),
    CandidateClass("loglog", lambda n: math.log2(math.log2(n))),
)

CANDIDATES_BY_NAME: dict[str, CandidateClass] = {c.name: c for c in DEFAULT_CANDIDATES}


@dataclass(frozen=True)
class CandidateFit:
    """Least-squares fit of one candidate: y ~ k*g(x) + C, k >= 0.

    ``rmse`` is in the units of y; ``nrmse``, the ranking score, is the
    relative RMS error, or the RMSE over the data range when some y <= 0."""

    candidate: CandidateClass
    k: float
    c: float
    rmse: float
    nrmse: float
    n_used: int
    note: Optional[str] = None

    @property
    def name(self) -> str:
        return self.candidate.name


@dataclass(frozen=True)
class ClassificationReport:
    """Fits ranked by ascending nrmse (ties broken by class name).

    Candidates that could not be fitted on this grid at all (e.g. 2**n
    overflowing on all but one point) are listed in ``skipped`` with the
    reason instead of participating in the ranking.
    """

    fits: tuple[CandidateFit, ...]
    skipped: tuple[tuple[str, str], ...] = ()

    @property
    def winner(self) -> CandidateFit:
        return self.fits[0]

    @property
    def margin(self) -> float:
        """Runner-up nrmse over winner nrmse (large = confident)."""
        return self.fits[1].nrmse / max(self.fits[0].nrmse, 1e-300)


def _eval_candidate(candidate: CandidateClass, x: float) -> float:
    try:
        return float(candidate(x))
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.inf


def fit_class(series: SampleSeries, candidate: CandidateClass) -> CandidateFit:
    """Closed-form weighted least squares of y = k*g(x) + C, k clamped to >= 0.

    The weights are 1/y**2, so the fit minimizes the relative error and
    ``nrmse`` is the relative RMS error.  A series with any y <= 0 has no
    relative error: it is fitted unweighted and ``nrmse`` is the RMSE over
    the data range.  Points where g(x) is not representable (exp overflow,
    shapes undefined below their domain) are excluded and noted on the fit.
    """
    xs = series.xs
    ys = series.ys
    g = np.array([_eval_candidate(candidate, float(x)) for x in xs])
    usable = np.isfinite(g)
    note = None
    if not usable.all():
        note = f"excluded {int((~usable).sum())} points where {candidate.name} is not representable"
        g = g[usable]
    yu = ys[usable]
    if len(yu) < 2:
        raise DegenerateDesign(
            f"{candidate.name} usable on {len(yu)} of {len(ys)} points"
        )
    relative = bool(np.all(ys > 0.0))
    # weights normalized to mean 1, so the guard below reads as unweighted
    w = 1.0 / yu ** 2 if relative else np.ones_like(yu)
    w = w / np.mean(w)
    g_mean = float(np.mean(w * g))
    y_mean = float(np.mean(w * yu))
    sgg = float(np.sum(w * (g - g_mean) ** 2))
    if candidate.name == "const":
        k, c = 0.0, y_mean
    elif sgg <= _EPS * max(1.0, g_mean * g_mean):
        raise DegenerateDesign(f"{candidate.name} is constant over the grid")
    else:
        k = float(np.sum(w * (g - g_mean) * (yu - y_mean)) / sgg)
        if k < 0.0:
            k, c = 0.0, y_mean
        else:
            c = y_mean - k * g_mean
    resid = yu - (k * g + c)
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    if relative:
        nrmse = float(np.sqrt(np.mean((resid / yu) ** 2)))
    else:
        y_range = float(np.max(ys) - np.min(ys))
        nrmse = rmse / y_range if y_range > 0.0 else rmse
    return CandidateFit(candidate, k, c, rmse, nrmse, int(len(yu)), note)


def classify(series: SampleSeries,
             candidates: Sequence[CandidateClass] = DEFAULT_CANDIDATES) -> ClassificationReport:
    """Fit every candidate and rank them; needs at least two candidates."""
    if len(candidates) < 2:
        raise ValueError("classification needs at least two candidates")
    fits = []
    skipped = []
    for cand in candidates:
        try:
            fits.append(fit_class(series, cand))
        except DegenerateDesign as exc:
            skipped.append((cand.name, str(exc)))
    if len(fits) < 2:
        raise DegenerateDesign(
            f"fewer than two fittable candidates on this grid (skipped: {skipped})"
        )
    # a fit over a subset of the points (overflow exclusions) trivially
    # reaches low residuals; rank it below every full-coverage fit
    full = max(f.n_used for f in fits)
    fits.sort(key=lambda f: (f.n_used < full, f.nrmse, f.name))
    skipped.sort()
    return ClassificationReport(tuple(fits), tuple(skipped))


@dataclass(frozen=True)
class ProfileClassification:
    """Per-variable reports plus a composed summary string.

    The summary groups variables connected by composite interactions with
    a product sign and joins independent groups additively, e.g.
    ``"linear(m) · linear(x) + loglog(b)"``.
    """

    per_variable: dict[str, ClassificationReport]
    summary: str


def compose_summary(order: Sequence[str], winners: dict[str, str],
                    composite_pairs: Sequence[tuple[str, str]]) -> str:
    """Join per-variable winners: variables linked by composite pairs are
    multiplied, independent groups are added."""
    if len(order) == 1:
        return winners[order[0]]
    groups = [{v} for v in order]
    for pair in composite_pairs:
        linked = [g for g in groups if not g.isdisjoint(pair)]
        groups = [g for g in groups if g.isdisjoint(pair)] + [set().union(*linked)]
    # groups keep the order of their first variable, members their own order
    groups.sort(key=lambda g: min(map(order.index, g)))
    return " + ".join(" · ".join(f"{winners[v]}({v})" for v in order if v in g) for g in groups)


def classify_profile(profile, candidates: Sequence[CandidateClass] = DEFAULT_CANDIDATES) -> ProfileClassification:
    """Classify each variable's raw sweep series of a RuntimeProfile.

    Fitting uses the measured samples directly (not the piecewise model) to
    avoid stacking approximation error on top of measurement noise.
    """
    per_variable = {vp.variable: classify(vp.sweep.series, candidates)
                    for vp in profile.profiles}
    composite_pairs = [
        label.pair for label in profile.interactions if label.label == "composite"
    ]
    winners = {v: report.winner.name for v, report in per_variable.items()}
    return ProfileClassification(per_variable,
                                 compose_summary(list(per_variable), winners, composite_pairs))
