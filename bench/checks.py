"""Output checks of the benchmark, computed apart from the program.

Each check raises :class:`CheckFailed` with a message naming what differs.
The expected values come from the method's own properties (which nodes a
segment passes through, which quadrature rule it integrates to), from
scipy ``quad``, and from a local Newton-form evaluation of each segment
in numpy.  None of them compares against a stored copy of program output.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

#: Relative tolerance of every numeric comparison.
REL_TOL = 1e-9

#: Plot rows per segment, as the ``--plot`` output promises.
PLOT_POINTS_PER_SEGMENT = 200

#: Reference functions, written here rather than taken from the program.
REFERENCES = {
    "log2": math.log2,
    "cospix": lambda x: math.cos(math.pi * x),
    "exp2": lambda x: 2.0 ** x,
    "ratio": lambda x: (x - 1.0) / x,
}


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (tolerance {tol:.3g})")


# --- sweeps and run counts ------------------------------------------------

def expected_sweep_count(arity: int) -> int:
    """k coarse + k refined + k(k-1) probe sweeps; a single variable has one."""
    return 1 if arity == 1 else 2 * arity + arity * (arity - 1)


def check_sweeps(records, names, grids, first_constants) -> list[str]:
    """Check every sweep of one ``build_runtime_profile`` call.

    ``records`` holds ``(variable, fixed, result)`` per sweep in call
    order.  Returns the phase of each sweep: coarse, refined or probe.
    """
    k = len(names)
    if len(records) != expected_sweep_count(k):
        raise CheckFailed(f"{len(records)} sweeps, expected {expected_sweep_count(k)}")
    for variable, fixed, result in records:
        grid = [int(g) for g in grids[variable]]
        if result.swept_variable != variable:
            raise CheckFailed(f"sweep of {variable} reports {result.swept_variable}")
        if [float(x) for x in result.series.xs] != [float(g) for g in grid]:
            raise CheckFailed(f"sweep of {variable} measured {list(result.series.xs)}, grid {grid}")
        if dict(result.fixed_values) != dict(fixed):
            raise CheckFailed(f"sweep of {variable} reports pinned {result.fixed_values}, got {fixed}")
        for g, sample in zip(grid, result.samples):
            if dict(sample.args) != {**fixed, variable: g}:
                raise CheckFailed(f"sweep of {variable} sample args {sample.args}, "
                                  f"expected {({**fixed, variable: g})}")
    phases = ["coarse"] * k
    for i, (variable, fixed, _) in enumerate(records[:k]):
        want = {n: first_constants[n] for n in names if n != names[i]}
        if variable != names[i] or fixed != want:
            raise CheckFailed(f"coarse sweep {i}: {variable} pinned {fixed}, expected {names[i]} {want}")
    if k == 1:
        return phases
    pinned = {}
    for i, (variable, fixed, _) in enumerate(records[k:2 * k]):
        if variable != names[i]:
            raise CheckFailed(f"refined sweep {i} is of {variable}, expected {names[i]}")
        for name, value in fixed.items():
            lo, hi = grids[name][0], grids[name][-1]
            if not lo <= value <= hi:
                raise CheckFailed(f"refined sweep of {variable} pins {name}={value} outside [{lo}, {hi}]")
            if pinned.setdefault(name, value) != value:
                raise CheckFailed(f"{name} pinned at {value} and {pinned[name]}")
    phases += ["refined"] * k
    probes = records[2 * k:]
    expected = []
    for i in range(k):
        for j in range(i + 1, k):
            grid_b = grids[names[j]]
            for end in sorted({grid_b[0], grid_b[-1]}):
                rest = {n: pinned[n] for n in names if n not in (names[i], names[j])}
                expected.append((names[i], {**rest, names[j]: end}))
    got = [(variable, fixed) for variable, fixed, _ in probes]
    if got != expected:
        raise CheckFailed(f"probe sweeps {got}, expected {expected}")
    return phases + ["probe"] * len(probes)


def check_target_runs(runs: int, records, grids, warmups: int, repetitions: int) -> None:
    """Every sweep runs each grid point warmups + repetitions times."""
    want = sum(len(grids[variable]) for variable, _, _ in records) * (warmups + repetitions)
    if runs != want:
        raise CheckFailed(f"{runs} target runs, expected {want}")


def check_times(samples) -> None:
    for sample in samples:
        if not (math.isfinite(sample.cpu_seconds) and sample.cpu_seconds > 0.0):
            raise CheckFailed(f"time {sample.cpu_seconds!r} at {sample.args}")
        if not (math.isfinite(sample.dispersion) and sample.dispersion >= 0.0):
            raise CheckFailed(f"dispersion {sample.dispersion!r} at {sample.args}")


# --- segment arithmetic -----------------------------------------------------

def segment_rule(mode: str, x0, x1, x2, y0, y1, y2):
    """Integral of a segment over [x0, x2] from its three samples.

    The parabola integrates to Simpson's rule for uneven spacing, the
    endpoint chord to the trapezoid rule, and the trailing chord (through
    nodes 1 and 2) to its value at the interval's midpoint times the width.
    Blends average the two.  Works on scalars and numpy arrays.
    """
    h1, h2 = x1 - x0, x2 - x1
    width = h1 + h2
    simpson = width / 6.0 * ((2.0 - h2 / h1) * y0 + width * width / (h1 * h2) * y1
                             + (2.0 - h1 / h2) * y2)
    if mode == "pure-lagrange":
        return simpson
    if mode == "endpoint-secant":
        return 0.5 * (simpson + 0.5 * width * (y0 + y2))
    if mode == "trailing-secant":
        slope = (y2 - y1) / h2
        return 0.5 * (simpson + width * (y1 + slope * (0.5 * (x0 + x2) - x1)))
    raise ValueError(f"unknown mode {mode!r}")


def pass_through_nodes(mode: str) -> tuple[int, ...]:
    """Which of a segment's three nodes the blended segment interpolates."""
    return {"pure-lagrange": (0, 1, 2), "endpoint-secant": (0, 2),
            "trailing-secant": (1, 2)}[mode]


class LocalModel:
    """The segmented model rebuilt from its samples in Newton form.

    Each segment is the parabola through its three nodes, averaged with
    the mode's chord; evaluation works on x relative to the segment's first
    node, which keeps it well conditioned at any segment count.
    """

    def __init__(self, xs, ys, mode: str):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if len(xs) < 3 or len(xs) % 2 == 0:
            raise CheckFailed(f"{len(xs)} samples cannot form segments")
        self.mode = mode
        self.x0, self.x1, self.x2 = xs[0:-1:2], xs[1::2], xs[2::2]
        self.y0, self.y1, self.y2 = ys[0:-1:2], ys[1::2], ys[2::2]
        self.d1 = (self.y1 - self.y0) / (self.x1 - self.x0)
        self.d2 = ((self.y2 - self.y1) / (self.x2 - self.x1) - self.d1) / (self.x2 - self.x0)
        if mode == "trailing-secant":
            self.cx, self.cy = self.x1, self.y1
            self.slope = (self.y2 - self.y1) / (self.x2 - self.x1)
        else:
            self.cx, self.cy = self.x0, self.y0
            self.slope = (self.y2 - self.y0) / (self.x2 - self.x0)
        self.y_range = float(np.max(ys) - np.min(ys)) or 1.0
        self.domain = (float(xs[0]), float(xs[-1]))

    def segment_index(self, x):
        """Left segment owns a shared knot, as the program's docs state."""
        return np.minimum(np.searchsorted(self.x2, x, side="left"), len(self.x2) - 1)

    def _blend(self, parabola, chord):
        return parabola if self.mode == "pure-lagrange" else 0.5 * (parabola + chord)

    def value(self, x, i=None):
        x = np.asarray(x, dtype=float)
        i = self.segment_index(x) if i is None else i
        t = x - self.x0[i]
        parabola = self.y0[i] + t * (self.d1[i] + self.d2[i] * (x - self.x1[i]))
        chord = self.cy[i] + self.slope[i] * (x - self.cx[i])
        return self._blend(parabola, chord)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        i = self.segment_index(x)
        parabola = self.d1[i] + self.d2[i] * (2.0 * x - self.x0[i] - self.x1[i])
        return self._blend(parabola, self.slope[i])

    def _antiderivative(self, i, x):
        """Integral of segment i from its first node to x."""
        t = x - self.x0[i]
        h1 = self.x1[i] - self.x0[i]
        parabola = (self.y0[i] * t + self.d1[i] * t * t / 2.0
                    + self.d2[i] * (t ** 3 / 3.0 - h1 * t * t / 2.0))
        s = x - self.cx[i]
        s0 = self.x0[i] - self.cx[i]
        chord = self.cy[i] * t + self.slope[i] * (s * s - s0 * s0) / 2.0
        return self._blend(parabola, chord)

    def integral(self, a: float, b: float) -> float:
        u = np.maximum(a, self.x0)
        v = np.minimum(b, self.x2)
        idx = np.nonzero(u < v)[0]
        return float(np.sum(self._antiderivative(idx, v[idx]) - self._antiderivative(idx, u[idx])))

    def widths(self, x):
        i = self.segment_index(x)
        return self.x2[i] - self.x0[i]


def check_model_samples(pw, xs, ys) -> None:
    """The model passes through the samples its mode interpolates, and over
    each segment integrates to the mode's rule on those samples; both to
    1e-9 of the largest sample (times the width for integrals)."""
    mode = pw.mode.value
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    scale = max(abs(y) for y in ys) or 1.0
    if len(pw.segments) != (len(xs) - 1) // 2:
        raise CheckFailed(f"{len(pw.segments)} segments over {len(xs)} samples")
    for i, seg in enumerate(pw.segments):
        nx, ny = xs[2 * i:2 * i + 3], ys[2 * i:2 * i + 3]
        if not (math.isclose(seg.lo, nx[0], rel_tol=1e-12) and math.isclose(seg.hi, nx[2], rel_tol=1e-12)):
            raise CheckFailed(f"segment {i} spans [{seg.lo}, {seg.hi}], nodes {nx}")
        for node in pass_through_nodes(mode):
            _close(seg.value(nx[node]), ny[node], REL_TOL * scale,
                   f"segment {i} at node x={nx[node]}")
        _close(seg.integral(nx[0], nx[2]), segment_rule(mode, *nx, *ny),
               REL_TOL * scale * (nx[2] - nx[0]), f"integral of segment {i}")


# --- queries, accuracy, files ---------------------------------------------

def check_queries(local: LocalModel, xs, values, derivatives, intervals, integrals) -> None:
    """Queried F, dF/dx (both one-sided values) and integrals agree with the
    local model to 1e-9 of the model's range (per segment width for
    derivatives, times the domain width for integrals)."""
    tol = REL_TOL * local.y_range
    xs = np.asarray(xs, dtype=float)
    want = local.value(xs)
    got = np.asarray(values, dtype=float)
    bad = ~(np.abs(got - want) <= tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"F({xs[i]!r}) = {got[i]!r}, expected {want[i]!r}")
    want = local.derivative(xs)
    dtol = tol / local.widths(xs)
    for side in (0, 1):
        got = np.asarray([d[side] for d in derivatives], dtype=float)
        bad = ~(np.abs(got - want) <= dtol)
        if bad.any():
            i = int(np.argmax(bad))
            raise CheckFailed(f"dF/dx({xs[i]!r}) = {got[i]!r}, expected {want[i]!r}")
    itol = tol * (local.domain[1] - local.domain[0])
    for (a, b), got in zip(intervals, integrals):
        _close(got, local.integral(a, b), itol, f"integral over [{a!r}, {b!r}]")


def reference_integral(name: str, lo: float, hi: float) -> float:
    from scipy.integrate import quad  # imported on first use: it takes longer than qseg's set-up

    value, _ = quad(REFERENCES[name], lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
    return value


def check_accuracy(reported_a: float, reference: float, xs, ys, mode: str) -> None:
    """A is the smaller over the larger magnitude of the reference integral
    and the sum of the mode's rule over every segment."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    model = float(np.sum(segment_rule(mode, xs[0:-1:2], xs[1::2], xs[2::2],
                                      ys[0:-1:2], ys[1::2], ys[2::2])))
    small, large = sorted((abs(reference), abs(model)))
    _close(reported_a, small / large, REL_TOL, "accuracy score A")


def expected_knot_rows(local: LocalModel) -> tuple[int, int]:
    """(least, most) knot rows: one per interior knot, plus one more where
    the two sides differ; a knot within a factor 10 of the program's jump
    tolerance may fall either way."""
    knots = local.x2[:-1]
    left = local.value(knots, np.arange(len(knots)))
    right = local.value(knots, np.arange(1, len(knots) + 1))
    gap = np.abs(left - right) / np.maximum(1.0, np.abs(left))
    sure = int(np.sum(gap > 10 * REL_TOL))
    maybe = int(np.sum((gap > 0.1 * REL_TOL) & (gap <= 10 * REL_TOL)))
    return len(knots) + sure, len(knots) + sure + maybe


def count_rows(path: Path) -> int:
    """Data rows of a CSV file with a header line."""
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b"")) - 1


def check_plot(path: Path, local: LocalModel, with_reference: bool) -> None:
    """200 rows per segment plus the knot rows."""
    segments = len(local.x0)
    per_segment = [0] * segments
    knot_rows = 0
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        want_header = ["x", "F"] + (["G"] if with_reference else []) + ["segment_index", "is_knot"]
        if header != want_header:
            raise CheckFailed(f"plot header {header}, expected {want_header}")
        for row in reader:
            if len(row) != len(want_header):
                raise CheckFailed(f"plot row {row}")
            if row[-1] == "1":
                knot_rows += 1
            else:
                per_segment[int(row[-2])] += 1
    if any(n != PLOT_POINTS_PER_SEGMENT for n in per_segment):
        raise CheckFailed(f"plot rows per segment {sorted(set(per_segment))}, "
                          f"expected {PLOT_POINTS_PER_SEGMENT}")
    least, most = expected_knot_rows(local)
    if not least <= knot_rows <= most:
        raise CheckFailed(f"{knot_rows} knot rows, expected {least}..{most}")


def file_digest(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def check_same_digests(first: dict, second: dict) -> None:
    for name in first:
        if first[name] != second.get(name):
            raise CheckFailed(f"re-running the job changed {name}")


def check_redump(path: Path, copy: Path, load, dump) -> None:
    """Loading a written document and dumping it again gives the same bytes."""
    dump(load(path), copy)
    if Path(path).read_bytes() != Path(copy).read_bytes():
        raise CheckFailed(f"{path} re-dumps to different bytes")
