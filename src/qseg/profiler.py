"""Controlled execution-time measurement and per-variable runtime models.

Targets are swept one variable at a time while the others are pinned to
constants; each sweep becomes a piecewise quadratic model of CPU seconds
versus that variable.  Pairs of variables are then probed, and
:func:`label_pair` decides from the measured probe sweeps alone whether one
merely shifts the other's curve (additive) or reshapes it (composite).

Measurements are strictly serialized: never time targets from multiple
threads of one process, CPU-time attribution breaks.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import statistics
import subprocess
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridTooSmall, InsufficientArity, TargetFailure
from .interp import SPACINGS, BlendMode, PiecewisePoly, SampleSeries, build_piecewise
from .targets import BUILTIN_TARGETS, ArgSpec, BuiltinTarget, effective_clock_tick

log = logging.getLogger(__name__)

#: Aggregated times under 100x the measured clock step get a warning.  The
#: times are those the clock read, before a run's factor scales them.
RESOLUTION_MARGIN = 100

#: A difference curve counts as constant when its max-min spread stays under
#: max(ADDITIVE_RANGE_FRACTION * curve range, ADDITIVE_NOISE_FACTOR * pooled
#: repetition dispersion, 3 clock steps for clocked samples).
ADDITIVE_RANGE_FRACTION = 0.05
ADDITIVE_NOISE_FACTOR = 3.0

#: Points in each variable's default grid.
DEFAULT_GRID_POINTS = 7

#: The clocks a sample's time can come from: CPU time, wall time where the
#: platform keeps no CPU time for child processes, or a synthetic target's
#: value.  Profile documents name them in each sample's ``clock`` field.
PROCESS_CPU, WALL, SYNTHETIC = CLOCKS = ("process-cpu", "wall", "synthetic")


class TimerResolutionWarning(UserWarning):
    """Aggregated time is too close to the clock's resolution."""


def _cpu_clock() -> float:
    # module-level indirection so tests can fake the clock of timed runs
    return time.process_time()


class TargetKind(enum.Enum):
    BUILTIN = "builtin"
    EXTERNAL = "external"
    SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class TargetSpec:
    """What to measure: a named builtin workload, an external command
    invoked as ``cmd --var NAME=VALUE ...``, or a synthetic evaluator whose
    return value stands in for seconds (used to validate detection logic
    without timing noise).  Variable names must be distinct: a repeated one
    raises ValueError."""

    kind: TargetKind
    name: str
    variables: tuple[ArgSpec, ...]
    command: Optional[tuple[str, ...]] = None
    evaluator: Optional[Callable[..., float]] = None
    builtin: Optional[BuiltinTarget] = None

    def __post_init__(self):
        if len(set(self.variable_names)) < self.arity:
            raise ValueError(f"target {self.name!r} repeats a variable name: "
                             f"{list(self.variable_names)}")

    @classmethod
    def for_builtin(cls, name: str) -> "TargetSpec":
        try:
            builtin = BUILTIN_TARGETS[name]
        except KeyError:
            raise TargetFailure(
                f"unknown builtin target {name!r}; available: {sorted(BUILTIN_TARGETS)}"
            ) from None
        return cls(TargetKind.BUILTIN, name, builtin.args, builtin=builtin)

    @classmethod
    def for_command(cls, command: Sequence[str], variables: Sequence[str]) -> "TargetSpec":
        specs = tuple(ArgSpec(v) for v in variables)
        return cls(TargetKind.EXTERNAL, command[0], specs, command=tuple(command))

    @classmethod
    def for_callable(cls, name: str, evaluator: Callable[..., float],
                     variables: Sequence[str],
                     min_values: Optional[dict[str, int]] = None) -> "TargetSpec":
        floors = min_values or {}
        specs = tuple(ArgSpec(v, min_value=floors.get(v, 0)) for v in variables)
        return cls(TargetKind.SYNTHETIC, name, specs, evaluator=evaluator)

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.variables)

    def default_grids(self) -> dict[str, list[int]]:
        return {spec.name: integer_grid(*spec.default_grid, DEFAULT_GRID_POINTS, spec.spacing)
                for spec in self.variables}


_AGGREGATORS: dict[str, Callable[[list[float]], float]] = {"median": statistics.median, "min": min}


@dataclass(frozen=True)
class MeasureConfig:
    """How each point is measured: ``warmup_runs`` untimed runs, then
    ``repetitions`` timed ones, aggregated by ``median`` or ``min``.

    Times come from the process-CPU clock, not wall clock, so OS scheduling
    jitter mostly cancels; the seed drives deterministic input-data
    generation (regenerated per repetition to avoid cache warming) and
    folds to 32 bits, so seeds equal modulo 2**32 draw the same data.
    ``min`` estimates the uncontended floor on machines with background load.
    """

    warmup_runs: int = 1
    repetitions: int = 5
    aggregator: str = "median"
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 3:
            raise ValueError("repetitions must be >= 3")
        if self.warmup_runs < 1:
            raise ValueError("warmup_runs must be >= 1")
        if self.aggregator not in _AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")


@dataclass(frozen=True)
class TimingSample:
    """One aggregated measurement of a target at fixed arguments."""

    args: dict[str, int]
    cpu_seconds: float
    dispersion: float
    clock: str = PROCESS_CPU


@dataclass(frozen=True)
class SweepResult:
    """One variable swept over a grid, the rest held at fixed_values."""

    swept_variable: str
    fixed_values: dict[str, int]
    samples: tuple[TimingSample, ...]
    series: SampleSeries


@dataclass(frozen=True)
class VariableProfile:
    """A sweep plus the piecewise model built over it."""

    sweep: SweepResult
    model: PiecewisePoly

    @property
    def variable(self) -> str:
        return self.sweep.swept_variable


@dataclass(frozen=True)
class InteractionLabel:
    """Whether the second variable translates (additive) or reshapes
    (composite) the first variable's curve."""

    pair: tuple[str, str]
    label: str  # "additive" | "composite"
    evidence: float  # worst max-min spread of a difference curve
    threshold: float


@dataclass(frozen=True)
class RuntimeProfile:
    target: TargetSpec
    profiles: tuple[VariableProfile, ...]
    interactions: tuple[InteractionLabel, ...]


def _checked_grid(grid: Sequence[int], name: str) -> list[int]:
    """The grid as integers, if it is a sweep grid: an odd number, at
    least 3, of strictly increasing points.  Raises GridTooSmall otherwise."""
    grid = [int(g) for g in grid]
    if len(grid) < 3:
        raise GridTooSmall(f"{name} has {len(grid)} points; need >= 3")
    if len(grid) % 2 == 0:
        raise GridTooSmall(f"{name} has even length {len(grid)}")
    for left, right in zip(grid, grid[1:]):
        if right <= left:
            raise GridTooSmall(f"{name} is not strictly increasing: {right} follows {left}")
    return grid


def integer_grid(lo: int, hi: int, points: int, spacing: str = "even") -> list[int]:
    """``points`` integers from lo to hi inclusive, spaced as ``SPACINGS[spacing]``."""
    name = ("" if spacing == "even" else f"{spacing} ") + f"grid {lo}:{hi}:{points}"
    if spacing == "geometric" and lo <= 0:
        raise GridTooSmall("geometric grids need a positive lower bound")
    if points > hi - lo + 1:  # rejected before a grid of that size is allocated
        raise GridTooSmall(f"{name} has more points than integers in {lo}..{hi}")
    return _checked_grid(np.rint(SPACINGS[spacing](lo, hi, max(points, 0))), name)


def _seed_material(cfg: MeasureConfig, args: dict[str, int], rep: int) -> list[int]:
    material = [cfg.seed & 0xFFFFFFFF, rep]
    for name in sorted(args):
        material.append(abs(int(args[name])) & 0xFFFFFFFF)
    return material


def _aggregate(cfg: MeasureConfig, times: list[float]) -> tuple[float, float]:
    return float(_AGGREGATORS[cfg.aggregator](times)), float(statistics.stdev(times))


def _runner(target: TargetSpec, cfg: MeasureConfig
            ) -> tuple[str, Callable[[dict[str, int], int], tuple[float, float]]]:
    """The name of the clock that times ``target`` and a function that
    makes one run at the given arguments and repetition index and returns
    its time (a synthetic target's value stands in for it) and the factor
    that scales it to the sample's unit: what a builtin's ``run`` returns,
    else 1.0."""
    if target.kind is TargetKind.BUILTIN:
        builtin = target.builtin
        assert builtin is not None

        def run_builtin(args: dict[str, int], rep: int) -> tuple[float, float]:
            rng = np.random.default_rng(_seed_material(cfg, args, rep))
            payload = builtin.setup(args, rng)
            start = _cpu_clock()
            factor = builtin.run(payload)
            return _cpu_clock() - start, float(factor)

        return PROCESS_CPU, run_builtin

    if target.kind is TargetKind.EXTERNAL:
        assert target.command is not None
        try:
            import resource

            def child_cpu() -> float:
                ru = resource.getrusage(resource.RUSAGE_CHILDREN)
                return ru.ru_utime + ru.ru_stime

            clock = PROCESS_CPU
        except ImportError:  # pragma: no cover - non-Unix fallback
            child_cpu, clock = time.perf_counter, WALL

        def run_external(args: dict[str, int], rep: int) -> tuple[float, float]:
            argv = list(target.command)
            for name in target.variable_names:
                argv += ["--var", f"{name}={args[name]}"]
            before = child_cpu()
            try:
                proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            except OSError as exc:
                raise TargetFailure(f"cannot run {argv[0]!r}: {exc}") from exc
            elapsed = child_cpu() - before
            if proc.returncode != 0:
                stderr = proc.stderr.decode(errors="replace").strip()
                raise TargetFailure(f"{argv[0]!r} exited {proc.returncode}"
                                    + (f": {stderr}" if stderr else ""))
            return elapsed, 1.0

        return clock, run_external

    assert target.evaluator is not None

    def run_synthetic(args: dict[str, int], rep: int) -> tuple[float, float]:
        value = float(target.evaluator(**{n: args[n] for n in target.variable_names}))
        if not math.isfinite(value):
            raise TargetFailure(f"synthetic {target.name} returned {value} at {args}")
        return value, 1.0

    return SYNTHETIC, run_synthetic


def _measure_points(target: TargetSpec, arg_sets: Sequence[dict[str, int]],
                    cfg: MeasureConfig) -> tuple[TimingSample, ...]:
    """Measure each argument set: warm up, repeat, aggregate.

    A run that raises fails the measurement with ``TargetFailure``.
    Repetitions are interleaved round-robin across the sets (rep 0 of every
    set, then rep 1, ...) so slow periods of a loaded machine spread over
    all points instead of distorting one of them.  A sample aggregates the
    scaled times; the resolution warning reads the times the clock read.
    """
    missing = [n for n in target.variable_names if any(n not in args for args in arg_sets)]
    if missing:
        raise ValueError(f"missing argument values for {missing}")
    clock, run = _runner(target, cfg)
    runs: list[list[tuple[float, float]]] = [[] for _ in arg_sets]
    for rep in range(cfg.warmup_runs + cfg.repetitions):
        for i, args in enumerate(arg_sets):
            try:
                elapsed, factor = run(args, rep)
            except TargetFailure:
                raise
            except Exception as exc:
                raise TargetFailure(f"{target.kind.value} {target.name} raised: {exc}") from exc
            if rep >= cfg.warmup_runs:
                runs[i].append((elapsed, factor))
    samples = []
    for args, point_runs in zip(arg_sets, runs):
        value, dispersion = _aggregate(cfg, [elapsed * factor for elapsed, factor in point_runs])
        raw = _AGGREGATORS[cfg.aggregator]([elapsed for elapsed, _ in point_runs])
        if clock != SYNTHETIC and 0.0 <= raw < RESOLUTION_MARGIN * effective_clock_tick():
            warnings.warn(
                f"{target.name} at {args}: runs of {raw:.3e}s are within "
                f"{RESOLUTION_MARGIN}x of the clock step",
                TimerResolutionWarning,
                stacklevel=3,
            )
        samples.append(TimingSample(dict(args), value, dispersion, clock=clock))
    return tuple(samples)


def sweep_single(target: TargetSpec, variable: str, grid: Sequence[int],
                 fixed: dict[str, int], cfg: MeasureConfig) -> SweepResult:
    """Measure one point per grid value of ``variable``, everything else
    pinned at ``fixed`` (which may hold a value for ``variable``; it is
    dropped), with repetitions interleaved across the grid."""
    grid = _checked_grid(grid, f"grid for {variable}")
    pinned = {n: int(fixed[n]) for n in target.variable_names if n != variable and n in fixed}
    log.debug("sweep %s over %s fixed=%s", variable, grid, pinned)
    samples = _measure_points(target, [{**pinned, variable: g} for g in grid], cfg)
    series = SampleSeries.from_arrays(grid, [s.cpu_seconds for s in samples])
    return SweepResult(variable, pinned, samples, series)


def profile_variable(sweep: SweepResult) -> VariableProfile:
    """Model a sweep with the endpoint-secant blend, continuous at the knots."""
    return VariableProfile(sweep, build_piecewise(sweep.series, BlendMode.ENDPOINT_SECANT))


def label_pair(pair: tuple[str, str], sweeps: Sequence[SweepResult],
               tick: float) -> InteractionLabel:
    """Label ``pair`` from sweeps of its first variable over one grid, one per
    probe value of its second (others raise ValueError); ``tick`` is the
    clock step.  Reads no clock, runs no target.

    Consecutive curves are differenced pointwise: if every difference curve
    is constant (see ``ADDITIVE_RANGE_FRACTION``), the second variable only
    translates the curve and the pair is additive; otherwise it reshapes it.
    """
    if not sweeps:
        raise ValueError(f"label_pair needs at least one sweep to label {pair}")
    swept = {(sw.swept_variable, tuple(p.x for p in sw.series)) for sw in sweeps}
    if len(swept) > 1 or any(variable != pair[0] for variable, _ in swept):
        raise ValueError(f"label_pair needs every sweep to sweep {pair[0]!r} over one grid")
    curves = [np.asarray(sw.series.ys) for sw in sweeps]
    dispersions = [s.dispersion for sw in sweeps for s in sw.samples]
    # quantized clocks make per-point dispersion underestimate the noise
    # floor (repetitions collapse onto one tick, and the difference of two
    # quantized curves spreads across ~2 ticks)
    clocked = any(s.clock != SYNTHETIC for sw in sweeps for s in sw.samples)
    threshold = max(
        ADDITIVE_RANGE_FRACTION * max(float(np.max(c) - np.min(c)) for c in curves),
        ADDITIVE_NOISE_FACTOR * float(np.sqrt(np.mean(np.square(dispersions)))),
        3.0 * tick if clocked else 0.0,
    )
    diffs = [upper - lower for lower, upper in zip(curves, curves[1:])]
    evidence = max((float(np.max(d) - np.min(d)) for d in diffs), default=0.0)
    label = "additive" if evidence <= threshold else "composite"
    return InteractionLabel(tuple(pair), label, evidence, threshold)


def detect_interaction(target: TargetSpec, var_a: str, var_b: str,
                       grid_a: Sequence[int], probes_b: Sequence[int],
                       fixed: dict[str, int], cfg: MeasureConfig) -> InteractionLabel:
    """Label the (var_a, var_b) pair additive or composite: sweep var_a once
    per probe value of var_b, then decide with :func:`label_pair`."""
    if target.arity < 2:
        raise InsufficientArity(f"{target.name} has arity {target.arity}")
    if var_a == var_b or not {var_a, var_b} <= set(target.variable_names):
        raise ValueError(
            f"need two distinct variables of {target.name} {list(target.variable_names)}, "
            f"got {var_a!r} and {var_b!r}"
        )
    probes = sorted(set(int(p) for p in probes_b))
    if len(probes) < 2:
        raise ValueError("need at least two distinct probe values")
    sweeps = [sweep_single(target, var_a, grid_a, {**fixed, var_b: p}, cfg) for p in probes]
    return label_pair((var_a, var_b), sweeps, effective_clock_tick())


def _representative_constant(model: PiecewisePoly) -> int:
    middle = model.segments[(len(model.segments) - 1) // 2]
    # the representative input lies strictly inside the middle segment, whose
    # bounds are grid nodes already checked against the validity floor
    return int(round(middle.representative_input()))


def build_runtime_profile(target: TargetSpec, grids: dict[str, Sequence[int]],
                          cfg: MeasureConfig) -> RuntimeProfile:
    """Measure every sweep, then model each variable and label every pair.

    The coarse pass sweeps each variable with the others pinned at zero (or
    the smallest grid value where zero is invalid) to expose its own shape;
    a single-variable target's coarse model is its profile.  For
    multi-variable targets the coarse models fix the pins: each variable's
    representative input, the integer whose modelled cost equals its coarse
    model's middle-segment average.  Every later sweep is planned from those
    pins: one refined sweep per variable, then for each pair a probe sweep
    of its first variable at each end of its second's grid.  The refined
    sweeps become the models (:func:`profile_variable`'s endpoint-secant
    blend); :func:`label_pair` labels each pair from its probe sweeps.
    """
    names = target.variable_names
    if not names:
        raise InsufficientArity(f"{target.name} has no variables to profile")
    if missing := [n for n in names if n not in grids]:
        raise GridTooSmall(f"no grid declared for {missing}")
    grids = {n: _checked_grid(grids[n], f"grid for {n}") for n in names}
    first_pins = {}
    for spec in target.variables:
        start, floor = grids[spec.name][0], spec.min_value
        if start < floor:
            raise GridTooSmall(f"grid for {spec.name} starts below its validity floor {floor}")
        first_pins[spec.name] = 0 if floor <= 0 else start

    coarse = [profile_variable(sweep_single(target, n, grids[n], first_pins, cfg)) for n in names]
    if target.arity == 1:
        return RuntimeProfile(target, tuple(coarse), ())

    pins = {vp.variable: _representative_constant(vp.model) for vp in coarse}
    refined = [sweep_single(target, n, grids[n], pins, cfg) for n in names]
    pairs = list(itertools.combinations(names, 2))
    probes = [[sweep_single(target, a, grids[a], {**pins, b: probe}, cfg)
               for probe in (grids[b][0], grids[b][-1])]
              for a, b in pairs]

    tick = effective_clock_tick()
    return RuntimeProfile(target, tuple(profile_variable(sw) for sw in refined),
                          tuple(label_pair(pair, sw, tick) for pair, sw in zip(pairs, probes)))
