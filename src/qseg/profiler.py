"""Controlled execution-time measurement and per-variable runtime models.

Targets are swept one variable at a time while the others are pinned to
constants; each sweep becomes a piecewise quadratic model of CPU seconds
versus that variable.  Pairs of variables are then probed to decide whether
one merely shifts the other's curve (additive) or reshapes it (composite).

Measurements are strictly serialized: never time targets from multiple
threads of one process, CPU-time attribution breaks.
"""

from __future__ import annotations

import enum
import logging
import statistics
import subprocess
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridTooSmall, InsufficientArity, TargetFailure
from .interp import BlendMode, PiecewisePoly, SampleSeries, build_piecewise
from .targets import BUILTIN_TARGETS, ArgSpec, BuiltinTarget

log = logging.getLogger(__name__)

#: Aggregated times under 100x the measured clock step get a warning.
RESOLUTION_MARGIN = 100

#: A difference curve counts as constant when its max-min spread stays under
#: max(ADDITIVE_RANGE_FRACTION * curve range, ADDITIVE_NOISE_FACTOR * pooled
#: repetition dispersion).
ADDITIVE_RANGE_FRACTION = 0.05
ADDITIVE_NOISE_FACTOR = 3.0


class TimerResolutionWarning(UserWarning):
    """Aggregated time is too close to the clock's resolution."""


def _cpu_clock() -> float:
    # module-level indirection so tests can fake the clock
    return time.process_time()


def _cpu_clock_resolution() -> float:
    return time.get_clock_info("process_time").resolution


_effective_tick: Optional[float] = None


def effective_clock_tick() -> float:
    """Measured granularity of the process-CPU clock.

    Kernels that account CPU in jiffies advance the clock in ~1-10ms steps
    regardless of the advertised nanosecond resolution; noise floors and
    the builtin targets' batch sizes (``targets.batch_scale``) must use the
    real step.  Measured once and cached.
    """
    global _effective_tick
    if _effective_tick is None:
        steps = []
        last = _cpu_clock()
        deadline = time.perf_counter() + 0.5
        while len(steps) < 3 and time.perf_counter() < deadline:
            cur = _cpu_clock()
            if cur > last:
                steps.append(cur - last)
                last = cur
        _effective_tick = max(min(steps) if steps else 0.0, _cpu_clock_resolution())
    return _effective_tick


class TargetKind(enum.Enum):
    BUILTIN = "builtin"
    EXTERNAL = "external"
    SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class TargetSpec:
    """What to measure: a named builtin workload, an external command
    invoked as ``cmd --var NAME=VALUE ...``, or a synthetic evaluator whose
    return value stands in for seconds (used to validate detection logic
    without timing noise)."""

    kind: TargetKind
    name: str
    variables: tuple[ArgSpec, ...]
    command: Optional[tuple[str, ...]] = None
    evaluator: Optional[Callable[..., float]] = None
    builtin: Optional[BuiltinTarget] = None

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
    def for_command(cls, command: Sequence[str], variables: Sequence[str],
                    min_values: Optional[dict[str, int]] = None) -> "TargetSpec":
        floors = min_values or {}
        return cls(
            TargetKind.EXTERNAL,
            command[0],
            tuple(ArgSpec(v, min_value=floors.get(v, 0)) for v in variables),
            command=tuple(command),
        )

    @classmethod
    def for_callable(cls, name: str, evaluator: Callable[..., float],
                     variables: Sequence[str],
                     min_values: Optional[dict[str, int]] = None) -> "TargetSpec":
        floors = min_values or {}
        return cls(
            TargetKind.SYNTHETIC,
            name,
            tuple(ArgSpec(v, min_value=floors.get(v, 0)) for v in variables),
            evaluator=evaluator,
        )

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.variables)

    def arg_spec(self, name: str) -> ArgSpec:
        for spec in self.variables:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def default_grids(self, points: int = 7) -> dict[str, list[int]]:
        out = {}
        for spec in self.variables:
            lo, hi = spec.default_grid
            if spec.grid_scale == "geometric":
                out[spec.name] = geometric_grid(lo, hi, points)
            else:
                out[spec.name] = integer_grid(lo, hi, points)
        return out


@dataclass(frozen=True)
class MeasureConfig:
    """How each point is measured.

    Times come from the process-CPU clock, not wall clock, so OS scheduling
    jitter mostly cancels; the seed drives deterministic input-data
    generation (regenerated per repetition to avoid cache warming).
    ``min`` aggregation estimates the uncontended floor on machines with
    background load (contention only ever adds time).
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
        if self.aggregator not in ("median", "mean", "min"):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")


@dataclass(frozen=True)
class TimingSample:
    """One aggregated measurement of a target at fixed arguments."""

    args: dict[str, int]
    cpu_seconds: float
    dispersion: float
    clock: str = "process-cpu"


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

    variable: str
    sweep: SweepResult
    model: PiecewisePoly

    @property
    def fixed_values(self) -> dict[str, int]:
        return self.sweep.fixed_values


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
            raise GridTooSmall(f"{name} is not strictly increasing: {grid}")
    return grid


def integer_grid(lo: int, hi: int, points: int) -> list[int]:
    """``points`` evenly spaced integers from lo to hi inclusive."""
    return _checked_grid(np.rint(np.linspace(lo, hi, max(points, 0))), f"grid {lo}:{hi}:{points}")


def geometric_grid(lo: int, hi: int, points: int) -> list[int]:
    """``points`` geometrically spaced integers from lo to hi inclusive."""
    if lo <= 0:
        raise GridTooSmall("geometric grids need a positive lower bound")
    return _checked_grid(np.rint(np.geomspace(lo, hi, max(points, 0))),
                        f"geometric grid {lo}:{hi}:{points}")


def _seed_material(cfg: MeasureConfig, args: dict[str, int], rep: int) -> list[int]:
    material = [cfg.seed & 0xFFFFFFFF, rep]
    for name in sorted(args):
        material.append(abs(int(args[name])) & 0xFFFFFFFF)
    return material


def _aggregate(cfg: MeasureConfig, times: list[float]) -> tuple[float, float]:
    if cfg.aggregator == "median":
        agg = statistics.median(times)
    elif cfg.aggregator == "mean":
        agg = statistics.fmean(times)
    else:
        agg = min(times)
    return float(agg), float(statistics.stdev(times))


def _run_builtin_once(target: TargetSpec, args: dict[str, int],
                      cfg: MeasureConfig, rep: int) -> float:
    builtin = target.builtin
    assert builtin is not None
    rng = np.random.default_rng(_seed_material(cfg, args, rep))
    payload = builtin.setup(args, rng)
    try:
        start = _cpu_clock()
        builtin.run(payload)
        return _cpu_clock() - start
    except Exception as exc:
        raise TargetFailure(f"builtin {target.name} raised: {exc}") from exc


def _external_child_clock() -> tuple[Callable[[], float], str]:
    try:
        import resource

        def child_cpu() -> float:
            ru = resource.getrusage(resource.RUSAGE_CHILDREN)
            return ru.ru_utime + ru.ru_stime

        return child_cpu, "process-cpu"
    except ImportError:  # pragma: no cover - non-Unix fallback
        return time.perf_counter, "wall"


def _run_external_once(target: TargetSpec, args: dict[str, int]) -> float:
    assert target.command is not None
    argv = list(target.command)
    for name in target.variable_names:
        argv += ["--var", f"{name}={args[name]}"]
    child_cpu, _ = _external_child_clock()
    before = child_cpu()
    try:
        proc = subprocess.run(argv, capture_output=True)
    except OSError as exc:
        raise TargetFailure(f"cannot run {argv[0]!r}: {exc}") from exc
    elapsed = child_cpu() - before
    if proc.returncode != 0:
        raise TargetFailure(
            f"{argv[0]!r} exited {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"
        )
    return elapsed


def _run_once(target: TargetSpec, args: dict[str, int], cfg: MeasureConfig, rep: int) -> float:
    if target.kind is TargetKind.BUILTIN:
        return _run_builtin_once(target, args, cfg, rep)
    return _run_external_once(target, args)


def _synthetic_sample(target: TargetSpec, args: dict[str, int]) -> TimingSample:
    assert target.evaluator is not None
    try:
        value = float(target.evaluator(**{n: args[n] for n in target.variable_names}))
    except Exception as exc:
        raise TargetFailure(f"synthetic {target.name} raised: {exc}") from exc
    return TimingSample(dict(args), value, 0.0, clock="synthetic")


def _finalize_sample(target: TargetSpec, args: dict[str, int], cfg: MeasureConfig,
                     times: list[float], clock: str) -> TimingSample:
    cpu_seconds, dispersion = _aggregate(cfg, times)
    if 0.0 <= cpu_seconds < RESOLUTION_MARGIN * effective_clock_tick():
        warnings.warn(
            f"{target.name} at {args}: {cpu_seconds:.3e}s is within "
            f"{RESOLUTION_MARGIN}x of the clock step",
            TimerResolutionWarning,
            stacklevel=3,
        )
    return TimingSample(dict(args), cpu_seconds, dispersion, clock=clock)


def _validate_args(target: TargetSpec, args: dict[str, int]) -> None:
    missing = [n for n in target.variable_names if n not in args]
    if missing:
        raise ValueError(f"missing argument values for {missing}")


def measure(target: TargetSpec, args: dict[str, int], cfg: MeasureConfig) -> TimingSample:
    """Measure one point: warm up, repeat, aggregate.

    Input data is regenerated per repetition from the seed, so a fixed seed
    gives identical argument/data sequences while timings stay honest.
    """
    _validate_args(target, args)
    if target.kind is TargetKind.SYNTHETIC:
        return _synthetic_sample(target, args)
    clock = "process-cpu" if target.kind is TargetKind.BUILTIN else _external_child_clock()[1]
    times = []
    for rep in range(cfg.warmup_runs + cfg.repetitions):
        elapsed = _run_once(target, args, cfg, rep)
        if rep >= cfg.warmup_runs:
            times.append(elapsed)
    return _finalize_sample(target, args, cfg, times, clock)


def sweep_single(target: TargetSpec, variable: str, grid: Sequence[int],
                 fixed: dict[str, int], cfg: MeasureConfig) -> SweepResult:
    """Measure one point per grid value of ``variable``; everything else
    pinned at ``fixed``.

    Repetitions are interleaved round-robin across the grid (rep 0 of every
    point, then rep 1, ...) so slow periods of a loaded machine spread over
    all points instead of distorting one of them.
    """
    grid = _checked_grid(grid, f"grid for {variable}")
    others = [n for n in target.variable_names if n != variable]
    missing = [n for n in others if n not in fixed]
    if missing:
        raise ValueError(f"fixed values missing for {missing}")
    log.debug("sweep %s over %s fixed=%s", variable, grid, fixed)
    arg_sets = [{**{n: fixed[n] for n in others}, variable: g} for g in grid]
    if target.kind is TargetKind.SYNTHETIC:
        samples = tuple(_synthetic_sample(target, args) for args in arg_sets)
    else:
        clock = "process-cpu" if target.kind is TargetKind.BUILTIN else _external_child_clock()[1]
        times: list[list[float]] = [[] for _ in grid]
        for rep in range(cfg.warmup_runs + cfg.repetitions):
            for i, args in enumerate(arg_sets):
                elapsed = _run_once(target, args, cfg, rep)
                if rep >= cfg.warmup_runs:
                    times[i].append(elapsed)
        samples = tuple(
            _finalize_sample(target, args, cfg, times[i], clock)
            for i, args in enumerate(arg_sets)
        )
    series = SampleSeries.from_arrays(
        grid, [s.cpu_seconds for s in samples],
        label=f"{target.name}:{variable}",
    )
    return SweepResult(variable, {n: int(fixed[n]) for n in others}, samples, series)


def profile_variable(sweep: SweepResult, mode: BlendMode) -> VariableProfile:
    """Wrap a sweep's series as a piecewise model with its metadata."""
    return VariableProfile(sweep.swept_variable, sweep, build_piecewise(sweep.series, mode))


def _pooled_dispersion(sweeps: Sequence[SweepResult]) -> float:
    values = [s.dispersion for sw in sweeps for s in sw.samples]
    return float(np.sqrt(np.mean(np.square(values)))) if values else 0.0


def detect_interaction(target: TargetSpec, var_a: str, var_b: str,
                       grid_a: Sequence[int], probes_b: Sequence[int],
                       fixed: dict[str, int], cfg: MeasureConfig) -> InteractionLabel:
    """Label the (var_a, var_b) pair additive or composite.

    Sweeps var_a once per probe value of var_b and differences consecutive
    curves pointwise: if every difference curve is constant (its spread
    stays under the noise-aware threshold), var_b only translates the
    curve and the pair is additive; otherwise it reshapes it.
    """
    if target.arity < 2:
        raise InsufficientArity(f"{target.name} has arity {target.arity}")
    probes = sorted(set(int(p) for p in probes_b))
    if len(probes) < 2:
        raise ValueError("need at least two distinct probe values")
    sweeps = [
        sweep_single(target, var_a, grid_a, {**fixed, var_b: p}, cfg)
        for p in probes
    ]
    curves = [np.asarray(sw.series.ys) for sw in sweeps]
    full_range = max(float(np.max(c) - np.min(c)) for c in curves)
    # quantized clocks make per-point dispersion underestimate the noise
    # floor (repetitions collapse onto one tick, and the difference of two
    # quantized curves spreads across ~2 ticks); include the clock step
    # for clocked targets
    clocked = any(s.clock != "synthetic" for sw in sweeps for s in sw.samples)
    tick_floor = 3.0 * effective_clock_tick() if clocked else 0.0
    threshold = max(
        ADDITIVE_RANGE_FRACTION * full_range,
        ADDITIVE_NOISE_FACTOR * _pooled_dispersion(sweeps),
        tick_floor,
    )
    evidence = 0.0
    for lower, upper in zip(curves, curves[1:]):
        diff = upper - lower
        evidence = max(evidence, float(np.max(diff) - np.min(diff)))
    label = "additive" if evidence <= threshold else "composite"
    return InteractionLabel((var_a, var_b), label, evidence, threshold)


def _first_pass_constant(spec: ArgSpec, grid: Sequence[int]) -> int:
    # pin at 0 like the single-variable derivation; fall back to the
    # smallest grid value for targets that reject 0
    return 0 if spec.min_value <= 0 else int(grid[0])


def _representative_constant(spec: ArgSpec, grid: Sequence[int], model: PiecewisePoly) -> int:
    middle = model.segments[(len(model.segments) - 1) // 2]
    delta = middle.representative_input()
    value = int(round(delta))
    value = max(value, int(spec.min_value), int(grid[0]))
    return min(value, int(grid[-1]))


def build_runtime_profile(target: TargetSpec, grids: dict[str, Sequence[int]],
                          cfg: MeasureConfig, mode: BlendMode = BlendMode.ENDPOINT_SECANT) -> RuntimeProfile:
    """Sweep every variable, refine the pinned constants, label every pair.

    First pass pins non-swept variables at zero (or the smallest grid value
    where zero is invalid) to expose each variable's own shape.  For
    multi-variable targets a second pass re-sweeps with the other variables
    pinned at their representative inputs -- the grid value whose modelled
    cost equals the coarse model's segment average.  Pair labels come from
    probe sweeps at the extremes of the pair's second variable.
    """
    names = target.variable_names
    missing = [n for n in names if n not in grids]
    if missing:
        raise GridTooSmall(f"no grid declared for {missing}")
    grids = {n: [int(g) for g in grids[n]] for n in names}
    for name in names:
        spec = target.arg_spec(name)
        if grids[name][0] < spec.min_value:
            raise GridTooSmall(
                f"grid for {name} starts below its validity floor {spec.min_value}"
            )

    first_constants = {
        n: _first_pass_constant(target.arg_spec(n), grids[n]) for n in names
    }
    coarse: dict[str, VariableProfile] = {}
    for name in names:
        fixed = {n: first_constants[n] for n in names if n != name}
        coarse[name] = profile_variable(
            sweep_single(target, name, grids[name], fixed, cfg), mode
        )

    if target.arity == 1:
        return RuntimeProfile(target, (coarse[names[0]],), ())

    rep_constants = {
        n: _representative_constant(target.arg_spec(n), grids[n], coarse[n].model)
        for n in names
    }
    profiles = []
    for name in names:
        fixed = {n: rep_constants[n] for n in names if n != name}
        profiles.append(profile_variable(
            sweep_single(target, name, grids[name], fixed, cfg), mode
        ))

    interactions = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            var_a, var_b = names[i], names[j]
            grid_b = grids[var_b]
            probes = sorted({grid_b[0], grid_b[-1]})
            fixed = {n: rep_constants[n] for n in names if n not in (var_a, var_b)}
            interactions.append(detect_interaction(
                target, var_a, var_b, grids[var_a], probes, fixed, cfg
            ))
    return RuntimeProfile(target, tuple(profiles), tuple(interactions))
