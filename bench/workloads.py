"""The benchmark's workloads: seeded inputs, one operation, its checks.

A workload is a list of operations (a round) built from the seed by
:func:`build`.  Running an operation times the calls into qseg, then checks
every output with :mod:`checks`; timings of an operation whose output is
wrong are kept, and the failure is reported.
"""

from __future__ import annotations

import importlib
import io
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from qseg import accuracy, cli, profiler, reportio
from qseg.targets import BuiltinTarget

# the package exports a function named classify, which hides the module
classify = importlib.import_module("qseg.classify")

#: The verdict each builtin target's cost shape calls for.
KNOWN_VERDICTS = {
    "binary-search": "log",
    "merge-sort": "nlogn",
    "search-sort": "log(x) + linear(b)",
}

MODES = ("pure-lagrange", "trailing-secant", "endpoint-secant")

#: The paper's 3-segment reference segmentations: (from, to, spacing).
PAPER_SEGMENTATIONS = {
    "log2": (8.0, 64.0, "geometric"),
    "cospix": (0.0, 1.5, "even"),
    "exp2": (3.0, 6.0, "even"),
    "ratio": (2.0, 16.0, "geometric"),
}

#: Calls per timed query batch: evaluate and derivative_at, then integral.
EVAL_BATCH = 50
INTEGRAL_BATCH = 5

#: Passes over a profile model's queries.  They are the only samples of
#: eval_us and integral_us on a profile workload; a few seconds of them
#: average over the machine's slow spells.
PROFILE_QUERY_PASSES = 5


class OpFailed(Exception):
    """The program exited non-zero on an operation."""


@dataclass
class Stats:
    """Samples and counts gathered over the operations of one run."""

    ops: int = 0
    failed: int = 0
    op_seconds: list = field(default_factory=list)
    eval_us: list = field(default_factory=list)
    integral_us: list = field(default_factory=list)
    target_runs: int = 0
    sweeps: int = 0
    warmup_runs: int = 0
    kept_runs: int = 0
    phase_seconds: dict = field(default_factory=lambda: {"coarse": 0.0, "refined": 0.0, "probe": 0.0})
    verdicts_right: int = 0
    verdicts: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    plot_rows: int = 0
    bytes_written: int = 0


@dataclass
class Queries:
    """Query positions as fractions of a model's domain: per batch,
    EVAL_BATCH points and INTEGRAL_BATCH intervals.  Every interval spans
    half the domain, so the work of an integral call does not depend on
    the seed."""

    points: np.ndarray
    intervals: np.ndarray

    @classmethod
    def draw(cls, rng, batches: int) -> "Queries":
        starts = 0.5 * rng.random(batches * INTEGRAL_BATCH)
        return cls(rng.random(batches * EVAL_BATCH), np.column_stack([starts, starts + 0.5]))


def untraced(tracer):
    """Checks call qseg too; keep those calls out of the spans."""
    return tracer.pause() if tracer else nullcontext()


def run_queries(pw, queries: Queries, local: checks.LocalModel, stats: Stats, passes: int = 1) -> None:
    """Time batches of F, dF/dx and integral calls on a model, one batch of
    each in turn so all three sample the same moments.  The first pass is
    checked; each later pass must return the same values."""
    lo, hi = local.domain
    xs = [lo + float(u) * (hi - lo) for u in queries.points]
    intervals = [(lo + float(a) * (hi - lo), lo + float(b) * (hi - lo)) for a, b in queries.intervals]
    clock = time.perf_counter
    first = None
    for _ in range(passes):
        values, derivatives, integrals = [], [], []
        for i in range(len(xs) // EVAL_BATCH):
            batch = xs[i * EVAL_BATCH:(i + 1) * EVAL_BATCH]
            start = clock()
            values += [pw.evaluate(x) for x in batch]
            middle = clock()
            derivatives += [pw.derivative_at(x) for x in batch]
            end = clock()
            stats.eval_us += [1e6 * (middle - start) / EVAL_BATCH, 1e6 * (end - middle) / EVAL_BATCH]
            start = clock()
            integrals += [pw.integral(a, b) for a, b in intervals[i * INTEGRAL_BATCH:(i + 1) * INTEGRAL_BATCH]]
            stats.integral_us.append(1e6 * (clock() - start) / INTEGRAL_BATCH)
        if first is None:
            first = (values, derivatives, integrals)
            checks.check_queries(local, xs, values, derivatives, intervals, integrals)
        elif (values, derivatives, integrals) != first:
            raise checks.CheckFailed("repeated queries on one model returned other values")


# --- profile workloads ------------------------------------------------------

class Target:
    """A builtin target behind a ``TargetSpec`` whose setup and run go
    through counting (and, in a traced run, timed) callables."""

    def __init__(self, name: str, tracer=None):
        builtin = profiler.BUILTIN_TARGETS[name]
        self.runs = 0
        setup, run = builtin.setup, self._counted(builtin.run)
        if tracer is not None:
            setup = tracer.wrap("targets.setup", setup)
            run = tracer.wrap("targets.run", run)
        self.spec = profiler.TargetSpec(
            profiler.TargetKind.BUILTIN, name, builtin.args,
            builtin=BuiltinTarget(name, builtin.args, setup, run))
        self.grids = self.spec.default_grids()
        self.first_constants = {
            a.name: 0 if a.min_value <= 0 else self.grids[a.name][0] for a in builtin.args
        }

    def _counted(self, run):
        def counted(payload):
            self.runs += 1
            return run(payload)
        return counted


@contextmanager
def recording_sweeps(records: list):
    """Keep (variable, pinned values, result, seconds) of every sweep."""
    original = profiler.sweep_single

    def recorded(target, variable, grid, fixed, cfg):
        start = time.perf_counter()
        result = original(target, variable, grid, fixed, cfg)
        pinned = {n: int(v) for n, v in fixed.items() if n != variable}
        records.append((variable, pinned, result, time.perf_counter() - start))
        return result

    profiler.sweep_single = recorded
    try:
        yield
    finally:
        profiler.sweep_single = original


class ProfileWorkload:
    """Profile builtin targets at the integration test's settings: default
    geometric grids, one warmup, ``min`` aggregation."""

    def __init__(self, seed: int, targets: tuple, repetitions: int, round_seconds: float,
                 work: Path, tracer=None):
        self.round_seconds = round_seconds
        self.seed = seed
        self.tracer = tracer
        self.repetitions = repetitions
        self.work = work
        self.targets = [Target(name, tracer) for name in targets]
        rng = np.random.default_rng([seed, len(targets)])
        self.queries = Queries.draw(rng, batches=2000)
        self.round = [self.targets]

    def run_op(self, targets, stats: Stats) -> None:
        cfg = profiler.MeasureConfig(warmup_runs=1, repetitions=self.repetitions,
                                     aggregator="min", seed=self.seed)
        elapsed = 0.0
        for target in targets:
            records = []
            runs_before = target.runs
            path = self.work / f"profile-{target.spec.name}.json"
            with recording_sweeps(records):
                start = time.perf_counter()
                profile = profiler.build_runtime_profile(target.spec, target.grids, cfg)
                result = classify.classify_profile(profile)
                validation = {vp.variable: accuracy.validate_profile(vp.model, vp.sweep.series)
                              for vp in profile.profiles}
                config = {"seed": cfg.seed, "repetitions": cfg.repetitions,
                          "warmup_runs": cfg.warmup_runs, "aggregator": cfg.aggregator,
                          "mode": "endpoint-secant", "grids": target.grids}
                doc = reportio.profile_document(profile, config, result, validation)
                reportio.dump_document(doc, path)
                loaded = reportio.load_document(path)
                elapsed += time.perf_counter() - start
            with untraced(self.tracer):
                self._check(target, records, target.runs - runs_before, profile, result, stats)
                checks.check_redump(path, path.with_suffix(".redump.json"),
                                    reportio.load_document, reportio.dump_document)
            stats.bytes_written += path.stat().st_size
            self._query(profile, loaded, stats)
        stats.op_seconds.append(elapsed)

    def _check(self, target, records, runs, profile, result, stats: Stats) -> None:
        names = target.spec.variable_names
        phases = checks.check_sweeps([r[:3] for r in records], names, target.grids,
                                     target.first_constants)
        checks.check_target_runs(runs, [r[:3] for r in records], target.grids, 1, self.repetitions)
        for _, _, sweep, _ in records:
            checks.check_times(sweep.samples)
        rep_runs = sum(len(target.grids[v]) for v, _, _, _ in records) * self.repetitions
        stats.target_runs += runs
        stats.sweeps += len(records)
        stats.warmup_runs += runs - rep_runs
        stats.kept_runs += sum(len(vp.sweep.samples) for vp in profile.profiles) * self.repetitions
        for phase, record in zip(phases, records):
            stats.phase_seconds[phase] += record[3]
        stats.verdicts_right += result.summary == KNOWN_VERDICTS[target.spec.name]
        stats.verdicts.append(f"{target.spec.name}: {result.summary} "
                              f"(known {KNOWN_VERDICTS[target.spec.name]})")
        stats.margins += [min(r.margin, 1e300) for r in result.per_variable.values()]
        for vp in profile.profiles:
            checks.check_model_samples(vp.model, vp.sweep.series.xs, vp.sweep.series.ys)

    def _query(self, profile, loaded: dict, stats: Stats) -> None:
        """Query each model as reloaded from the written document."""
        models = reportio.models_from_document(loaded)
        for vp in profile.profiles:
            xs, ys = vp.sweep.series.xs, vp.sweep.series.ys
            with untraced(self.tracer):
                checks.check_model_samples(models[vp.variable], xs, ys)
            local = checks.LocalModel(xs, ys, vp.model.mode.value)
            run_queries(models[vp.variable], self.queries, local, stats, PROFILE_QUERY_PASSES)


# --- model workloads --------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One ``qseg approx --fn`` job and the queries made on its model.

    ``known_fault`` names a fault of the program that makes this job fail
    its checks on every run; such a job counts as failed, not as wrong.
    """

    fn: str
    lo: float
    hi: float
    segments: int
    spacing: str
    mode: str
    known_fault: str = ""

    def argv(self, out: Path, plot: Path) -> list[str]:
        return ["approx", "--fn", self.fn, "--from", repr(self.lo), "--to", repr(self.hi),
                "--segments", str(self.segments), "--spacing", self.spacing,
                "--mode", self.mode, "--out", str(out), "--plot", str(plot)]

    def nodes(self) -> np.ndarray:
        """Segment bounds as ``--spacing`` lays them out, with one
        arithmetic-midpoint node inside each segment."""
        space = np.linspace if self.spacing == "even" else np.geomspace
        bounds = space(self.lo, self.hi, self.segments + 1)
        xs = np.empty(2 * self.segments + 1)
        xs[0::2] = bounds
        xs[1::2] = 0.5 * (bounds[:-1] + bounds[1:])
        return xs


#: Segment count of the model-large jobs.
LARGE_SEGMENTS = 1000

#: Coefficients stored as a*x**2 + b*x + c lose about (x / width)**2 of
#: precision; at 1000 segments 2**x on [3, 6] misses 1e-9 in every mode.
MONOMIAL_PRECISION = "monomial coefficients miss 1e-9 of the range at 1000 segments"


def large_jobs() -> list[Job]:
    """The paper's references over the paper's domains at 1000 segments,
    the blend modes spread over them.  The pure-Lagrange models of log2
    and (x-1)/x miss 1e-9 at some points only, so they would fail on some
    seeds; those pairings are left out."""
    modes = {"log2": "endpoint-secant", "cospix": "trailing-secant",
             "exp2": "pure-lagrange", "ratio": "endpoint-secant"}
    return [Job(fn, lo, hi, LARGE_SEGMENTS, spacing, modes[fn],
                MONOMIAL_PRECISION if fn == "exp2" else "")
            for fn, (lo, hi, spacing) in PAPER_SEGMENTATIONS.items()]


def small_jobs() -> list[Job]:
    """Every reference in every mode over the paper's segmentations."""
    return [Job(fn, lo, hi, 3, spacing, mode)
            for fn, (lo, hi, spacing) in PAPER_SEGMENTATIONS.items() for mode in MODES]


class ModelWorkload:
    def __init__(self, jobs: list, rng, batches: int, round_seconds: float, work: Path, tracer=None):
        self.round_seconds = round_seconds
        self.work = work
        self.tracer = tracer
        self.round = jobs
        self.queries = {job: Queries.draw(rng, batches) for job in jobs}
        self.verified: dict[Job, tuple] = {}  # digests, check outcome and plot rows of the first run

    def run_op(self, job: Job, stats: Stats) -> None:
        """Run the job, check its output the first time it runs and that
        every later run writes the same bytes, then query its model."""
        out = self.work / "approx.json"
        plot = self.work / "approx-plot.csv"
        argv = job.argv(out, plot)
        printed = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(printed):
            code = cli.main(argv)
        stats.op_seconds.append(time.perf_counter() - start)
        if code != 0:
            raise OpFailed(f"qseg {' '.join(argv)} exited {code}")
        digests = {out.name: checks.file_digest(out), plot.name: checks.file_digest(plot)}
        doc = reportio.load_document(out)
        pw = reportio.models_from_document(doc)["x"]
        if job not in self.verified:
            with untraced(self.tracer):
                try:
                    outcome = self._check(job, out, plot, doc, pw, printed.getvalue())
                except checks.CheckFailed as exc:
                    outcome = exc
            self.verified[job] = (digests, outcome, checks.count_rows(plot))
        first, outcome, rows = self.verified[job]
        stats.plot_rows += rows
        stats.bytes_written += out.stat().st_size + plot.stat().st_size
        checks.check_same_digests(first, digests)
        if isinstance(outcome, checks.CheckFailed):
            raise outcome
        run_queries(pw, self.queries[job], outcome, stats)

    def _check(self, job: Job, out: Path, plot: Path, doc: dict, pw, printed: str):
        xs = job.nodes()
        node_xs = np.array([seg.node_xs for seg in pw.segments]).ravel()
        want_xs = np.column_stack([xs[0:-1:2], xs[1::2], xs[2::2]]).ravel()
        if len(node_xs) != len(want_xs) or not np.allclose(node_xs, want_xs, rtol=1e-12, atol=0.0):
            raise checks.CheckFailed(f"{job}: model nodes differ from the --spacing layout")
        fn = checks.REFERENCES[job.fn]
        ys = np.array([fn(float(x)) for x in xs])
        printed_a = [line.split("=", 1)[1] for line in printed.splitlines() if line.startswith("A =")]
        if len(printed_a) != 1 or float(printed_a[0]) != doc["accuracy"]["aggregate_a"]:
            raise checks.CheckFailed(f"{job}: printed A {printed_a} differs from the document")
        reference = checks.reference_integral(job.fn, job.lo, job.hi)
        checks.check_accuracy(doc["accuracy"]["aggregate_a"], reference, xs, ys, job.mode)
        checks.check_model_samples(pw, xs, ys)
        local = checks.LocalModel(xs, ys, job.mode)
        checks.check_plot(plot, local, with_reference=True)
        checks.check_redump(out, out.with_suffix(".redump.json"),
                            reportio.load_document, reportio.dump_document)
        return local


WORKLOADS = ("profile-1var", "profile-2var", "model-large", "model-small")


def build(name: str, seed: int, work: Path, tracer=None):
    """Set up a workload: its targets or jobs, and its query points.

    The round time given to each is a nominal figure measured on a 2-core
    Xeon at 2.1 GHz; it sets how many rounds a run of a given length holds.
    """
    work.mkdir(parents=True, exist_ok=True)
    if name == "profile-1var":
        return ProfileWorkload(seed, ("binary-search", "merge-sort"), 9, 20.0, work, tracer)
    if name == "profile-2var":
        return ProfileWorkload(seed, ("search-sort",), 7, 55.0, work, tracer)
    rng = np.random.default_rng([seed, 1000 if name == "model-large" else 3])
    if name == "model-large":
        return ModelWorkload(large_jobs(), rng, 10, 6.0, work, tracer)
    if name == "model-small":
        return ModelWorkload(small_jobs(), rng, 4, 0.12, work, tracer)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")

