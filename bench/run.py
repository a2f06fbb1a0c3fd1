"""Benchmark qseg end to end (untraced) or per module (traced).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's seeded operations, one after another
on one thread, checks every output, and prints a summary followed by one
JSON line.  The number of rounds is S divided by the workload's nominal
round time (a constant, at least one round), so the work in a run does not
depend on how fast the machine is at the moment.  The JSON line holds
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics, computed from spans written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Child processes timed from spawn to the end of their set-up.
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec() -> dict:
    """Metric names and units, from the repository's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def setup_seconds(args) -> float:
    """Median over child processes of the time from spawn to the end of set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - spawned)
    return statistics.median(times)


def tail(values) -> str:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return ""


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qseg").is_dir():
        print(f"error: no qseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracing
    import workloads
    from qseg import profiler

    profiler.effective_clock_tick()
    tracer = tracing.Tracer() if args.trace else None
    work = OUT / "work" / args.workload
    workload = workloads.build(args.workload, args.seed, work, tracer)
    if args.setup_probe:
        print(time.time())
        return 0

    units = load_spec()[args.trace]
    setup_s = None if tracer else setup_seconds(args)
    stats = workloads.Stats()
    wrong = []
    rounds = max(1, round(args.seconds / workload.round_seconds))
    samples = {"op_s": stats.op_seconds, "eval_us": stats.eval_us, "integral_us": stats.integral_us}
    round_means = {name: [] for name in samples}
    with tracing.patched(tracer) if tracer else nullcontext():
        for _ in range(rounds):
            marks = {name: len(values) for name, values in samples.items()}
            for op in workload.round:
                stats.ops += 1
                try:
                    workload.run_op(op, stats)
                except checks.CheckFailed as exc:
                    if getattr(op, "known_fault", ""):
                        stats.failed += 1
                        print(f"FAILED ({op.known_fault}): {exc}", file=sys.stderr)
                    else:
                        wrong.append(str(exc))
                except Exception:  # the program failed this operation; keep measuring
                    stats.failed += 1
                    traceback.print_exc()
            for name, values in samples.items():
                if len(values) > marks[name]:
                    round_means[name].append(statistics.fmean(values[marks[name]:]))

    done = stats.ops - stats.failed
    if done == 0:
        print("error: every operation failed", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
        metrics = per_layer(tracer, stats, stats.ops)
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(round_means["op_s"]),
            "eval_us_p50": statistics.median(round_means["eval_us"]),
            "integral_us_p50": statistics.median(round_means["integral_us"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    for message in wrong:
        print(f"WRONG: {message}")
    for verdict in stats.verdicts:
        print(f"verdict {verdict}")
    for name, values in samples.items():
        print(f"{name}: {len(values)} samples, p50 {statistics.median(values):.6g}{tail(values)}; "
              f"median of {len(round_means[name])} round means {statistics.median(round_means[name]):.6g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": stats.ops,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


def per_layer(tracer, stats, ops: int) -> dict:
    metrics = tracer.layer_metrics(ops)
    runs = stats.target_runs
    metrics.update({
        "profiler.target_runs": runs / ops,
        "profiler.sweeps": stats.sweeps / ops,
        "profiler.warmup_runs": stats.warmup_runs / ops,
        "profiler.kept_run_share": stats.kept_runs / runs if runs else 0.0,
        "profiler.coarse_s": stats.phase_seconds["coarse"] / ops,
        "profiler.refined_s": stats.phase_seconds["refined"] / ops,
        "profiler.probe_s": stats.phase_seconds["probe"] / ops,
        "classify.verdicts_right": stats.verdicts_right / ops,
        "classify.margin_p50": statistics.median(stats.margins) if stats.margins else 0.0,
        "reportio.plot_rows": stats.plot_rows / ops,
        "reportio.bytes_written": stats.bytes_written / ops,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
