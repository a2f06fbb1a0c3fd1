"""Spans around calls into qseg's public functions, for the traced run.

Functions are replaced at the names their callers look up (a module
attribute, or a method on ``PiecewisePoly``), inside this process only, and
put back when the ``patched`` block ends.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from qseg import accuracy, cli, interp, profiler, reportio

# the package exports a function named classify, which hides the module
classify = importlib.import_module("qseg.classify")

#: (module, attribute, span name).  A function imported into several
#: modules is wrapped in each module that calls it.
TRACED = (
    (profiler, "build_runtime_profile", "profiler.build_runtime_profile"),
    (profiler, "sweep_single", "profiler.sweep_single"),
    (profiler, "detect_interaction", "profiler.detect_interaction"),
    (profiler, "profile_variable", "profiler.profile_variable"),
    (profiler, "build_piecewise", "interp.build_piecewise"),
    (cli, "build_piecewise", "interp.build_piecewise"),
    (cli, "sample_function", "interp.sample_function"),
    (cli, "main", "cli.main"),
    (accuracy, "validate_profile", "accuracy.validate_profile"),
    (classify, "classify_profile", "classify.classify_profile"),
    (classify, "classify", "classify.classify"),
    (reportio, "emit_plot_data", "reportio.emit_plot_data"),
    (reportio, "dump_document", "reportio.dump_document"),
    (reportio, "load_document", "reportio.load_document"),
    (reportio, "models_from_document", "reportio.models_from_document"),
    (reportio, "approx_document", "reportio.approx_document"),
    (reportio, "profile_document", "reportio.profile_document"),
)


#: Query methods are timed and counted per call without a span each: a run
#: makes up to a million of them, and only the benchmark calls them, never
#: from inside another traced call.
COUNTED = (
    (interp.PiecewisePoly, "evaluate", "interp.evaluate"),
    (interp.PiecewisePoly, "derivative_at", "interp.derivative_at"),
    (interp.PiecewisePoly, "integral", "interp.integral"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


class Tracer:
    """Records one span per wrapped call, with the span that caused it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.ref_evals = 0
        self.scoring_evals: list[int] = []  # reference evaluations per accuracy_vs call
        self.counted: dict[str, list] = {}  # name -> [calls, seconds]
        self.paused = False

    @contextmanager
    def pause(self):
        """No spans while the benchmark checks outputs with qseg calls."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def time_calls(self, name: str, fn):
        entry = self.counted.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def timed(*args):
            if self.paused:
                return fn(*args)
            start = clock()
            try:
                return fn(*args)
            finally:
                entry[0] += 1
                entry[1] += clock() - start

        return timed

    def count_evals(self, fn):
        def counted(x):
            self.ref_evals += 1
            return fn(x)
        return counted

    def count_scoring(self, fn):
        def scored(pw, ref):
            before = self.ref_evals
            try:
                return fn(pw, ref)
            finally:
                self.scoring_evals.append(self.ref_evals - before)
        return scored

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds, durations."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += duration - child[i]
            entry["durations"].append(duration)
        for name, (calls, seconds) in self.counted.items():
            if calls:
                out[name] = {"calls": calls, "total": seconds, "self": seconds, "durations": []}
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer times from the spans: per operation, or per call where
        the name says ``_us`` or is a per-call figure."""
        t = self.totals()

        def total(name):
            return t[name]["total"] if name in t else 0.0

        def per_call(name):
            return t[name]["total"] / t[name]["calls"] if name in t else 0.0

        runs = t.get("targets.run", {}).get("durations", [])
        return {
            "targets.setup_s": total("targets.setup") / ops,
            "targets.run_s": total("targets.run") / ops,
            "targets.run_ms_p50": 1e3 * statistics.median(runs) if runs else 0.0,
            "profiler.self_s": sum(e["self"] for n, e in t.items() if n.startswith("profiler.")) / ops,
            "interp.sample_ms": 1e3 * total("interp.sample_function") / ops,
            "interp.build_ms": 1e3 * total("interp.build_piecewise") / ops,
            "interp.evaluate_us": 1e6 * per_call("interp.evaluate"),
            "interp.derivative_us": 1e6 * per_call("interp.derivative_at"),
            "interp.integral_us": 1e6 * per_call("interp.integral"),
            "accuracy.accuracy_vs_ms": 1e3 * per_call("accuracy.accuracy_vs"),
            "accuracy.ref_evals": statistics.fmean(self.scoring_evals) if self.scoring_evals else 0.0,
            "accuracy.validate_ms": 1e3 * total("accuracy.validate_profile") / ops,
            "classify.classify_ms": 1e3 * total("classify.classify_profile") / ops,
            "reportio.plot_ms": 1e3 * total("reportio.emit_plot_data") / ops,
            "reportio.dump_ms": 1e3 * total("reportio.dump_document") / ops,
            "reportio.load_ms": 1e3 * total("reportio.load_document") / ops,
            "cli.self_ms": 1e3 * (t["cli.main"]["self"] if "cli.main" in t else 0.0) / ops,
        }

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Wrap every traced name; count the reference evaluations each
    accuracy score makes."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TRACED + COUNTED]
    saved.append((cli, "accuracy_vs", cli.accuracy_vs))
    references = dict(accuracy.NAMED_REFERENCES)
    try:
        for owner, attr, name in TRACED:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        for owner, attr, name in COUNTED:
            setattr(owner, attr, tracer.time_calls(name, getattr(owner, attr)))
        cli.accuracy_vs = tracer.count_scoring(tracer.wrap("accuracy.accuracy_vs", cli.accuracy_vs))
        for key, ref in references.items():
            accuracy.NAMED_REFERENCES[key] = accuracy.ReferenceFn(
                ref.name, tracer.count_evals(ref.fn), ref.lo, ref.hi)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        accuracy.NAMED_REFERENCES.update(references)
