"""Built-in measurement targets with known cost shapes.

Each target splits into an untimed ``setup`` (deterministic input-data
generation from a seeded RNG) and a timed ``run`` over the prepared
payload.  A run repeats its inner work in a batch so that it spans many
steps of the CPU clock while keeping its cost shape in the swept
variables.

The batch constants below are full-batch sizes.  ``setup`` multiplies them
by :func:`batch_scale`, which has two cases, set by the clock step that
:func:`effective_clock_tick` measures here (the rule is stated at
:data:`FULL_BATCH_TICK`).  The scale is the same for every target and
every run in a process, so the grids, the run counts and the seeds of a
profile do not depend on it; only the work inside one run does.

``run`` returns the factor by which the profiler multiplies the run's
time.  It is 1.0 for every run of a scaled batch.  On a fine clock
merge-sort sizes each run by its work instead (:func:`_sorts_per_run`)
and returns the factor that reports the time of its scaled batch, so a
sample's time keeps one unit across the grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def binary_search(arr: list, key) -> int:
    """Leftmost insertion index of key in sorted arr (pure Python on
    purpose: the per-level cost is what the profiler measures)."""
    lo, hi = 0, len(arr)
    while lo < hi:
        mid = (lo + hi) // 2
        if arr[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def merge_sort(items: list) -> list:
    """Non-mutating top-down mergesort."""
    n = len(items)
    if n <= 1:
        return list(items)
    left = merge_sort(items[: n // 2])
    right = merge_sort(items[n // 2:])
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def sqrt_depth(n: int) -> int:
    """Number of repeated integer square roots until the value drops
    below 2; grows like log2(log2(n))."""
    depth = 0
    while n >= 2:
        n = math.isqrt(n)
        depth += 1
    return depth


@dataclass(frozen=True)
class ArgSpec:
    """One swept integer argument: its validity floor and default grid.

    ``spacing``, a name in ``interp.SPACINGS``, spreads the default grid's
    points; geometric spacing suits variables whose cost grows logarithmically.
    """

    name: str
    min_value: int = 0
    default_grid: tuple[int, int] = (16, 1024)
    spacing: str = "even"


#: The batch rule, in two cases.  A clock that steps by FULL_BATCH_TICK or
#: more (a 15.6ms Windows tick, 1-10ms jiffy accounting) keeps the full
#: batches; a finer one (about 1us or less on Linux and macOS) scales them
#: by MIN_BATCH_SCALE, the smallest scale whose verdicts were checked
#: against full batches.  No real clock steps in between, so a scale between
#: the two would be chosen by noise in the measured step.  At full batch,
#: each builtin's cheapest default-grid run (merge-sort at x = 64) spans
#: about the profiler's 100-step warning margin of this clock.
FULL_BATCH_TICK = 16e-6
MIN_BATCH_SCALE = 1 / 8


_effective_tick: Optional[float] = None


def effective_clock_tick() -> float:
    """Measured granularity of the process-CPU clock.

    Kernels that account CPU in jiffies advance the clock in ~1-10ms steps
    regardless of the advertised nanosecond resolution; :func:`batch_scale`
    and the profiler's noise floors must use the real step.  Measured in
    this module, once per process, as the smallest of three steps of
    ``time.process_time``.  On a nanosecond clock that reads this loop's
    own iteration, about 0.7-2us (rarely up to 5us), which is enough to
    tell a fine clock from a coarse one.
    """
    global _effective_tick
    if _effective_tick is None:
        steps = []
        last = time.process_time()
        deadline = time.perf_counter() + 0.5
        while len(steps) < 3 and time.perf_counter() < deadline:
            cur = time.process_time()
            if cur > last:
                steps.append(cur - last)
                last = cur
        _effective_tick = max(min(steps) if steps else 0.0,
                              time.get_clock_info("process_time").resolution)
    return _effective_tick


def batch_scale() -> float:
    """Scale of every builtin target's batches, in two cases: 1 on a coarse
    clock, :data:`MIN_BATCH_SCALE` on a fine one (see
    :data:`FULL_BATCH_TICK`).  The step is measured once per process, so
    the scale is too.
    """
    return 1.0 if effective_clock_tick() >= FULL_BATCH_TICK else MIN_BATCH_SCALE


def _scaled(batch: int) -> int:
    return max(1, round(batch * batch_scale()))


@dataclass(frozen=True)
class BuiltinTarget:
    """A seeded, untimed ``setup`` of one run's payload and the timed
    ``run`` over it, which returns the factor its time is multiplied by."""

    name: str
    args: tuple[ArgSpec, ...]
    setup: Callable[[dict, np.random.Generator], tuple]
    run: Callable[[tuple], float]


# --- binary-search(x): one sorted array, a batch of lookups -------------

#: At x = 64 a run takes about 11.6ms at full batch on a 2.1GHz Xeon, about
#: 720 steps of FULL_BATCH_TICK, and 1.4ms at scale 1/8.
_SEARCH_BATCH = 25000


def _binary_search_setup(args: dict, rng: np.random.Generator) -> tuple:
    x = args["x"]
    arr = list(range(x))
    keys = rng.integers(0, max(x, 1), size=_scaled(_SEARCH_BATCH)).tolist()
    return arr, keys


def _binary_search_run(payload: tuple) -> float:
    arr, keys = payload
    hit = 0
    for key in keys:
        hit ^= binary_search(arr, key)
    return 1.0


# --- merge-sort(x): sorts of one shuffled array ---------------------------

#: Sorts per run at full batch, and the unit every merge-sort run reports
#: its time in once scaled: the time of ``_scaled(_SORT_BATCH)`` sorts (16
#: on a coarse clock, 2 on a fine one).
_SORT_BATCH = 16


def _sort_work(x: int) -> float:
    # x log2 x comparisons; sizes below 2 count as 1, so no log2(0)
    return x * math.log2(x) if x > 1 else 1.0


#: On a fine clock every run does at least this work: two sorts of the
#: default grid's middle point, 724 elements.  A run at x = 64 then makes 36
#: sorts (about 2.3ms on a 2.1GHz Xeon) instead of 2 (0.13ms, near the
#: warning margin), and one at x = 8192 makes one sort instead of two.
_SORT_WORK = 2 * _sort_work(724)


def _sorts_per_run(x: int) -> int:
    """Sorts one merge-sort run makes at x: the scaled batch on a coarse
    clock, else enough sorts to do :data:`_SORT_WORK` (36, 14, 6, 2, 1, 1, 1
    on the default grid).  A pure function of x and :func:`batch_scale`."""
    if batch_scale() != MIN_BATCH_SCALE:
        return _scaled(_SORT_BATCH)
    return math.ceil(_SORT_WORK / _sort_work(x))


def _merge_sort_setup(args: dict, rng: np.random.Generator) -> tuple:
    data = rng.random(args["x"]).tolist()
    sorts = _sorts_per_run(args["x"])
    return data, sorts, _scaled(_SORT_BATCH) / sorts


def _merge_sort_run(payload: tuple) -> float:
    data, sorts, factor = payload
    for _ in range(sorts):
        merge_sort(data)
    return factor


# --- search-sort(x, b): batched binary search + linear block scans -------

_SEARCH_SORT_LOOKUPS = 67000
_SEARCH_SORT_SCANS = 15000


def _search_sort_setup(args: dict, rng: np.random.Generator) -> tuple:
    x, b = args["x"], args["b"]
    arr = list(range(x))
    block = rng.random(b).tolist()
    keys = rng.integers(0, max(x, 1), size=_scaled(_SEARCH_SORT_LOOKUPS)).tolist()
    return arr, block, keys, _scaled(_SEARCH_SORT_SCANS)


def _search_sort_run(payload: tuple) -> float:
    arr, block, keys, scans = payload
    acc = 0.0
    for key in keys:
        acc += binary_search(arr, key)
    for _ in range(scans):
        acc += sum(block)
    return 1.0


# --- custom(m, x, b): m*x multiply-accumulate plus loglog depth loop -----

_CUSTOM_MX_BATCH = 400
_CUSTOM_DEPTH_BATCH = 100000


def _custom_setup(args: dict, rng: np.random.Generator) -> tuple:
    data = rng.random(args["x"]).tolist()
    return data, args["m"], args["b"], _scaled(_CUSTOM_MX_BATCH), _scaled(_CUSTOM_DEPTH_BATCH)


def _custom_run(payload: tuple) -> float:
    data, m, b, mx_batch, depth_batch = payload
    acc = 0.0
    for _ in range(mx_batch):
        for i in range(m):
            for v in data:
                acc += v * i
    for _ in range(depth_batch):
        acc += sqrt_depth(b)
    return 1.0


BUILTIN_TARGETS: dict[str, BuiltinTarget] = {
    "binary-search": BuiltinTarget(
        "binary-search",
        (ArgSpec("x", min_value=0, default_grid=(64, 65536), spacing="geometric"),),
        _binary_search_setup,
        _binary_search_run,
    ),
    "merge-sort": BuiltinTarget(
        "merge-sort",
        (ArgSpec("x", min_value=0, default_grid=(64, 8192), spacing="geometric"),),
        _merge_sort_setup,
        _merge_sort_run,
    ),
    "search-sort": BuiltinTarget(
        "search-sort",
        (
            ArgSpec("x", min_value=0, default_grid=(16, 65536), spacing="geometric"),
            ArgSpec("b", min_value=0, default_grid=(4, 4096), spacing="geometric"),
        ),
        _search_sort_setup,
        _search_sort_run,
    ),
    "custom": BuiltinTarget(
        "custom",
        (
            ArgSpec("m", min_value=0, default_grid=(2, 14)),
            ArgSpec("x", min_value=0, default_grid=(16, 208)),
            ArgSpec("b", min_value=2, default_grid=(4, 65536), spacing="geometric"),
        ),
        _custom_setup,
        _custom_run,
    ),
}
