"""The noise rule: slices, the quiet pool, and single-shot estimators.

A timed phase is a fixed number of operations cut into consecutive
slices of a fixed op count.  Slices are ranked by their own *median*
latency and the lowest fifth form the quiet pool; the reported p50, p95
and throughput are read from the pool only.  Ranking on the median and
reporting the tail keeps a stall the program causes in every slice in
the number, while a noisy-neighbour burst confined to some slices drops
out with them.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

QUIET_SHARE = 0.2


def quantile(values, q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def second_smallest(values) -> float:
    """Single-shot timings: the smallest trial is the luckiest one, the
    second-smallest still sheds every disturbed trial."""
    ordered = sorted(values)
    if len(ordered) < 2:
        raise ValueError("second_smallest needs at least two trials")
    return ordered[1]


@dataclass
class Slice:
    """One slice of the timed phase.  ``latencies`` are the per-op
    samples in seconds (failed ops contribute none); ``ops`` counts
    every op the slice completed, sampled or not; ``wall`` is the
    slice's wall time in seconds."""

    latencies: list[float] = field(default_factory=list)
    ops: int = 0
    wall: float = 0.0


def quiet_pool(slices: list[Slice], share: float = QUIET_SHARE,
               ) -> list[Slice]:
    """The ``share`` of slices with the lowest median latency."""
    ranked = sorted((s for s in slices if s.latencies),
                    key=lambda s: median(s.latencies))
    if not ranked:
        raise ValueError("no slice holds a latency sample")
    return ranked[:max(1, math.ceil(len(ranked) * share))]


def summarise(slices: list[Slice]) -> dict:
    """Quiet-pool p50 / p95 / throughput plus the all-sample p99."""
    pool = quiet_pool(slices)
    pooled = [latency for s in pool for latency in s.latencies]
    everything = [latency for s in slices for latency in s.latencies]
    return {
        "latency_p50_ms": quantile(pooled, 0.5) * 1e3,
        "latency_p95_ms": quantile(pooled, 0.95) * 1e3,
        "throughput_ops_s": sum(s.ops for s in pool)
        / sum(s.wall for s in pool),
        "all_p50_ms": quantile(everything, 0.5) * 1e3,
        "all_p99_ms": quantile(everything, 0.99) * 1e3,
        "slices": len(slices),
        "pool_slices": len(pool),
        "pool_samples": len(pooled),
    }


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes (a few ms): run between
    slices, its median says how slow the box was during a run.  It is a
    diagnostic for reading a slow run, never a divisor."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter() - start


def spread(values) -> float:
    """Interquartile range as a share of the median — the steadiness
    measure the A/A mode reports against each bound."""
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0
