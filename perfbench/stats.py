"""Arithmetic the benchmark reports: medians, spreads, span self time and
pool efficiency. Standard library only, so it is testable on its own."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its children cover.

    Children may overlap one another (pool workers run side by side); the
    overlap is counted once.
    """
    return (end - start) - covered(start, end, child_intervals)


def pool_efficiency(job_seconds: float, wall_seconds: float, workers: int) -> float:
    """Summed per-job time over the capacity the pool had: wall time x workers."""
    if wall_seconds <= 0 or workers < 1:
        raise ValueError("need a positive wall time and at least one worker")
    return job_seconds / (wall_seconds * workers)
