"""Latency summaries shared by the benchmark and its seed-spread runner."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples a tail percentile must leave above it


def tail(values: list[float]) -> tuple[int, float]:
    """(percentile, value) at the highest whole percentile whose
    nearest-rank value leaves at least TAIL_BEYOND samples above it."""
    n = len(values)
    percentile = (100 * (n - TAIL_BEYOND)) // n if n else 0
    if percentile < 1:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = -(-percentile * n // 100)  # exact integer ceil
    return percentile, sorted(values)[rank - 1]


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
