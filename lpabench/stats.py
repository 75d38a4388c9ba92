"""Order statistics and the size-ladder exponent fit."""

from __future__ import annotations

import math
import statistics


def percentile(samples, q: int) -> float:
    """The q-th percentile (1 <= q <= 99), interpolated between samples."""
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def scaling_exponent(points) -> float:
    """Least-squares slope of log(seconds) against log(n).

    ``points`` is a list of (n, seconds) pairs, one per rung; at least two
    distinct n are needed.
    """
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    if len(set(xs)) < 2:
        raise ValueError("the exponent fit needs at least two distinct sizes")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def rung_medians(samples) -> list:
    """(n, median seconds) per distinct n of (n, seconds) samples, sorted."""
    by_n: dict = {}
    for n, t in samples:
        by_n.setdefault(n, []).append(t)
    return [(n, statistics.median(ts)) for n, ts in sorted(by_n.items())]


def median_by_key(keys, seconds) -> dict:
    """Each distinct key's median time over its repeats."""
    by_key: dict = {}
    for k, t in zip(keys, seconds):
        by_key.setdefault(k, []).append(t)
    return {k: statistics.median(ts) for k, ts in by_key.items()}
