"""Order statistics shared by the run and compare commands."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float], better: str) -> tuple[int, float] | None:
    """Highest percentile, on the bad side, with TAIL_BEYOND samples beyond it.

    For a lower-is-better metric that is the p-th percentile counted from
    the bottom; for higher-is-better, from the top.  None when the samples
    support nothing above the median.
    """
    n = len(values)
    p = math.floor(100 * (n - TAIL_BEYOND) / n) if n else 0
    if p <= 50:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    return p, ordered[math.ceil(p * n / 100) - 1]


def describe(values: list[float], unit: str, better: str) -> dict:
    q1, med, q3 = quartiles(values)
    t = tail(values, better)
    return {
        "value": med,
        "unit": unit,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "tail": None if t is None else {"percentile": t[0], "value": t[1]},
        "samples": values,
    }
