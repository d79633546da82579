"""Statistics helpers for the benchmark report (tested by test_stats.py)."""

import math
from collections import namedtuple

# A percentile with the evidence behind it: `beyond` samples lie above the
# value; a percentile is resolved only when at least MIN_BEYOND do.
Percentile = namedtuple("Percentile", "value n beyond resolved")

MIN_BEYOND = 10


def percentile(values, q):
    """q-quantile (0 <= q <= 1) of `values`, interpolated linearly between
    the two nearest order statistics (for q = 0.5 the classic median)."""
    if not values:
        return Percentile(float("nan"), 0, 0, False)
    ordered = sorted(values)
    n = len(ordered)
    pos = (n - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = n - 1 - lo
    return Percentile(value, n, beyond, beyond >= MIN_BEYOND)


def median(values):
    return percentile(values, 0.5).value


def geomean(values):
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_of_medians(samples_by_kind):
    """Geometric mean over kinds of each kind's median sample (kinds with
    no samples are skipped), the shape of the TPC-H power metric."""
    medians = [median(v) for v in samples_by_kind.values() if v]
    return geomean(medians)


def ratio(num, den):
    """num / den, and 0.0 when the base is zero (no work was attempted)."""
    return num / den if den else 0.0


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once).

    `spans` is a list of dicts with id, parent, start_us and end_us.
    Returns {span id: self time in the same unit}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        pieces = sorted(
            (max(c["start_us"], lo), min(c["end_us"], hi))
            for c in children.get(s["id"], [])
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in pieces:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out

