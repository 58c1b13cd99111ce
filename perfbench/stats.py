"""Order statistics and span arithmetic for the benchmark."""
from __future__ import annotations

import math

# A percentile is reported only when at least this many samples lie
# beyond it; a thinner tail is one or two outliers, not a measurement.
MIN_TAIL = 10


def percentile(values, p: int) -> float:
    """Nearest-rank ``p``-th percentile of ``values``.

    Raises ValueError when fewer than ``MIN_TAIL`` samples lie beyond it,
    e.g. a p99 from fewer than 1000 samples.
    """
    n = len(values)
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    if n * (100 - p) < MIN_TAIL * 100:
        raise ValueError(f"p{p} needs {math.ceil(MIN_TAIL * 100 / (100 - p))} samples, got {n}")
    ordered = sorted(values)
    return ordered[math.ceil(p * n / 100) - 1]


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] not covered by any of the ``children``
    (start, end) intervals. Children are clipped to the parent and may
    overlap, so the result is never negative."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in children if e > start and s < end)
    covered = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return max(0.0, (end - start) - covered)
