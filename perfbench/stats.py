"""Pure arithmetic the benchmark reports with (covered by the self-tests)."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


def median(values) -> float:
    """The median, or 0.0 for no samples."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def decile_drift(values) -> float:
    """Median of the last tenth of ``values`` over the median of the first.

    ``values`` are in submission order; fewer than ten samples give 0.0.
    """
    values = list(values)
    tenth = len(values) // 10
    if tenth == 0:
        return 0.0
    return ratio(median(values[-tenth:]), median(values[:tenth]))


def span_self_times(spans) -> dict[int, float]:
    """Each span's self time: its duration minus its direct children's.

    ``spans`` are ``(id, parent_id, name, start, end)``; the self times of
    one tree sum to the root's duration.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {span_id: (end - start) - child_time[span_id] for span_id, _, _, start, end in spans}


def self_times(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per-name self time, total time and call count of recorded spans."""
    by_span = span_self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, _, name, start, end in spans:
        self_s[name] += by_span[span_id]
        total_s[name] += end - start
        calls[name] += 1
    return dict(self_s), dict(total_s), dict(calls)
