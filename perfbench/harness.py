"""Statistics and process helpers shared by the benchmark's workloads.

Everything here is the benchmark's own: it imports nothing from the
program under test, so a refactor of the program's timing harnesses
(``repro.obs.bench``, ``repro.serve.bench``) cannot change how the
benchmark measures.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable

#: a tail percentile is reported only with at least this many samples
#: beyond it
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q: float) -> float:
    """The ``q`` quantile with linear interpolation between order stats."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(values, q: float,
                         min_beyond: int = MIN_BEYOND) -> float | None:
    """The ``q`` quantile, or None when fewer than ``min_beyond``
    samples lie beyond it (p99 needs at least 1000 samples)."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < min_beyond - 1e-9:
        return None
    return quantile(values, q)


def highest_supported_q(n: int, cap: float = 0.99,
                        min_beyond: int = MIN_BEYOND) -> float:
    """The highest quantile (at most ``cap``) with ``min_beyond`` samples
    beyond it in a sample of ``n``; 0.5 when even the median is not."""
    if n <= 0:
        return 0.5
    return max(0.5, min(cap, 1.0 - min_beyond / n))


def tail_latency(values, q: float = 0.99) -> tuple[float, float, int]:
    """``(quantile_used, value, n)``: the ``q`` quantile where the sample
    supports it, else the highest quantile that it does support."""
    n = len(values)
    if n == 0:
        return q, 0.0, 0
    value = supported_percentile(values, q)
    if value is not None:
        return q, value, n
    q_used = highest_supported_q(n, cap=q)
    return q_used, quantile(values, q_used), n


@dataclass
class PairedResult:
    """Outcome of :func:`paired`: B relative to A."""

    n: int
    median_ratio: float
    overhead_pct: float
    wilcoxon_p: float
    order: list


def paired(arm_a: Callable[[int], object], arm_b: Callable[[int], object],
           *, min_pairs: int = 10, max_pairs: int = 10_000,
           budget_s: float = 0.0,
           clock: Callable[[], float] = time.perf_counter) -> PairedResult:
    """Time ``arm_a(i)`` against ``arm_b(i)`` in interleaved pairs.

    The order alternates from pair to pair (A then B, B then A, ...) so
    warm caches and allocator state favour neither arm, the collector is
    off while pairs run, and the estimate is the median of the per-pair
    ratios B/A: a slow scheduler epoch hits both halves of a pair and
    cancels out of its ratio.  Pairs continue until both ``min_pairs``
    are done and ``budget_s`` is spent, or ``max_pairs`` are done.  The
    Wilcoxon signed-rank p-value tests whether B - A differs from zero,
    as the paper does for Fig. 3.
    """
    ratios: list[float] = []
    diffs: list[float] = []
    order: list[str] = []

    def timed(arm, i) -> float:
        t0 = clock()
        arm(i)
        return clock() - t0

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = clock()
        i = 0
        while i < max_pairs and (i < min_pairs
                                 or clock() - start < budget_s):
            if i % 2 == 0:
                ta = timed(arm_a, i)
                tb = timed(arm_b, i)
                order.append("ab")
            else:
                tb = timed(arm_b, i)
                ta = timed(arm_a, i)
                order.append("ba")
            ratios.append(tb / ta if ta > 0 else 1.0)
            diffs.append(tb - ta)
            i += 1
    finally:
        if was_enabled:
            gc.enable()
    ratio = median(ratios)
    return PairedResult(n=len(ratios), median_ratio=ratio,
                        overhead_pct=(ratio - 1.0) * 100.0,
                        wilcoxon_p=wilcoxon_p(diffs), order=order)


def wilcoxon_p(diffs) -> float:
    """Two-sided Wilcoxon signed-rank p-value of ``diffs`` against 0."""
    nonzero = [d for d in diffs if d != 0]
    if len(nonzero) < 2:
        return 1.0
    from scipy import stats

    return float(stats.wilcoxon(nonzero).pvalue)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KiB).

    With ``include_children`` the largest reaped child's peak is added,
    so a daemon child counts once it has been waited for.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def shm_segments(prefixes=("psvin", "psvout")) -> set[str]:
    """Names of the serve client/daemon segments present in /dev/shm."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith(prefixes)}


def shift_and_mirror(arr, axes, rng):
    """``arr`` circularly shifted, and mirrored or not, along ``axes``
    (each chosen by ``rng``): a different array of the same statistics
    when the field is periodic along those axes."""
    import numpy as np

    shifts = [int(rng.integers(arr.shape[ax])) for ax in axes]
    out = np.roll(arr, shifts, axis=axes)
    flips = [ax for ax in axes if rng.integers(2)]
    return np.ascontiguousarray(np.flip(out, axis=flips) if flips else out)


def max_abs_error_ok(original, decompressed, bound: float) -> bool:
    """Pointwise absolute bound with float slack: a ``1 + 1e-9`` factor
    for bound arithmetic plus one unit roundoff at the data's peak."""
    import numpy as np

    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(decompressed, dtype=np.float64)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    peak = float(np.max(np.abs(a)))
    allowed = bound * (1 + 1e-9) + float(np.finfo(np.float64).eps) * peak
    return bool(float(np.max(np.abs(a - b))) <= allowed)
