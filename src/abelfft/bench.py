"""Wall-clock comparison of the fast and reference transform paths."""

from __future__ import annotations

import statistics
import time
from typing import Optional

from .functions import random_function
from .groups import Group
from .transform import dft_naive, fft_forward

NAIVE_SIZE_CAP = 4096
MAX_BENCH_SIZE = 1 << 22


def _median_seconds(fn, arg, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_transform_paths(group: Group, reps: int = 20, seed: int = 0) -> dict:
    """Median seconds for the fast path and, below the size cap, the naive path."""
    if group.size > MAX_BENCH_SIZE:
        raise ValueError(f"benchmark capped at size {MAX_BENCH_SIZE}, got {group.size}")
    f = random_function(group, seed)
    fft_forward(f)  # warm up once so the medians compare steady state
    fft_median = _median_seconds(fft_forward, f, reps)
    naive_median: Optional[float] = None
    if group.size <= NAIVE_SIZE_CAP:
        naive_median = _median_seconds(dft_naive, f, reps)
    return {
        "orders": list(group.orders),
        "size": group.size,
        "reps": reps,
        "fft_median_s": fft_median,
        "naive_median_s": naive_median,
        "speedup": (naive_median / fft_median) if naive_median is not None else None,
    }
