"""Wall-clock comparison of the fast and reference transform paths: each median
is over single calls timed by ``timeit.repeat``, with garbage collection off."""

from __future__ import annotations

import statistics
import timeit
from typing import Optional

from .errors import InvalidGroupError
from .functions import random_function
from .groups import Group, as_int
from .transform import dft_naive, fft_forward

NAIVE_SIZE_CAP = 4096
MAX_BENCH_SIZE = 1 << 22


def time_transform_paths(group: Group, reps: int = 20, seed: int = 0) -> dict:
    """Median seconds for the fast path and, below the size cap, the naive path."""
    reps = as_int(reps, ValueError, "reps", minimum=1)
    seed = as_int(seed, ValueError, "seed", minimum=0)
    if group.size > MAX_BENCH_SIZE:
        raise InvalidGroupError(f"benchmark capped at size {MAX_BENCH_SIZE}, got {group.size}")
    f = random_function(group, seed)
    fft_forward(f)  # warm up once so the medians compare steady state
    fft_median = statistics.median(timeit.repeat(lambda: fft_forward(f), repeat=reps, number=1))
    naive_median: Optional[float] = None
    if group.size <= NAIVE_SIZE_CAP:
        naive_median = statistics.median(timeit.repeat(lambda: dft_naive(f), repeat=reps, number=1))
    return {
        "orders": list(group.orders),
        "size": group.size,
        "reps": reps,
        "fft_median_s": fft_median,
        "naive_median_s": naive_median,
        "speedup": (naive_median / fft_median) if naive_median is not None else None,
    }
