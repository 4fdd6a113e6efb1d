"""Host-speed probe: a fixed kernel run from a timer signal while the jobs run.

The benchmark's host is shared, and its speed drifts by more than 1.5x over
seconds to minutes.  The probe measures that drift where it happens: every
INTERVAL_S of wall time, a SIGALRM handler runs a small fixed kernel that uses
neither abelfft nor the workload's inputs, and records how long it took.
Contention slows memory-bound, numpy-call-bound and interpreter-bound code by
different amounts, so each workload's kernel mixes the kinds of work its jobs
do (``transform_kernel``, ``forensics_kernel``, ``cli_kernel``).  A job may
switch to a kernel of its own for as long as it runs (``use``).
Python runs the handler between bytecodes of whatever is running, library code
included, so the samples cover each library call for its whole length.

Each kernel carries its nominal time, ``nominal_s``: its median over 1500
back-to-back calls on the reference host (2 vCPUs of an Intel Xeon, one BLAS
thread).  Jobs and set-up subtract the handler's time from their own
(``timed``), then scale it by nominal_s over the mean sample taken while they
ran: that gives their seconds at the probe's nominal host speed.
The probe runs on the main thread: it starts no thread and no process.
"""

from __future__ import annotations

import json
import math
import signal
from pathlib import Path
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025

_samples: list[float] = []
_busy = 0.0
_kernel = None
_kernels: dict = {}


def _complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def transform_kernel(workdir: Path):
    """About a millisecond: a 4 MB matrix-vector product, small matrix products and FFTs, JSON, a Python loop."""
    rng = np.random.default_rng(0)
    matrix, vector, small = _complex(rng, (512, 512)), _complex(rng, 512), _complex(rng, (32, 32))
    text = json.dumps(rng.standard_normal((200, 2)).tolist())

    def kernel() -> None:
        matrix @ vector
        for _ in range(8):
            np.fft.ifft(small @ small[0])
        json.loads(text)
        total = 0
        for i in range(2000):
            total += i * i

    kernel.nominal_s = 0.928e-3
    return kernel


FORENSICS_NOMINAL_S = {64: 0.163e-3, 256: 0.208e-3, 1024: 1.253e-3}


def forensics_kernel(workdir: Path, n: int = 1024):
    """A miniature of one operator apply at group size n: an n x n matrix-vector
    product with an ifft, then small products with ifft for the engine's own
    per-apply work.  About a millisecond at n = 1024, mostly the 16 MB product;
    at n = 64 nearly all of it is call overhead, as in the n = 64 jobs."""
    rng = np.random.default_rng(0)
    matrix, vector, small = _complex(rng, (n, n)), _complex(rng, n), _complex(rng, (64, 64))

    def kernel() -> None:
        np.fft.ifft(matrix @ vector)
        for _ in range(8):
            np.fft.ifft(small @ vector[:64])

    kernel.nominal_s = FORENSICS_NOMINAL_S[n]
    return kernel


def cli_kernel(workdir: Path):
    """About a millisecond: an operator-like JSON record dumped, written, read back, parsed and checked pair by pair."""
    rng = np.random.default_rng(0)
    record = {"matrix": rng.standard_normal((12, 12, 2)).tolist()}
    path = workdir / "probe.json"

    def kernel() -> None:
        path.write_text(json.dumps(record, indent=1))
        rows = json.loads(path.read_text())["matrix"]
        values = [complex(pair[0], pair[1]) for row in rows for pair in row if isinstance(pair, list) and len(pair) == 2]
        np.asarray(values).reshape(12, 12) @ np.ones(12)

    kernel.nominal_s = 1.826e-3
    return kernel


def _tick(signum, frame) -> None:
    global _busy
    t0 = perf_counter()
    _kernel()
    dt = perf_counter() - t0
    _samples.append(dt)
    _busy += dt


def use(factory, *args) -> None:
    """Sample factory(*args) from now on; each kernel is built and warmed up once."""
    global _kernel
    key = (factory, args)
    if key not in _kernels:
        _kernels[key] = factory(*args)
        _kernels[key]()  # warm-up, not a sample
    _kernel = _kernels[key]


def start(factory, *args) -> None:
    """Sample factory(*args) every INTERVAL_S until stop()."""
    use(factory, *args)
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_IGN)


def timed(call):
    """Run call(); returns (its result, its seconds less the probe's time inside it)."""
    busy = _busy
    t0 = perf_counter()
    result = call()
    seconds = perf_counter() - t0
    return result, seconds - (_busy - busy)


def sample_count() -> int:
    return len(_samples)


def nominal_s() -> float:
    """Nominal time of the kernel sampled now; nan before the first start() or use()."""
    return _kernel.nominal_s if _kernel else math.nan


def mean_since(index: int) -> float:
    """Mean probe seconds of the samples taken since sample_count() returned index; nan if none."""
    taken = _samples[index:]
    return sum(taken) / len(taken) if taken else float("nan")
