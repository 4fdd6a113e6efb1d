"""Forward and inverse transforms: a quadratic reference path and a fast path.

The fast path decomposes the transform across the cyclic factors (row-column),
runs mixed-radix Cooley-Tukey inside each factor, and switches to a Bluestein
chirp-z embedding (inside a power-of-two transform of length >= 2n-1) for
prime lengths.  Conventions, fixed once for the whole package:

  forward   F(xi) = sum_x f(x) * conj(<x, xi>)          (primal -> dual)
  inverse   f(x)  = (1/size) * sum_xi F(xi) * <x, xi>   (dual -> primal)

All twiddle tables are cached per unique length and shared between calls, so
repeated transforms on the same group reuse one plan.  Tables are immutable
and safe to share across threads.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SideMismatchError
from .functions import DUAL, PRIMAL, GFunction
from .groups import Group

# Primes transformed by a direct cached matrix; larger primes go through Bluestein.
_DIRECT_PRIMES = frozenset({2, 3, 5})

# Largest block transformed by one cached-matrix multiplication.
_DIRECT_LIMIT = 64

_NAIVE_BLOCK_ROWS = 256


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _pick_radix(n: int) -> int:
    """Split length for composite n > _DIRECT_LIMIT: largest divisor <= _DIRECT_LIMIT,
    falling back to the smallest prime factor when every divisor is large."""
    for d in range(_DIRECT_LIMIT, 1, -1):
        if n % d == 0:
            return d
    d = 2
    while n % d:
        d += 1
    return d


@lru_cache(maxsize=None)
def _dft_matrix(n: int) -> np.ndarray:
    """Symmetric n x n matrix W[j, k] = exp(-2i pi jk / n)."""
    j = np.arange(n, dtype=np.int64)
    phase = (np.outer(j, j) % n) * (-2j * np.pi / n)
    w = np.exp(phase)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=128)
def _twiddle(r: int, m: int) -> np.ndarray:
    """(r, m) table exp(-2i pi l s / (r m)) applied between the two stages."""
    n = r * m
    l = np.arange(r, dtype=np.int64)[:, None]
    s = np.arange(m, dtype=np.int64)[None, :]
    t = np.exp((l * s % n) * (-2j * np.pi / n))
    t.setflags(write=False)
    return t


@lru_cache(maxsize=64)
def _bluestein_tables(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Chirp vector, transformed wrap-around kernel, and padded length for size n."""
    padded = 1 << (2 * n - 1).bit_length()
    j = np.arange(n, dtype=np.int64)
    # j^2 reduced mod 2n keeps the chirp angle in [0, 2 pi) at full precision.
    chirp = np.exp((j * j % (2 * n)) * (-1j * np.pi / n))
    kernel = np.zeros(padded, dtype=np.complex128)
    kernel[:n] = np.conj(chirp)
    kernel[padded - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    kernel_hat = _dft_last(kernel, padded)
    chirp.setflags(write=False)
    kernel_hat.setflags(write=False)
    return chirp, kernel_hat, padded


def _bluestein_last(x: np.ndarray, n: int) -> np.ndarray:
    chirp, kernel_hat, padded = _bluestein_tables(n)
    a = np.zeros(x.shape[:-1] + (padded,), dtype=np.complex128)
    a[..., :n] = x * chirp
    conv = _idft_last(_dft_last(a, padded) * kernel_hat, padded)
    return conv[..., :n] * chirp


def _dft_last(x: np.ndarray, n: int) -> np.ndarray:
    """Length-n transform along the last axis, batched over all leading axes."""
    if n == 1:
        return x.astype(np.complex128, copy=False)
    if n <= _DIRECT_LIMIT and (not _is_prime(n) or n in _DIRECT_PRIMES):
        return x @ _dft_matrix(n)
    if _is_prime(n):
        return _bluestein_last(x, n)
    r = _pick_radix(n)
    m = n // r
    lead = x.shape[:-1]
    v = x.reshape(lead + (m, r))
    v = np.moveaxis(v, -1, -2)      # (..., r, m): residue class l picks row l
    v = _dft_last(v, m)
    v = v * _twiddle(r, m)
    v = np.moveaxis(v, -1, -2)      # (..., m, r)
    v = _dft_last(v, r)
    v = np.moveaxis(v, -1, -2)      # (..., r, m) with output index q*m + s
    return v.reshape(lead + (n,))


def _idft_last(x: np.ndarray, n: int) -> np.ndarray:
    return np.conj(_dft_last(np.conj(x), n)) / n


def _dft_values(values: np.ndarray, group: Group) -> np.ndarray:
    """Transform along the last axis, which indexes the group; leading axes are a batch."""
    batch = values.shape[:-1]
    arr = values.reshape(batch + group.orders)
    for axis, n in enumerate(group.orders, start=len(batch)):
        if n == 1:
            continue
        arr = np.moveaxis(_dft_last(np.moveaxis(arr, axis, -1), n), -1, axis)
    return np.ascontiguousarray(arr).reshape(batch + (group.size,))


def _idft_values(values: np.ndarray, group: Group) -> np.ndarray:
    return np.conj(_dft_values(np.conj(values), group)) / group.size


def convolve_values(a: np.ndarray, b: np.ndarray, group: Group, weight: float) -> np.ndarray:
    """Row-wise transform-based convolution of value arrays, scaled by the side's Haar weight."""
    return _idft_values(_dft_values(a, group) * _dft_values(b, group), group) * weight


def _char_block(group: Group, rows: np.ndarray) -> np.ndarray:
    """Rows of the matrix M[xi, x] = conj(<x, xi>) for the given dual indices."""
    coords = group.coords_table.astype(np.float64)
    inv_orders = 1.0 / np.asarray(group.orders, dtype=np.float64)
    phase = (coords[rows] * inv_orders) @ coords.T
    return np.exp(-2j * np.pi * phase)


def character_matrix(group: Group) -> np.ndarray:
    """Full transform matrix, column j the transform of the point mass at j."""
    return _char_block(group, np.arange(group.size))


def dft_naive(f: GFunction) -> GFunction:
    """Reference transform evaluated straight from the defining sum, O(size^2)."""
    if f.side != PRIMAL:
        raise SideMismatchError("the forward transform takes a primal-side function")
    group = f.group
    out = np.empty(group.size, dtype=np.complex128)
    for start in range(0, group.size, _NAIVE_BLOCK_ROWS):
        rows = np.arange(start, min(start + _NAIVE_BLOCK_ROWS, group.size))
        out[rows] = _char_block(group, rows) @ f.values
    return GFunction(group, DUAL, out)


def idft_naive(F: GFunction) -> GFunction:
    """Reference inverse, the defining sum with weight 1/size, O(size^2)."""
    if F.side != DUAL:
        raise SideMismatchError("the inverse transform takes a dual-side function")
    group = F.group
    out = np.empty(group.size, dtype=np.complex128)
    for start in range(0, group.size, _NAIVE_BLOCK_ROWS):
        rows = np.arange(start, min(start + _NAIVE_BLOCK_ROWS, group.size))
        out[rows] = np.conj(_char_block(group, rows)) @ F.values
    return GFunction(group, PRIMAL, out / group.size)


def fft_forward(f: GFunction) -> GFunction:
    if f.side != PRIMAL:
        raise SideMismatchError("the forward transform takes a primal-side function")
    return GFunction(f.group, DUAL, _dft_values(f.values, f.group))


def fft_inverse(F: GFunction) -> GFunction:
    if F.side != DUAL:
        raise SideMismatchError("the inverse transform takes a dual-side function")
    return GFunction(F.group, PRIMAL, _idft_values(F.values, F.group))


def convolve_fast(f: GFunction, g: GFunction) -> GFunction:
    """Convolution via transform, multiply, inverse; agrees with the direct sum."""
    f._require_compatible(g)
    return GFunction(f.group, f.side, convolve_values(f.values, g.values, f.group, f.weight))
