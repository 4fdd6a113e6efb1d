"""Forward and inverse transforms: a quadratic reference path and a fast path.

An index of Z_n1 x ... x Z_nk is row-major mixed-radix, so reshaping a value
array to the group's orders lays each factor on its own axis, and the
transform is the product of one cyclic transform per axis.  The fast path
merges consecutive factors into runs whose orders multiply to at most
``_RUN_SIZE`` (64).  A merged run is one matrix product with the run's exact
character matrix, built once per tuple of orders and shared by equal groups.
numpy's FFT makes one strided pass per axis and does almost no arithmetic on
an axis of order 2 to 4, so many small factors cost far less as one 64-point
product.  A run of one factor of prime order p >= ``_RADER_MIN`` (400) whose
p - 1 has no prime factor above 7, such as 65537, goes through Rader's
algorithm: one cyclic convolution of length p - 1, done by numpy's FFT, where
numpy itself pads a prime length to a Bluestein convolution of length at least
2p - 1.  Its outputs differ from the defining sum by at most 1.2e-15 of their
largest entry, as numpy's own do (measured on orders 421 to 65537, forward and
inverse).  Every other one-factor run goes through numpy's FFT, all such runs
in one ``fftn`` call, so a cyclic group of any other order gets exactly
``numpy.fft.fft``'s values.  Conventions, fixed once for the whole package:

  forward   F(xi) = sum_x f(x) * conj(<x, xi>)          (primal -> dual)
  inverse   f(x)  = (1/size) * sum_xi F(xi) * <x, xi>   (dual -> primal)

These are exactly the sign and scaling of ``numpy.fft.fftn`` and ``ifftn``.
"""

from __future__ import annotations

import math
from functools import cache, partial

import numpy as np

from .errors import SideMismatchError
from .functions import DUAL, PRIMAL, GFunction
from .groups import Group, _prime_factors

_NAIVE_BLOCK_ROWS = 256
# Largest product of consecutive orders transformed as one character matrix.
_RUN_SIZE = 64
# Smallest prime order taken by Rader's algorithm.  On a 2-vCPU Xeon (numpy
# 2.4, best of 1400 calls), one row of order 379 took 28 us by Rader against
# 25 us by numpy's FFT, and 421 took 28 against 32 us; at 257 it was 34
# against 25 us, at 769 34 against 50 us.
_RADER_MIN = 400
# Rader's convolution has length p - 1, which stays a fast FFT only when it
# has no prime factor above this.
_RADER_MAX_RADIX = 7


@cache
def _plan_runs(orders: tuple[int, ...]) -> tuple:
    """How ``_dft_values`` walks a group of these orders: consecutive factors
    merged greedily into runs whose orders multiply to at most ``_RUN_SIZE``.
    Returns the value shape with one axis per run after a batch axis, the axes
    of one-factor runs that numpy's FFT transforms, and each other run's axis
    with its step: ``_run_product`` for a merged run, ``_rader`` for a prime
    that ``_is_rader_order`` accepts.  ``functools.cache`` keeps one plan per
    orders tuple, shared by equal groups."""
    runs = [[]]
    for order in orders:
        if runs[-1] and math.prod(runs[-1]) * order > _RUN_SIZE:
            runs.append([])
        runs[-1].append(order)
    fft_axes = [axis for axis, run in enumerate(runs, 1) if len(run) == 1 and not _is_rader_order(run[0])]
    steps = [
        (axis, _run_step(tuple(run)) if len(run) > 1 else _rader_step(run[0]))
        for axis, run in enumerate(runs, 1)
        if axis not in fft_axes
    ]
    return (-1, *(math.prod(run) for run in runs)), fft_axes, steps


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    for table in tables:
        table.setflags(write=False)
    return tables


def _run_step(orders: tuple[int, ...]) -> partial:
    """A merged run's exact character matrix and its conjugate over the run size."""
    forward = character_matrix(Group(orders))
    return partial(_run_product, *_read_only(forward, np.conj(forward) / forward.shape[0]))


def _run_product(forward: np.ndarray, backward: np.ndarray, block: np.ndarray, inverse: bool) -> np.ndarray:
    matrix = backward if inverse else forward
    # Character matrices are symmetric, so a run on the last axis is one
    # product over all rows, with no transposed operand.
    return block[..., 0] @ matrix if block.shape[2] == 1 else matrix @ block


def _is_rader_order(p: int) -> bool:
    """True for a prime p >= ``_RADER_MIN`` whose p - 1 has no prime factor above ``_RADER_MAX_RADIX``."""
    return p >= _RADER_MIN and _prime_factors(p - 1)[-1] <= _RADER_MAX_RADIX and _prime_factors(p) == [p]


def _rader_step(p: int) -> partial:
    """Rader's tables for a prime order p with primitive root g: the gather
    index g^-m, the discrete log q of each nonzero residue g^q, and the FFT of
    the kernel w^(g^m), w = exp(-2 pi i / p), for each direction.  The
    inverse kernel conj(w^(g^m)) / p has the forward one's spectrum conjugated
    and index-reversed."""
    n = p - 1
    factors = _prime_factors(n)
    g = next(g for g in range(2, p) if all(pow(g, n // q, p) != 1 for q in factors))
    powers = np.ones(n, dtype=np.int64)  # powers[m] = g^m mod p, doubling the known prefix each pass
    known = 1
    while known < n:
        count = min(known, n - known)
        powers[known : known + count] = powers[:count] * pow(g, known, p) % p
        known += count
    log = np.zeros(p, dtype=np.int64)  # log[j] = q with g^q = j; log[0] is a placeholder
    log[powers] = np.arange(n)
    kernel = np.fft.fft(_phases(p)[powers])
    reverse = -np.arange(n)
    backward = np.conj(kernel[reverse]) / p
    # The kernels broadcast along axis 1 of a (batch, p - 1, inner) spectrum.
    return partial(_rader, *_read_only(powers[reverse], log, kernel[:, None], backward[:, None]))


def _rader(
    gather: np.ndarray, log: np.ndarray, forward: np.ndarray, backward: np.ndarray, block: np.ndarray, inverse: bool
) -> np.ndarray:
    """The prime-order DFT along axis 1 of ``block`` as a cyclic convolution
    of length p - 1: X[0] = sum x and X[g^q] = x[0] + sum_m x[g^-m] w^(g^(q-m)).
    The FFT of the gathered row gives sum x - x[0] at frequency 0, and adding
    (p - 1) x[0] there adds x[0] to every convolution output."""
    p = block.shape[1]
    scale = 1 / p if inverse else 1.0
    x0 = block[:, :1]
    # Both FFTs run in place on the gather, so a call allocates only it and the result.
    spectrum = block.take(gather, axis=1).astype(np.complex128, copy=False)
    np.fft.fft(spectrum, axis=1, out=spectrum)
    total = (spectrum[:, :1] + x0) * scale
    spectrum *= backward if inverse else forward
    spectrum[:, :1] += (p - 1) * scale * x0
    out = np.fft.ifft(spectrum, axis=1, out=spectrum).take(log, axis=1)
    out[:, :1] = total
    return out


def _dft_values(values: np.ndarray, group: Group, inverse: bool = False) -> np.ndarray:
    """Transform (or, with ``inverse``, inverse-transform) along the last axis,
    which indexes the group; leading axes are a batch.

    The axis is split into the group's runs (``_plan_runs``, cached by the
    group's orders): one-factor runs go through one ``fftn`` call, and every
    other run is one step along its own axis."""
    shape, fft_axes, steps = _plan_runs(group.orders)
    arr = (np.fft.ifftn if inverse else np.fft.fftn)(values.reshape(shape), axes=fft_axes)
    for axis, step in steps:
        arr = step(arr.reshape(-1, shape[axis], math.prod(shape[axis + 1 :])), inverse)
    return arr.reshape(values.shape)


def convolve_values(a: np.ndarray, b: np.ndarray, group: Group, weight: float) -> np.ndarray:
    """Row-wise transform-based convolution of value arrays, scaled by the side's Haar weight."""
    # Every transform returns a new array, so products and scaling go in place.
    spectrum = _dft_values(a, group)
    spectrum *= _dft_values(b, group)
    out = _dft_values(spectrum, group, inverse=True)
    out *= weight
    return out


def _char_block(group: Group, rows, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of the matrix M[xi, x] = conj(<x, xi>) for the given dual indices, into ``out`` if given.

    The phase sum_i x_i xi_i / n_i is k / size modulo 1, with
    k = sum_i x_i xi_i (size / n_i) mod size.  Every product and partial sum
    of k is an integer below size^2, which a double holds exactly for any size
    whose matrix fits in memory: the float product that forms k is exact, and
    so is its int64 copy, reduced by integer %.  Each entry is one lookup in a
    table of exp(-2 pi i k / size), carrying only its rounding; "clip" moves no
    index in [0, size) and lets take fill ``out`` without a buffer.
    """
    size = group.size
    coords = group.coords_table.astype(np.float64)
    k = ((coords[rows] * (size // np.asarray(group.orders))) @ coords.T).astype(np.int64)
    k %= size
    return _phases(size).take(k, out=out, mode="clip")


def _phases(size: int) -> np.ndarray:
    """exp(-2 pi i k / size) for k = 0..size-1, each phase reduced exactly before the exponential."""
    return np.exp(-2j * np.pi * (np.arange(size) / size))


def _char_rows(group: Group, duals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The rows of M at the dual indices ``duals``, built ``_NAIVE_BLOCK_ROWS`` at a time, into ``out`` if given."""
    if out is None:
        out = np.empty((len(duals), group.size), dtype=np.complex128)
    for start in range(0, len(duals), _NAIVE_BLOCK_ROWS):
        _char_block(group, duals[start : start + _NAIVE_BLOCK_ROWS], out[start : start + _NAIVE_BLOCK_ROWS])
    return out


def character_matrix(group: Group) -> np.ndarray:
    """Full transform matrix, column j the transform of the point mass at j."""
    return _char_rows(group, np.arange(group.size))


def _naive_values(values: np.ndarray, group: Group, inverse: bool) -> np.ndarray:
    """The defining sum, one block of dual indices at a time, O(size^2)."""
    out = np.empty(group.size, dtype=np.complex128)
    for start in range(0, group.size, _NAIVE_BLOCK_ROWS):
        rows = slice(start, start + _NAIVE_BLOCK_ROWS)
        # One block of the matrix is alive at a time: no name outlives the product.
        out[rows] = (np.conj if inverse else np.asarray)(_char_block(group, rows)) @ values
    return out / group.size if inverse else out


def _transformed(f: GFunction, inverse: bool, values_fn) -> GFunction:
    """``values_fn(values, group, inverse)`` on the other side; ``f`` is primal, or dual for an inverse."""
    side, other = (DUAL, PRIMAL) if inverse else (PRIMAL, DUAL)
    if f.side != side:
        raise SideMismatchError(f"the {'inverse' if inverse else 'forward'} transform takes a {side}-side function")
    return GFunction(f.group, other, values_fn(f.values, f.group, inverse))


def dft_naive(f: GFunction) -> GFunction:
    """Reference transform evaluated straight from the defining sum, O(size^2)."""
    return _transformed(f, False, _naive_values)


def idft_naive(F: GFunction) -> GFunction:
    """Reference inverse, the defining sum with weight 1/size, O(size^2)."""
    return _transformed(F, True, _naive_values)


def fft_forward(f: GFunction) -> GFunction:
    return _transformed(f, False, _dft_values)


def fft_inverse(F: GFunction) -> GFunction:
    return _transformed(F, True, _dft_values)


def convolve_fast(f: GFunction, g: GFunction) -> GFunction:
    """Convolution via transform, multiply, inverse; agrees with the direct sum."""
    f._require_compatible(g)
    return GFunction(f.group, f.side, convolve_values(f.values, g.values, f.group, f.weight))
