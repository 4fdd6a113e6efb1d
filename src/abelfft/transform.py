"""Forward and inverse transforms: a quadratic reference path and a fast path.

The fast path is numpy's n-dimensional FFT over the cyclic factors: an index
of Z_n1 x ... x Z_nk is row-major mixed-radix, so reshaping a value array to
the group's orders lays each factor on its own axis.  Conventions, fixed once
for the whole package:

  forward   F(xi) = sum_x f(x) * conj(<x, xi>)          (primal -> dual)
  inverse   f(x)  = (1/size) * sum_xi F(xi) * <x, xi>   (dual -> primal)

These are exactly the sign and scaling of ``numpy.fft.fftn`` and ``ifftn``.
"""

from __future__ import annotations

import numpy as np

from .errors import SideMismatchError
from .functions import DUAL, PRIMAL, GFunction
from .groups import Group

_NAIVE_BLOCK_ROWS = 256


def _dft_values(values: np.ndarray, group: Group) -> np.ndarray:
    """Transform along the last axis, which indexes the group; leading axes are a batch."""
    arr = values.reshape(values.shape[:-1] + group.orders)
    return np.fft.fftn(arr, axes=tuple(range(-len(group.orders), 0))).reshape(values.shape)


def _idft_values(values: np.ndarray, group: Group) -> np.ndarray:
    arr = values.reshape(values.shape[:-1] + group.orders)
    return np.fft.ifftn(arr, axes=tuple(range(-len(group.orders), 0))).reshape(values.shape)


def convolve_values(a: np.ndarray, b: np.ndarray, group: Group, weight: float) -> np.ndarray:
    """Row-wise transform-based convolution of value arrays, scaled by the side's Haar weight."""
    return _idft_values(_dft_values(a, group) * _dft_values(b, group), group) * weight


def _char_block(group: Group, rows: np.ndarray) -> np.ndarray:
    """Rows of the matrix M[xi, x] = conj(<x, xi>) for the given dual indices.

    The phase sum_i x_i xi_i / n_i is k / size modulo 1, with
    k = sum_i x_i xi_i (size / n_i) mod size.  Every product and partial sum
    of k is an integer below size^2, which a double holds exactly for any
    size whose matrix fits in memory, so the float matrix product that forms
    k is exact.  Each entry is then one lookup in a table of
    exp(-2 pi i k / size) and carries only that table's rounding.
    """
    size = group.size
    coords = group.coords_table.astype(np.float64)
    k = (coords[rows] * (size // np.asarray(group.orders))) @ coords.T % size
    return np.exp(-2j * np.pi * (np.arange(size) / size))[k.astype(np.int64)]


def _row_blocks(size: int):
    """Dual indices 0..size-1 as consecutive blocks of ``_NAIVE_BLOCK_ROWS``."""
    for start in range(0, size, _NAIVE_BLOCK_ROWS):
        yield np.arange(start, min(start + _NAIVE_BLOCK_ROWS, size))


def character_matrix(group: Group) -> np.ndarray:
    """Full transform matrix, column j the transform of the point mass at j."""
    out = np.empty((group.size, group.size), dtype=np.complex128)
    for rows in _row_blocks(group.size):
        out[rows] = _char_block(group, rows)
    return out


def dft_naive(f: GFunction) -> GFunction:
    """Reference transform evaluated straight from the defining sum, O(size^2)."""
    if f.side != PRIMAL:
        raise SideMismatchError("the forward transform takes a primal-side function")
    group = f.group
    out = np.empty(group.size, dtype=np.complex128)
    for rows in _row_blocks(group.size):
        out[rows] = _char_block(group, rows) @ f.values
    return GFunction(group, DUAL, out)


def idft_naive(F: GFunction) -> GFunction:
    """Reference inverse, the defining sum with weight 1/size, O(size^2)."""
    if F.side != DUAL:
        raise SideMismatchError("the inverse transform takes a dual-side function")
    group = F.group
    out = np.empty(group.size, dtype=np.complex128)
    for rows in _row_blocks(group.size):
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
