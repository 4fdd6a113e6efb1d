"""Forward and inverse transforms: a quadratic reference path and a fast path.

An index of Z_n1 x ... x Z_nk is row-major mixed-radix, so reshaping a value
array to the group's orders lays each factor on its own axis, and the
transform is the product of one cyclic transform per axis.  The fast path
merges consecutive factors into runs whose orders multiply to at most
``_RUN_SIZE`` (64).  A run of one factor goes through numpy's FFT, all such
runs in one ``fftn`` call; a merged run is one matrix product with the run's
exact character matrix, built once per group.  numpy's FFT makes one strided
pass per axis and does almost no arithmetic on an axis of order 2 to 4, so
many small factors cost far less as one 64-point product.  A one-factor group
gets exactly ``numpy.fft.fft``'s values.  Conventions, fixed once for the
whole package:

  forward   F(xi) = sum_x f(x) * conj(<x, xi>)          (primal -> dual)
  inverse   f(x)  = (1/size) * sum_xi F(xi) * <x, xi>   (dual -> primal)

These are exactly the sign and scaling of ``numpy.fft.fftn`` and ``ifftn``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SideMismatchError
from .functions import DUAL, PRIMAL, GFunction
from .groups import Group

_NAIVE_BLOCK_ROWS = 256
# Largest product of consecutive orders transformed as one character matrix.
_RUN_SIZE = 64


def _plan_runs(group: Group) -> tuple:
    """How ``_dft_values`` walks the group: consecutive factors merged greedily
    into runs whose orders multiply to at most ``_RUN_SIZE``.  Returns the
    value shape with one axis per run after a batch axis, the axes of
    one-factor runs, which numpy's FFT transforms, and each merged run's axis
    with its ``_run_matrices``."""
    runs = [[]]
    for order in group.orders:
        if runs[-1] and math.prod(runs[-1]) * order > _RUN_SIZE:
            runs.append([])
        runs[-1].append(order)
    fft_axes = [axis for axis, run in enumerate(runs, 1) if len(run) == 1]
    products = [(axis, _run_matrices(tuple(run))) for axis, run in enumerate(runs, 1) if len(run) > 1]
    return (-1, *(math.prod(run) for run in runs)), fft_axes, products


def _run_matrices(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A run's exact character matrix and its conjugate over the run size."""
    forward = character_matrix(Group(orders))
    return forward, np.conj(forward) / forward.shape[0]


def _dft_values(values: np.ndarray, group: Group, inverse: bool = False) -> np.ndarray:
    """Transform (or, with ``inverse``, inverse-transform) along the last axis,
    which indexes the group; leading axes are a batch.

    The axis is split into the group's runs (``_plan_runs``, cached on the
    group): one-factor runs go through one ``fftn`` call, and each merged run
    is one matrix product with its character matrix."""
    shape, fft_axes, products = group._transform_plan
    arr = (np.fft.ifftn if inverse else np.fft.fftn)(values.reshape(shape), axes=fft_axes)
    for axis, matrices in products:
        block, matrix = arr.reshape(-1, shape[axis], math.prod(shape[axis + 1 :])), matrices[inverse]
        # Character matrices are symmetric, so a run on the last axis is one
        # product over all rows, with no transposed operand.
        arr = block[..., 0] @ matrix if block.shape[2] == 1 else matrix @ block
    return arr.reshape(values.shape)


def _idft_values(values: np.ndarray, group: Group) -> np.ndarray:
    return _dft_values(values, group, inverse=True)


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


def _naive_values(values: np.ndarray, group: Group, inverse: bool) -> np.ndarray:
    """The defining sum, one block of dual indices at a time, O(size^2)."""
    out = np.empty(group.size, dtype=np.complex128)
    for rows in _row_blocks(group.size):
        # One block of the matrix is alive at a time: no name outlives the product.
        out[rows] = (np.conj if inverse else np.asarray)(_char_block(group, rows)) @ values
    return out / group.size if inverse else out


def dft_naive(f: GFunction) -> GFunction:
    """Reference transform evaluated straight from the defining sum, O(size^2)."""
    if f.side != PRIMAL:
        raise SideMismatchError("the forward transform takes a primal-side function")
    return GFunction(f.group, DUAL, _naive_values(f.values, f.group, inverse=False))


def idft_naive(F: GFunction) -> GFunction:
    """Reference inverse, the defining sum with weight 1/size, O(size^2)."""
    if F.side != DUAL:
        raise SideMismatchError("the inverse transform takes a dual-side function")
    return GFunction(F.group, PRIMAL, _naive_values(F.values, F.group, inverse=True))


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
