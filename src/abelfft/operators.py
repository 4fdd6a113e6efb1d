"""Black-box operators between function spaces and the reference family.

An operator maps primal input to a declared side; beyond that the engine only
ever calls ``apply_batch`` and ``apply_point_masses``.  An operator is given
either by an apply function or by a dense matrix plus a conjugate-input flag,
meaning apply(f) = matrix @ f.values, with f conjugated first if the flag is
set.  A dense operator is stored one of two ways, decided once when it is
built by ``monomial_factors`` on the array as given, before any copy.  When
the matrix is a scaled permutation whose factors (source, scale) rebuild it
bit for bit (one nonzero in every row and every column and +0.0+0.0j
everywhere else, as ``reference_operator_matrix``'s U-form is), the operator
holds those factors and the inverse permutation, O(n) numbers, and no
matrix.  A block of k probes in ``apply_batch`` (``apply`` is a batch of one)
then takes a gather and a scale, O(k * n): output entry r is input entry
source[r] times scale[r].  Any other matrix, a T-form one or a monomial one
with a -0.0 zero among them, is kept read-only, complex128 and column-major
(Fortran order), and a block takes one matrix product, O(k * n^2).  The
gather agrees with the product bit for bit for real scales and within one
rounding for complex ones; a probe row with a non-finite entry takes the
product, against a matrix built for that call alone, which spreads it over the
row (0 * inf is NaN).  Either way the operator holds one storage for life:
``op.matrix`` of a factors-only operator is built from its factors on each
read and is not kept.
``apply_point_masses`` answers the unit point masses: the image of delta_x
is column x of the matrix.  A kept matrix gives each as a contiguous row of
``matrix.T``, a read-only view; factors write each one nonzero into a fresh
block of zeros.  The operator is (conjugate-)linear, so the image of alpha * f
is s times the image of f, with s = ``point_mass_scale(alpha)``, conj?(alpha)
by the flag: ``recover`` scales unit images and the image of 1 by it.  A
read-only, column-major complex128 array that owns its data is kept without
a copy; any other is copied.  Record files stay row-major.  Turning writes
back on for an array handed over, or for ``op.matrix``, breaks this
contract.  An operator given only by its apply function stays a black box:
``apply_batch`` alone calls it, once per row, in order, whichever probe method
was asked, and ``point_mass_scale`` is None for it.

T-form operators map primal to dual, U-form operators map primal to primal;
there are no others, so the output side gives the form.
The reference family is parameterized by an automorphism psi and a
conjugation flag:

  U-form: f -> f o psi           (conjugated first when the flag is set)
  T-form: f -> forward(f o psi)  (likewise)
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import GroupMismatchError, SideMismatchError
from .functions import DUAL, PRIMAL, SIDES, GFunction, point_mass_rows
from .groups import Automorphism, Group
from .transform import _char_rows, fft_forward

T_FORM = "T"
U_FORM = "U"


def require_operator_sides(input_side: str, output_side: str) -> None:
    """Raise SideMismatchError unless the sides are primal -> primal or dual."""
    if input_side != PRIMAL or output_side not in SIDES:
        raise SideMismatchError(
            f"operator sides must be {PRIMAL} -> {PRIMAL} or {DUAL}, got {input_side!r} -> {output_side!r}"
        )


def monomial_factors(matrix: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(source, scale) with matrix @ v == v[source] * scale when the factors rebuild the
    square complex128 matrix bit for bit: every row and every column holds one nonzero
    (!= 0, so NaN is one) and every other entry is +0.0+0.0j.  Else None.

    Each line, a column of a column-major matrix and a row of any other, is read along
    memory.  A matrix whose first column is not a single nonzero is refused after
    reading that column alone."""
    n = matrix.shape[0]
    if np.count_nonzero(matrix[:, 0]) != 1:
        return None
    column_major = matrix.flags.f_contiguous
    lines = matrix.T if column_major else matrix
    picks = (lines != 0).argmax(axis=1)  # each line's first nonzero (0 for a line of zeros)
    index = np.arange(n)
    values = lines[index, picks]
    if not values.all():
        return None
    # Every entry but the picks is +0.0+0.0j: its 64-bit words are all zero.
    if np.count_nonzero(np.ravel(lines).view(np.uint64)) != np.count_nonzero(values.view(np.uint64)):
        return None
    crossing = np.full(n, -1)
    crossing[picks] = index
    if (crossing < 0).any():  # two lines pick the same crossing line
        return None
    if column_major:
        return crossing, values[crossing]
    return picks, values


def _monomial_columns(inverse: np.ndarray, scale: np.ndarray, start: int, stop: int, out=None) -> np.ndarray:
    """Columns start to stop - 1 of the monomial matrix whose column x holds scale[inverse[x]] at row inverse[x]
    and +0.0+0.0j elsewhere, as the rows of ``out`` (zeros, written in place) or of a new C-order block."""
    targets = inverse[start:stop]
    out = np.zeros((stop - start, inverse.size), dtype=np.complex128) if out is None else out
    out[np.arange(stop - start), targets] = scale[targets]
    return out


class Operator:
    """A map out of the primal function space, treated as a black box by the engine.

    The input side must be primal, or SideMismatchError is raised; the output
    side gives the form: dual for T-form, primal for U-form."""

    def __init__(
        self,
        group: Group,
        input_side: str,
        output_side: str,
        apply_fn: Optional[Callable[[GFunction], GFunction]] = None,
        matrix: Optional[np.ndarray] = None,
        conjugate_input: bool = False,
    ):
        require_operator_sides(input_side, output_side)
        if (apply_fn is None) == (matrix is None):
            raise ValueError("an operator needs either an apply function or a matrix")
        if conjugate_input and matrix is None:
            raise ValueError("conjugate_input describes a matrix; an apply function conjugates itself")
        self.group = group
        self.input_side = input_side
        self.output_side = output_side
        self.apply_fn = apply_fn
        self.conjugate_input = conjugate_input
        # The factors (source, scale) and source^-1, held exactly when no matrix is.
        self._monomial: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._inverse: Optional[np.ndarray] = None
        self._matrix: Optional[np.ndarray] = None
        if matrix is None:
            return
        given = matrix
        if type(matrix) is not np.ndarray or matrix.dtype != np.complex128:
            matrix = np.array(matrix, dtype=np.complex128, order="F")
        if matrix.shape != (group.size, group.size):
            raise GroupMismatchError(f"operator matrix has shape {matrix.shape}, group has size {group.size}")
        self._monomial = monomial_factors(matrix)
        if self._monomial is not None:
            # The factors rebuild the matrix bit for bit, so it is not kept (see ``matrix``).
            self._inverse = np.argsort(self._monomial[0])
            return
        frozen = matrix is not given or (not matrix.flags.writeable and matrix.flags.owndata)
        if not (frozen and matrix.flags.f_contiguous):
            matrix = np.array(matrix, order="F")
        matrix.setflags(write=False)
        self._matrix = matrix

    @property
    def matrix(self) -> Optional[np.ndarray]:
        """The dense matrix, read-only and column-major; None for an operator given by
        its apply function.  An operator kept as its monomial factors builds it from
        them on each read and does not keep it."""
        if self._monomial is None:
            return self._matrix
        n = self.group.size
        matrix = np.zeros((n, n), dtype=np.complex128, order="F")
        _monomial_columns(self._inverse, self._monomial[1], 0, n, out=matrix.T)
        matrix.setflags(write=False)
        return matrix

    @property
    def form(self) -> str:
        return T_FORM if self.output_side == DUAL else U_FORM

    def apply(self, f: GFunction) -> GFunction:
        if f.group != self.group:
            raise GroupMismatchError("function and operator live on different groups")
        if f.side != self.input_side:
            raise SideMismatchError(
                f"operator expects {self.input_side}-side input, got {f.side}"
            )
        return GFunction(self.group, self.output_side, self.apply_batch(f.values[None])[0])

    def apply_batch(self, values: np.ndarray) -> np.ndarray:
        """Images of the rows of a (k, size) array of input-side values, as (k, size) rows; an apply
        function must return a GFunction on the operator's group and output side."""
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[1] != self.group.size:
            raise GroupMismatchError(
                f"probe rows have shape {values.shape}, group has size {self.group.size}"
            )
        if self.apply_fn is None:
            rows = np.conj(values) if self.conjugate_input else values
            if self._monomial is None:
                return rows @ self._matrix.T
            source, scale = self._monomial
            out = rows.take(source, axis=1)
            out *= scale
            finite = np.isfinite(rows).all(axis=1)
            if not finite.all():
                # The product spreads a non-finite entry over its whole row (0 * inf is NaN);
                # its matrix is built for this call, so the factors stay the only storage.
                out[~finite] = rows[~finite] @ self.matrix.T
            return out
        out = np.empty_like(values)
        for i, row in enumerate(values):
            image = self.apply_fn(GFunction(self.group, self.input_side, row))
            if not isinstance(image, GFunction):
                raise TypeError(f"operator apply function returned {type(image).__name__}, expected GFunction")
            if image.group != self.group:
                raise GroupMismatchError(
                    f"operator produced an output on {image.group.orders}, declared {self.group.orders}"
                )
            if image.side != self.output_side:
                raise SideMismatchError(
                    f"operator produced a {image.side}-side output, declared {self.output_side}"
                )
            out[i] = image.values
        return out

    def point_mass_scale(self, alpha: complex) -> Optional[complex]:
        """The factor s with image(alpha * f) = s * image(f) for every f, point masses
        and constants among them: conj?(alpha) for a dense operator, None for one
        given by an apply function."""
        if self.apply_fn is not None:
            return None
        return np.conj(alpha) if self.conjugate_input else alpha

    def apply_point_masses(self, start: int, stop: int) -> np.ndarray:
        """Images of the unit point masses delta_x for x in range(start, stop), one row each."""
        n = self.group.size
        if not 0 <= start <= stop <= n:
            raise IndexError(f"point masses [{start}, {stop}) out of range for group of size {n}")
        if self._inverse is not None:
            return _monomial_columns(self._inverse, self._monomial[1], start, stop)
        if self._matrix is not None:
            # Column x of the matrix is the image of delta_x, a contiguous row of matrix.T.
            return self._matrix.T[start:stop]
        return self.apply_batch(point_mass_rows(n, start, stop))

    @classmethod
    def from_matrix(
        cls,
        group: Group,
        input_side: str,
        output_side: str,
        matrix: np.ndarray,
        conjugate_input: bool = False,
    ) -> "Operator":
        return cls(group, input_side, output_side, None, matrix, conjugate_input)


def _reference_output_side(group: Group, psi: Automorphism, form: str) -> str:
    """The reference operator's output side for ``form``, after checking that psi acts on ``group``."""
    if psi.group != group:
        raise GroupMismatchError("automorphism and group do not match")
    if form not in (T_FORM, U_FORM):
        raise ValueError(f"form must be {T_FORM!r} or {U_FORM!r}, got {form!r}")
    return DUAL if form == T_FORM else PRIMAL


def build_reference_operator(
    group: Group,
    psi: Automorphism,
    conjugation: bool = False,
    form: str = U_FORM,
) -> Operator:
    """The model operator for a given automorphism and conjugation flag."""
    output_side = _reference_output_side(group, psi, form)
    perm = psi.perm_array

    def apply_fn(f: GFunction) -> GFunction:
        values = f.values[perm]
        if conjugation:
            values = np.conj(values)
        image = GFunction(group, PRIMAL, values)
        return fft_forward(image) if output_side == DUAL else image

    return Operator(group, PRIMAL, output_side, apply_fn)


def reference_operator_matrix(group: Group, psi: Automorphism, form: str) -> np.ndarray:
    """Dense matrix of the reference operator (the conjugation flag is stored separately), built column-major:
    column x is the image of delta_x, which sits at phi = psi^-1.  The U-form one is the monomial matrix with
    source psi and unit scales, set into zeros; the T-form one writes every entry.  It is read-only, so
    ``Operator`` keeps a T-form one without a copy, and a U-form one as its factors alone: copy it before editing."""
    output_side = _reference_output_side(group, psi, form)
    n, phi = group.size, np.argsort(psi.perm_array)
    matrix = (np.zeros if output_side == PRIMAL else np.empty)((n, n), dtype=np.complex128, order="F")
    if output_side == PRIMAL:
        _monomial_columns(phi, np.ones(n), 0, n, out=matrix.T)
    else:
        _char_rows(group, phi, out=matrix.T)  # symmetric: its rows are its columns
    matrix.setflags(write=False)
    return matrix
