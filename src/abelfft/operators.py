"""Black-box operators between function spaces and the reference family.

An operator declares its input and output sides; beyond that the engine only
ever calls ``apply_batch`` and ``apply_point_masses``.  An operator is given
either by an apply function or by a dense matrix plus a conjugate-input flag,
meaning apply(f) = matrix @ f.values, with f conjugated first if the flag is
set.  A dense operator has one product path, ``apply_batch``, which answers a
whole block of probes with one matrix product (``apply`` is a batch of one),
and ``apply_point_masses`` reads the images of scaled point masses straight
off the matrix columns.  An operator given only by its apply function stays a
black box: both methods call it once per probe, in order.

T-form operators map primal to dual, U-form operators map primal to primal.
The reference family is parameterized by an automorphism psi and a
conjugation flag:

  U-form: f -> f o psi           (conjugated first when the flag is set)
  T-form: f -> forward(f o psi)  (likewise)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GroupMismatchError, SideMismatchError
from .functions import DUAL, PRIMAL, SIDES, GFunction
from .groups import Automorphism, Group
from .transform import character_matrix, fft_forward

T_FORM = "T"
U_FORM = "U"


def point_mass_rows(size: int, start: int, stop: int, scale: complex = 1.0) -> np.ndarray:
    """Rows ``scale * delta_x`` for x in range(start, stop), as a (stop - start, size) array."""
    rows = np.zeros((stop - start, size), dtype=np.complex128)
    rows[np.arange(stop - start), np.arange(start, stop)] = scale
    return rows


@dataclass(eq=False)
class Operator:
    """A map between function spaces, treated as a black box by the engine."""

    group: Group
    input_side: str
    output_side: str
    apply_fn: Optional[Callable[[GFunction], GFunction]] = None
    matrix: Optional[np.ndarray] = None
    conjugate_input: bool = False
    label: str = field(default="operator")

    def __post_init__(self):
        if self.input_side not in SIDES or self.output_side not in SIDES:
            raise SideMismatchError(
                f"operator sides must be in {SIDES}, got {self.input_side!r} -> {self.output_side!r}"
            )
        if (self.apply_fn is None) == (self.matrix is None):
            raise ValueError("an operator needs either an apply function or a matrix")
        if self.matrix is not None:
            matrix = np.array(self.matrix, dtype=np.complex128, copy=True)
            if matrix.shape != (self.group.size, self.group.size):
                raise GroupMismatchError(
                    f"operator matrix has shape {matrix.shape}, group has size {self.group.size}"
                )
            matrix.setflags(write=False)
            self.matrix = matrix

    @property
    def form(self) -> str:
        if self.input_side == PRIMAL and self.output_side == DUAL:
            return T_FORM
        if self.input_side == PRIMAL and self.output_side == PRIMAL:
            return U_FORM
        return "other"

    def apply(self, f: GFunction) -> GFunction:
        if f.group != self.group:
            raise GroupMismatchError("function and operator live on different groups")
        if f.side != self.input_side:
            raise SideMismatchError(
                f"operator expects {self.input_side}-side input, got {f.side}"
            )
        if self.matrix is not None:
            return GFunction(self.group, self.output_side, self.apply_batch(f.values[None])[0])
        out = self.apply_fn(f)
        if out.group != self.group or out.side != self.output_side:
            raise SideMismatchError(
                f"operator produced a {out.side}-side output, declared {self.output_side}"
            )
        return out

    def apply_batch(self, values: np.ndarray) -> np.ndarray:
        """Images of the rows of a (k, size) array of input-side values, as (k, size) rows."""
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[1] != self.group.size:
            raise GroupMismatchError(
                f"probe rows have shape {values.shape}, group has size {self.group.size}"
            )
        if self.matrix is not None:
            rows = np.conj(values) if self.conjugate_input else values
            return rows @ self.matrix.T
        out = np.empty_like(values)
        for i, row in enumerate(values):
            out[i] = self.apply(GFunction(self.group, self.input_side, row)).values
        return out

    def apply_point_masses(self, start: int, stop: int, scale: complex = 1.0) -> np.ndarray:
        """Images of ``scale * delta_x`` for x in range(start, stop), one row each."""
        n = self.group.size
        if not 0 <= start <= stop <= n:
            raise IndexError(f"point masses [{start}, {stop}) out of range for group of size {n}")
        if self.matrix is not None:
            # Column x of the matrix is the image of delta_x.
            s = np.conj(scale) if self.conjugate_input else scale
            return s * self.matrix.T[start:stop]
        return self.apply_batch(point_mass_rows(n, start, stop, scale))

    @classmethod
    def from_matrix(
        cls,
        group: Group,
        input_side: str,
        output_side: str,
        matrix: np.ndarray,
        conjugate_input: bool = False,
        label: str = "matrix operator",
    ) -> "Operator":
        return cls(group, input_side, output_side, None, matrix, conjugate_input, label)


def build_reference_operator(
    group: Group,
    psi: Automorphism,
    conjugation: bool = False,
    form: str = U_FORM,
) -> Operator:
    """The model operator for a given automorphism and conjugation flag."""
    if psi.group != group:
        raise GroupMismatchError("automorphism and group do not match")
    if form not in (T_FORM, U_FORM):
        raise ValueError(f"form must be {T_FORM!r} or {U_FORM!r}, got {form!r}")
    perm = psi.perm_array

    def compose(f: GFunction) -> GFunction:
        values = f.values[perm]
        if conjugation:
            values = np.conj(values)
        return GFunction(group, PRIMAL, values)

    if form == U_FORM:
        apply_fn = compose
        output_side = PRIMAL
    else:
        def apply_fn(f: GFunction) -> GFunction:
            return fft_forward(compose(f))

        output_side = DUAL

    return Operator(
        group,
        PRIMAL,
        output_side,
        apply_fn,
        conjugate_input=conjugation,
        label=f"reference-{form}",
    )


def reference_operator_matrix(group: Group, psi: Automorphism, form: str) -> np.ndarray:
    """Dense matrix of the reference operator (the conjugation flag is stored separately)."""
    if psi.group != group:
        raise GroupMismatchError("automorphism and group do not match")
    perm = psi.perm_array
    if form == U_FORM:
        return np.eye(group.size, dtype=np.complex128)[perm]
    if form == T_FORM:
        inv = np.empty(group.size, dtype=np.int64)
        inv[perm] = np.arange(group.size, dtype=np.int64)
        return character_matrix(group)[:, inv]
    raise ValueError(f"form must be {T_FORM!r} or {U_FORM!r}, got {form!r}")
