"""Dense complex functions on a group, tagged with the side they live on.

The side fixes the Haar weight: counting measure on the primal side, counting
measure divided by the group size on the dual side.  With those weights the
transform is a bijection and all four exchange identities hold exactly.  The
side also fixes the involution: on the primal side f*(x) = conj(f(-x)); on the
dual side the matching involution is plain pointwise conjugation, which is
what the transform maps the primal involution to.

Every point mass in the package is built by ``point_mass_rows`` and every seeded
Gaussian probe row by ``_random_rows``; ``delta`` and ``random_function`` are one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GroupMismatchError, SideMismatchError
from .groups import Group, as_int

PRIMAL = "primal"
DUAL = "dual"
SIDES = (PRIMAL, DUAL)


@dataclass(frozen=True, eq=False)
class GFunction:
    """A function on the group (primal side) or on its dual (dual side).

    values[j] is the value at the element with index j.  Instances are
    immutable: the value vector is copied on construction and marked
    read-only, so they are safe to share across threads.
    """

    group: Group
    side: str
    values: np.ndarray

    def __post_init__(self):
        if self.side not in SIDES:
            raise SideMismatchError(f"side must be one of {SIDES}, got {self.side!r}")
        values = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        if values.shape != (self.group.size,):
            raise GroupMismatchError(
                f"value vector has length {values.size}, group has size {self.group.size}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def weight(self) -> float:
        """Haar weight of a single point on this side."""
        return haar_weight(self.group, self.side)

    def _require_compatible(self, other: "GFunction") -> None:
        if self.group != other.group:
            raise GroupMismatchError(
                f"functions live on different groups: {self.group.orders} vs {other.group.orders}"
            )
        if self.side != other.side:
            raise SideMismatchError(f"functions live on different sides: {self.side} vs {other.side}")

    def __add__(self, other: "GFunction") -> "GFunction":
        self._require_compatible(other)
        return GFunction(self.group, self.side, self.values + other.values)

    def __sub__(self, other: "GFunction") -> "GFunction":
        self._require_compatible(other)
        return GFunction(self.group, self.side, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GFunction":
        return GFunction(self.group, self.side, self.values * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "GFunction":
        return GFunction(self.group, self.side, -self.values)


def haar_weight(group: Group, side: str) -> float:
    """Haar weight of a single point: 1 on the primal side, 1/size on the dual side."""
    return 1.0 if side == PRIMAL else 1.0 / group.size


def point_mass_rows(size: int, start: int, stop: int, scale: complex = 1.0) -> np.ndarray:
    """Rows ``scale * delta_x`` for x in range(start, stop), as a (stop - start, size) array."""
    rows = np.zeros((stop - start, size), dtype=np.complex128)
    rows[np.arange(stop - start), np.arange(start, stop)] = scale
    return rows


def delta(group: Group, at: int, side: str = PRIMAL) -> GFunction:
    """Point mass: 1 at the element with index ``at``, 0 elsewhere; one row of ``point_mass_rows``."""
    j = as_int(at, IndexError, "an element index")
    if not 0 <= j < group.size:
        raise IndexError(f"element index {j} out of range for group of size {group.size}")
    return GFunction(group, side, point_mass_rows(group.size, j, j + 1)[0])


def zero(group: Group, side: str = PRIMAL) -> GFunction:
    return GFunction(group, side, np.zeros(group.size, dtype=np.complex128))


def random_function(
    group: Group, rng: Union[int, np.random.Generator], side: str = PRIMAL
) -> GFunction:
    """Complex-Gaussian random function, deterministic given an integer seed >= 0; one row of ``_random_rows``."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(as_int(rng, ValueError, "seed", minimum=0))
    return GFunction(group, side, _random_rows(group, rng, 1)[0])


def _random_rows(group: Group, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` complex-Gaussian rows in one draw from ``rng``: each row's real parts, then its imaginary parts."""
    rows = np.empty((count, group.size), dtype=np.complex128)
    rows.real, rows.imag = rng.standard_normal((count, 2, group.size)).transpose(1, 0, 2)
    return rows


def star(f: GFunction) -> GFunction:
    """The side's involution; an involution on either side.

    Primal: star(f)(x) = conj(f(-x)).  Dual: star(F) = conj(F).  The forward
    transform carries the primal involution to the dual one and the inverse
    transform carries it back.
    """
    return GFunction(f.group, f.side, star_values(f.values, f.group, f.side))


def star_values(values: np.ndarray, group: Group, side: str) -> np.ndarray:
    """The involution of ``star`` on raw values, row-wise along the last axis."""
    if side == PRIMAL:
        return np.conj(values[..., group.negation_perm])
    return np.conj(values)


def pointwise_product(f: GFunction, g: GFunction) -> GFunction:
    f._require_compatible(g)
    return GFunction(f.group, f.side, f.values * g.values)


def convolve(f: GFunction, g: GFunction) -> GFunction:
    """Direct-sum convolution (f*g)(x) = w * sum_y f(x-y) g(y), w the side weight.

    Quadratic-time reference path; the transform-based fast path lives in the
    transform module.
    """
    f._require_compatible(g)
    group = f.group
    elements = np.arange(group.size)
    out = np.zeros(group.size, dtype=np.complex128)
    for y in np.flatnonzero(g.values):
        shifted = group.add_index(elements, group.negation_perm[y])  # index of x - y for each x
        out += g.values[y] * f.values[shifted]
    return GFunction(group, f.side, out * f.weight)


def max_abs_diff(f: GFunction, g: GFunction) -> float:
    f._require_compatible(g)
    return float(np.max(np.abs(f.values - g.values)))
