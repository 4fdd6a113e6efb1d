"""Dense complex functions on a group, tagged with the side they live on.

The side fixes the Haar weight: counting measure on the primal side, counting
measure divided by the group size on the dual side.  With those weights the
transform is a bijection and all four exchange identities hold exactly.  The
side also fixes the involution: on the primal side f*(x) = conj(f(-x)); on the
dual side the matching involution is plain pointwise conjugation, which is
what the transform maps the primal involution to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import GroupMismatchError, SideMismatchError
from .groups import Element, Group

PRIMAL = "primal"
DUAL = "dual"
SIDES = (PRIMAL, DUAL)

DEFAULT_SUPPORT_TOL_FACTOR = 1e-12


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


@dataclass(frozen=True)
class SupportSet:
    """Indices where a function is numerically nonzero."""

    indices: frozenset[int]

    def __contains__(self, j: int) -> bool:
        return int(j) in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(sorted(self.indices))

    @property
    def is_empty(self) -> bool:
        return not self.indices


def delta(group: Group, at: Union[int, Element], side: str = PRIMAL) -> GFunction:
    """Point mass: 1 at the given element, 0 elsewhere."""
    j = at.index if isinstance(at, Element) else int(at)
    if not 0 <= j < group.size:
        raise IndexError(f"element index {j} out of range for group of size {group.size}")
    values = np.zeros(group.size, dtype=np.complex128)
    values[j] = 1.0
    return GFunction(group, side, values)


def constant_one(group: Group, side: str = PRIMAL) -> GFunction:
    return GFunction(group, side, np.ones(group.size, dtype=np.complex128))


def zero(group: Group, side: str = PRIMAL) -> GFunction:
    return GFunction(group, side, np.zeros(group.size, dtype=np.complex128))


def random_function(
    group: Group, rng: Union[int, np.random.Generator], side: str = PRIMAL
) -> GFunction:
    """Complex-Gaussian random function, deterministic given an integer seed."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    values = gen.standard_normal(group.size) + 1j * gen.standard_normal(group.size)
    return GFunction(group, side, values)


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
    coords = group.coords_table
    orders = np.asarray(group.orders, dtype=np.int64)
    strides = np.asarray(group.strides, dtype=np.int64)
    out = np.zeros(group.size, dtype=np.complex128)
    for y in np.flatnonzero(g.values):
        shifted = ((coords - coords[y]) % orders) @ strides  # index of x - y for each x
        out += g.values[y] * f.values[shifted]
    return GFunction(group, f.side, out * f.weight)


def support(f: GFunction, support_tol: float | None = None) -> SupportSet:
    """Indices with |f| > support_tol (default: 1e-12 times the sup norm)."""
    if support_tol is None:
        support_tol = DEFAULT_SUPPORT_TOL_FACTOR * norm_inf(f)
    if support_tol < 0:
        raise ValueError(f"support tolerance must be >= 0, got {support_tol}")
    idx = np.flatnonzero(np.abs(f.values) > support_tol)
    return SupportSet(frozenset(int(j) for j in idx))


def norm_inf(f: GFunction) -> float:
    return float(np.max(np.abs(f.values)))


def norm_2(f: GFunction) -> float:
    """Weighted two-norm: sqrt(w * sum |f|^2) with the side's Haar weight."""
    return float(np.sqrt(f.weight * np.sum(np.abs(f.values) ** 2)))


def max_abs_diff(f: GFunction, g: GFunction) -> float:
    f._require_compatible(g)
    return float(np.max(np.abs(f.values - g.values)))


def from_values(group: Group, side: str, values: Iterable[complex]) -> GFunction:
    return GFunction(group, side, np.asarray(list(values), dtype=np.complex128))
