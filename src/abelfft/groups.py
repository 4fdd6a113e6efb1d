"""Finite abelian groups as products of cyclic factors, with mixed-radix element indexing."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    GroupMismatchError,
    InvalidGroupError,
    InvalidPermutationError,
    RetryExhaustedError,
)

MAX_ENUMERABLE_SIZE = 1 << 20

# Above this size the homomorphism check is sampled instead of exhaustive.
EXHAUSTIVE_PAIR_LIMIT = 4096

SAMPLED_PAIRS_PER_ELEMENT = 10


@dataclass(frozen=True)
class Group:
    """Direct product Z_n1 x ... x Z_nk, written additively.

    Elements are indexed 0..size-1 in row-major mixed radix: the index of
    coordinates (x_1, ..., x_k) is sum_i x_i * prod_{j>i} n_j.  The dual group
    is identified with the group itself through the same orders list, so dual
    elements reuse this indexing.
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        try:
            orders = tuple(int(n) for n in self.orders)
        except (TypeError, ValueError) as exc:
            raise InvalidGroupError(f"orders must be a sequence of integers, got {self.orders!r}") from exc
        if not orders:
            raise InvalidGroupError("a group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise InvalidGroupError(f"cyclic orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)

    @cached_property
    def size(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        out = []
        acc = 1
        for n in reversed(self.orders):
            out.append(acc)
            acc *= n
        return tuple(reversed(out))

    @cached_property
    def coords_table(self) -> np.ndarray:
        """(size, k) int64 table; row j holds the coordinates of element j."""
        k = len(self.orders)
        idx = np.arange(self.size, dtype=np.int64)
        table = np.empty((self.size, k), dtype=np.int64)
        for i in range(k - 1, -1, -1):
            table[:, i] = idx % self.orders[i]
            idx //= self.orders[i]
        table.setflags(write=False)
        return table

    @cached_property
    def negation_perm(self) -> np.ndarray:
        """Index permutation sending each element index to the index of its inverse."""
        orders = np.asarray(self.orders, dtype=np.int64)
        strides = np.asarray(self.strides, dtype=np.int64)
        perm = ((-self.coords_table) % orders) @ strides
        perm.setflags(write=False)
        return perm

    def identity(self) -> "Element":
        return Element(self, (0,) * len(self.orders))

    def element_of(self, j: int) -> "Element":
        j = int(j)
        if not 0 <= j < self.size:
            raise IndexError(f"element index {j} out of range for group of size {self.size}")
        coords = []
        for stride, n in zip(self.strides, self.orders):
            coords.append((j // stride) % n)
        return Element(self, tuple(coords))

    def index_of(self, x: "Element") -> int:
        if x.group != self:
            raise GroupMismatchError(f"element of {x.group.orders} indexed against {self.orders}")
        return sum(c * s for c, s in zip(x.coords, self.strides))

    def elements(self) -> Iterator["Element"]:
        for j in range(self.size):
            yield self.element_of(j)

    def add_index(self, i, j):
        """Index of element_of(i) + element_of(j); elementwise for index arrays."""
        coords = self.coords_table
        orders = np.asarray(self.orders, dtype=np.int64)
        summed = (coords[i] + coords[j]) % orders
        index = summed @ np.asarray(self.strides, dtype=np.int64)
        return int(index) if np.ndim(index) == 0 else index


@dataclass(frozen=True)
class Element:
    """A group element held as reduced coordinates, one residue per cyclic factor."""

    group: Group
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.group.orders):
            raise InvalidGroupError(
                f"expected {len(self.group.orders)} coordinates, got {len(self.coords)}"
            )
        reduced = tuple(int(c) % n for c, n in zip(self.coords, self.group.orders))
        object.__setattr__(self, "coords", reduced)

    @property
    def index(self) -> int:
        return self.group.index_of(self)

    def _require_same_group(self, other: "Element") -> None:
        if self.group != other.group:
            raise GroupMismatchError(
                f"elements live on different groups: {self.group.orders} vs {other.group.orders}"
            )

    def __add__(self, other: "Element") -> "Element":
        self._require_same_group(other)
        return Element(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.group, tuple(-c for c in self.coords))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)


def character(x: Element, xi: Element) -> complex:
    """Unit-modulus pairing exp(2*pi*i * sum_i x_i xi_i / n_i) between a point and a dual point."""
    if x.group != xi.group:
        raise GroupMismatchError(
            f"character arguments live on different groups: {x.group.orders} vs {xi.group.orders}"
        )
    # Reducing each product mod n_i keeps the angle in [0, 2*pi) and the floats exact.
    turns = sum((a * b % n) / n for a, b, n in zip(x.coords, xi.coords, x.group.orders))
    return cmath.exp(2j * math.pi * turns)


def _induced_index_map(matrix: np.ndarray, group: Group) -> np.ndarray:
    """Index map of the endomorphism given by an integer matrix acting on coordinates."""
    orders = np.asarray(group.orders, dtype=np.int64)
    strides = np.asarray(group.strides, dtype=np.int64)
    images = (group.coords_table @ matrix.T) % orders
    return images @ strides


def find_additivity_violation(
    perm: np.ndarray, group: Group, rng: np.random.Generator | None = None
) -> tuple[int, int] | None:
    """First pair (i, j) with perm[i + j] != perm[i] + perm[j], or None.

    Exhaustive for groups of size <= EXHAUSTIVE_PAIR_LIMIT; above that it
    samples SAMPLED_PAIRS_PER_ELEMENT * size random pairs.
    """
    n = group.size
    coords = group.coords_table
    orders = np.asarray(group.orders, dtype=np.int64)
    strides = np.asarray(group.strides, dtype=np.int64)
    perm = np.asarray(perm, dtype=np.int64)
    image_coords = coords[perm]
    if n <= EXHAUSTIVE_PAIR_LIMIT:
        for i in range(n):
            lhs = perm[((coords[i] + coords) % orders) @ strides]
            rhs = ((image_coords[i] + image_coords) % orders) @ strides
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                return i, int(bad[0])
        return None
    rng = rng or np.random.default_rng(0xA5)
    count = SAMPLED_PAIRS_PER_ELEMENT * n
    xs = rng.integers(0, n, size=count)
    ys = rng.integers(0, n, size=count)
    lhs = perm[((coords[xs] + coords[ys]) % orders) @ strides]
    rhs = ((image_coords[xs] + image_coords[ys]) % orders) @ strides
    bad = np.nonzero(lhs != rhs)[0]
    if bad.size:
        return int(xs[bad[0]]), int(ys[bad[0]])
    return None


def is_automorphism(perm: Sequence[int] | np.ndarray, group: Group) -> bool:
    """True iff perm is a bijection of indices that fixes 0 and respects addition."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (group.size,):
        raise InvalidPermutationError(
            f"permutation has length {perm.size}, group has size {group.size}"
        )
    if perm.min(initial=0) < 0 or perm.max(initial=0) >= group.size:
        return False
    if np.bincount(perm, minlength=group.size).max() != 1:
        return False
    if perm[0] != 0:
        return False
    return find_additivity_violation(perm, group) is None


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism stored as the permutation it induces on element indices."""

    group: Group
    perm: tuple[int, ...]

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        object.__setattr__(self, "perm", perm)
        if not is_automorphism(np.asarray(perm, dtype=np.int64), self.group):
            raise InvalidPermutationError(
                f"permutation is not an automorphism of the group with orders {self.group.orders}"
            )

    @classmethod
    def identity(cls, group: Group) -> "Automorphism":
        return cls(group, tuple(range(group.size)))

    @cached_property
    def perm_array(self) -> np.ndarray:
        arr = np.asarray(self.perm, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def apply(self, x: Element) -> Element:
        if x.group != self.group:
            raise GroupMismatchError("element and automorphism live on different groups")
        return self.group.element_of(self.perm[x.index])

    __call__ = apply

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The automorphism x -> self(other(x))."""
        if other.group != self.group:
            raise GroupMismatchError("cannot compose automorphisms of different groups")
        return Automorphism(self.group, tuple(self.perm_array[other.perm_array]))

    def inverse(self) -> "Automorphism":
        inv = np.empty(self.group.size, dtype=np.int64)
        inv[self.perm_array] = np.arange(self.group.size, dtype=np.int64)
        return Automorphism(self.group, tuple(inv))

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))


def random_automorphism(group: Group, seed: int, max_tries: int = 1000) -> Automorphism:
    """Draw a seeded random automorphism by rejection over endomorphism matrices.

    Entry (i, j) of the matrix maps factor j into factor i and must be a
    multiple of n_i / gcd(n_i, n_j) for the map to be well defined; the draw
    is accepted when the induced index map is a bijection.
    """
    if group.size > MAX_ENUMERABLE_SIZE:
        raise InvalidGroupError(
            f"group size {group.size} exceeds the enumeration guard {MAX_ENUMERABLE_SIZE}"
        )
    rng = np.random.default_rng(seed)
    k = len(group.orders)
    for _ in range(max_tries):
        matrix = np.zeros((k, k), dtype=np.int64)
        for i, ni in enumerate(group.orders):
            for j, nj in enumerate(group.orders):
                g = math.gcd(ni, nj)
                matrix[i, j] = (ni // g) * rng.integers(0, g)
        induced = _induced_index_map(matrix, group)
        if np.bincount(induced, minlength=group.size).max() == 1:
            return Automorphism(group, tuple(induced))
    raise RetryExhaustedError(
        f"no automorphism accepted after {max_tries} tries on group {group.orders}"
    )
