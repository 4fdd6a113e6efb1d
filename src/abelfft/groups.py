"""Finite abelian groups as products of cyclic factors, with mixed-radix element indexing."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidGroupError, InvalidPermutationError

MAX_ENUMERABLE_SIZE = 1 << 20


def as_int(value, error: type[Exception], what: str, minimum: int | None = None) -> int:
    """``value`` as an int, through ``__index__`` so numpy integers pass; a bool,
    float or string raises ``error`` instead of being truncated, and so does an
    integer below ``minimum``."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is not None and index < minimum:
                raise error(f"{what} must be >= {minimum}, got {index}")
            return index
    raise error(f"{what} must be an integer, got {value!r}")


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
            orders = tuple(as_int(n, InvalidGroupError, "a cyclic order") for n in self.orders)
        except TypeError as exc:
            raise InvalidGroupError(f"orders must be a sequence of integers, got {self.orders!r}") from exc
        if not orders:
            raise InvalidGroupError("a group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise InvalidGroupError(f"cyclic orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)
        if self.size > np.iinfo(np.intp).max:
            raise InvalidGroupError(f"group size {self.size} is too large to index")

    @cached_property
    def size(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def coords_table(self) -> np.ndarray:
        """(size, k) int64 table; row j holds the coordinates of element j."""
        table = np.stack(np.unravel_index(np.arange(self.size), self.orders), axis=-1)
        table.setflags(write=False)
        return table

    @cached_property
    def negation_perm(self) -> np.ndarray:
        """Index permutation sending each element index to the index of its inverse."""
        perm = self._wrap_index(-self.coords_table)
        perm.setflags(write=False)
        return perm

    def _wrap_index(self, coords) -> np.ndarray:
        """Index of each coordinate vector on the last axis, each coordinate taken mod its order."""
        coords = np.asarray(coords)
        return np.ravel_multi_index(tuple(coords[..., i] for i in range(coords.shape[-1])), self.orders, mode="wrap")

    def add_index(self, i, j):
        """Index of the sum of elements i and j; elementwise for index arrays."""
        index = self._wrap_index(self.coords_table[i] + self.coords_table[j])
        return int(index) if np.ndim(index) == 0 else index


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division up to sqrt(n); a remainder above 1 is prime."""
    primes = []
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        primes.append(n)
    return primes


def _perm_array(perm, group: Group) -> np.ndarray:
    """``perm`` as an int64 array of the group's size; a wrong length, or an entry that
    is not an integer (a bool among integers included), raises instead of truncating.
    A listed integer past int64 lies in no group, so it is read as -1, out of range."""
    listed = not isinstance(perm, np.ndarray)
    array = np.asarray([-1 if isinstance(p, int) and p.bit_length() > 63 else p for p in perm] if listed else perm)
    listed_bool = listed and any(isinstance(p, (bool, np.bool_)) for p in perm)
    if listed_bool or array.size and not np.issubdtype(array.dtype, np.integer):
        raise InvalidPermutationError(f"permutation entries must be integers, got {perm!r:.60}")
    if array.shape != (group.size,):
        raise InvalidPermutationError(f"permutation has length {array.size}, group has size {group.size}")
    return array.astype(np.int64, copy=False)


def find_additivity_violation(perm: np.ndarray, group: Group) -> tuple[int, int] | None:
    """First pair (i, j), in row-major order, with perm[i + j] != perm[i] + perm[j], or None.

    Deciding costs O(k * size): each element x is checked against each cyclic
    generator e_k.  That suffices, because perm(x + e_k) = perm(x) + perm(e_k)
    for all x and k forces perm(0) = 0 (take x = 0) and then, by induction on
    y, perm(x + y) = perm(x) + perm(y).  One generator is checked at a time,
    so no array larger than (size, k) is made.  Only when a violation exists
    are the pair rows scanned, in order, to name the first one.
    """
    n = group.size
    perm = _perm_array(perm, group)
    if perm.min(initial=0) < 0 or perm.max(initial=0) >= n:
        raise InvalidPermutationError(f"permutation entries must lie in [0, {n})")
    elements = np.arange(n, dtype=np.int64)
    # Index of each generator e_k; an order-1 factor's generator is the identity.
    generators = group._wrap_index(np.eye(len(group.orders), dtype=np.int64))
    for e in generators:
        # Both sides are translations: x + e_k for every x, and perm(x) + perm(e_k).
        if not np.array_equal(perm[group.add_index(elements, e)], group.add_index(perm, perm[e])):
            break
    else:
        return None
    # A generator violation is itself a violating pair, so some row below has one.
    rows = (perm[group.add_index(i, elements)] != group.add_index(perm[i], perm) for i in range(n))
    i, row = next((i, row) for i, row in enumerate(rows) if row.any())
    return i, int(row.argmax())


def is_automorphism(perm: Sequence[int] | np.ndarray, group: Group) -> bool:
    """True iff perm is a bijection of indices that respects addition, and so fixes 0."""
    perm = _perm_array(perm, group)
    if perm.min(initial=0) < 0 or perm.max(initial=0) >= group.size:
        return False
    if np.bincount(perm, minlength=group.size).max() != 1:
        return False
    return find_additivity_violation(perm, group) is None


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism stored as the permutation it induces on element indices."""

    group: Group
    perm: tuple[int, ...]
    perm_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            perm = _perm_array(self.perm, self.group).copy()
        except InvalidPermutationError:
            for p in self.perm:  # name the first entry that is not an integer
                as_int(p, InvalidPermutationError, "a permutation entry")
            raise
        perm.setflags(write=False)
        object.__setattr__(self, "perm", tuple(perm.tolist()))
        object.__setattr__(self, "perm_array", perm)
        if not is_automorphism(perm, self.group):
            raise InvalidPermutationError(
                f"permutation is not an automorphism of the group with orders {self.group.orders}"
            )

    def __reduce__(self):
        # Copies and unpickled instances are rebuilt here, so perm_array stays read-only.
        return type(self), (self.group, self.perm)

    @classmethod
    def identity(cls, group: Group) -> "Automorphism":
        return cls(group, tuple(range(group.size)))


def random_automorphism(group: Group, seed: int) -> Automorphism:
    """Draw a seeded random automorphism by rejection over endomorphism matrices.

    Entry (i, j) of the matrix maps factor j into factor i and must be a
    multiple of n_i / gcd(n_i, n_j) for the map to be well defined.  A draw is
    accepted when it is injective, that is when it sends no element of prime
    order to 0: a nonzero kernel holds one.  For each prime p those elements
    are the nonzero x with every x_i a multiple of n_i / gcd(n_i, p), so a draw
    is judged on them alone, and only the accepted one is mapped over the whole
    group.  A draw is uniform over End(G), so it is accepted with probability
    |Aut(G)| / |End(G)| (Hillar and Rhea, Amer. Math. Monthly 114, 2007).  Over
    every group the size guard admits, that is at least 3/256, reached by
    Z32 x Z16 x Z8 x Z4 x Z4 x Z2 x Z2 x Z3, so the loop ends after about 86
    draws at worst, and with probability 1.
    """
    if group.size > MAX_ENUMERABLE_SIZE:
        raise InvalidGroupError(
            f"group size {group.size} exceeds the enumeration guard {MAX_ENUMERABLE_SIZE}"
        )
    rng = np.random.default_rng(as_int(seed, ValueError, "seed", minimum=0))
    k, orders = len(group.orders), np.array(group.orders)
    prime_order = [np.zeros((0, k), dtype=np.int64)]
    for p in _prime_factors(group.size):
        counts = np.gcd(orders, p)  # x_i takes counts[i] values; row 0 of the row-major table is x = 0
        prime_order.append(np.indices(counts).reshape(k, -1).T[1:] * (orders // counts))
    prime_order = np.concatenate(prime_order)
    while True:
        matrix = np.zeros((k, k), dtype=np.int64)
        for i, ni in enumerate(group.orders):
            for j, nj in enumerate(group.orders):
                g = math.gcd(ni, nj)
                matrix[i, j] = (ni // g) * rng.integers(0, g)
        if (prime_order @ matrix.T % orders).any(axis=1).all():
            return Automorphism(group, group._wrap_index(group.coords_table @ matrix.T))
