import copy
import inspect
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfft import (
    Automorphism,
    Group,
    InvalidGroupError,
    InvalidPermutationError,
    character_matrix,
    delta,
    find_additivity_violation,
    is_automorphism,
    random_automorphism,
    random_function,
)
from abelfft.groups import _prime_factors

from conftest import small_groups


def brute_force_automorphisms(group):
    """Oracle: filter all index permutations by the automorphism predicate."""
    return {
        perm
        for perm in itertools.permutations(range(group.size))
        if is_automorphism(np.asarray(perm), group)
    }


class TestGroupConstruction:
    def test_single_factor(self):
        assert Group((2,)).size == 2

    def test_product_of_orders(self):
        assert Group((4, 2, 3)).size == 24

    def test_trivial_group(self):
        assert Group((1,)).size == 1

    @pytest.mark.parametrize("orders", [(), (0,), (-2,), (3, 0), 4, (99999999999999999999,), (1 << 32, 1 << 32)])
    def test_rejects_bad_orders(self, orders):
        with pytest.raises(InvalidGroupError):
            Group(orders)

    @pytest.mark.parametrize(
        "build,error",
        [
            (lambda: Group((2.7,)), InvalidGroupError),
            (lambda: Group((True, 2)), InvalidGroupError),
            (lambda: Group(("4",)), InvalidGroupError),
            (lambda: delta(Group((4,)), 2.7), IndexError),
            (lambda: Automorphism(Group((4,)), (0, 3.2, 2, 1.9)), InvalidPermutationError),
            (lambda: Automorphism(Group((2,)), (False, True)), InvalidPermutationError),
            (lambda: Automorphism(Group((2,)), ("0", "1")), InvalidPermutationError),
            (lambda: delta(Group((4,)), True), IndexError),
            (lambda: random_function(Group((4,)), 1.5), ValueError),
            (lambda: random_function(Group((4,)), True), ValueError),
        ],
        ids=[
            "float-order", "bool-order", "str-order", "float-delta", "float-perm", "bool-perm",
            "str-perm", "bool-delta", "float-function-seed", "bool-function-seed",
        ],
    )
    def test_rejects_non_integer_data(self, build, error):
        with pytest.raises(error, match="must be an integer"):
            build()

    def test_accepts_numpy_integers(self):
        g = Group((np.int64(4), np.int32(3)))
        assert g.orders == (4, 3) and all(type(n) is int for n in g.orders)
        assert delta(g, np.int64(5)).values[5] == 1
        assert Automorphism(Group((4,)), np.array([0, 3, 2, 1])).perm == (0, 3, 2, 1)

    def test_groups_with_equal_orders_compare_equal(self):
        assert Group((4, 2)) == Group((4, 2))
        assert Group((4, 2)) != Group((2, 4))


class TestIndexing:
    def test_identity_maps_to_zero(self):
        g = Group((4, 2))
        assert g.coords_table[0].tolist() == [0, 0]
        assert g.negation_perm[0] == 0
        assert g.add_index(0, np.arange(g.size)).tolist() == list(range(g.size))

    def test_row_major_order(self):
        g = Group((4, 2))
        assert g.coords_table[1].tolist() == [0, 1]
        assert g.coords_table[2].tolist() == [1, 0]

    def test_coords_of_seven_on_4x2(self):
        # oracle: enumerate all coordinate tuples in row-major order
        expected = list(itertools.product(range(4), range(2)))
        table = Group((4, 2)).coords_table
        assert [tuple(row) for row in table.tolist()] == expected
        assert table[7].tolist() == [3, 1]

    @given(small_groups())
    def test_index_roundtrip(self, group):
        # oracle: the class docstring's index, sum_i x_i * prod_{j>i} n_j
        strides = [math.prod(group.orders[i + 1 :]) for i in range(len(group.orders))]
        for j, coords in enumerate(group.coords_table.tolist()):
            assert all(0 <= x < n for x, n in zip(coords, group.orders))
            assert sum(x * s for x, s in zip(coords, strides)) == j

    @pytest.mark.parametrize("j", [-1, 8, 100])
    def test_out_of_range_index(self, j):
        with pytest.raises(IndexError, match="out of range"):
            delta(Group((4, 2)), j)

    @pytest.mark.parametrize("orders", [(1,), (1, 3), (2, 1, 2), (3, 2), (2,) * 6])
    def test_index_tables_match_coordinate_enumeration(self, orders):
        # oracle: itertools.product enumerates coordinate tuples in row-major order
        g = Group(orders)
        coords = list(itertools.product(*(range(n) for n in orders)))
        index = {c: j for j, c in enumerate(coords)}

        def reduce(c):
            return tuple(v % n for v, n in zip(c, orders))

        assert g.coords_table.dtype == np.int64
        assert g.coords_table.tolist() == [list(c) for c in coords]
        assert g.negation_perm.tolist() == [index[reduce(-v for v in c)] for c in coords]
        i, j = np.meshgrid(np.arange(g.size), np.arange(g.size), indexing="ij")
        expected = [[index[reduce(a + b for a, b in zip(x, y))] for y in coords] for x in coords]
        assert g.add_index(i, j).tolist() == expected
        for j, c in enumerate(coords):
            assert type(g.add_index(j, g.size - 1)) is int
            assert g.add_index(j, g.size - 1) == expected[j][-1]


class TestArithmetic:
    def test_mod_four_addition(self):
        g = Group((4,))
        assert g.add_index(3, 2) == 1
        assert g.add_index(1, g.negation_perm[2]) == 3  # 1 - 2

    def test_negation(self):
        assert Group((4,)).negation_perm.tolist() == [0, 3, 2, 1]

    def test_trivial_group_negation(self):
        assert Group((1,)).negation_perm.tolist() == [0]

    def test_tables_are_read_only(self):
        g = Group((4, 2))
        for table in (g.coords_table, g.negation_perm):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    @given(small_groups())
    def test_add_neg_cancels(self, group):
        elements = np.arange(group.size)
        assert not group.add_index(elements, group.negation_perm).any()
        assert group.negation_perm[group.negation_perm].tolist() == elements.tolist()

    @given(small_groups(max_size=24))
    def test_addition_is_commutative_and_associative(self, group):
        x, y, z = np.meshgrid(*[np.arange(group.size)] * 3, indexing="ij")
        assert np.array_equal(group.add_index(x, y), group.add_index(y, x))
        assert np.array_equal(
            group.add_index(group.add_index(x, y), z), group.add_index(x, group.add_index(y, z))
        )


class TestCharacter:
    """The pairing chi(x, xi) = exp(2 pi i sum_k x_k xi_k / n_k), read from the
    transform kernel: character_matrix(g)[xi, x] is conj(chi(x, xi))."""

    def test_z4_quarter_turn(self):
        assert np.conj(character_matrix(Group((4,)))[1, 1]) == pytest.approx(1j)

    def test_trivial_character(self):
        matrix = character_matrix(Group((5, 2)))
        assert np.allclose(matrix[0], 1.0) and np.allclose(matrix[:, 0], 1.0)

    def test_z2_sign(self):
        assert character_matrix(Group((2,)))[1, 1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("orders", [(6,), (4, 2), (2, 3, 5)])
    def test_symmetric_under_the_self_duality(self, orders):
        matrix = character_matrix(Group(orders))
        assert np.array_equal(matrix, matrix.T)

    @given(small_groups(max_size=24))
    @settings(max_examples=40)
    def test_unit_modulus_and_bimultiplicative(self, group):
        chi = np.conj(character_matrix(group))  # chi[xi, x]
        x, y = np.meshgrid(np.arange(group.size), np.arange(group.size), indexing="ij")
        assert np.allclose(np.abs(chi), 1.0)
        for xi in range(group.size):
            row = chi[xi]
            assert np.allclose(row[group.add_index(x, y)], row[x] * row[y])
            assert np.allclose(row * row[group.negation_perm], 1.0)

    @pytest.mark.parametrize("orders", [(6,), (4, 2), (2, 3), (1,), (2, 2, 2)])
    def test_orthogonality(self, orders):
        g = Group(orders)
        matrix = character_matrix(g)
        totals = matrix.sum(axis=1)
        expected = np.zeros(g.size)
        expected[0] = g.size
        assert np.allclose(totals, expected, atol=1e-10)
        assert np.allclose(matrix @ matrix.conj().T, g.size * np.eye(g.size), atol=1e-10)


class TestAutomorphisms:
    def test_identity_is_automorphism(self):
        g = Group((4, 2))
        assert is_automorphism(np.arange(8), g)

    def test_z4_times_three(self):
        g = Group((4,))
        perm = (0, 3, 2, 1)
        # oracle: check additivity over all 16 pairs directly
        for i in range(4):
            for j in range(4):
                assert perm[(i + j) % 4] == (perm[i] + perm[j]) % 4
        assert is_automorphism(np.asarray(perm), g)

    def test_transposition_rejected(self):
        g = Group((4,))
        assert not is_automorphism(np.asarray([1, 0, 2, 3]), g)

    def test_wrong_length_raises(self):
        with pytest.raises(InvalidPermutationError):
            is_automorphism(np.asarray([0, 1]), Group((4,)))

    def test_non_additive_bijection_rejected(self):
        g = Group((4,))
        assert not is_automorphism(np.asarray([0, 2, 1, 3]), g)

    def test_zero_map_rejected(self):
        # Additive and fixes 0; only the bijection test rejects it.
        g = Group((4,))
        assert not is_automorphism([0, 0, 0, 0], g)
        with pytest.raises(InvalidPermutationError):
            Automorphism(g, (0, 0, 0, 0))

    def test_out_of_range_index_rejected(self):
        assert not is_automorphism([0, 1, 2, 4], Group((4,)))

    # numpy reads [0, 2**63] as float64 and the other two as object arrays; each entry is an integer, out of range.
    PAST_INT64 = [2**63, 2**64, -(2**63) - 1]

    @pytest.mark.parametrize("entry", PAST_INT64)
    def test_entry_past_int64_is_not_an_automorphism(self, entry):
        assert is_automorphism([0, entry], Group((2,))) is False

    @pytest.mark.parametrize("entry", PAST_INT64)
    def test_additivity_check_names_the_range_of_an_entry_past_int64(self, entry):
        with pytest.raises(InvalidPermutationError, match=r"lie in \[0, 2\)"):
            find_additivity_violation([0, entry], Group((2,)))

    @pytest.mark.parametrize("entry", PAST_INT64)
    def test_automorphism_with_an_entry_past_int64_is_not_an_automorphism(self, entry):
        with pytest.raises(InvalidPermutationError, match="not an automorphism"):
            Automorphism(Group((2,)), (0, entry))

    @pytest.mark.parametrize("check", [is_automorphism, find_additivity_violation])
    @pytest.mark.parametrize(
        "perm, orders",
        [
            ([0.0, 1.9], (2,)),
            (np.array([0.0, 1.0]), (2,)),
            ([False, True], (2,)),
            (["0", "1", "2", "3"], (4,)),
            ([0, 1 + 0j], (2,)),
            ([0, True], (2,)),
            ([0, np.True_], (2,)),
        ],
    )
    def test_non_integer_entries_are_refused_not_truncated(self, check, perm, orders):
        with pytest.raises(InvalidPermutationError, match="integers"):
            check(perm, Group(orders))

    @pytest.mark.parametrize(
        "perm, message",
        [([0, 1], "length 2"), (list(range(6)), "length 6"), ([0, 1, 2, 9], "lie in"), ([-1, 0, 1, 2], "lie in")],
    )
    def test_additivity_check_refuses_wrong_length_and_out_of_range(self, perm, message):
        with pytest.raises(InvalidPermutationError, match=message):
            find_additivity_violation(perm, Group((4,)))

    def test_census_z4(self):
        auts = brute_force_automorphisms(Group((4,)))
        assert len(auts) == 2
        assert auts == {(0, 1, 2, 3), (0, 3, 2, 1)}

    def test_census_klein_four(self):
        auts = brute_force_automorphisms(Group((2, 2)))
        assert len(auts) == 6

    def test_automorphism_constructor_validates(self):
        with pytest.raises(InvalidPermutationError):
            Automorphism(Group((4,)), (1, 0, 2, 3))

    def test_length_error_survives_the_entry_scan(self):
        # Every entry is an integer, so the scan for a non-integer one finds none and the length error is raised.
        with pytest.raises(InvalidPermutationError, match="length 2"):
            Automorphism(Group((4,)), [0, 1])

    def test_apply(self):
        a = Automorphism(Group((4,)), (0, 3, 2, 1))
        assert a.perm_array[1] == 3

    def test_equality_needs_the_same_group(self):
        # (0, 3, 2, 1) is an automorphism of both Z4 and Z2 x Z2.
        perm = (0, 3, 2, 1)
        assert Automorphism(Group((4,)), perm) == Automorphism(Group((4,)), perm)
        assert Automorphism(Group((4,)), perm) != Automorphism(Group((2, 2)), perm)

    def test_compose_and_inverse(self):
        g = Group((2, 4))
        a = random_automorphism(g, 11).perm_array
        b = random_automorphism(g, 12).perm_array
        assert is_automorphism(a[b], g)  # x -> a(b(x))
        inverse = np.argsort(a)
        assert Automorphism(g, inverse) == Automorphism(g, a[a[a]])  # Aut(Z2 x Z4) has exponent 4
        assert Automorphism(g, a[inverse]) == Automorphism.identity(g)

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))], ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_perm_array_read_only(self, copy_of):
        a = random_automorphism(Group((2, 4)), 11)
        b = copy_of(a)
        assert b == a and b.perm_array.tolist() == list(b.perm)
        assert not b.perm_array.flags.writeable

    def test_random_automorphism_deterministic(self):
        g = Group((3, 9))
        assert random_automorphism(g, 5).perm == random_automorphism(g, 5).perm

    @given(small_groups(max_size=32), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_random_automorphism_is_valid(self, group, seed):
        a = random_automorphism(group, seed)
        assert is_automorphism(a.perm_array, group)
        assert a.perm[0] == 0

    @pytest.mark.parametrize(
        "orders, seed, perm",
        [
            ((5,), 0, [0, 4, 3, 2, 1]),
            ((3, 2), 1, [0, 1, 2, 3, 4, 5]),
            ((2, 2), 4, [0, 2, 3, 1]),
            ((2, 1, 2), 2, [0, 3, 1, 2]),
            ((2, 2, 2), 11, [0, 6, 2, 4, 1, 7, 3, 5]),
            ((3, 3), 5, [0, 8, 4, 6, 5, 1, 3, 2, 7]),
            ((4, 2), 9, [0, 5, 7, 2, 4, 1, 3, 6]),
            (
                (4, 6),
                7,
                [0, 17, 4, 15, 2, 13, 21, 8, 19, 6, 23, 10, 12, 5, 16, 3, 14, 1, 9, 20, 7, 18, 11, 22],
            ),
        ],
    )
    def test_random_automorphism_draws_are_pinned(self, orders, seed, perm):
        # Truth sidecars written by gen-operator record these draws.
        assert list(random_automorphism(Group(orders), seed).perm) == perm

    @pytest.mark.parametrize(
        "seed, message",
        [
            (5.0, "seed must be an integer, got 5.0"),
            ("5", "seed must be an integer, got '5'"),
            (-1, "seed must be >= 0, got -1"),
        ],
    )
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        with pytest.raises(ValueError, match=message):
            random_automorphism(Group((4, 2)), seed)

    def test_draws_until_it_accepts(self):
        # About 7% of the endomorphisms of this group are automorphisms, so
        # most seeds reject several draws before one is accepted.
        g = Group((8, 4, 4, 2, 2))
        assert list(inspect.signature(random_automorphism).parameters) == ["group", "seed"]
        for seed in range(4):
            assert is_automorphism(random_automorphism(g, seed).perm_array, g)

    @staticmethod
    def full_map_rejection(group, seed):
        """Reference sampler: maps every element under each draw and accepts a bijection."""
        rng = np.random.default_rng(seed)
        k = len(group.orders)
        while True:
            matrix = np.zeros((k, k), dtype=np.int64)
            for i, ni in enumerate(group.orders):
                for j, nj in enumerate(group.orders):
                    g = math.gcd(ni, nj)
                    matrix[i, j] = (ni // g) * rng.integers(0, g)
            induced = group._wrap_index(group.coords_table @ matrix.T)
            if np.bincount(induced, minlength=group.size).max() == 1:
                return induced.tolist()

    @pytest.mark.parametrize(
        "orders", [(1,), (7,), (12,), (1, 4, 1, 2), (8, 4, 4, 2, 2), (2,) * 6, (9, 3, 3), (6, 10, 15), (2, 1009)]
    )
    def test_draws_match_the_full_map_rejection(self, orders):
        # Judging a draw on the elements of prime order alone accepts the same draws.
        g = Group(orders)
        for seed in range(8):
            assert list(random_automorphism(g, seed).perm) == self.full_map_rejection(g, seed)

    def test_only_the_accepted_draw_is_mapped_over_the_group(self, monkeypatch):
        # Most draws on this group are rejected, each before any map of all its elements.  Only the sampler's own
        # maps count: validating the accepted one translates the whole group too.
        g = Group((8, 4, 4, 2, 2))
        wrap_index = Group._wrap_index
        full_maps = []

        def counted(group, coords):
            sampler = inspect.currentframe().f_back.f_code is random_automorphism.__code__
            full_maps.append(sampler and np.shape(coords) == (g.size, len(g.orders)))
            return wrap_index(group, coords)

        monkeypatch.setattr(Group, "_wrap_index", counted)
        for seed in range(4):
            full_maps.clear()
            random_automorphism(g, seed)
            assert sum(full_maps) == 1

    def test_size_guard(self):
        with pytest.raises(InvalidGroupError):
            random_automorphism(Group((2,) * 21), 0)

    def test_homomorphism_check_on_large_group(self):
        g = Group((2,) * 13)
        assert is_automorphism(np.arange(g.size), g)
        bad = np.arange(g.size)
        bad[[1, 2]] = bad[[2, 1]]
        assert not is_automorphism(bad, g)

    def test_additivity_check_stays_small_on_many_factors(self):
        # Checked one generator at a time on (size,) index arrays; the
        # (size, k, k) index blocks this replaced peaked at 145 MiB here.
        g = Group((2,) * 16)
        tracemalloc.start()
        try:
            Automorphism.identity(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    @pytest.mark.parametrize(
        "orders",
        [(1,), (2,), (3,), (1, 3), (4,), (2, 2), (2, 1, 2), (5,), (6,), (2, 3), (3, 2)],
    )
    def test_additivity_check_matches_pair_loop(self, orders):
        g = Group(orders)
        pairs = [(i, j) for i in range(g.size) for j in range(g.size)]
        for perm in itertools.permutations(range(g.size)):
            first = next(
                ((i, j) for i, j in pairs if perm[g.add_index(i, j)] != g.add_index(perm[i], perm[j])),
                None,
            )
            assert find_additivity_violation(np.asarray(perm), g) == first


def test_prime_factors_match_a_sieve():
    limit = 5000
    composite = np.zeros(limit + 1, dtype=bool)
    for p in range(2, math.isqrt(limit) + 1):
        composite[p * p :: p] = True
    primes = [p for p in range(2, limit + 1) if not composite[p]]
    for n in range(1, limit + 1):
        assert _prime_factors(n) == [p for p in primes if n % p == 0], n
    assert _prime_factors(65536) == [2] and _prime_factors(65537) == [65537]
