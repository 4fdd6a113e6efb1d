import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfft import (
    DUAL,
    PRIMAL,
    GFunction,
    Group,
    GroupMismatchError,
    SideMismatchError,
    convolve,
    delta,
    max_abs_diff,
    pointwise_product,
    random_function,
    star,
    zero,
)

from conftest import small_groups


class TestGFunction:
    def test_length_must_match_group(self):
        with pytest.raises(GroupMismatchError):
            GFunction(Group((4,)), PRIMAL, np.zeros(3))

    def test_bad_side(self):
        with pytest.raises(SideMismatchError):
            GFunction(Group((2,)), "sideways", np.zeros(2))

    def test_values_are_read_only_copies(self):
        source = np.ones(4, dtype=complex)
        f = GFunction(Group((4,)), PRIMAL, source)
        source[0] = 7.0
        assert f.values[0] == 1.0
        assert not f.values.flags.writeable

    def test_weights(self):
        g = Group((4, 2))
        assert GFunction(g, PRIMAL, np.zeros(8)).weight == 1.0
        assert GFunction(g, DUAL, np.zeros(8)).weight == pytest.approx(1 / 8)

    def test_arithmetic(self):
        g = Group((3,))
        f = delta(g, 0) + 2 * delta(g, 1)
        assert np.allclose(f.values, [1, 2, 0])
        assert np.allclose((-f).values, [-1, -2, 0])
        assert np.allclose((f - delta(g, 1)).values, [1, 1, 0])

    def test_group_mismatch_in_addition(self):
        with pytest.raises(GroupMismatchError):
            delta(Group((2,)), 1) + delta(Group((3,)), 1)
        with pytest.raises(GroupMismatchError):
            delta(Group((4,)), 1) - delta(Group((2, 2)), 1)

    def test_side_mismatch_in_addition(self):
        g = Group((3,))
        with pytest.raises(SideMismatchError):
            delta(g, 0, PRIMAL) + delta(g, 0, DUAL)
        with pytest.raises(SideMismatchError):
            delta(g, 0, PRIMAL) - delta(g, 0, DUAL)


class TestRandomFunction:
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            random_function(Group((4,)), seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), 2**40])
    def test_seed_draws_as_default_rng_does(self, seed):
        g = Group((3, 2))
        gen = np.random.default_rng(int(seed))
        expected = gen.standard_normal(g.size) + 1j * gen.standard_normal(g.size)
        assert np.array_equal(random_function(g, seed).values, expected)
        # A generator is used as given, so successive calls continue its stream.
        gen = np.random.default_rng(int(seed))
        first, second = random_function(g, gen), random_function(g, gen)
        assert np.array_equal(first.values, expected)
        assert not np.array_equal(second.values, expected)


class TestStar:
    def test_primal_reflects_support(self):
        g = Group((4,))
        assert np.allclose(star(delta(g, 1)).values, delta(g, 3).values)

    def test_conjugates_at_fixed_point(self):
        g = Group((4,))
        f = 1j * delta(g, 0)
        assert np.allclose(star(f).values, (-1j * delta(g, 0)).values)

    def test_real_even_function_fixed(self):
        g = Group((5,))
        values = np.array([2.0, 1.0, 3.0, 3.0, 1.0], dtype=complex)
        f = GFunction(g, PRIMAL, values)
        assert np.allclose(star(f).values, values)

    def test_dual_side_is_plain_conjugation(self):
        g = Group((4,))
        f = GFunction(g, DUAL, np.array([1j, 2, 3, 4j]))
        assert np.allclose(star(f).values, [-1j, 2, 3, -4j])

    @given(small_groups(), st.integers(0, 10**6), st.sampled_from([PRIMAL, DUAL]))
    @settings(max_examples=40)
    def test_involution(self, group, seed, side):
        f = random_function(group, seed, side)
        assert max_abs_diff(star(star(f)), f) == 0.0


class TestPointwiseProduct:
    def test_one_is_the_unit(self):
        g = Group((6,))
        f = random_function(g, 3)
        assert max_abs_diff(pointwise_product(f, GFunction(g, PRIMAL, np.ones(g.size))), f) == 0.0

    def test_disjoint_point_masses(self):
        g = Group((5,))
        assert max_abs_diff(pointwise_product(delta(g, 1), delta(g, 2)), zero(g)) == 0.0

    def test_point_masses_idempotent(self):
        g = Group((5,))
        p = delta(g, 3)
        assert max_abs_diff(pointwise_product(p, p), p) == 0.0

    def test_mismatch_errors(self):
        with pytest.raises(GroupMismatchError):
            pointwise_product(delta(Group((2,)), 0), delta(Group((3,)), 0))
        g = Group((2,))
        with pytest.raises(SideMismatchError):
            pointwise_product(delta(g, 0, PRIMAL), delta(g, 0, DUAL))


class TestConvolve:
    def test_delta_zero_is_unit_on_primal(self):
        g = Group((4, 3))
        f = random_function(g, 9)
        assert max_abs_diff(convolve(delta(g, 0), f), f) < 1e-12

    def test_point_masses_translate(self):
        g = Group((4,))
        out = convolve(delta(g, 2), delta(g, 3))
        assert np.allclose(out.values, delta(g, 1).values)

    @given(small_groups(max_size=36), st.data())
    @settings(max_examples=40)
    def test_point_mass_translation_generic(self, group, data):
        a = data.draw(st.integers(0, group.size - 1))
        b = data.draw(st.integers(0, group.size - 1))
        out = convolve(delta(group, a), delta(group, b))
        expected = delta(group, group.add_index(a, b))
        assert max_abs_diff(out, expected) < 1e-12

    def test_constant_averages(self):
        g = Group((6,))
        f = random_function(g, 4)
        out = convolve(GFunction(g, PRIMAL, np.ones(g.size)), f)
        total = complex(np.sum(f.values))
        assert np.allclose(out.values, total)

    def test_dual_side_weight(self):
        g = Group((8,))
        f = random_function(g, 5, DUAL)
        out = convolve(delta(g, 0, DUAL), f)
        assert np.allclose(out.values, f.values / 8)

    def test_mismatch_errors(self):
        g = Group((2,))
        with pytest.raises(SideMismatchError):
            convolve(delta(g, 0, PRIMAL), delta(g, 0, DUAL))


class TestSupportAndNorms:
    """Supports and norms are read off the value array: np.flatnonzero(f.values)
    for the support, and the side's Haar weight for the two-norm."""

    def test_point_mass_support(self):
        g = Group((6,))
        assert np.flatnonzero(delta(g, 3).values).tolist() == [3]
        assert np.flatnonzero(delta(g, 3, DUAL).values).tolist() == [3]

    def test_zero_function_support_empty(self):
        g = Group((4,))
        assert np.flatnonzero(zero(g).values).size == 0
        assert np.flatnonzero(zero(g, DUAL).values).size == 0

    def test_norms(self):
        g = Group((4,))
        f = GFunction(g, PRIMAL, np.array([3, 4, 0, 0]))
        assert np.max(np.abs(f.values)) == 4.0
        assert np.sqrt(np.sum(np.abs(f.values) ** 2) * f.weight) == pytest.approx(5.0)
        F = GFunction(g, DUAL, np.array([2, 2, 2, 2]))
        assert np.sqrt(np.sum(np.abs(F.values) ** 2) * F.weight) == pytest.approx(2.0)
