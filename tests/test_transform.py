import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfft import (
    DUAL,
    Group,
    SideMismatchError,
    character_matrix,
    constant_one,
    convolve,
    convolve_fast,
    delta,
    dft_naive,
    fft_forward,
    fft_inverse,
    idft_naive,
    max_abs_diff,
    norm_2,
    pointwise_product,
    random_function,
    star,
)
from abelfft.transform import _dft_values, _idft_values

from conftest import random_orders, small_groups


def reference_dft(f):
    """Independent oracle: the defining double sum, written as explicit loops."""
    g = f.group
    out = np.zeros(g.size, dtype=complex)
    for j_xi in range(g.size):
        xi = g.element_of(j_xi)
        for j_x in range(g.size):
            x = g.element_of(j_x)
            turns = sum(a * b / n for a, b, n in zip(x.coords, xi.coords, g.orders))
            out[j_xi] += f.values[j_x] * np.exp(-2j * np.pi * turns)
    return out


class TestNaive:
    def test_point_mass_to_constant(self):
        g = Group((2,))
        assert np.allclose(dft_naive(delta(g, 0)).values, [1, 1])

    def test_constant_to_scaled_point_mass(self):
        for orders in [(5,), (2, 3)]:
            g = Group(orders)
            out = dft_naive(constant_one(g))
            expected = np.zeros(g.size, dtype=complex)
            expected[0] = g.size
            assert np.allclose(out.values, expected, atol=1e-12)

    def test_z4_point_mass(self):
        g = Group((4,))
        out = dft_naive(delta(g, 1))
        assert np.allclose(out.values, [1, -1j, -1, 1j], atol=1e-12)

    def test_matches_loop_oracle(self):
        g = Group((3, 4))
        f = random_function(g, 17)
        assert np.max(np.abs(dft_naive(f).values - reference_dft(f))) < 1e-12

    def test_requires_primal_side(self):
        g = Group((4,))
        with pytest.raises(SideMismatchError):
            dft_naive(random_function(g, 0, DUAL))

    def test_output_side_is_dual(self):
        assert dft_naive(delta(Group((3,)), 0)).side == DUAL

    def test_naive_inverse_roundtrip(self):
        g = Group((5, 4))
        f = random_function(g, 23)
        assert max_abs_diff(idft_naive(dft_naive(f)), f) < 1e-12

    def test_naive_inverse_requires_dual(self):
        with pytest.raises(SideMismatchError):
            idft_naive(delta(Group((3,)), 0))


class TestCharacterMatrix:
    @pytest.mark.parametrize("orders", [(4096,), (64, 64)])
    def test_matches_numpy_fft_of_point_masses(self, orders):
        g = Group(orders)
        matrix = character_matrix(g)
        axes = tuple(range(1, len(orders) + 1))
        for start in range(0, g.size, 512):
            # Row j of the batch is the transform of delta_j, i.e. column j of the matrix.
            points = np.eye(512, g.size, start).reshape((512,) + orders)
            columns = np.fft.fftn(points, axes=axes).reshape(512, g.size)
            assert np.max(np.abs(matrix[:, start : start + 512].T - columns)) <= 1e-14


class TestFastPath:
    @pytest.mark.parametrize(
        "orders",
        [
            (1,), (2,), (7,), (67,), (97,), (64,), (60,), (2, 67), (8, 9, 5), (2, 2, 2, 2), (12, 35),
            (81,), (4099,), (2,) * 12,
        ],
    )
    def test_matches_naive(self, orders):
        g = Group(orders)
        for seed in range(3):
            f = random_function(g, seed)
            budget = 1e-9 * (1 + np.sum(np.abs(f.values)))
            assert max_abs_diff(fft_forward(f), dft_naive(f)) <= budget

    def test_oracle_equivalence_200_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            g = Group(random_orders(rng, max_size=1024))
            f = random_function(g, rng)
            budget = 1e-9 * (1 + np.sum(np.abs(f.values)))
            assert max_abs_diff(fft_forward(f), dft_naive(f)) <= budget

    def test_inversion_roundtrip(self):
        g = Group((8, 9, 5))
        f = random_function(g, 31)
        assert max_abs_diff(fft_inverse(fft_forward(f)), f) <= 1e-9

    def test_prime_point_mass_matches_naive(self):
        g = Group((7,))
        f = delta(g, 1)
        assert max_abs_diff(fft_forward(f), dft_naive(f)) < 1e-12

    def test_batched_rows_match_naive(self):
        g = Group((8, 9, 5))
        rng = np.random.default_rng(7)
        primal = [random_function(g, rng) for _ in range(4)]
        dual = [random_function(g, rng, DUAL) for _ in range(4)]
        forward = _dft_values(np.stack([f.values for f in primal]), g)
        inverse = _idft_values(np.stack([F.values for F in dual]), g)
        assert forward.shape == inverse.shape == (4, g.size)
        for row, f in zip(forward, primal):
            assert np.max(np.abs(row - dft_naive(f).values)) <= 1e-9 * (1 + np.sum(np.abs(f.values)))
        for row, F in zip(inverse, dual):
            assert np.max(np.abs(row - idft_naive(F).values)) <= 1e-9

    def test_side_contracts(self):
        g = Group((4,))
        with pytest.raises(SideMismatchError):
            fft_forward(random_function(g, 0, DUAL))
        with pytest.raises(SideMismatchError):
            fft_inverse(random_function(g, 0))

    @given(small_groups(), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, group, seed):
        f = random_function(group, seed)
        assert max_abs_diff(fft_inverse(fft_forward(f)), f) <= 1e-9


class TestExchangeIdentities:
    @pytest.fixture(params=[(6, 5), (8,), (3, 3, 3), (7,), (1,), (16, 2)])
    def pair(self, request):
        g = Group(request.param)
        return random_function(g, 101), random_function(g, 202)

    def test_convolution_theorem(self, pair):
        f, g = pair
        lhs = fft_forward(convolve(f, g))
        rhs = pointwise_product(fft_forward(f), fft_forward(g))
        assert max_abs_diff(lhs, rhs) <= 1e-9

    def test_product_to_convolution(self, pair):
        f, g = pair
        lhs = fft_forward(pointwise_product(f, g))
        rhs = convolve(fft_forward(f), fft_forward(g))
        assert max_abs_diff(lhs, rhs) <= 1e-9

    def test_involution_exchange(self, pair):
        f, _ = pair
        assert max_abs_diff(fft_forward(star(f)), star(fft_forward(f))) <= 1e-9

    def test_plancherel(self, pair):
        f, _ = pair
        assert norm_2(f) ** 2 == pytest.approx(norm_2(fft_forward(f)) ** 2, abs=1e-9)


class TestConvolveFast:
    @given(small_groups(), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_direct_on_both_sides(self, group, seed):
        rng = np.random.default_rng(seed)
        for side in ("primal", "dual"):
            f = random_function(group, rng, side)
            g = random_function(group, rng, side)
            assert max_abs_diff(convolve_fast(f, g), convolve(f, g)) <= 1e-9

    def test_preserves_side(self):
        g = Group((4,))
        out = convolve_fast(delta(g, 0, DUAL), delta(g, 1, DUAL))
        assert out.side == DUAL
