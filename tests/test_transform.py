import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfft import (
    DUAL,
    PRIMAL,
    GFunction,
    Group,
    SideMismatchError,
    character_matrix,
    convolve,
    convolve_fast,
    delta,
    dft_naive,
    fft_forward,
    fft_inverse,
    idft_naive,
    max_abs_diff,
    pointwise_product,
    random_automorphism,
    random_function,
    reference_operator_matrix,
    star,
)
from abelfft.transform import _NAIVE_BLOCK_ROWS, _char_block, _dft_values, _plan_runs, _rader

from conftest import random_orders, small_groups


def reference_dft(f):
    """Independent oracle: the defining double sum, written as explicit loops."""
    g = f.group
    out = np.zeros(g.size, dtype=complex)
    for j_xi in range(g.size):
        xi = g.coords_table[j_xi]
        for j_x in range(g.size):
            x = g.coords_table[j_x]
            turns = sum(a * b / n for a, b, n in zip(x, xi, g.orders))
            out[j_xi] += f.values[j_x] * np.exp(-2j * np.pi * turns)
    return out


class TestNaive:
    def test_point_mass_to_constant(self):
        g = Group((2,))
        assert np.allclose(dft_naive(delta(g, 0)).values, [1, 1])

    def test_constant_to_scaled_point_mass(self):
        for orders in [(5,), (2, 3)]:
            g = Group(orders)
            out = dft_naive(GFunction(g, PRIMAL, np.ones(g.size)))
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


def float_reduced_char_block(g, rows):
    """The character rows as first written: the phase index reduced by a float %."""
    size = g.size
    coords = g.coords_table.astype(np.float64)
    k = (coords[rows] * (size // np.asarray(g.orders))) @ coords.T % size
    return np.exp(-2j * np.pi * (np.arange(size) / size))[k.astype(np.int64)]


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestBitIdentity:
    """The integer phase index gives the tables of the float-reduced one bit for bit."""

    @pytest.mark.parametrize("orders", [(1,), (2,), (1024,), (32, 32), (2, 2, 64), (8, 9, 5, 7)])
    def test_full_tables(self, orders):
        g = Group(orders)
        psi = random_automorphism(g, 3)
        phi = np.argsort(psi.perm_array)
        f = random_function(g, 5)
        F = fft_forward(f)
        forward, inverse = np.empty(g.size, dtype=np.complex128), np.empty(g.size, dtype=np.complex128)
        # Row blocks of the defining sum, as dft_naive and idft_naive first formed them.
        starts = range(0, g.size, _NAIVE_BLOCK_ROWS)
        blocks = [np.arange(start, min(start + _NAIVE_BLOCK_ROWS, g.size)) for start in starts]
        matrix = character_matrix(g)
        for rows in blocks:
            expected = float_reduced_char_block(g, rows)
            assert_same_bits(matrix[rows], expected)
            forward[rows] = expected @ f.values
            inverse[rows] = np.conj(expected) @ F.values
        assert_same_bits(dft_naive(f).values, forward)
        assert_same_bits(idft_naive(F).values, inverse / g.size)
        # Both forms are built column-major; their transposes are character_matrix(g)[phi] and np.eye(n)[phi].
        for form in ("T", "U"):
            table = matrix if form == "T" else np.eye(g.size, dtype=np.complex128)
            matrix = None  # two n x n tables alive at most: the expected one and the one built
            built = reference_operator_matrix(g, psi, form)
            assert built.flags.f_contiguous
            for rows in blocks:
                assert_same_bits(built.T[rows], table[phi[rows]])
            table = built = None

    @pytest.mark.parametrize("orders", [(4099,), (15015,), (2,) * 12, (3,) * 8, (64, 64)])
    def test_sampled_rows(self, orders):
        g = Group(orders)
        rows = np.random.default_rng(6).choice(g.size, 256, replace=False)
        assert_same_bits(_char_block(g, rows), float_reduced_char_block(g, rows))


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
        inverse = _dft_values(np.stack([F.values for F in dual]), g, inverse=True)
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


def relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


def assert_matches_defining_sum(g):
    f, F = random_function(g, 3), random_function(g, 4, DUAL)
    assert relative_error(fft_forward(f).values, dft_naive(f).values) <= 1e-12
    assert relative_error(fft_inverse(F).values, idft_naive(F).values) <= 1e-12


def assert_matches_defining_sum_on_sampled_rows(g):
    # dft_naive's own row blocks, on 256 of the dual indices: the full
    # quadratic sum takes seconds at these sizes.
    rows = np.sort(np.random.default_rng(5).choice(g.size, 256, replace=False))
    f, F = random_function(g, 3), random_function(g, 4, DUAL)
    block = _char_block(g, rows)
    assert relative_error(fft_forward(f).values[rows], block @ f.values) <= 1e-12
    assert relative_error(fft_inverse(F).values[rows], np.conj(block) @ F.values / g.size) <= 1e-12


def assert_batched_rows_match_character_matrix(g, count):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((count, g.size)) + 1j * rng.standard_normal((count, g.size))
    matrix = character_matrix(g)
    assert relative_error(_dft_values(rows, g), rows @ matrix.T) <= 1e-12
    assert relative_error(_dft_values(rows, g, inverse=True), rows @ np.conj(matrix).T / g.size) <= 1e-12


def assert_plan_built_once_per_shape(orders):
    """Forward, inverse and convolve_fast on a group build one plan between them, an equal
    group builds none, and a plan rebuilt after ``cache_clear`` gives the same bits."""

    def outputs(g):
        f, h = random_function(g, 0), random_function(g, 1)
        return [fft_forward(f).values, fft_inverse(random_function(g, 2, DUAL)).values, convolve_fast(f, h).values]

    _plan_runs.cache_clear()
    first = outputs(Group(orders))
    assert _plan_runs.cache_info().misses == 1
    assert all(np.array_equal(a, b) for a, b in zip(outputs(Group(orders)), first))
    assert _plan_runs.cache_info().misses == 1
    _plan_runs.cache_clear()
    fft_forward(random_function(Group(orders), 0))
    assert _plan_runs.cache_info().misses == 1
    assert all(np.array_equal(a, b) for a, b in zip(outputs(Group(orders)), first))


class TestSmallFactorKernel:
    """Runs of small factors go through exact character matrices, not one FFT pass per axis."""

    @pytest.mark.parametrize(
        "orders", [(2,) * k for k in range(1, 11)] + [(2, 3, 5, 7), (4, 4, 4), (8, 9, 5, 7), (2, 2, 64)]
    )
    def test_matches_naive(self, orders):
        assert_matches_defining_sum(Group(orders))

    @pytest.mark.parametrize("orders", [(2,) * 11, (2,) * 12, (3,) * 8])
    def test_matches_defining_sum_on_sampled_rows(self, orders):
        assert_matches_defining_sum_on_sampled_rows(Group(orders))

    @pytest.mark.parametrize("orders", [(4, 4, 4), (2, 4, 8), (2,) * 6])
    def test_batched_rows_match_character_matrix(self, orders):
        assert_batched_rows_match_character_matrix(Group(orders), 512)

    @pytest.mark.parametrize("n", [1, 2, 64, 1000, 4099, 257])
    def test_one_factor_group_is_bit_identical_to_numpy(self, n):
        g = Group((n,))
        values = random_function(g, n).values
        assert np.array_equal(fft_forward(random_function(g, n)).values, np.fft.fft(values))
        assert np.array_equal(_dft_values(values, g, inverse=True), np.fft.ifft(values))
        batch = np.stack([values, 2 * values])
        assert np.array_equal(_dft_values(batch, g), np.fft.fft(batch, axis=-1))

    def test_run_matrices_are_built_once_per_group(self):
        assert_plan_built_once_per_shape((2,) * 12)
        shape, fft_axes, products = _plan_runs((2,) * 12)
        assert shape == (-1, 64, 64) and fft_axes == [] and [axis for axis, _ in products] == [1, 2]

    def test_runs_merge_greedily_and_one_factor_runs_stay_on_fft(self):
        shape, fft_axes, products = _plan_runs((8, 9, 5, 7))
        assert shape == (-1, 8, 45, 7) and fft_axes == [1, 3] and [axis for axis, _ in products] == [2]


class TestRader:
    """Prime orders p >= 400 with 7-smooth p - 1 go through Rader's length-(p - 1) convolution."""

    @pytest.mark.parametrize(
        "orders, fft_axes, rader_axes",
        [
            ((65537,), [], [1]),
            ((449,), [], [1]),
            ((2, 769), [1], [2]),
            ((769, 3), [2], [1]),
            ((2, 2, 449), [], [2]),
            ((257,), [1], []),  # below the crossover
            ((4099,), [1], []),  # 4098 = 2 * 3 * 683 is not 7-smooth
            ((1 << 18,), [1], []),
        ],
    )
    def test_qualifying_orders_take_rader_path(self, orders, fft_axes, rader_axes):
        _, planned_fft_axes, steps = _plan_runs(orders)
        assert planned_fft_axes == fft_axes
        assert [axis for axis, step in steps if step.func is _rader] == rader_axes

    @pytest.mark.parametrize("orders", [(449,), (769,), (3457,), (2, 769), (769, 3), (2, 2, 449)])
    def test_matches_defining_sum(self, orders):
        assert_matches_defining_sum(Group(orders))

    def test_matches_defining_sum_on_sampled_rows(self):
        assert_matches_defining_sum_on_sampled_rows(Group((65537,)))

    @pytest.mark.parametrize("orders", [(769,), (2, 449), (449, 2)])
    def test_batched_rows_match_character_matrix(self, orders):
        assert_batched_rows_match_character_matrix(Group(orders), 5)

    @pytest.mark.parametrize("orders", [(65537,), (2, 769), (769, 3)])
    def test_batched_round_trip(self, orders):
        g = Group(orders)
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((3, g.size)) + 1j * rng.standard_normal((3, g.size))
        assert relative_error(_dft_values(_dft_values(rows, g), g, inverse=True), rows) <= 1e-12

    def test_convolution_matches_direct_sum_on_both_sides(self):
        g = Group((449,))
        for side in ("primal", "dual"):
            f, h = random_function(g, 1, side), random_function(g, 2, side)
            assert relative_error(convolve_fast(f, h).values, convolve(f, h).values) <= 1e-12

    def test_plan_is_built_once_per_group(self):
        assert_plan_built_once_per_shape((769,))

    @pytest.mark.parametrize("orders", [(769,), (2,) * 12])
    def test_cached_plan_tables_are_read_only(self, orders):
        _, _, steps = _plan_runs(orders)
        tables = [table for _, step in steps for table in step.args]
        assert tables
        for table in tables:
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0


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
        F = fft_forward(f)
        # Squared two-norms under each side's Haar weight: 1 on the primal side, 1/size on the dual.
        primal = np.sum(np.abs(f.values) ** 2) * f.weight
        dual = np.sum(np.abs(F.values) ** 2) * F.weight
        assert primal == pytest.approx(dual, abs=1e-9)


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
