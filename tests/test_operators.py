import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from abelfft import (
    DUAL,
    PRIMAL,
    Automorphism,
    GFunction,
    Group,
    GroupMismatchError,
    NotEssentiallyFourierError,
    Operator,
    SideMismatchError,
    build_reference_operator,
    character_matrix,
    check_hypotheses,
    delta,
    dft_naive,
    fft_forward,
    fileio,
    max_abs_diff,
    random_automorphism,
    random_function,
    recover,
    reference_operator_matrix,
    verify_recovery,
)
from abelfft.characterize import PROBE_SCALARS
from abelfft.operators import monomial_factors, point_mass_rows


class TestReferenceOperators:
    def test_identity_u_form(self):
        g = Group((6,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        f = random_function(g, 1)
        assert max_abs_diff(op.apply(f), f) == 0.0

    def test_identity_t_form_is_the_transform(self):
        g = Group((4, 3))
        op = build_reference_operator(g, Automorphism.identity(g), False, "T")
        f = random_function(g, 2)
        assert max_abs_diff(op.apply(f), fft_forward(f)) == 0.0

    def test_u_form_composes_with_automorphism(self):
        g = Group((4,))
        psi = Automorphism(g, (0, 3, 2, 1))
        op = build_reference_operator(g, psi, False, "U")
        out = op.apply(delta(g, 1))
        # (delta_1 o psi)(x) = delta_1(3x), nonzero only at x = 3
        assert np.allclose(out.values, delta(g, 3).values)

    def test_conjugation_applies_before_composition(self):
        g = Group((5,))
        psi = random_automorphism(g, 4)
        op = build_reference_operator(g, psi, True, "U")
        f = random_function(g, 5)
        expected = np.conj(f.values[psi.perm_array])
        assert np.allclose(op.apply(f).values, expected)

    def test_form_validation(self):
        g = Group((2,))
        with pytest.raises(ValueError):
            build_reference_operator(g, Automorphism.identity(g), False, "V")
        with pytest.raises(ValueError):
            reference_operator_matrix(g, Automorphism.identity(g), "V")

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            build_reference_operator(Group((2,)), Automorphism.identity(Group((3,))), False, "U")
        with pytest.raises(GroupMismatchError):
            reference_operator_matrix(Group((2,)), Automorphism.identity(Group((3,))), "U")


class TestOperatorMatrices:
    def test_u_identity_matrix(self):
        g = Group((2,))
        m = reference_operator_matrix(g, Automorphism.identity(g), "U")
        assert np.allclose(m, np.eye(2))

    def test_t_identity_matrix_on_z2(self):
        g = Group((2,))
        m = reference_operator_matrix(g, Automorphism.identity(g), "T")
        # oracle: columns are the naive transforms of the point masses
        expected = np.column_stack([dft_naive(delta(g, j)).values for j in range(2)])
        assert np.allclose(m, expected)
        assert np.allclose(m, [[1, 1], [1, -1]])

    @pytest.mark.parametrize("form", ["T", "U"])
    @pytest.mark.parametrize("conjugation", [False, True])
    def test_matrix_agrees_with_closure(self, form, conjugation):
        g = Group((3, 4))
        psi = random_automorphism(g, 7)
        closure = build_reference_operator(g, psi, conjugation, form)
        matrix = reference_operator_matrix(g, psi, form)
        out_side = DUAL if form == "T" else PRIMAL
        boxed = Operator.from_matrix(g, PRIMAL, out_side, matrix, conjugation)
        f = random_function(g, 8)
        assert max_abs_diff(closure.apply(f), boxed.apply(f)) < 1e-12

    @pytest.mark.parametrize("orders", [(1,), (6,), (4, 6), (2, 3, 4), (64,)])
    def test_matrix_equals_the_row_major_construction(self, orders):
        g = Group(orders)
        for seed in range(3):
            psi = random_automorphism(g, seed)
            perm = psi.perm_array
            rows = {
                "U": np.eye(g.size, dtype=np.complex128)[perm],
                "T": character_matrix(g)[:, np.argsort(perm)],
            }
            for form, expected in rows.items():
                got = reference_operator_matrix(g, psi, form)
                assert got.shape == expected.shape
                assert np.array_equal(
                    np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(expected).view(np.uint64)
                )

    @pytest.mark.parametrize("form", ["T", "U"])
    def test_build_makes_no_second_table(self, form):
        # Only the n returned images are built: the 16 MiB result plus one block
        # of character rows, not a full table and its gathered copy (32 MiB).
        g = Group((32, 32))
        psi = random_automorphism(g, 4)
        tracemalloc.start()
        try:
            reference_operator_matrix(g, psi, form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_matrix_columns_probe_with_point_masses(self):
        g = Group((4,))
        psi = Automorphism(g, (0, 3, 2, 1))
        op = build_reference_operator(g, psi, True, "T")
        matrix = reference_operator_matrix(g, psi, "T")
        for j in range(g.size):
            # point masses are real, so conjugate-input operators expose columns directly
            assert np.allclose(op.apply(delta(g, j)).values, matrix[:, j])


class TestOperatorContracts:
    def test_apply_checks_group(self):
        op = build_reference_operator(Group((2,)), Automorphism.identity(Group((2,))), False, "U")
        with pytest.raises(GroupMismatchError):
            op.apply(delta(Group((3,)), 0))

    def test_apply_checks_output_group(self):
        g = Group((4,))
        op = Operator(g, PRIMAL, PRIMAL, lambda f: delta(Group((2, 2)), 0))
        with pytest.raises(GroupMismatchError):
            op.apply(delta(g, 0))

    def test_apply_requires_a_gfunction_output(self):
        g = Group((4,))
        op = Operator(g, PRIMAL, PRIMAL, lambda f: f.values)
        with pytest.raises(TypeError, match="ndarray"):
            op.apply(delta(g, 0))
        with pytest.raises(TypeError, match="ndarray"):
            op.apply_point_masses(0, 2)

    def test_apply_checks_side(self):
        g = Group((2,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        with pytest.raises(SideMismatchError):
            op.apply(delta(g, 0, DUAL))
        dual_output = Operator(g, PRIMAL, PRIMAL, lambda f: delta(g, 0, DUAL))
        with pytest.raises(SideMismatchError, match="produced a dual-side output"):
            dual_output.apply(delta(g, 0))

    @pytest.mark.parametrize(
        "output, error, message",
        [
            (lambda g: np.zeros(g.size), TypeError, "operator apply function returned ndarray, expected GFunction"),
            (lambda g: delta(Group((2, 2)), 0), GroupMismatchError, "operator produced an output on (2, 2), declared (4,)"),
            (lambda g: delta(g, 0, DUAL), SideMismatchError, "operator produced a dual-side output, declared primal"),
        ],
        ids=["not-a-gfunction", "other-group", "other-side"],
    )
    def test_apply_function_contract_holds_on_every_probe_method(self, output, error, message):
        g = Group((4,))
        op = Operator(g, PRIMAL, PRIMAL, lambda f: output(g))
        probes = [lambda: op.apply(delta(g, 0)), lambda: op.apply_batch(point_mass_rows(4, 0, 2)),
                  lambda: op.apply_point_masses(0, 2)]
        for probe in probes:
            with pytest.raises(error) as excinfo:
                probe()
            assert type(excinfo.value) is error and str(excinfo.value) == message

    @pytest.mark.parametrize("storage", ["matrix", "factors", "callable"])
    def test_apply_is_one_row_of_apply_batch(self, storage):
        g = Group((4, 6))
        psi = random_automorphism(g, 3)
        if storage == "callable":
            op = build_reference_operator(g, psi, True, "T")
        else:
            form = "T" if storage == "matrix" else "U"
            # Complex scales on the factors, whose gather rounds apart from the product.
            matrix = (0.6 + 0.8j) * reference_operator_matrix(g, psi, form)
            op = Operator.from_matrix(g, PRIMAL, DUAL if form == "T" else PRIMAL, matrix, True)
            assert (op._monomial is None) == (storage == "matrix")
        f = random_function(g, 5)
        image = op.apply(f)
        assert (image.group, image.side) == (g, op.output_side)
        assert image.values.tobytes() == op.apply_batch(f.values[None])[0].tobytes()

    def test_matrix_shape_validation(self):
        with pytest.raises(GroupMismatchError):
            Operator.from_matrix(Group((3,)), PRIMAL, PRIMAL, np.eye(2))

    def test_conjugate_input_semantics(self):
        g = Group((2,))
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, np.eye(2), conjugate_input=True)
        f = 1j * delta(g, 0)
        assert np.allclose(op.apply(f).values, [-1j, 0])

    def test_forms(self):
        g = Group((2,))
        assert Operator.from_matrix(g, PRIMAL, DUAL, np.eye(2)).form == "T"
        assert Operator.from_matrix(g, PRIMAL, PRIMAL, np.eye(2)).form == "U"
        with pytest.raises(SideMismatchError):
            Operator.from_matrix(g, DUAL, PRIMAL, np.eye(2))

    def test_from_matrix_ignores_later_writes_to_the_callers_array(self):
        g = Group((3,))
        m = np.eye(3, dtype=np.complex128)
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, m)
        m[0, 0] = 5
        assert op.apply(delta(g, 0)).values[0] == 1
        assert op.apply_batch(point_mass_rows(3, 0, 1))[0, 0] == 1
        assert op.apply_point_masses(0, 1)[0, 0] == 1

    def test_dense_operator_is_freed_with_its_last_reference(self):
        g = Group((8,))
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, np.eye(8), conjugate_input=True)
        assert np.array_equal(op.apply(1j * delta(g, 3)).values, -1j * delta(g, 3).values)
        ref = weakref.ref(op)
        gc.disable()
        try:
            del op
            assert ref() is None
        finally:
            gc.enable()

    def test_operator_needs_an_apply_function_or_a_matrix(self):
        g = Group((2,))
        with pytest.raises(ValueError):
            Operator(g, PRIMAL, PRIMAL)
        with pytest.raises(ValueError):
            Operator(g, PRIMAL, PRIMAL, lambda f: f, np.eye(2))

    def test_conjugate_input_needs_a_matrix(self):
        g = Group((4,))
        with pytest.raises(ValueError):
            Operator(g, PRIMAL, PRIMAL, lambda f: f, conjugate_input=True)
        # The reference closure conjugates by itself, so its operator carries no flag.
        psi = random_automorphism(g, 1)
        for form in ("T", "U"):
            op = build_reference_operator(g, psi, True, form)
            assert op.conjugate_input is False
            f = random_function(g, 2)
            expected = Operator.from_matrix(
                g, PRIMAL, op.output_side, reference_operator_matrix(g, psi, form), True
            ).apply(f)
            assert max_abs_diff(op.apply(f), expected) < 1e-12


class TestApplyBatch:
    @pytest.mark.parametrize("form", ["T", "U"])
    @pytest.mark.parametrize("conjugation", [False, True])
    def test_dense_batch_matches_row_wise_apply(self, form, conjugation):
        g = Group((4, 6))
        psi = random_automorphism(g, 3)
        out_side = DUAL if form == "T" else PRIMAL
        op = Operator.from_matrix(
            g, PRIMAL, out_side, reference_operator_matrix(g, psi, form), conjugation
        )
        rows = np.stack([random_function(g, seed).values for seed in range(5)])
        batch = op.apply_batch(rows)
        assert batch.shape == rows.shape
        for row, image in zip(rows, batch):
            expected = op.apply(GFunction(g, PRIMAL, row)).values
            assert np.max(np.abs(image - expected)) < 1e-12

    def test_callable_gets_one_apply_per_row(self):
        g = Group((3, 2))
        calls = []

        def doubled(f):
            calls.append(f.values.copy())
            return GFunction(g, PRIMAL, 2 * f.values)

        op = Operator(g, PRIMAL, PRIMAL, doubled)
        rows = np.stack([random_function(g, seed).values for seed in range(7)])
        batch = op.apply_batch(rows)
        assert len(calls) == 7
        assert all(np.array_equal(seen, row) for seen, row in zip(calls, rows))
        assert np.array_equal(batch, 2 * rows)

        # Unit point masses reach a callable one apply each, as delta_x, in index order.
        calls.clear()
        images = op.apply_point_masses(1, 5)
        assert len(calls) == 4
        for x, seen in zip(range(1, 5), calls):
            assert np.array_equal(seen, delta(g, x).values)
        assert np.array_equal(images, 2 * np.eye(g.size)[1:5])
        assert op.point_mass_scale(1j) is None

    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("scale", [*PROBE_SCALARS, -2.0, complex(-0.3, 1.7)])
    def test_dense_point_masses_scale_to_the_batch(self, conjugation, scale):
        # The rule recover uses: the image of scale * delta_x is s times the image of
        # delta_x.  Each part of every probe scalar and of -2 is 0, +-1, 2 or 1/2, so
        # each part of s * entry is exact or one rounded sum, whatever order BLAS takes;
        # a general complex scale is one complex product, rounded apart.
        g = Group((4, 6))
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
        op = Operator.from_matrix(g, PRIMAL, DUAL, matrix, conjugation)
        s = op.point_mass_scale(scale)
        assert s == (np.conj(scale) if conjugation else scale)
        for start, stop in ((0, g.size), (3, 17), (5, 5)):
            units = op.apply_point_masses(start, stop)
            batch = op.apply_batch(point_mass_rows(g.size, start, stop, scale))
            assert units.shape == batch.shape == (stop - start, g.size)
            if scale == complex(-0.3, 1.7):
                assert np.all(np.abs(s * units - batch) <= 4 * np.finfo(float).eps * abs(s) * np.abs(units))
            else:
                assert np.array_equal(_bits(s * units), _bits(batch))

    @pytest.mark.parametrize("conjugation", [False, True])
    def test_unit_scale_point_masses_are_a_read_only_view(self, conjugation):
        g = Group((4, 6))
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
        op = Operator.from_matrix(g, PRIMAL, DUAL, matrix, conjugation)
        rows = op.apply_point_masses(3, 17)
        assert np.array_equal(rows, op.matrix.T[3:17]) and np.shares_memory(rows, op.matrix)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0

    @pytest.mark.parametrize("form", ["T", "U"])
    def test_dense_storage_is_column_major(self, form):
        g = Group((4, 6))
        psi = random_automorphism(g, 2)
        out_side = DUAL if form == "T" else PRIMAL
        matrix = reference_operator_matrix(g, psi, form)
        assert matrix.flags.f_contiguous
        for given in (matrix, np.ascontiguousarray(matrix)):
            op = Operator.from_matrix(g, PRIMAL, out_side, given, True)
            assert op.matrix.flags.f_contiguous and np.array_equal(op.matrix, matrix)
            for start, stop in ((0, g.size), (3, 17)):
                rows = op.apply_point_masses(start, stop)
                assert rows.flags.c_contiguous
                assert np.array_equal(rows, matrix[:, start:stop].T)

    @pytest.mark.parametrize("form", ["T", "U"])
    def test_reference_matrix_is_kept_without_a_copy(self, form):
        # A T-form matrix is kept as given; a U-form one is not kept at all, only its factors.
        g = Group((4, 6))
        m = reference_operator_matrix(g, random_automorphism(g, 2), form)
        assert not m.flags.writeable and m.flags.owndata
        op = Operator.from_matrix(g, PRIMAL, DUAL if form == "T" else PRIMAL, m)
        if form == "T":
            assert np.shares_memory(op.matrix, m) and op.matrix is op.matrix
            return
        held = _held_arrays(op)
        assert held and all(a.size <= g.size for a in held)
        assert not any(np.shares_memory(a, m) for a in held)
        # Read, the matrix is rebuilt bit for bit, with the stored layout, and not kept.
        assert np.array_equal(_bits(op.matrix), _bits(m)) and not np.shares_memory(op.matrix, m)
        assert op.matrix.flags.f_contiguous and not op.matrix.flags.writeable
        assert op.matrix is not op.matrix
        assert all(a.size <= g.size for a in _held_arrays(op))

    @pytest.mark.parametrize("form", ["T", "U"])
    def test_operator_from_reference_matrix_holds_one_table(self, form):
        # One 16 MiB matrix plus a block of character rows, not the matrix and its copy (32 MiB).
        g = Group((32, 32))
        psi = random_automorphism(g, 4)
        tracemalloc.start()
        try:
            Operator.from_matrix(g, PRIMAL, DUAL if form == "T" else PRIMAL, reference_operator_matrix(g, psi, form))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_u_form_operator_holds_no_matrix(self):
        # Once the reference matrix (16 MiB) is dropped, the operator holds its factors alone.
        g = Group((32, 32))
        psi = random_automorphism(g, 4)
        tracemalloc.start()
        try:
            op = Operator.from_matrix(g, PRIMAL, PRIMAL, reference_operator_matrix(g, psi, "U"))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20
        assert np.array_equal(op.apply_point_masses(0, g.size), reference_operator_matrix(g, psi, "U").T)

    def test_row_major_u_form_is_decided_along_its_rows(self):
        # A row-major input, as load_operator parses, is read along its rows: the one
        # n x n transient is the 1 MiB nonzero mask, with no transposed copy of it.
        g = Group((32, 32))
        psi = random_automorphism(g, 4)
        given = np.ascontiguousarray(reference_operator_matrix(g, psi, "U"))
        tracemalloc.start()
        try:
            op = Operator.from_matrix(g, PRIMAL, PRIMAL, given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
        assert not any(a.size > g.size for a in _held_arrays(op))
        assert np.array_equal(_bits(op.matrix), _bits(given))

    @pytest.mark.parametrize(
        "make, writeable, form",
        [
            (lambda m: np.array(m, order="F"), True, "U"),
            (lambda m: np.array(m, order="C"), False, "U"),
            (lambda m: np.array(m, order="F")[:, :], False, "U"),
            (lambda m: np.array(m, np.complex64, order="F"), False, "U"),
            (lambda m: np.array(m, order="F"), True, "T"),
            (lambda m: np.array(m, order="C"), False, "T"),
            (lambda m: np.array(m, order="F")[:, :], False, "T"),
            (lambda m: np.array(m, np.complex64, order="F"), False, "T"),
        ],
        ids=[
            "writeable", "c-order", "read-only-view", "complex64",
            "t-writeable", "t-c-order", "t-read-only-view", "t-complex64",
        ],
    )
    def test_other_matrices_are_copied(self, make, writeable, form):
        # A U-form input is kept as its factors, so its op.matrix is a rebuilt array.
        g = Group((4, 6))
        given = make(reference_operator_matrix(g, random_automorphism(g, 2), form))
        given.setflags(write=writeable)
        op = Operator.from_matrix(g, PRIMAL, DUAL if form == "T" else PRIMAL, given)
        assert not np.shares_memory(op.matrix, given)
        assert op.matrix.flags.f_contiguous and not op.matrix.flags.writeable
        assert op.matrix.dtype == np.complex128 and np.array_equal(op.matrix, given)

    def test_later_write_by_the_caller_does_not_reach_the_operator(self):
        g = Group((4, 6))
        matrix = np.array(reference_operator_matrix(g, random_automorphism(g, 2), "T"), order="F")
        op = Operator.from_matrix(g, PRIMAL, DUAL, matrix)
        kept = op.matrix.copy()
        matrix[:, 5] = 7
        assert np.array_equal(op.matrix, kept)

    def test_batch_shape_validation(self):
        g = Group((4,))
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, np.eye(4))
        with pytest.raises(GroupMismatchError):
            op.apply_batch(np.zeros((2, 3)))
        with pytest.raises(GroupMismatchError):
            op.apply_batch(np.zeros(4))
        with pytest.raises(IndexError):
            op.apply_point_masses(2, 5)
        with pytest.raises(IndexError):
            op.apply_point_masses(3, 2)


def _held_arrays(op):
    """The numpy arrays an operator holds, directly or in a tuple."""
    values = [v for value in vars(op).values() for v in (value if isinstance(value, tuple) else (value,))]
    return [v for v in values if isinstance(v, np.ndarray)]


def _product(op, rows):
    """The dense product path: conj?(rows) @ matrix.T."""
    return (np.conj(rows) if op.conjugate_input else rows) @ op.matrix.T


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _strided_view(matrix):
    """``matrix`` as a view that is neither row- nor column-major."""
    n = matrix.shape[0]
    view = np.zeros((2 * n, 3 * n), dtype=matrix.dtype)[::2, ::3]
    view[...] = matrix
    return view


_LAYOUTS = {
    "row-major": np.ascontiguousarray,
    "column-major": np.asfortranarray,
    "strided-view": _strided_view,
}


def _monomial_by_definition(matrix):
    """``monomial_factors`` by its definition, entry by entry: (source, scale) when every
    row and every column holds one nonzero and no other entry has a nonzero 64-bit word."""
    n = matrix.shape[0]
    support = {(r, c) for r in range(n) for c in range(n) if matrix[r, c] != 0}
    if sorted(r for r, _ in support) != list(range(n)) or sorted(c for _, c in support) != list(range(n)):
        return None
    for r in range(n):
        for c in range(n):
            if (r, c) not in support and _bits(matrix[r, c]).any():
                return None
    source = np.array([c for _, c in sorted(support)])
    return source, matrix[np.arange(n), source]


# Scales that test the definition's edges: non-finite, signed zeros in a nonzero
# entry, and a -0.0-valued entry, which is a zero.
_EDGE_SCALES = [
    1.0, -1.0, 2.5j, complex(2, -0.0), complex(-0.0, 3), np.nan, -np.inf,
    complex(np.nan, 1), complex(0, np.inf), complex(-0.0, -0.0),
]


def _random_candidate(rng):
    """A small scaled permutation matrix, then at most one edit that may break it."""
    n = int(rng.integers(1, 7))
    scales = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    edge = rng.random(n) < 0.2
    scales[edge] = rng.choice(np.array(_EDGE_SCALES), edge.sum())
    matrix = np.zeros((n, n), dtype=np.complex128)
    matrix[rng.permutation(n), np.arange(n)] = scales
    r, c, other = rng.integers(n, size=3)
    edit = rng.integers(6)
    if edit == 1:  # a stray -0.0, in either part
        matrix[r, c] = rng.choice([complex(-0.0, 0.0), complex(0.0, -0.0)])
    elif edit == 2:  # a stray +3
        matrix[r, c] = 3
    elif edit == 3:  # a zeroed entry
        matrix[r, c] = 0
    elif edit == 4:  # a duplicated column
        matrix[:, other] = matrix[:, c]
    return matrix


def _monomial_matrix(n, seed, scales):
    """A scaled permutation matrix: column x holds scales[x] in row perm[x]."""
    perm = np.random.default_rng(seed).permutation(n)
    matrix = np.zeros((n, n), dtype=np.complex128)
    matrix[perm, np.arange(n)] = scales
    return matrix


class TestMonomialPath:
    n = 24

    def probes(self, seed=0, k=6):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((k, self.n)) + 1j * rng.standard_normal((k, self.n))

    def operator(self, matrix, conjugate_input=False):
        return Operator.from_matrix(Group((self.n,)), PRIMAL, PRIMAL, matrix, conjugate_input)

    @pytest.mark.parametrize("conjugate_input", [False, True])
    @pytest.mark.parametrize("kind", ["permutation", "real", "negative"])
    def test_real_scales_match_the_product_bit_for_bit(self, kind, conjugate_input):
        rng = np.random.default_rng(1)
        scales = {
            "permutation": np.ones(self.n),
            "real": rng.uniform(0.5, 3.0, self.n),
            "negative": -rng.uniform(0.5, 3.0, self.n),
        }[kind]
        op = self.operator(_monomial_matrix(self.n, 2, scales), conjugate_input)
        assert op._monomial is not None
        rows = self.probes()
        for block in (rows, rows[:1], rows[:0]):
            got = op.apply_batch(block)
            assert got.shape == block.shape
            assert np.array_equal(_bits(got), _bits(_product(op, block)))
        f = GFunction(op.group, PRIMAL, rows[3])
        assert np.array_equal(_bits(op.apply(f).values), _bits(_product(op, rows[3:4])[0]))

    @pytest.mark.parametrize("conjugate_input", [False, True])
    def test_complex_scales_match_the_product_within_one_rounding(self, conjugate_input):
        rng = np.random.default_rng(3)
        scales = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        op = self.operator(_monomial_matrix(self.n, 4, scales), conjugate_input)
        assert op._monomial is not None
        rows = self.probes(5)
        got, expected = op.apply_batch(rows), _product(op, rows)
        source, scale = op._monomial
        size = np.abs(rows[:, source]) * np.abs(scale)
        assert np.all(np.abs(got - expected) <= 2 * np.finfo(float).eps * size)

    def test_finite_probes_are_answered_without_the_product(self):
        matrix = _monomial_matrix(self.n, 13, np.full(self.n, 2.0))
        op = self.operator(matrix)
        rows = self.probes(14)
        for block in (rows, rows[:1]):
            assert np.array_equal(_bits(op.apply_batch(block)), _bits(block @ matrix.T))
        op.apply(GFunction(op.group, PRIMAL, rows[0]))
        op.apply_point_masses(0, self.n)
        assert not any(a.size > self.n for a in _held_arrays(op))
        rows[2, 5] = np.nan
        with np.errstate(invalid="ignore"):  # 0 * nan
            op.apply_batch(rows)
        # The product a non-finite probe takes builds its matrix for that call alone.
        assert not any(a.size > self.n for a in _held_arrays(op))

    def test_factors_stay_the_only_storage(self, tmp_path):
        # Saving the operator, reading its matrix and a non-finite probe each build
        # the matrix for that call alone: afterwards the operator holds O(n) numbers.
        matrix = _monomial_matrix(self.n, 13, np.full(self.n, 2.0))
        op = self.operator(matrix)
        fileio.save_operator(tmp_path / "op.json", op)
        assert np.array_equal(_bits(op.matrix), _bits(matrix))
        rows = self.probes(14)
        rows[2, 5] = np.nan
        with np.errstate(invalid="ignore"):  # 0 * nan
            op.apply_batch(rows)
        held = _held_arrays(op)
        assert held and not any(a.size > self.n for a in held)

    @pytest.mark.parametrize("conjugate_input", [False, True])
    @pytest.mark.parametrize("kind", ["permutation", "negative", "complex"])
    def test_point_masses_of_factors_are_the_columns_bit_for_bit(self, kind, conjugate_input):
        # The unit images are the columns bit for bit.  The rule recover uses, s times
        # a unit image for the image of scale * delta_x, holds exactly: the gather takes
        # the same product.  Only the signs of the zeros off the support may differ,
        # since 0 * scale[r] takes its sign from scale[r] and s * 0 from s.
        rng = np.random.default_rng(15)
        scales = {
            "permutation": np.ones(self.n),
            "negative": -rng.uniform(0.5, 3.0, self.n),
            "complex": rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n),
        }[kind]
        matrix = _monomial_matrix(self.n, 16, scales)
        op = self.operator(matrix, conjugate_input)
        for start, stop in ((0, self.n), (5, 17), (9, 9)):
            units = op.apply_point_masses(start, stop)
            assert np.array_equal(_bits(units), _bits(matrix.T[start:stop]))
            for scale in (*PROBE_SCALARS, complex(-0.3, 1.7), -2.0):
                batch = op.apply_batch(point_mass_rows(self.n, start, stop, scale))
                assert np.array_equal(op.point_mass_scale(scale) * units, batch)
        assert not any(a.size > self.n for a in _held_arrays(op))
        assert np.array_equal(_bits(op.matrix), _bits(matrix))

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_factors_give_source_and_scale_per_row(self, layout):
        matrix = np.array([[0, 2j, 0], [0, 0, -1], [3, 0, 0]], dtype=np.complex128)
        source, scale = monomial_factors(_LAYOUTS[layout](matrix))
        assert source.tolist() == [1, 2, 0]
        assert scale.tolist() == [2j, -1, 3]

    def test_factors_match_the_definition_in_every_layout(self):
        rng = np.random.default_rng(2029)
        found = {True: 0, False: 0}
        for _ in range(2000):
            matrix = _random_candidate(rng)
            expected = _monomial_by_definition(matrix)
            found[expected is not None] += 1
            for layout, make in _LAYOUTS.items():
                got = monomial_factors(make(matrix))
                assert (got is None) == (expected is None), (layout, matrix)
                if got is not None:
                    assert np.array_equal(got[0], expected[0]), (layout, matrix)
                    assert np.array_equal(_bits(got[1]), _bits(expected[1])), (layout, matrix)
        assert min(found.values()) > 500

    def non_monomial(self):
        n = self.n
        eye = np.eye(n, dtype=np.complex128)
        two_in_a_column = eye.copy()
        two_in_a_column[5, 3] = 0.5
        zero_column = eye.copy()
        zero_column[7, 7] = 0
        shared_row = eye.copy()
        shared_row[:, 9] = 0
        shared_row[4, 9] = 1
        # n nonzeros whose first-nonzero rows form a permutation, with column 1
        # empty (its first "nonzero" row reads as 0) and row 3 holding two.
        empty_and_doubled = np.zeros((n, n), dtype=np.complex128)
        empty_and_doubled[1, 0] = 1
        empty_and_doubled[np.arange(2, n), np.arange(2, n)] = 1
        empty_and_doubled[3, 2] = 1
        negative_zero = eye.copy()
        negative_zero[2, 11] = complex(0.0, -0.0)
        t_form = reference_operator_matrix(Group((4, 6)), random_automorphism(Group((4, 6)), 5), "T")
        return {
            "two-in-a-column": two_in_a_column,
            "zero-column": zero_column,
            "shared-row": shared_row,
            "zero-first-column": np.roll(zero_column, -7, axis=1),
            "empty-and-doubled": empty_and_doubled,
            "negative-zero": negative_zero,
            "t-form": t_form,
        }

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize(
        "kind",
        [
            "two-in-a-column", "zero-column", "shared-row", "zero-first-column", "empty-and-doubled",
            "negative-zero", "t-form",
        ],
    )
    def test_other_matrices_take_the_product(self, kind, layout):
        matrix = _LAYOUTS[layout](self.non_monomial()[kind])
        assert monomial_factors(matrix) is None
        op = self.operator(matrix, True)
        assert op._monomial is None and op._inverse is None
        assert op.matrix is op.matrix and np.array_equal(_bits(op.matrix), _bits(matrix))
        rows = self.probes(6)
        assert np.array_equal(_bits(op.apply_batch(rows)), _bits(_product(op, rows)))

    @pytest.mark.parametrize("kind", ["t-form", "zero-first-column"])
    def test_first_column_alone_refuses(self, kind):
        # A first column that is not a single nonzero refuses the matrix before any
        # n x n pass (the nonzero mask alone would be 1 MiB).
        g = Group((32, 32))
        matrix = reference_operator_matrix(g, random_automorphism(g, 4), "T" if kind == "t-form" else "U")
        if kind == "zero-first-column":
            matrix = np.array(matrix, order="F")
            matrix[:, 0] = 0
        tracemalloc.start()
        try:
            refused = monomial_factors(matrix) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused and peak < 2**16

    def test_negative_zeros_count_as_zero(self, tmp_path):
        matrix = _monomial_matrix(self.n, 7, np.full(self.n, complex(2.0, -0.0)))
        matrix[matrix == 0] = complex(-0.0, -0.0)
        assert np.signbit(matrix.real).sum() == self.n * (self.n - 1)
        op = self.operator(matrix)
        # The factors would not rebuild the -0.0 entries, so the matrix is kept, and
        # probes take its product.
        assert op._monomial is None and op._inverse is None
        assert op.matrix is op.matrix and np.array_equal(_bits(op.matrix), _bits(matrix))
        rows = self.probes(8)
        assert np.array_equal(_bits(op.apply_batch(rows)), _bits(rows @ matrix.T))
        # Saved, it keeps every -0.0; loaded and saved again, it writes the same bytes.
        path, again = tmp_path / "op.json", tmp_path / "again.json"
        fileio.save_operator(path, op)
        loaded = fileio.load_operator(path)
        assert np.array_equal(_bits(loaded.matrix), _bits(matrix))
        fileio.save_operator(again, loaded)
        assert again.read_bytes() == path.read_bytes()
        # A column of negative zeros is a zero column.
        matrix[:, 2] = complex(-0.0, 0.0)
        assert self.operator(matrix)._monomial is None

    @pytest.mark.parametrize("conjugate_input", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)])
    def test_non_finite_probes_give_the_products_rows(self, bad, conjugate_input):
        op = self.operator(_monomial_matrix(self.n, 9, np.arange(1, self.n + 1) * 0.5), conjugate_input)
        assert op._monomial is not None
        rows = self.probes(10)
        rows[1, 4] = bad
        rows[4, [0, 11]] = bad
        with np.errstate(invalid="ignore"):  # 0 * inf
            got, expected = op.apply_batch(rows), _product(op, rows)
        assert not np.isfinite(got[[1, 4]]).any()
        assert np.array_equal(got.view(np.float64), expected.view(np.float64), equal_nan=True)
        finite = [0, 2, 3, 5]
        assert np.array_equal(_bits(got[finite]), _bits(expected[finite]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, -np.inf)])
    def test_non_finite_matrix_entries_give_the_products_rows(self, bad):
        scales = np.full(self.n, 2.0, dtype=np.complex128)
        scales[[3, 17]] = bad
        op = self.operator(_monomial_matrix(self.n, 11, scales))
        assert op._monomial is not None
        rows = self.probes(12)
        rows[2, :] = 0
        with np.errstate(invalid="ignore"):  # 0 * inf
            got, expected = op.apply_batch(rows), _product(op, rows)
        # BLAS kernels may write NaN where the complex multiply gives inf, so the
        # non-finite entries match in place, and the finite ones bit for bit.
        finite = np.isfinite(expected)
        assert not finite.all()
        assert np.array_equal(np.isfinite(got), finite)
        assert np.array_equal(_bits(got[finite]), _bits(expected[finite]))


def _verdicts(op, u_report):
    """check_hypotheses, recover and verify_recovery on ``op``, as reprs field by field
    (repr keeps every bit of a float, -0.0 included); a rejection as its class, step,
    message and details.  ``u_report`` is what verify_recovery scores."""
    out = {"check": repr(check_hypotheses(op, trials=4, seed=3).as_dict())}
    try:
        out["recover"] = {key: repr(value) for key, value in recover(op).as_dict().items()}
    except NotEssentiallyFourierError as exc:
        out["recover"] = (type(exc).__name__, exc.step, str(exc), repr(exc.details))
    out["verify"] = repr(verify_recovery(op, u_report))
    return out


class TestFactorsOnlyAgainstDense:
    """An operator kept as its factors decides as the same matrix kept dense: one
    off-support zero set to -0.0 makes ``Operator`` keep the matrix, so the reference
    answers every probe by the plain product."""

    @pytest.mark.parametrize("form", ["U", "T"])
    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("orders", [(8, 8), (32, 32)])
    def test_same_verdicts_bit_for_bit(self, orders, conjugation, form):
        g = Group(orders)
        psi = random_automorphism(g, 21)
        matrix = reference_operator_matrix(g, psi, "U")
        dense_matrix = np.array(matrix)
        dense_matrix[1, 0] = complex(-0.0, 0.0)  # off the support: column 0 holds its 1 at phi(0) = 0
        out_side = DUAL if form == "T" else PRIMAL
        factors = Operator.from_matrix(g, PRIMAL, out_side, matrix, conjugation)
        dense = Operator.from_matrix(g, PRIMAL, out_side, dense_matrix, conjugation)
        assert factors._monomial is not None and dense._monomial is None
        assert dense.matrix is dense.matrix
        u_report = recover(Operator.from_matrix(g, PRIMAL, PRIMAL, matrix, conjugation))
        assert _verdicts(factors, u_report) == _verdicts(dense, u_report)
        assert not any(a.size > g.size for a in _held_arrays(factors))
