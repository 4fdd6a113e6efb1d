import gc
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
    Operator,
    SideMismatchError,
    build_reference_operator,
    delta,
    dft_naive,
    fft_forward,
    max_abs_diff,
    random_automorphism,
    random_function,
    reference_operator_matrix,
)
from abelfft.characterize import PROBE_SCALARS
from abelfft.operators import point_mass_rows


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

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            build_reference_operator(Group((2,)), Automorphism.identity(Group((3,))), False, "U")


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

    def test_apply_checks_side(self):
        g = Group((2,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        with pytest.raises(SideMismatchError):
            op.apply(delta(g, 0, DUAL))

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
        assert Operator.from_matrix(g, DUAL, PRIMAL, np.eye(2)).form == "other"

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

        # Point masses reach a callable one apply each, as scale * delta_x, in index order.
        calls.clear()
        images = op.apply_point_masses(1, 5, 1j)
        assert len(calls) == 4
        for x, seen in zip(range(1, 5), calls):
            assert np.array_equal(seen, 1j * delta(g, x).values)
        assert np.array_equal(images, 2j * np.eye(g.size)[1:5])

    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("scale", PROBE_SCALARS)
    def test_dense_point_masses_match_batch_bit_for_bit(self, conjugation, scale):
        g = Group((4, 6))
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
        op = Operator.from_matrix(g, PRIMAL, DUAL, matrix, conjugation)
        for start, stop in ((0, g.size), (3, 17), (5, 5)):
            columns = op.apply_point_masses(start, stop, scale)
            batch = op.apply_batch(point_mass_rows(g.size, start, stop, scale))
            assert columns.shape == (stop - start, g.size)
            assert np.array_equal(np.ascontiguousarray(columns).view(np.uint64), batch.view(np.uint64))

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
