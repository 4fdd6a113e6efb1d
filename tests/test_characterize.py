import dataclasses

import numpy as np
import pytest

from abelfft import (
    DUAL,
    PRIMAL,
    Automorphism,
    DichotomyViolationError,
    GFunction,
    Group,
    NotEssentiallyFourierError,
    Operator,
    SideMismatchError,
    build_reference_operator,
    character_matrix,
    check_hypotheses,
    convolve_fast,
    delta,
    max_abs_diff,
    pointwise_product,
    random_automorphism,
    random_function,
    recover,
    reference_operator_matrix,
    star,
    verify_recovery,
    zero,
)

ROUND_TRIP_CASES = [
    ((4, 2), 0, False, "T"),
    ((4, 2), 0, True, "T"),
    ((8,), 1, False, "U"),
    ((8,), 1, True, "U"),
    ((3, 3), 2, False, "T"),
    ((5,), 3, True, "U"),
    ((2, 2, 2), 4, False, "U"),
    ((12,), 5, True, "T"),
    ((6, 4), 6, False, "T"),
    ((1,), 0, True, "U"),
    ((9, 2), 7, True, "T"),
    ((10,), 8, False, "U"),
]


def reference_fixture(orders, seed, conjugation, form):
    group = Group(orders)
    psi = random_automorphism(group, seed)
    return group, psi, build_reference_operator(group, psi, conjugation, form)


class TestCheckHypotheses:
    @pytest.mark.parametrize("conjugation", [False, True])
    def test_dense_t_form_of_size_1024_passes(self, conjugation):
        # Exact characters: with phases rounded in floats, identity (c) failed here.
        group = Group((1024,))
        matrix = reference_operator_matrix(group, random_automorphism(group, 5), "T")
        op = Operator.from_matrix(group, PRIMAL, DUAL, matrix, conjugation)
        report = check_hypotheses(op)
        assert report.passed, report.as_dict()

    def test_reference_t_form_passes(self):
        _, _, op = reference_fixture((4, 3), 0, False, "T")
        report = check_hypotheses(op, trials=8, seed=0, tol=1e-9)
        assert report.passed
        assert max(report.max_err_a, report.max_err_b, report.max_err_c) <= 1e-10

    def test_identity_passes_exactly(self):
        g = Group((4,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        report = check_hypotheses(op, trials=4, seed=1)
        assert report.max_err_a == 0.0
        assert report.max_err_b == 0.0
        assert report.passed

    def test_row_swap_fails_large(self):
        g = Group((4,))
        psi = random_automorphism(g, 3)
        matrix = reference_operator_matrix(g, psi, "U").copy()
        matrix[[0, 1]] = matrix[[1, 0]]
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, matrix)
        report = check_hypotheses(op, trials=4, seed=0)
        assert not report.passed
        assert max(report.max_err_b, report.max_err_c) >= 0.5

    def test_trials_validation(self):
        g = Group((2,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        with pytest.raises(ValueError):
            check_hypotheses(op, trials=0)

    def test_unsupported_form_rejected(self):
        g = Group((2,))
        op = Operator.from_matrix(g, DUAL, PRIMAL, np.eye(2))
        with pytest.raises(SideMismatchError):
            check_hypotheses(op)

    def test_report_dict_roundtrips_flags(self):
        _, _, op = reference_fixture((4,), 1, True, "U")
        report = check_hypotheses(op, trials=2, seed=5)
        data = report.as_dict()
        assert data["passed"] and data["pass_a"] and data["trials"] == 2


class TestRecoverRoundTrips:
    @pytest.mark.parametrize("orders,seed,conjugation,form", ROUND_TRIP_CASES)
    def test_exact_recovery(self, orders, seed, conjugation, form):
        group, psi, op = reference_fixture(orders, seed, conjugation, form)
        report = recover(op, tol=1e-9)
        assert report.psi.perm == psi.perm
        assert report.conjugation is conjugation
        assert report.residual <= 1e-9

    @pytest.mark.parametrize("orders,seed,conjugation,form", ROUND_TRIP_CASES)
    def test_step_diagnostics(self, orders, seed, conjugation, form):
        _, _, op = reference_fixture(orders, seed, conjugation, form)
        diag = recover(op, tol=1e-9).diagnostics
        assert diag["unit_error"] <= 1e-9
        assert diag["point_mass_binary_error"] <= 1e-9
        assert diag["supports_singleton"] and diag["identity_fixed"]
        assert diag["homomorphism_ok"] and diag["homomorphism_exhaustive"]
        assert diag["scalar_independence_error"] <= 1e-9
        assert diag["m_multiplicativity_error"] <= 1e-9
        assert diag["m_conjugate_additivity_error"] <= 1e-9
        assert diag["condition_star_ok"]

    def test_off_point_leak_is_accepted_without_condition_star(self):
        g = Group((8,))
        matrix = np.eye(g.size, dtype=np.complex128)
        matrix[5, 2] = 1e-10
        report = recover(Operator.from_matrix(g, PRIMAL, PRIMAL, matrix))
        assert report.psi == Automorphism.identity(g) and not report.conjugation
        assert report.diagnostics["condition_star_ok"] is False
        # The leak is scaled by the largest probe scalar, 2.
        assert report.diagnostics["residual_point_masses"] == 2e-10

    def test_m_samples_follow_the_flag(self):
        _, _, op = reference_fixture((6,), 2, True, "U")
        report = recover(op)
        for alpha, m_value in report.m_samples:
            assert m_value == pytest.approx(np.conj(alpha), abs=1e-12)

    def test_identity_operator(self):
        g = Group((4,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        report = recover(op)
        assert report.psi.is_identity()
        assert report.conjugation is False
        assert report.residual == 0.0

    def test_plain_fourier_matrix(self):
        g = Group((4,))
        matrix = reference_operator_matrix(g, Automorphism.identity(g), "T")
        op = Operator.from_matrix(g, PRIMAL, DUAL, matrix)
        report = recover(op)
        assert report.psi.is_identity()
        assert report.conjugation is False
        assert report.residual <= 1e-10

    def test_matrix_and_closure_agree(self):
        g = Group((4, 2))
        psi = random_automorphism(g, 9)
        closure = build_reference_operator(g, psi, True, "T")
        boxed = Operator.from_matrix(
            g, PRIMAL, DUAL, reference_operator_matrix(g, psi, "T"), conjugate_input=True
        )
        assert recover(closure).psi.perm == recover(boxed).psi.perm


class TestRecoverFailures:
    def test_all_ones_matrix(self):
        g = Group((4,))
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, np.ones((4, 4), dtype=complex))
        with pytest.raises(NotEssentiallyFourierError):
            recover(op)

    def test_normalized_all_ones_fails_on_supports(self):
        g = Group((4,))
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, np.ones((4, 4), dtype=complex) / 4)
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "point-mass-binary"

    def test_singleton_support_violation_carries_support_set(self):
        g = Group((4,))
        # rows still sum to 1 so constants survive, but U(delta_1) hits two points
        matrix = np.eye(4, dtype=complex)
        matrix[:, 1] = [0, 1, 1, 0]
        matrix[:, 2] = [0, 0, 0, 0]
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, matrix)
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "singleton-support"
        assert excinfo.value.details["x"] == 1
        assert excinfo.value.details["support"] == (1, 2)

    def test_support_collision(self):
        g = Group((4,))

        def collide(f):
            # nonlinear box sending both delta_1 and delta_2 to delta_2
            if np.allclose(f.values, delta(g, 1).values):
                return delta(g, 2)
            return GFunction(g, PRIMAL, f.values)

        op = Operator(g, PRIMAL, PRIMAL, collide)
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "support-map-bijection"
        assert excinfo.value.details["pair"] == (1, 2)

    def test_unit_preservation_violation(self):
        g = Group((4,))
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, 2 * np.eye(4, dtype=complex))
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "unit-preservation"

    def test_non_homomorphic_permutation(self):
        g = Group((4,))
        # permutation fixing 0 that is not additive: 1 -> 1, 2 -> 3, 3 -> 2
        sigma = np.array([0, 1, 3, 2])
        matrix = np.eye(4, dtype=complex)[sigma]
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, matrix)
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "homomorphism"
        assert "pair" in excinfo.value.details

    def test_identity_not_fixed(self):
        g = Group((4,))
        sigma = np.array([1, 0, 2, 3])
        matrix = np.eye(4, dtype=complex)[sigma]
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, matrix)
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "identity-not-fixed"

    def test_dichotomy_violation(self):
        g = Group((4,))

        def absolute_value(f):
            return GFunction(g, PRIMAL, np.abs(f.values).astype(complex))

        op = Operator(g, PRIMAL, PRIMAL, absolute_value)
        with pytest.raises(DichotomyViolationError):
            recover(op)

    def test_scalar_independence_violation(self):
        g = Group((4,))

        def lopsided(f):
            values = f.values.copy()
            scale = np.abs(values[1])
            if scale > 1e-6 and abs(scale - 1.0) > 1e-6:
                values[1] *= 2.0
            return GFunction(g, PRIMAL, values)

        op = Operator(g, PRIMAL, PRIMAL, lopsided)
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "scalar-independence"

    def test_scalar_independence_violation_off_the_probe_scalars(self):
        # Constant for every probe scalar, but not for 4 = 2 * 2, which only
        # the scalar-map laws probe.
        g = Group((4,))

        def uneven_at_four(f):
            values = f.values.copy()
            if np.all(values == 4):
                values[1] = 5
            return GFunction(g, PRIMAL, values)

        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(Operator(g, PRIMAL, PRIMAL, uneven_at_four))
        assert excinfo.value.step == "scalar-independence"
        assert excinfo.value.details["alpha"] == 4 + 0j
        assert excinfo.value.details["deviation"] == 1.0


class TestVerifyRecovery:
    def test_conforming_operator(self):
        _, _, op = reference_fixture((4, 2), 1, True, "T")
        report = recover(op)
        assert verify_recovery(op, report, trials=16) <= 1e-9

    def test_identity_is_exact(self):
        g = Group((3,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        report = recover(op)
        assert verify_recovery(op, report, trials=4) == 0.0

    def test_wrong_automorphism_shows_large_residual(self):
        g = Group((4,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        report = recover(op)
        wrong = dataclasses.replace(report, psi=Automorphism(g, (0, 3, 2, 1)))
        assert verify_recovery(op, wrong, trials=4) >= 0.5

    def test_wrong_flag_shows_large_residual(self):
        g = Group((5,))
        psi = random_automorphism(g, 2)
        op = build_reference_operator(g, psi, False, "U")
        report = recover(op)
        flipped = dataclasses.replace(report, conjugation=True)
        assert verify_recovery(op, flipped, trials=8) >= 0.5


class TestNegativeProperty:
    @pytest.mark.parametrize("orders,seed,conjugation,form", ROUND_TRIP_CASES[:8])
    def test_row_swap_never_accepted(self, orders, seed, conjugation, form):
        group = Group(orders)
        if group.size < 2:
            pytest.skip("nothing to swap on the trivial group")
        psi = random_automorphism(group, seed)
        matrix = reference_operator_matrix(group, psi, form).copy()
        matrix[[0, 1]] = matrix[[1, 0]]
        out_side = DUAL if form == "T" else PRIMAL
        op = Operator.from_matrix(group, PRIMAL, out_side, matrix, conjugate_input=conjugation)
        hypotheses_fail = not check_hypotheses(op, trials=4, seed=seed).passed
        recovery_fails = False
        try:
            recover(op)
        except NotEssentiallyFourierError:
            recovery_fails = True
        assert hypotheses_fail or recovery_fails


def late_point_mass_operator(form, kind, x=200):
    """Reference operator on Z_256 whose point mass at x (in a later probe block)
    is corrupted while constants are still preserved.

    "split": U(delta_x) and U(delta_y) both become (e_a + e_b) / 2 for a later y.
    "merge": U(delta_x) becomes e_a + e_b and U(delta_y) becomes zero.
    """
    group = Group((256,))
    psi = random_automorphism(group, 11)
    u = reference_operator_matrix(group, psi, "U").copy()
    later = x + 1
    a, b = int(np.flatnonzero(u[:, x])[0]), int(np.flatnonzero(u[:, later])[0])
    both = np.zeros(group.size, dtype=complex)
    both[[a, b]] = 1.0
    if kind == "split":
        u[:, x] = u[:, later] = both / 2
    else:
        u[:, x], u[:, later] = both, 0.0
    if form == "U":
        return Operator.from_matrix(group, PRIMAL, PRIMAL, u), (a, b)
    return Operator.from_matrix(group, PRIMAL, DUAL, character_matrix(group) @ u), (a, b)


class TestBlockedProbes:
    @pytest.mark.parametrize("form", ["T", "U"])
    def test_late_binary_failure_names_the_point_mass(self, form):
        op, _ = late_point_mass_operator(form, "split")
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "point-mass-binary"
        assert excinfo.value.details["x"] == 200
        assert excinfo.value.details["max_deviation"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("form", ["T", "U"])
    def test_late_singleton_failure_names_the_point_mass(self, form):
        op, (a, b) = late_point_mass_operator(form, "merge")
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "singleton-support"
        assert excinfo.value.details["x"] == 200
        assert excinfo.value.details["support"] == tuple(sorted((a, b)))

    @staticmethod
    def per_pair_errors(op, trials, seed):
        """The exhaustive identity errors computed one point-mass pair at a time."""
        group = op.group
        t_form = op.form == "T"
        op_delta = [op.apply(delta(group, x)) for x in range(group.size)]
        op_zero = op.apply(zero(group))
        errors = [0.0, 0.0, 0.0]

        def record(f, g, op_f, op_g, op_prod, op_conv):
            products = (convolve_fast(op_f, op_g), pointwise_product(op_f, op_g))
            rhs_b, rhs_c = products if t_form else products[::-1]
            for i, err in enumerate(
                (
                    max_abs_diff(op.apply(f + star(g)), op_f + star(op_g)),
                    max_abs_diff(op_prod, rhs_b),
                    max_abs_diff(op_conv, rhs_c),
                )
            ):
                errors[i] = max(errors[i], err)

        for x in range(group.size):
            for y in range(group.size):
                op_prod = op_delta[x] if x == y else op_zero
                op_conv = op_delta[group.add_index(x, y)]
                record(delta(group, x), delta(group, y), op_delta[x], op_delta[y], op_prod, op_conv)
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            f, g = random_function(group, rng), random_function(group, rng)
            record(f, g, op.apply(f), op.apply(g), op.apply(pointwise_product(f, g)),
                   op.apply(convolve_fast(f, g)))
        return errors

    @pytest.mark.parametrize(
        "orders,form,conjugation", [((8, 8), "T", True), ((64,), "T", False), ((4, 4, 4), "U", True)]
    )
    def test_exhaustive_check_matches_per_pair_loop(self, orders, form, conjugation):
        group = Group(orders)
        psi = random_automorphism(group, 5)
        matrix = reference_operator_matrix(group, psi, form).copy()
        matrix[3, 7] += 0.01  # nonzero errors make the comparison meaningful
        out_side = DUAL if form == "T" else PRIMAL
        op = Operator.from_matrix(group, PRIMAL, out_side, matrix, conjugation)
        report = check_hypotheses(op, trials=3, seed=2)
        expected = self.per_pair_errors(op, trials=3, seed=2)
        got = [report.max_err_a, report.max_err_b, report.max_err_c]
        assert all(e > 1e-3 for e in expected)
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-12

    def test_dense_recover_and_verify_read_point_masses_off_columns(self):
        group = Group((256,))
        psi = random_automorphism(group, 3)
        op = Operator.from_matrix(
            group, PRIMAL, DUAL, reference_operator_matrix(group, psi, "T"), conjugate_input=True
        )
        batched_rows = []
        apply_batch = op.apply_batch

        def counting_apply_batch(values):
            batched_rows.append(len(values))
            return apply_batch(values)

        op.apply_batch = counting_apply_batch
        report = recover(op)
        assert report.psi == psi and report.conjugation
        assert verify_recovery(op, report) < 1e-9
        # Only constants and random functions go through the matrix product;
        # the 8 * 256 point masses of stages 2 and 5 and of verify do not.
        assert sum(batched_rows) < group.size


class TestNonFiniteNeverPasses:
    def test_all_nan_operator_fails_check(self):
        g = Group((4, 2))
        op = Operator(g, PRIMAL, PRIMAL, lambda f: GFunction(g, PRIMAL, np.full(g.size, np.nan)))
        report = check_hypotheses(op, trials=2)
        assert not report.passed
        assert report.max_err_a == report.max_err_b == report.max_err_c == np.inf

    def test_dense_u_form_with_one_nan_entry_fails_check(self):
        g = Group((4,))
        matrix = np.eye(4, dtype=complex)
        matrix[1, 2] = np.nan
        report = check_hypotheses(Operator.from_matrix(g, PRIMAL, PRIMAL, matrix), trials=2)
        assert not report.passed

    def test_all_nan_operator_fails_unit_preservation(self):
        g = Group((4,))
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, np.full((4, 4), np.nan, dtype=complex))
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "unit-preservation"
        assert excinfo.value.details["max_error"] == np.inf

    def test_nan_point_mass_image_fails_binary_stage(self):
        g = Group((4,))

        def nan_at_two(f):
            if np.array_equal(f.values, delta(g, 2).values):
                return GFunction(g, PRIMAL, np.full(g.size, np.nan))
            return f

        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(Operator(g, PRIMAL, PRIMAL, nan_at_two))
        assert excinfo.value.step == "point-mass-binary"
        assert excinfo.value.details["x"] == 2

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("orders,form", [((8,), "U"), ((4, 2), "T"), ((70,), "T")])
    def test_dense_operator_with_one_non_finite_entry(self, orders, form, bad):
        group = Group(orders)
        out_side = DUAL if form == "T" else PRIMAL
        matrix = reference_operator_matrix(group, random_automorphism(group, 3), form)
        report = recover(Operator.from_matrix(group, PRIMAL, out_side, matrix, True))
        matrix = matrix.copy()
        matrix[1, 2] = bad
        op = Operator.from_matrix(group, PRIMAL, out_side, matrix, True)
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(op)
        assert excinfo.value.step == "unit-preservation"
        assert excinfo.value.details == {"max_error": np.inf}
        hypotheses = check_hypotheses(op, trials=3)
        assert hypotheses.max_err_a == hypotheses.max_err_b == hypotheses.max_err_c == np.inf
        assert verify_recovery(op, report, trials=2) == np.inf

    def test_verify_counts_nan_as_infinite(self):
        g = Group((4,))
        report = recover(build_reference_operator(g, Automorphism.identity(g), False, "U"))
        op = Operator(g, PRIMAL, PRIMAL, lambda f: GFunction(g, PRIMAL, np.full(g.size, np.nan)))
        assert verify_recovery(op, report, trials=2) == np.inf
