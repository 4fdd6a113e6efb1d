import dataclasses
import re

import numpy as np
import pytest
from test_recover_battery import build_operator

from abelfft import (
    DUAL,
    PRIMAL,
    Automorphism,
    DichotomyViolationError,
    GFunction,
    Group,
    GroupMismatchError,
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
from abelfft import characterize
from abelfft.characterize import (
    DEFAULT_SUPPORT_TOL_FACTOR,
    PROBE_SCALARS,
    _blocks,
    _law_images,
    _random_rows,
    _score_point_masses,
    _worst,
)
from abelfft.transform import _dft_values

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

    @pytest.mark.parametrize("trials", [True, 2.5, "3"])
    def test_trials_must_be_an_integer(self, trials):
        _, _, op = reference_fixture((4,), 1, False, "U")
        with pytest.raises(ValueError, match="trials must be an integer"):
            check_hypotheses(op, trials=trials)
        assert check_hypotheses(op, trials=np.int64(2)).as_dict()["trials"] == 2

    def test_unsupported_form_rejected(self):
        # A dual-input operator cannot be built, so no engine entry point sees one.
        g = Group((2,))
        with pytest.raises(SideMismatchError, match="sides must be primal -> primal or dual"):
            Operator.from_matrix(g, DUAL, PRIMAL, np.eye(2))
        with pytest.raises(SideMismatchError, match="sides must be primal -> primal or dual"):
            Operator(g, DUAL, DUAL, lambda f: f)

    @pytest.mark.parametrize("tol", [True, "0.1", 1e-3j])
    def test_tolerance_must_be_a_real_number(self, tol):
        op = build_reference_operator(Group((4,)), Automorphism.identity(Group((4,))), False, "U")
        with pytest.raises(ValueError, match=re.escape(f"tol must be a finite number >= 0, got {tol!r}")):
            check_hypotheses(op, trials=2, tol=tol)
        with pytest.raises(ValueError, match=re.escape(f"got {tol!r}")):
            recover(op, tol=tol)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, -5e-324, pytest.param(10**400, id="10**400")])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # An infinite tol would pass an all-NaN operator, whose errors count as
        # inf; 10**400 is finite, but as a float it is not.
        g = Group((4, 2))
        nan_op = Operator.from_matrix(g, PRIMAL, PRIMAL, np.full((8, 8), np.nan, dtype=complex))
        identity = build_reference_operator(g, Automorphism.identity(g), False, "U")
        with pytest.raises(ValueError, match=f"tol must be a finite number >= 0, got {tol}"):
            check_hypotheses(nan_op, trials=2, tol=tol)
        with pytest.raises(ValueError, match=f"got {tol}"):
            recover(identity, tol=tol)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": True}, "tol must be a finite number >= 0, got True"),
            ({"tol": "0.1"}, "tol must be a finite number >= 0, got '0.1'"),
            ({"tol": None}, "tol must be a finite number >= 0, got None"),
            ({"seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"seed": -3}, "seed must be >= 0, got -3"),
        ],
    )
    def test_tolerance_and_seed_follow_the_trials_rules(self, kwargs, message):
        _, _, op = reference_fixture((4,), 1, False, "U")
        with pytest.raises(ValueError, match=message):
            check_hypotheses(op, trials=2, **kwargs)

    def test_report_dict_roundtrips_flags(self):
        _, _, op = reference_fixture((4,), 1, True, "U")
        report = check_hypotheses(op, trials=2, seed=5)
        data = report.as_dict()
        assert data["passed"] and data["pass_a"] and data["pass_d"] and data["trials"] == 2

    @pytest.mark.parametrize("output_side", [DUAL, PRIMAL], ids=["T", "U"])
    @pytest.mark.parametrize("orders", [(8, 8), (256,)])
    def test_zero_operator_fails_identity_d(self, orders, output_side):
        # The zero operator satisfies (a)-(c) exactly, but U(1) = 0 is not the output algebra's unit.
        group = Group(orders)
        n = group.size
        report = check_hypotheses(Operator.from_matrix(group, PRIMAL, output_side, np.zeros((n, n), complex)))
        assert (report.max_err_a, report.max_err_b, report.max_err_c, report.max_err_d) == (0.0, 0.0, 0.0, 1.0)
        assert report.pass_a and report.pass_b and report.pass_c
        assert not report.pass_d and not report.passed

    @pytest.mark.parametrize("gain", [1.0, 1 + 2e-10, 2.0])
    @pytest.mark.parametrize("form", ["T", "U"])
    def test_identity_d_is_the_unit_preservation_error(self, form, gain):
        # (d) and recover's unit-preservation step take the same error of the image of 1.
        group = Group((4, 3))
        matrix = gain * reference_operator_matrix(group, random_automorphism(group, 2), form)
        op = Operator.from_matrix(group, PRIMAL, DUAL if form == "T" else PRIMAL, matrix, conjugate_input=True)
        report = check_hypotheses(op, trials=2)
        try:
            unit_error = recover(op).diagnostics["unit_error"]
        except NotEssentiallyFourierError as exc:
            assert exc.step == "unit-preservation"
            unit_error = exc.details["max_error"]
        assert report.max_err_d == unit_error
        assert report.pass_d is (gain != 2.0)


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
        assert report.psi == Automorphism.identity(g)
        assert report.conjugation is False
        assert report.residual == 0.0

    def test_plain_fourier_matrix(self):
        g = Group((4,))
        matrix = reference_operator_matrix(g, Automorphism.identity(g), "T")
        op = Operator.from_matrix(g, PRIMAL, DUAL, matrix)
        report = recover(op)
        assert report.psi == Automorphism.identity(g)
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
        with pytest.raises(
            NotEssentiallyFourierError, match=re.escape("U(delta_1) has support of size 2, expected a single point")
        ) as excinfo:
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
        with pytest.raises(
            NotEssentiallyFourierError, match=re.escape("point masses at 1 and 2 map to the same support")
        ) as excinfo:
            recover(op)
        assert excinfo.value.step == "support-map-bijection"
        assert excinfo.value.details["pair"] == (1, 2)

    def test_first_of_two_support_collisions_is_named(self):
        g = Group((12,))
        images = {7: 3, 9: 2}

        def collide(f):
            # nonlinear box sending delta_7 to delta_3 and delta_9 to delta_2
            for x, image in images.items():
                if np.array_equal(f.values, delta(g, x).values):
                    return delta(g, image)
            return GFunction(g, PRIMAL, f.values)

        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(Operator(g, PRIMAL, PRIMAL, collide))
        assert excinfo.value.step == "support-map-bijection"
        assert excinfo.value.details["pair"] == (3, 7)

    def test_unit_preservation_violation(self):
        g = Group((4,))
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, 2 * np.eye(4, dtype=complex))
        with pytest.raises(
            NotEssentiallyFourierError, match=re.escape("U(1) deviates from 1 by 1.000e+00 (tol 1.0e-09)")
        ) as excinfo:
            recover(op)
        assert excinfo.value.step == "unit-preservation"

    def test_non_homomorphic_permutation(self):
        g = Group((4,))
        # permutation fixing 0 that is not additive: 1 -> 1, 2 -> 3, 3 -> 2
        sigma = np.array([0, 1, 3, 2])
        matrix = np.eye(4, dtype=complex)[sigma]
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, matrix)
        with pytest.raises(
            NotEssentiallyFourierError, match=re.escape("support map is not additive on the pair (1, 1)")
        ) as excinfo:
            recover(op)
        assert excinfo.value.step == "homomorphism"
        assert "pair" in excinfo.value.details

    def test_identity_not_fixed(self):
        g = Group((4,))
        sigma = np.array([1, 0, 2, 3])
        matrix = np.eye(4, dtype=complex)[sigma]
        op = Operator.from_matrix(g, PRIMAL, PRIMAL, matrix)
        with pytest.raises(
            NotEssentiallyFourierError, match=re.escape("the support map sends the identity to index 1")
        ) as excinfo:
            recover(op)
        assert excinfo.value.step == "identity-not-fixed"

    def test_dichotomy_violation(self):
        g = Group((4,))

        def absolute_value(f):
            return GFunction(g, PRIMAL, np.abs(f.values).astype(complex))

        op = Operator(g, PRIMAL, PRIMAL, absolute_value)
        with pytest.raises(DichotomyViolationError):
            recover(op)

    def test_dichotomy_cross_validation(self):
        # m(i) = i picks the identity branch; m(2) = 2.5 then contradicts it.
        g = Group((4, 2))

        def identity_but_two(f):
            values = f.values.copy()
            if np.all(values == 2):
                values[:] = 2.5
            return GFunction(g, PRIMAL, values)

        with pytest.raises(
            DichotomyViolationError, match=re.escape("a probe scalar deviates from the identity branch by 5.000e-01")
        ) as excinfo:
            recover(Operator(g, PRIMAL, PRIMAL, identity_but_two))
        assert excinfo.value.step == "dichotomy-cross-validation"
        assert excinfo.value.details["max_error"] == 0.5

    def test_scalar_map_laws(self):
        # m(i) = i and every probe scalar match the identity branch, but
        # m(4) = 4.5 is neither m(2) m(2) nor m(2) + conj m(2): not additive.
        g = Group((16,))

        def identity_but_four(f):
            values = f.values.copy()
            if np.all(values == 4):
                values[:] = 4.5
            return GFunction(g, PRIMAL, values)

        message = "the scalar map breaks multiplicativity by 5.000e-01 and conjugate additivity by 5.000e-01"
        with pytest.raises(DichotomyViolationError, match=re.escape(message)) as excinfo:
            recover(Operator(g, PRIMAL, PRIMAL, identity_but_four))
        assert excinfo.value.step == "scalar-map-laws"
        assert excinfo.value.details == {"max_error": 0.5}

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

        with pytest.raises(
            NotEssentiallyFourierError, match=re.escape("U((4+0j) * 1) is not constant (max deviation 1.000e+00)")
        ) as excinfo:
            recover(Operator(g, PRIMAL, PRIMAL, uneven_at_four))
        assert excinfo.value.step == "scalar-independence"
        assert excinfo.value.details["alpha"] == 4 + 0j
        assert excinfo.value.details["deviation"] == 1.0


class TestVerifyRecovery:
    def test_conforming_operator(self):
        _, _, op = reference_fixture((4, 2), 1, True, "T")
        report = recover(op)
        assert verify_recovery(op, report) <= 1e-9

    def test_identity_is_exact(self):
        g = Group((3,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        report = recover(op)
        assert verify_recovery(op, report) == 0.0

    def test_wrong_automorphism_shows_large_residual(self):
        g = Group((4,))
        op = build_reference_operator(g, Automorphism.identity(g), False, "U")
        report = recover(op)
        wrong = dataclasses.replace(report, psi=Automorphism(g, (0, 3, 2, 1)))
        assert verify_recovery(op, wrong) >= 0.5

    def test_report_on_another_group_is_rejected(self):
        report = recover(build_reference_operator(Group((4,)), Automorphism.identity(Group((4,)))))
        op = build_reference_operator(Group((2, 2)), Automorphism.identity(Group((2, 2))))
        with pytest.raises(GroupMismatchError):
            verify_recovery(op, report)

    def test_wrong_flag_shows_large_residual(self):
        g = Group((5,))
        psi = random_automorphism(g, 2)
        op = build_reference_operator(g, psi, False, "U")
        report = recover(op)
        flipped = dataclasses.replace(report, conjugation=True)
        assert verify_recovery(op, flipped) >= 0.5

    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("form", ["T", "U"])
    def test_wrong_flag_shows_large_residual_on_a_dense_operator(self, form, conjugation):
        # The point masses at the real scalar 1 agree under either flag, so a dense
        # operator whose flag is not the report's is still sent the random functions.
        g = Group((5,))
        psi = random_automorphism(g, 2)
        out_side = DUAL if form == "T" else PRIMAL
        op = Operator.from_matrix(g, PRIMAL, out_side, reference_operator_matrix(g, psi, form), conjugation)
        report = recover(op)
        assert report.conjugation is conjugation and report.diagnostics["residual_random"] is None
        assert verify_recovery(op, report) <= 1e-15
        flipped = dataclasses.replace(report, conjugation=not conjugation)
        assert verify_recovery(op, flipped) >= 0.5


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


# Exhaustive checks at the pair budget and below it.  The exhaustive blocks hold 4 x-rows at
# n = 64 and 12 at n = 36, and at n = 49 six, so that its last block is a single x-row.
EXHAUSTIVE_CASES = [
    ((8, 8), "T", True),
    ((64,), "T", False),
    ((4, 4, 4), "U", True),
    ((6, 6), "U", True),
    ((7, 7), "T", False),
]


def dense_or_callable(group, form, conjugation, matrix, kind, offset=0.0):
    """The dense operator of ``matrix``, or its callable twin, whose apply function
    is the same product plus ``offset``."""
    out_side = DUAL if form == "T" else PRIMAL
    if kind == "dense":
        return Operator.from_matrix(group, PRIMAL, out_side, matrix, conjugation)

    def apply_fn(f):
        return GFunction(group, out_side, matrix @ (np.conj(f.values) if conjugation else f.values) + offset)

    return Operator(group, PRIMAL, out_side, apply_fn)


def replaced_identity(n, replacements, conjugation=False):
    """Callable identity on Z_n, or conjugation with ``conjugation``, that first
    sends each probe of ``replacements``, a list of (probe, image) value pairs,
    to its image."""
    group = Group((n,))

    def apply_fn(f):
        values = next((np.asarray(image, dtype=complex) for probe, image in replacements
                       if np.array_equal(f.values, probe)), f.values)
        return GFunction(group, PRIMAL, np.conj(values) if conjugation else values)

    return Operator(group, PRIMAL, PRIMAL, apply_fn)


class TestBlockedProbes:
    @pytest.mark.parametrize("form", ["T", "U"])
    def test_late_binary_failure_names_the_point_mass(self, form):
        op, _ = late_point_mass_operator(form, "split")
        with pytest.raises(
            NotEssentiallyFourierError, match=re.escape("U(delta_200) is not {0,1}-valued (max deviation 5.000e-01)")
        ) as excinfo:
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
    def overridden_identity(n, images):
        """A callable U-form identity on Z_n whose images of the point masses
        delta_x named in ``images`` are replaced: constants pass stage 1."""
        return replaced_identity(n, [(np.eye(n)[x], image) for x, image in images.items()])

    @pytest.mark.parametrize(
        "kind,step,payload",
        [
            ("split", "point-mass-binary", {"x": 200, "max_deviation": 0.5}),
            ("merge", "singleton-support", {"x": 200, "support": (7, 200)}),
            ("nan", "point-mass-binary", {"x": 200, "max_deviation": np.inf}),
        ],
    )
    def test_first_failing_row_mid_block_is_named(self, kind, step, payload):
        # Point masses 128..255 are one block at n = 256; row 200 fails, and so
        # does row 230 after it, with a split image.
        images = {"split": [0.5, 0.5], "merge": [1.0, 1.0], "nan": [np.nan, 1.0]}[kind]
        image = np.zeros(256, dtype=complex)
        image[[7, 200]] = images
        late = np.zeros(256, dtype=complex)
        late[[9, 230]] = 0.5
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(self.overridden_identity(256, {200: image, 230: late}))
        assert excinfo.value.step == step
        assert excinfo.value.details == payload

    def test_stage_two_stops_at_the_first_failing_block(self):
        # delta_5's image holds 0.5, so stage 2 rejects inside the first block
        # of 128 point masses at n = 256, and the second block is never probed.
        image = np.zeros(256, dtype=complex)
        image[5] = 0.5
        identity = self.overridden_identity(256, {5: image})
        probes = []

        def counted(f):
            probes.append(f.values)
            return identity.apply_fn(f)

        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(Operator(identity.group, PRIMAL, PRIMAL, counted))
        assert excinfo.value.step == "point-mass-binary"
        assert excinfo.value.details == {"x": 5, "max_deviation": 0.5}
        # U(1), then delta_0 .. delta_127.
        assert len(probes) == 1 + 128
        assert [np.flatnonzero(values).tolist() for values in probes[1:]] == [[x] for x in range(128)]

    @pytest.mark.parametrize("entries", [[0.55, 0.5], [-0.5, 0.45]])
    def test_rows_near_tolerance_one_half_follow_the_entry_rule(self, entries):
        # At tol 0.49 the entry of magnitude 0.5 is within tol of neither 0 nor 1.
        image = np.zeros(16, dtype=complex)
        image[[3, 12]] = entries
        with pytest.raises(NotEssentiallyFourierError) as excinfo:
            recover(self.overridden_identity(16, {12: image}), tol=0.49)
        assert excinfo.value.step == "point-mass-binary"
        assert excinfo.value.details == {"x": 12, "max_deviation": 0.5}

    @pytest.mark.parametrize("tol", [False, "0.1", None, 1j])
    def test_recover_tolerance_must_be_a_real_number(self, tol):
        identity = self.overridden_identity(16, {})
        with pytest.raises(ValueError, match=f"tol must be a finite number >= 0 and < 0.5, got {tol!r}"):
            recover(identity, tol=tol)

    @pytest.mark.parametrize("tol", [0.5, 0.6, 1.0])
    def test_recover_tolerance_must_be_below_one_half(self, tol):
        # From 1/2 up an entry can be within tol of both 0 and 1.
        identity = self.overridden_identity(16, {})
        with pytest.raises(ValueError, match=f"tol must be a finite number >= 0 and < 0.5, got {tol}"):
            recover(identity, tol=tol)
        assert recover(identity, tol=0.49).psi == Automorphism.identity(Group((16,)))

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

    @pytest.mark.parametrize("orders,form,conjugation", EXHAUSTIVE_CASES)
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
        # An error equal to tol passes.
        for identity, error in zip("abc", got):
            assert getattr(check_hypotheses(op, trials=3, seed=2, tol=error), f"pass_{identity}")

    @staticmethod
    def ordered_pair_law_errors(op):
        """The reference for the exhaustive branch: per block of whole x-rows, the errors of
        (b) and (c) over all n^2 ordered point-mass pairs: the images U(delta_x delta_y)
        and U(delta_x conv delta_y) of every pair gathered and subtracted from what
        ``_law_images`` predicts, as for random pairs."""
        group, n = op.group, op.group.size
        op_delta = op.apply_point_masses(0, n)
        hat_delta = _dft_values(op_delta, group)
        images = np.concatenate([op_delta, op.apply_batch(np.zeros((1, n), dtype=np.complex128))])
        xs, ys = np.indices((n, n))
        image_rows = np.stack([np.where(xs == ys, xs, n), group.add_index(xs, ys)])
        blocks = []
        for x0, x1 in _blocks(n, n * n):
            laws = _law_images(op, op_delta[x0:x1, None], op_delta, hat_delta[x0:x1, None], hat_delta)
            for rhs, lhs in zip(laws, images[image_rows[:, x0:x1]]):
                rhs -= lhs
            blocks.append([np.abs(rhs).max() for rhs in laws])
        return blocks

    @pytest.mark.parametrize(
        "perturbation,kind",
        [(p, kind) for p in ("exact", "entry", "nan-column", "column-swap") for kind in ("dense", "callable")]
        + [("offset", "callable")],
    )
    @pytest.mark.parametrize("orders,form,conjugation", EXHAUSTIVE_CASES)
    def test_product_and_convolution_laws_match_every_ordered_pair_bit_for_bit(
        self, orders, form, conjugation, perturbation, kind, monkeypatch
    ):
        group = Group(orders)
        matrix = reference_operator_matrix(group, random_automorphism(group, 5), form).copy()
        if perturbation == "entry":
            matrix[3, 7] += 0.01
        elif perturbation == "nan-column":
            matrix[:, 5] = np.nan
        elif perturbation == "column-swap":
            matrix[:, [2, 9]] = matrix[:, [9, 2]]
        # An offset makes U(0) nonzero, so that the order of subtractions shows in the rounding.
        offset = 1e-3 * np.random.default_rng(3).standard_normal(group.size) if perturbation == "offset" else 0.0
        op = dense_or_callable(group, form, conjugation, matrix, kind, offset)
        report = check_hypotheses(op, trials=3, seed=2)
        monkeypatch.setattr(characterize, "_EXHAUSTIVE_PAIR_BUDGET", 0)
        random_pairs = check_hypotheses(op, trials=3, seed=2)
        blocks = [*self.ordered_pair_law_errors(op), [random_pairs.max_err_b, random_pairs.max_err_c]]
        expected = [float(e) for e in _worst(np.array(blocks), axis=0)]
        assert [report.max_err_b, report.max_err_c] == expected
        assert (perturbation == "exact") == (max(expected) < 1e-9)

    @pytest.mark.parametrize("kind", ["dense", "callable"])
    def test_a_diagonal_pair_can_be_the_worst_product_law_error(self, kind, monkeypatch):
        # U(delta_5) = 2 delta_phi(5): the pair (5, 5) breaks the product law by
        # |U(delta_5) - U(delta_5)^2| = |2 - 4|, and random pairs of zeros add nothing.
        # The callable twin adds 1e-3 to every image, so U(0) is not zero, every other
        # pair errs by about 1e-3, and (5, 5) errs by fl((2.001)^2 - 2.001), which
        # fl(fl((2.001)^2 - 0.001) + fl(0.001 - 2.001)) misses by one rounding.
        group = Group((6, 6))
        matrix = reference_operator_matrix(group, random_automorphism(group, 5), "U").copy()
        matrix[:, 5] *= 2
        op = dense_or_callable(group, "U", True, matrix, kind, 1e-3 if kind == "callable" else 0.0)
        monkeypatch.setattr(characterize, "_random_rows", lambda g, rng, count: np.zeros((count, g.size), complex))
        report = check_hypotheses(op)
        expected = _worst(np.array(self.ordered_pair_law_errors(op)), axis=0)
        assert [report.max_err_b, report.max_err_c] == [float(e) for e in expected]
        assert report.max_err_b == (2.0 if kind == "dense" else abs(2.001 * 2.001 - 2.001))

    def test_dense_recover_and_verify_read_point_masses_off_columns(self):
        group = Group((256,))
        psi = random_automorphism(group, 3)
        matrix = reference_operator_matrix(group, psi, "T")
        dense = Operator.from_matrix(group, PRIMAL, DUAL, matrix, conjugate_input=True)
        twin = Operator(group, PRIMAL, DUAL, lambda f: GFunction(group, DUAL, matrix @ np.conj(f.values)))
        batched_rows = {}
        for name, op in (("dense", dense), ("twin", twin)):
            rows = batched_rows[name] = []
            apply_batch = op.apply_batch

            def counting_apply_batch(values, rows=rows, apply_batch=apply_batch):
                rows.append(len(values))
                return apply_batch(values)

            op.apply_batch = counting_apply_batch
            report = recover(op)
            assert report.psi == psi and report.conjugation
            assert verify_recovery(op, report) < 1e-9
        # Only recover's constant 1 goes through the dense operator's matrix product;
        # the other constants are scaled off the image of 1, the point masses are
        # read off the columns, and neither call sends a random function.
        assert batched_rows["dense"] == [1]
        # The twin gets each point mass in blocks of 128, the constants in one
        # batch, and 32 random functions per call.
        unit, point_masses = [1], [128, 128]
        recover_rows = unit + point_masses + [30] + 5 * point_masses + [32]
        assert batched_rows["twin"] == recover_rows + point_masses + [32]


def perturbed_dense_pair(orders, form, conjugation, perturbation):
    """A dense reference operator with a small primal-side perturbation, and
    its callable twin, whose apply function is the same matrix product."""
    group = Group(orders)
    n = group.size
    psi = random_automorphism(group, 2)
    phi = np.argsort(psi.perm_array)
    primal = reference_operator_matrix(group, psi, "U").copy()
    if perturbation == "noise":
        rng = np.random.default_rng(11)
        primal += 1e-13 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    elif perturbation == "leak":
        primal[(phi + 1) % n, np.arange(n)] += 1e-11
    elif perturbation == "nudge":
        primal[3, 5] += 2e-10
    matrix = character_matrix(group) @ primal if form == "T" else primal
    out_side = DUAL if form == "T" else PRIMAL
    dense = Operator.from_matrix(group, PRIMAL, out_side, matrix, conjugation)

    def twin_apply(f):
        values = np.conj(f.values) if conjugation else f.values
        return GFunction(group, out_side, dense.matrix @ values)

    return psi, dense, Operator(group, PRIMAL, out_side, twin_apply)


class TestDenseModelFit:
    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("form", ["T", "U"])
    def test_recover_reads_each_point_mass_once(self, form, conjugation):
        psi, op, _ = perturbed_dense_pair((8, 8), form, conjugation, None)
        rows = []
        apply_point_masses = op.apply_point_masses

        def counting_apply_point_masses(start, stop):
            rows.append(stop - start)
            return apply_point_masses(start, stop)

        op.apply_point_masses = counting_apply_point_masses
        report = recover(op)
        assert report.psi == psi and report.conjugation is conjugation
        # Stage 2's unit point masses; the fit scales their statistics.
        assert sum(rows) == op.group.size

    @pytest.mark.parametrize("perturbation", ["noise", "leak", "nudge"])
    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("form", ["T", "U"])
    def test_dense_operator_matches_its_callable_twin(self, form, conjugation, perturbation):
        psi, dense, twin = perturbed_dense_pair((8, 8), form, conjugation, perturbation)
        fast, probed = recover(dense), recover(twin)
        assert fast.psi == probed.psi == psi
        assert fast.conjugation is probed.conjugation is conjugation
        star_ok = fast.diagnostics["condition_star_ok"]
        assert star_ok is probed.diagnostics["condition_star_ok"]
        assert star_ok is (perturbation == "noise")
        assert fast.diagnostics.keys() == probed.diagnostics.keys()
        # Only the twin, a black box that need not be linear, is sent random
        # functions, so only the random residual and the residual built on it differ.
        assert fast.diagnostics["residual_random"] is None
        assert isinstance(probed.diagnostics["residual_random"], float)
        assert fast.residual == fast.diagnostics["residual_point_masses"]
        point_masses = ("point_mass_binary_error", "residual_point_masses")
        for key, value in fast.diagnostics.items():
            if isinstance(value, float):
                # Constants reach the dense operator as one matrix product and the
                # twin as one matrix-vector product each, which round differently,
                # by up to about 5e-15.
                bound = 1e-15 if key in point_masses else 1e-14
                assert abs(value - probed.diagnostics[key]) <= bound, key

    @pytest.mark.parametrize("perturbation", ["noise", "leak", "nudge"])
    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("form", ["T", "U"])
    def test_dense_residual_is_the_largest_entry_of_the_difference(self, form, conjugation, perturbation):
        # The operator and its model are (conjugate-)linear, so their difference E,
        # taken here on the primal side, bounds every image: |E f| <= max|E| * sum|f|.
        psi, op, _ = perturbed_dense_pair((8, 8), form, conjugation, perturbation)
        group, n = op.group, op.group.size
        primal = np.linalg.solve(character_matrix(group), op.matrix) if form == "T" else op.matrix
        largest = np.abs(primal - reference_operator_matrix(group, psi, "U")).max()
        floor = 64 * np.finfo(float).eps * n
        report = recover(op)
        # recover scores alpha * delta_x for each probe scalar alpha: |alpha| * max|E| at worst.
        assert abs(report.residual - max(map(abs, PROBE_SCALARS)) * largest) <= floor
        residual = verify_recovery(op, report)
        assert abs(residual - largest) <= floor
        rng = np.random.default_rng(31)
        f = _random_rows(group, rng, 32)
        images = op.apply_batch(f)
        images = np.linalg.solve(character_matrix(group), images.T).T if form == "T" else images
        model = f[:, psi.perm_array]
        error = np.abs(images - (np.conj(model) if conjugation else model)).max(axis=1)
        assert np.all(error <= residual * np.abs(f).sum(axis=1) + floor)


class TestModelFit:
    """The ``model-fit`` step: a probed alpha * delta_x within |alpha| * tol of the
    model, and a random f within tol * sum|f|."""

    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("orders, form", [((16,), "U"), ((8, 8), "T"), ((256,), "U")])
    def test_an_operator_its_model_misfits_is_rejected(self, orders, form, conjugation):
        # The recover battery's add-one box: its point masses and constants are the
        # model's, its random functions are not.
        op = build_operator(orders, form, conjugation, "add-one", 3, "box")
        with pytest.raises(NotEssentiallyFourierError, match="U deviates from the recovered model by 1.000e") as excinfo:
            recover(op)
        assert type(excinfo.value) is NotEssentiallyFourierError and excinfo.value.step == "model-fit"
        details = excinfo.value.details
        assert details.keys() == {"residual_point_masses", "residual_random"}
        assert details["residual_point_masses"] <= 1e-15
        assert abs(details["residual_random"] - 1) <= 1e-14
        assert not check_hypotheses(op, trials=4).passed

    def test_random_probes_are_judged_per_unit_of_their_l1_norm(self):
        # A linear callable whose point-mass images are each within tol of the model
        # errs on f by up to max|E| * sum|f|, which on Z_256 is well above tol itself.
        n, eps = 256, 0.9e-9
        group = Group((n,))
        matrix = np.eye(n) + eps * (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
        op = Operator(group, PRIMAL, PRIMAL, lambda f: GFunction(group, PRIMAL, matrix @ f.values))
        report = recover(op)
        assert report.psi == Automorphism.identity(group) and not report.conjugation
        assert report.diagnostics["residual_random"] > 1e-8
        assert report.diagnostics["residual_point_masses"] <= 2 * eps + 1e-15

    @pytest.mark.parametrize("alpha, error, verdict", [(0.5, 0.75e-9, "model-fit"), (2.0, 1.5e-9, "accepted")])
    def test_a_probed_point_mass_is_judged_against_its_scalar(self, alpha, error, verdict):
        # The image of alpha * delta_3 holds ``error`` off its support: within tol but
        # beyond |alpha| * tol at alpha = 0.5, beyond tol but within |alpha| * tol at 2.
        probe = np.zeros(16, dtype=complex)
        probe[3] = alpha
        image = probe.copy()
        image[9] = error
        op = replaced_identity(16, [(probe, image)])
        try:
            report = recover(op)
        except NotEssentiallyFourierError as exc:
            assert (exc.step, exc.details) == (verdict, {"residual_point_masses": error, "residual_random": 0.0})
        else:
            assert (verdict, report.residual) == ("accepted", error)


def point_mass_image(n, x, entries):
    """The pair (delta_x, image holding ``entries``) for ``replaced_identity``."""
    image = np.zeros(n, dtype=complex)
    image[list(entries)] = list(entries.values())
    return np.eye(n)[x], image


# The error that each rejecting step reports, read back as a tolerance.
STEP_ERRORS = {
    "unit-preservation": lambda details: details["max_error"],
    "point-mass-binary": lambda details: details["max_deviation"],
    "scalar-independence": lambda details: details["deviation"],
    "dichotomy": lambda details: min(abs(details["m_i"] - 1j), abs(details["m_i"] + 1j)),
    "dichotomy-cross-validation": lambda details: details["max_error"],
    "scalar-map-laws": lambda details: details["max_error"],
}

# Each error is a dyadic value, so it is exact.  Each walk lists its outcomes
# from tol = 0: a step alone where its details come from rounding.
TOLERANCE_WALKS = [
    pytest.param(
        lambda: Operator.from_matrix(Group((16,)), PRIMAL, PRIMAL, (1 + 2**-30) * np.eye(16, dtype=complex)),
        [("unit-preservation", {"max_error": 2**-30}), ("dichotomy-cross-validation", {"max_error": 2**-29}),
         "scalar-map-laws", "accepted"],
        id="unit-preservation",
    ),
    pytest.param(
        lambda: replaced_identity(16, [point_mass_image(16, 3, {3: 1.0, 9: 2**-4})]),
        [("point-mass-binary", {"x": 3, "max_deviation": 2**-4}), "accepted"],
        id="point-mass-off-entry",
    ),
    pytest.param(
        lambda: replaced_identity(16, [point_mass_image(16, 3, {3: 1 - 2**-4})]),
        [("point-mass-binary", {"x": 3, "max_deviation": 2**-4}), "accepted"],
        id="point-mass-on-entry",
    ),
    pytest.param(
        # The entry at 9 is within tol of 1 as well, so the support pick holds both.
        lambda: replaced_identity(16, [point_mass_image(16, 3, {3: 1.0, 9: 1 - 2**-4})]),
        [("point-mass-binary", {"x": 3, "max_deviation": 2**-4}), ("singleton-support", {"x": 3, "support": (3, 9)})],
        id="point-mass-support",
    ),
    pytest.param(
        # 3 = 1 + conj 2 comes before 4 = 2 * 2 among the constants.
        lambda: replaced_identity(4, [(np.full(4, 3), [3, 3 + 2**-4, 3, 3]), (np.full(4, 4), [4, 4 + 2**-3, 4, 4])]),
        [("scalar-independence", {"alpha": 3 + 0j, "deviation": 2**-4}),
         ("scalar-independence", {"alpha": 4 + 0j, "deviation": 2**-3}), "accepted"],
        id="scalar-independence",
    ),
    pytest.param(
        lambda: replaced_identity(8, [(np.full(8, 1j), np.full(8, 1j + 2**-4))]),
        [("dichotomy", {"m_i": 2**-4 + 1j}), "scalar-map-laws", "accepted"],
        id="dichotomy-identity",
    ),
    pytest.param(
        lambda: replaced_identity(8, [(np.full(8, 1j), np.full(8, 1j + 2**-4))], conjugation=True),
        [("dichotomy", {"m_i": 2**-4 - 1j}), "scalar-map-laws", "accepted"],
        id="dichotomy-conjugation",
    ),
    pytest.param(
        lambda: replaced_identity(8, [(np.full(8, 2), np.full(8, 2 + 2**-4))]),
        [("dichotomy-cross-validation", {"max_error": 2**-4}), "scalar-map-laws", "accepted"],
        id="dichotomy-cross-validation",
    ),
    pytest.param(
        lambda: replaced_identity(16, [(np.full(16, 4), np.full(16, 4 + 2**-4))]),
        [("scalar-map-laws", {"max_error": 2**-4}), "accepted"],
        id="scalar-map-laws",
    ),
]


class TestToleranceBoundary:
    """Every verdict passes an error at or below tol, so tol = 0 demands exact values."""

    @pytest.mark.parametrize("kind", ["dense", "callable"])
    @pytest.mark.parametrize("conjugation", [False, True])
    @pytest.mark.parametrize("orders", [(8,), (4, 6), (2, 2, 2)])
    def test_exact_u_form_passes_at_tol_zero(self, orders, conjugation, kind):
        group = Group(orders)
        psi = random_automorphism(group, 7)
        if kind == "dense":
            matrix = reference_operator_matrix(group, psi, "U")
            op = Operator.from_matrix(group, PRIMAL, PRIMAL, matrix, conjugate_input=conjugation)
        else:
            op = build_reference_operator(group, psi, conjugation, "U")
        report = recover(op, tol=0)
        assert (report.psi, report.conjugation, report.residual) == (psi, conjugation, 0.0)
        # Identity (c) goes through the transform, so its error is rounding.
        hypotheses = check_hypotheses(op, trials=4, tol=0)
        assert hypotheses.pass_a and hypotheses.pass_b
        for tol in (np.nextafter(0.5, 0), -0.0):
            assert recover(op, tol=tol).psi == psi
        with pytest.raises(ValueError, match="tol must be a finite number >= 0 and < 0.5, got -5e-324"):
            recover(op, tol=-5e-324)

    @pytest.mark.parametrize("build, expected", TOLERANCE_WALKS)
    def test_an_error_equal_to_tol_passes(self, build, expected):
        # Rerun recover at the error each rejection reports: the step that
        # reported it must now pass, up to the next step or to acceptance.
        op, tol, outcomes = build(), 0.0, []
        while len(outcomes) < len(expected):
            try:
                recover(op, tol=tol)
            except NotEssentiallyFourierError as exc:
                outcomes.append((exc.step, exc.details))
                if exc.step not in STEP_ERRORS or STEP_ERRORS[exc.step](exc.details) == tol:
                    break
                tol = STEP_ERRORS[exc.step](exc.details)
            else:
                outcomes.append("accepted")
        steps = [outcome if outcome == "accepted" else outcome[0] for outcome in outcomes]
        assert steps == [want if isinstance(want, str) else want[0] for want in expected]
        assert all(got == want for got, want in zip(outcomes, expected) if isinstance(want, tuple))


class TestSupportRule:
    """Condition star's support test on point-mass images: the entry at the
    target must exceed, and every entry off it must not exceed,
    DEFAULT_SUPPORT_TOL_FACTOR times the larger of the two magnitudes."""

    def score(self, on_value, off_point, expected=1.0):
        return _score_point_masses(np.array([on_value]), np.array([off_point]), expected)

    def test_exact_point_mass(self):
        assert self.score(1.0, 0.0) == (0.0, True)

    def test_thresholding(self):
        below, above = 0.5 * DEFAULT_SUPPORT_TOL_FACTOR, 2 * DEFAULT_SUPPORT_TOL_FACTOR
        assert self.score(1.0, below) == (below, True)
        assert self.score(1.0, above) == (above, False)

    def test_off_entry_at_the_cut_holds(self):
        # The cut for a unit image is DEFAULT_SUPPORT_TOL_FACTOR * 1.0, exactly; the next double above it breaks star.
        cut = DEFAULT_SUPPORT_TOL_FACTOR
        assert _score_point_masses(np.array([1 + 0j]), np.array([cut]), 1.0)[1] is True
        assert _score_point_masses(np.array([1 + 0j]), np.array([np.nextafter(cut, 1)]), 1.0)[1] is False

    def test_tolerance_scales_with_the_image(self):
        assert self.score(1e6, 1e-7, expected=1e6)[1] is True
        assert self.score(1e-6, 1e-7, expected=1e-6)[1] is False

    def test_zero_image_has_empty_support(self):
        assert self.score(0.0, 0.0) == (1.0, False)

    def test_nan_value_counts_as_infinite(self):
        assert _worst(np.array([np.nan, 1.0])) == np.inf
        assert self.score(np.nan, 0.0) == (np.inf, False)
        assert self.score(1.0, np.nan) == (np.inf, False)


def counted_reference_operator(group, psi, conjugation, form):
    """The callable reference operator, and a list that grows by one per apply."""
    reference = build_reference_operator(group, psi, conjugation, form)
    calls = []

    def counted(f):
        calls.append(None)
        return reference.apply_fn(f)

    return Operator(group, PRIMAL, reference.output_side, counted), calls


class TestProbeCounts:
    @pytest.mark.parametrize("form", ["T", "U"])
    def test_callable_apply_counts(self, form):
        group = Group((8, 8))
        n = group.size
        psi = random_automorphism(group, 4)
        op, calls = counted_reference_operator(group, psi, True, form)
        report = recover(op)
        assert report.psi == psi and report.conjugation
        # Stage 2's unit point masses are the model fit's unit-scalar probes, so
        # 6n point masses, 1 + 6 + 24 constants and 32 random functions.
        assert len(calls) == 6 * n + 63 == 447
        calls.clear()
        assert verify_recovery(op, report) < 1e-9
        assert len(calls) == n + 32
        calls.clear()
        assert check_hypotheses(op).passed
        # The constant 1, n point masses, the zero function, n^2 pairs and 16 random pairs of five probes.
        assert len(calls) == 1 + n + 1 + n * n + 5 * 16 == 4242

    def test_constants_go_in_one_batch_before_the_dichotomy(self):
        # |f| passes stages 1-3; m(i) = 1 fails the dichotomy only after the
        # whole batch of constants has been applied.
        g = Group((8,))
        probes = []

        def absolute_value(f):
            probes.append(f.values)
            return GFunction(g, PRIMAL, np.abs(f.values).astype(complex))

        with pytest.raises(
            DichotomyViolationError, match=re.escape("m(i) = (1+0j) matches neither i nor -i at tolerance 1.0e-09")
        ) as excinfo:
            recover(Operator(g, PRIMAL, PRIMAL, absolute_value))
        assert excinfo.value.step == "dichotomy"
        # U(1), the 8 point masses, then the 6 probe scalars and 24 derived constants.
        assert len(probes) == 1 + 8 + 30 == 39
        assert all(np.all(values == values[0]) for values in probes[9:])
        constants = [complex(values[0]) for values in probes[9:]]
        assert constants[:6] == list(PROBE_SCALARS) and len(set(constants)) == 30

    def test_random_rows_match_random_function_draws(self):
        group = Group((3, 4))
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        rows = _random_rows(group, rng, 5)
        expected = np.stack([random_function(group, reference).values for _ in range(5)])
        assert rows.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert rng.standard_normal() == reference.standard_normal()


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
        assert verify_recovery(op, report) == np.inf

    def test_verify_counts_nan_as_infinite(self):
        g = Group((4,))
        report = recover(build_reference_operator(g, Automorphism.identity(g), False, "U"))
        op = Operator(g, PRIMAL, PRIMAL, lambda f: GFunction(g, PRIMAL, np.full(g.size, np.nan)))
        assert verify_recovery(op, report) == np.inf
