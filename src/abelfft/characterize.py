"""Hypothesis checking and constructive recovery for transform-like operators.

``check_hypotheses`` measures how far an operator is from the three algebraic
identities that characterize the reference family:

  (a) additivity against the involution: F(f + g*) = F(f) + [F(g)]*,
      with each side's own involution;
  (b) the product law: primal->dual operators must send pointwise products to
      convolutions (output-side weight); primal->primal operators must
      preserve pointwise products;
  (c) the convolution law: primal->dual operators must send convolutions
      (input-side weight) to pointwise products; primal->primal operators
      must preserve convolutions.

``recover`` reduces a primal->dual operator to a primal->primal one through
the inverse transform, then reconstructs the relabeling automorphism from the
supports of transformed point masses, reads the scalar map off constants, and
classifies it as either the identity or complex conjugation.

Probes reach the operator in blocks of rows through ``Operator.apply_batch``:
a dense operator answers a block with one matrix product, an operator given
only by its apply function is called once per probe, in order.  Point-mass
probes stream in fixed blocks of about ``_BLOCK_ELEMENTS`` values, each
reduced to per-probe scalars before the next is built, so memory stays flat
and every stage still fails at the first offending point mass.  Any
non-finite error counts as an infinite one, so NaN never passes a check; the
public checks therefore silence numpy's overflow and invalid-value warnings,
which a huge or non-finite operator raises and which would say nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DichotomyViolationError,
    NotEssentiallyFourierError,
    SideMismatchError,
)
from .functions import (
    DEFAULT_SUPPORT_TOL_FACTOR,
    haar_weight,
    random_function,
    star_values,
)
from .groups import EXHAUSTIVE_PAIR_LIMIT, Automorphism, Group, find_additivity_violation
from .operators import Operator, T_FORM, U_FORM
from .transform import _idft_values, convolve_values

PROBE_SCALARS: tuple[complex, ...] = (1 + 0j, -1 + 0j, 1j, 2 + 0j, 0.5 + 0j, 1 + 1j)

DEFAULT_TOL = 1e-9
DEFAULT_RESIDUAL_TRIALS = 32
DEFAULT_RECOVER_SEED = 1789
_EXHAUSTIVE_PAIR_BUDGET = 4096
# Values per probe block: 32 probes at size 1024.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class HypothesisReport:
    """Largest observed violation of each identity, with pass flags at a tolerance."""

    max_err_a: float
    max_err_b: float
    max_err_c: float
    trials: int
    seed: int
    tol: float

    @property
    def pass_a(self) -> bool:
        return self.max_err_a <= self.tol

    @property
    def pass_b(self) -> bool:
        return self.max_err_b <= self.tol

    @property
    def pass_c(self) -> bool:
        return self.max_err_c <= self.tol

    @property
    def passed(self) -> bool:
        return self.pass_a and self.pass_b and self.pass_c

    def as_dict(self) -> dict:
        return {
            "a": self.max_err_a,
            "b": self.max_err_b,
            "c": self.max_err_c,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "pass_a": self.pass_a,
            "pass_b": self.pass_b,
            "pass_c": self.pass_c,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a successful recovery."""

    psi: Automorphism
    conjugation: bool
    residual: float
    m_samples: list[tuple[complex, complex]]
    diagnostics: dict
    tol: float
    seed: int

    def as_dict(self) -> dict:
        return {
            "psi": list(self.psi.perm),
            "conjugation": self.conjugation,
            "residual": self.residual,
            "m_samples": [[[a.real, a.imag], [m.real, m.imag]] for a, m in self.m_samples],
            "diagnostics": dict(self.diagnostics),
            "tol": self.tol,
            "seed": self.seed,
        }


def _require_checkable(op: Operator) -> None:
    if op.form not in (T_FORM, U_FORM):
        raise SideMismatchError(
            f"only primal->dual and primal->primal operators are supported, "
            f"got {op.input_side} -> {op.output_side}"
        )


def _worst(errors: np.ndarray, axis: int | None = None):
    """Largest error (along ``axis``), with NaN counted as an infinite error."""
    largest = np.max(errors, axis=axis, initial=0.0)
    return np.where(np.isnan(largest), np.inf, largest)


def _blocks(count: int, size: int):
    """(start, stop) ranges over ``count`` probes of ``size`` values, in order."""
    step = max(1, _BLOCK_ELEMENTS // size)
    return ((start, min(start + step, count)) for start in range(0, count, step))


def _point_masses(n: int, start: int, stop: int, scale: complex = 1.0) -> np.ndarray:
    """Rows ``scale * delta_x`` for x in range(start, stop)."""
    rows = np.zeros((stop - start, n), dtype=np.complex128)
    rows[np.arange(stop - start), np.arange(start, stop)] = scale
    return rows


def _random_rows(group: Group, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` seeded random functions as rows, drawn in order."""
    return np.stack([random_function(group, rng).values for _ in range(count)])


def _primal_rows(op: Operator, rows: np.ndarray) -> np.ndarray:
    """Images of probe rows under the primal->primal map: the operator itself for
    U-form, the inverse transform composed on top for T-form."""
    images = op.apply_batch(rows)
    return _idft_values(images, op.group) if op.form == T_FORM else images


def _model_residual(
    op: Operator, probes: np.ndarray, perm: np.ndarray, conjugation: bool
) -> tuple[np.ndarray, float]:
    """Primal images of a block of probe rows and their worst deviation from
    the model f -> conj?(f o psi)."""
    images = _primal_rows(op, probes)
    expected = probes[:, perm]
    if conjugation:
        expected = np.conj(expected)
    return images, float(_worst(np.abs(images - expected)))


def _identity_errors(op, f, g, op_f, op_g, op_prod, op_conv) -> np.ndarray:
    """Worst errors of identities (a), (b), (c) over a block of probe pairs given as rows."""
    group, out_side = op.group, op.output_side
    lhs_a = op.apply_batch(f + star_values(g, group, op.input_side))
    rhs_a = op_f + star_values(op_g, group, out_side)
    product = op_f * op_g
    convolution = convolve_values(op_f, op_g, group, haar_weight(group, out_side))
    rhs_b, rhs_c = (convolution, product) if op.form == T_FORM else (product, convolution)
    return np.array(
        [_worst(np.abs(lhs_a - rhs_a)), _worst(np.abs(op_prod - rhs_b)), _worst(np.abs(op_conv - rhs_c))]
    )


@np.errstate(over="ignore", invalid="ignore")
def check_hypotheses(
    op: Operator,
    trials: int = 16,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> HypothesisReport:
    """Probe the three identities on point-mass pairs and random functions.

    Point-mass pairs are exhausted whenever size^2 <= 4096; on top of that,
    ``trials`` seeded pairs of complex-Gaussian functions are checked.  The
    report carries the worst deviation per identity; nothing raises.
    """
    _require_checkable(op)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    group = op.group
    n = group.size
    errors = np.zeros(3)

    if n * n <= _EXHAUSTIVE_PAIR_BUDGET:
        points = np.eye(n, dtype=np.complex128)
        op_delta = op.apply_batch(points)
        op_zero = op.apply_batch(np.zeros((1, n), dtype=np.complex128))
        xs, ys = np.divmod(np.arange(n * n), n)
        sums = group.add_index(xs, ys)
        for start, stop in _blocks(n * n, n):
            x, y = xs[start:stop], ys[start:stop]
            # delta_x * delta_y is exactly delta_x or zero; their primal
            # convolution is exactly the point mass at x + y.
            op_prod = np.where((x == y)[:, None], op_delta[x], op_zero)
            op_conv = op_delta[sums[start:stop]]
            pair_errors = _identity_errors(
                op, points[x], points[y], op_delta[x], op_delta[y], op_prod, op_conv
            )
            errors = np.maximum(errors, pair_errors)

    rng = np.random.default_rng(seed)
    in_weight = haar_weight(group, op.input_side)
    for start, stop in _blocks(trials, n):
        draws = _random_rows(group, rng, 2 * (stop - start))
        f, g = draws[0::2], draws[1::2]
        pair_errors = _identity_errors(
            op,
            f,
            g,
            op.apply_batch(f),
            op.apply_batch(g),
            op.apply_batch(f * g),
            op.apply_batch(convolve_values(f, g, group, in_weight)),
        )
        errors = np.maximum(errors, pair_errors)

    err_a, err_b, err_c = (float(e) for e in errors)
    return HypothesisReport(err_a, err_b, err_c, trials, seed, tol)


@np.errstate(over="ignore", invalid="ignore")
def recover(
    op: Operator,
    tol: float = DEFAULT_TOL,
    *,
    residual_trials: int = DEFAULT_RESIDUAL_TRIALS,
    seed: int = DEFAULT_RECOVER_SEED,
) -> RecoveryReport:
    """Reconstruct the automorphism and conjugation flag behind a conforming operator.

    Raises NotEssentiallyFourierError (or its DichotomyViolationError
    subclass) as soon as a structural check fails; the exception names the
    failing stage and carries the offending data.
    """
    _require_checkable(op)
    group = op.group
    n = group.size

    # Stage 1: constants must be preserved.
    u_one = _primal_rows(op, np.ones((1, n), dtype=np.complex128))
    unit_error = float(_worst(np.abs(u_one - 1.0)))
    if unit_error > tol:
        raise NotEssentiallyFourierError(
            "unit-preservation",
            f"U(1) deviates from 1 by {unit_error:.3e} (tol {tol:.1e})",
            max_error=unit_error,
        )

    # Stage 2: each transformed point mass must be a {0,1} indicator of a single point.
    phi = np.empty(n, dtype=np.int64)
    binary_error = 0.0
    for start, stop in _blocks(n, n):
        images = _primal_rows(op, _point_masses(n, start, stop))
        deviation = _worst(np.minimum(np.abs(images), np.abs(images - 1.0)), axis=1)
        near_one = np.abs(images - 1.0) <= tol
        failing = np.flatnonzero((deviation > tol) | (near_one.sum(axis=1) != 1))
        if failing.size:
            row = int(failing[0])
            x, worst = start + row, float(deviation[row])
            if worst > tol:
                raise NotEssentiallyFourierError(
                    "point-mass-binary",
                    f"U(delta_{x}) is not {{0,1}}-valued (max deviation {worst:.3e})",
                    x=x,
                    max_deviation=worst,
                )
            supp = np.flatnonzero(near_one[row])
            raise NotEssentiallyFourierError(
                "singleton-support",
                f"U(delta_{x}) has support of size {supp.size}, expected a single point",
                x=x,
                support=tuple(int(j) for j in supp),
            )
        binary_error = max(binary_error, float(deviation.max()))
        phi[start:stop] = near_one.argmax(axis=1)

    # Stage 3: the support map must be an automorphism; its inverse is psi.
    if np.bincount(phi, minlength=n).max() != 1:
        seen: dict[int, int] = {}
        collision = (0, 0)
        for x, v in enumerate(phi):
            if int(v) in seen:
                collision = (seen[int(v)], x)
                break
            seen[int(v)] = x
        raise NotEssentiallyFourierError(
            "support-map-bijection",
            f"point masses at {collision[0]} and {collision[1]} map to the same support",
            pair=collision,
        )
    if phi[0] != 0:
        raise NotEssentiallyFourierError(
            "identity-not-fixed",
            f"the support map sends the identity to index {int(phi[0])}",
            image=int(phi[0]),
        )
    violation = find_additivity_violation(phi, group)
    if violation is not None:
        raise NotEssentiallyFourierError(
            "homomorphism",
            f"support map is not additive on the pair {violation}",
            pair=violation,
        )
    psi_perm = np.empty(n, dtype=np.int64)
    psi_perm[phi] = np.arange(n, dtype=np.int64)
    psi = Automorphism(group, tuple(int(p) for p in psi_perm))

    # Stage 4: the scalar map, read off constants, must be constant in x and
    # must send i to one of +-i.
    m_cache: dict[complex, complex] = {}
    independence_error = 0.0

    def m_at(alpha: complex) -> complex:
        nonlocal independence_error
        alpha = complex(alpha)
        if alpha in m_cache:
            return m_cache[alpha]
        values = _primal_rows(op, np.full((1, n), alpha, dtype=np.complex128))[0]
        m_value = complex(values[0])
        deviation = float(_worst(np.abs(values - m_value)))
        independence_error = max(independence_error, deviation)
        if deviation > tol:
            raise NotEssentiallyFourierError(
                "scalar-independence",
                f"U({alpha} * 1) is not constant (max deviation {deviation:.3e})",
                alpha=alpha,
                deviation=deviation,
            )
        m_cache[alpha] = m_value
        return m_value

    m_samples = [(alpha, m_at(alpha)) for alpha in PROBE_SCALARS]
    m_i = m_at(1j)
    if abs(m_i - 1j) <= tol:
        conjugation = False
    elif abs(m_i + 1j) <= tol and abs(m_i + 1j) < abs(m_i - 1j):
        conjugation = True
    else:
        raise DichotomyViolationError(
            "dichotomy",
            f"m(i) = {m_i} matches neither i nor -i at tolerance {tol:.1e}",
            m_i=m_i,
        )

    def scalar_image(z: np.ndarray | complex):
        return np.conj(z) if conjugation else z

    probe_dichotomy_error = float(
        _worst(np.array([abs(m_value - scalar_image(alpha)) for alpha, m_value in m_samples]))
    )
    if probe_dichotomy_error > tol:
        raise DichotomyViolationError(
            "dichotomy-cross-validation",
            f"a probe scalar deviates from the {'conjugation' if conjugation else 'identity'} "
            f"branch by {probe_dichotomy_error:.3e}",
            max_error=probe_dichotomy_error,
        )

    m_mult_errors = []
    m_conj_add_errors = []
    for alpha in PROBE_SCALARS:
        for beta in PROBE_SCALARS:
            m_mult_errors.append(abs(m_at(alpha * beta) - m_at(alpha) * m_at(beta)))
            m_conj_add_errors.append(
                abs(m_at(alpha + beta.conjugate()) - m_at(alpha) - m_at(beta).conjugate())
            )

    # Stage 5: residual of U(f) against the reconstructed model on scaled point
    # masses and seeded random functions, plus the vanishing correspondence
    # between f(x) and U(f)(phi(x)) on the point-mass probes.
    perm = psi.perm_array
    residual_point = 0.0
    condition_star_ok = True
    for alpha in PROBE_SCALARS:
        for start, stop in _blocks(n, n):
            probes = _point_masses(n, start, stop, alpha)
            images, residual = _model_residual(op, probes, perm, conjugation)
            residual_point = max(residual_point, residual)
            magnitude = np.abs(images)
            support_tol = DEFAULT_SUPPORT_TOL_FACTOR * magnitude.max(axis=1)
            rows, targets = np.arange(stop - start), phi[start:stop]
            on_point = magnitude[rows, targets]
            magnitude[rows, targets] = 0.0
            off_point = magnitude.max(axis=1)
            if not np.all((on_point > support_tol) & (off_point <= support_tol)):
                condition_star_ok = False

    rng = np.random.default_rng(seed)
    residual_random = 0.0
    for start, stop in _blocks(residual_trials, n):
        _, residual = _model_residual(
            op, _random_rows(group, rng, stop - start), perm, conjugation
        )
        residual_random = max(residual_random, residual)

    diagnostics = {
        "unit_error": unit_error,
        "point_mass_binary_error": binary_error,
        "supports_singleton": True,
        "identity_fixed": True,
        "homomorphism_ok": True,
        "homomorphism_exhaustive": n <= EXHAUSTIVE_PAIR_LIMIT,
        "scalar_independence_error": independence_error,
        "probe_dichotomy_error": probe_dichotomy_error,
        "m_multiplicativity_error": float(_worst(np.array(m_mult_errors))),
        "m_conjugate_additivity_error": float(_worst(np.array(m_conj_add_errors))),
        "condition_star_ok": condition_star_ok,
        "residual_point_masses": residual_point,
        "residual_random": residual_random,
    }
    return RecoveryReport(
        psi=psi,
        conjugation=conjugation,
        residual=max(residual_point, residual_random),
        m_samples=m_samples,
        diagnostics=diagnostics,
        tol=tol,
        seed=seed,
    )


@np.errstate(over="ignore", invalid="ignore")
def verify_recovery(
    op: Operator,
    report: RecoveryReport,
    trials: int = 32,
    seed: int = 905,
) -> float:
    """Independent residual of the operator against a report's model.

    Probes every point mass plus ``trials`` fresh random functions, so a
    report carrying the wrong automorphism shows an order-one residual.
    """
    _require_checkable(op)
    group = op.group
    if report.psi.group != group:
        raise SideMismatchError("report and operator live on different groups")
    n = group.size
    perm = report.psi.perm_array
    residual = 0.0
    for start, stop in _blocks(n, n):
        probes = _point_masses(n, start, stop)
        residual = max(residual, _model_residual(op, probes, perm, report.conjugation)[1])
    rng = np.random.default_rng(seed)
    for start, stop in _blocks(trials, n):
        probes = _random_rows(group, rng, stop - start)
        residual = max(residual, _model_residual(op, probes, perm, report.conjugation)[1])
    return residual
