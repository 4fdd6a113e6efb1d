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
classifies it as either the identity or complex conjugation.  The constants
go in two batches: the probe scalars, then the products and conjugate sums
the scalar-map laws need.  Its last stage and ``verify_recovery`` score the
operator against the model f -> conj?(f o psi) in one shared fit: the model
image of alpha * delta_x is the single entry conj?(alpha) at psi^-1(x), so
each point-mass image is scored at that entry and off it.

Probes reach the operator in blocks of rows.  Scaled point masses go through
``Operator.apply_point_masses``, which reads a dense operator's columns, so
each costs O(size); every other probe (constants, random functions, sums)
goes through ``Operator.apply_batch``, which a dense operator answers with one
matrix product.  An operator given only by its apply function is called once
per probe, in order, either way.  Point-mass probes stream in fixed blocks of
about ``_BLOCK_ELEMENTS`` values, each reduced to per-probe scalars before the
next is built, so memory stays flat and every stage still fails at the first
offending point mass.  Any non-finite error counts as an infinite one, so NaN
never passes a check; the public checks therefore silence numpy's overflow
and invalid-value warnings, which a huge or non-finite operator raises and
which would say nothing more.
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
from .groups import Automorphism, Group, find_additivity_violation
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


def _random_rows(group: Group, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` seeded random functions as rows, drawn in order."""
    return np.stack([random_function(group, rng).values for _ in range(count)])


def _to_primal(op: Operator, images: np.ndarray) -> np.ndarray:
    """Operator images as images under the primal->primal map: unchanged for
    U-form, with the inverse transform composed on top for T-form."""
    return _idft_values(images, op.group) if op.form == T_FORM else images


def _primal_rows(op: Operator, rows: np.ndarray) -> np.ndarray:
    """Images of probe rows under the primal->primal map."""
    return _to_primal(op, op.apply_batch(rows))


def _scalar_map(op: Operator, alphas, tol: float) -> tuple[dict[complex, complex], float]:
    """m(alpha) for each scalar, read off the primal images of the constants
    alpha * 1 probed as one batch, and the worst deviation of those images
    from constants.  Raises at the first alpha whose image is not constant."""
    constants = np.array(alphas, dtype=np.complex128)[:, None]
    images = _primal_rows(op, np.repeat(constants, op.group.size, axis=1))
    deviations = _worst(np.abs(images - images[:, :1]), axis=1)
    for alpha, deviation in zip(alphas, deviations):
        if deviation > tol:
            raise NotEssentiallyFourierError(
                "scalar-independence",
                f"U({alpha} * 1) is not constant (max deviation {deviation:.3e})",
                alpha=alpha,
                deviation=float(deviation),
            )
    return dict(zip(alphas, (complex(v) for v in images[:, 0]))), float(_worst(deviations))


def _model_fit(
    op: Operator, psi: Automorphism, conjugation: bool, scalars, trials: int, seed: int
) -> tuple[float, bool, float]:
    """Worst residual against the model f -> conj?(f o psi) on the point masses
    alpha * delta_x (alpha in ``scalars``), whether condition star holds on
    them, and the worst residual on ``trials`` seeded random functions.  The
    model image of alpha * delta_x is the single entry conj?(alpha) at phi(x),
    phi = psi^-1, so each image is scored at that entry and off it."""
    n = op.group.size
    perm = psi.perm_array
    phi = np.empty(n, dtype=np.int64)
    phi[perm] = np.arange(n, dtype=np.int64)
    residual_point = 0.0
    condition_star_ok = True
    for alpha in scalars:
        expected = np.conj(alpha) if conjugation else alpha
        for start, stop in _blocks(n, n):
            images = _to_primal(op, op.apply_point_masses(start, stop, alpha))
            rows, targets = np.arange(stop - start), phi[start:stop]
            magnitude = np.abs(images)
            support_tol = DEFAULT_SUPPORT_TOL_FACTOR * magnitude.max(axis=1)
            on_point = magnitude[rows, targets]
            magnitude[rows, targets] = 0.0
            off_point = magnitude.max(axis=1)
            worst = _worst(np.maximum(np.abs(images[rows, targets] - expected), off_point))
            residual_point = max(residual_point, float(worst))
            condition_star_ok &= bool(np.all((on_point > support_tol) & (off_point <= support_tol)))

    rng = np.random.default_rng(seed)
    residual_random = 0.0
    for start, stop in _blocks(trials, n):
        probes = _random_rows(op.group, rng, stop - start)
        images = _primal_rows(op, probes)
        expected = np.conj(probes[:, perm]) if conjugation else probes[:, perm]
        residual_random = max(residual_random, float(_worst(np.abs(images - expected))))
    return residual_point, condition_star_ok, residual_random


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

    Point-mass pairs are exhausted whenever size^2 is at most
    ``_EXHAUSTIVE_PAIR_BUDGET``; on top of that, ``trials`` seeded pairs of
    complex-Gaussian functions are checked.  The report carries the worst
    deviation per identity; nothing raises.
    """
    _require_checkable(op)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    group = op.group
    n = group.size
    errors = np.zeros(3)

    if n * n <= _EXHAUSTIVE_PAIR_BUDGET:
        points = np.eye(n, dtype=np.complex128)
        op_delta = op.apply_point_masses(0, n)
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
        images = _to_primal(op, op.apply_point_masses(start, stop))
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

    # Stage 4: the scalar map m, read off constants, must be constant in x and
    # must send i to one of +-i.  The probe scalars go in one batch; the
    # products and conjugate sums that the scalar laws need go in a second.
    m, independence_error = _scalar_map(op, PROBE_SCALARS, tol)
    m_samples = [(alpha, m[alpha]) for alpha in PROBE_SCALARS]
    m_i = m[1j]
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
    probe_dichotomy_error = float(
        _worst(np.array([abs(m[a] - (a.conjugate() if conjugation else a)) for a in PROBE_SCALARS]))
    )
    if probe_dichotomy_error > tol:
        raise DichotomyViolationError(
            "dichotomy-cross-validation",
            f"a probe scalar deviates from the {'conjugation' if conjugation else 'identity'} "
            f"branch by {probe_dichotomy_error:.3e}",
            max_error=probe_dichotomy_error,
        )

    pairs = [(alpha, beta) for alpha in PROBE_SCALARS for beta in PROBE_SCALARS]
    derived = dict.fromkeys(z for a, b in pairs for z in (a * b, a + b.conjugate()))
    m_derived, derived_error = _scalar_map(op, [z for z in derived if z not in m], tol)
    m.update(m_derived)
    independence_error = max(independence_error, derived_error)
    m_mult_errors = [abs(m[a * b] - m[a] * m[b]) for a, b in pairs]
    m_conj_add_errors = [abs(m[a + b.conjugate()] - m[a] - m[b].conjugate()) for a, b in pairs]

    # Stage 5: residual of U(f) against the reconstructed model on scaled point
    # masses and seeded random functions, plus condition star on the point masses.
    residual_point, condition_star_ok, residual_random = _model_fit(
        op, psi, conjugation, PROBE_SCALARS, residual_trials, seed
    )

    diagnostics = {
        "unit_error": unit_error,
        "point_mass_binary_error": binary_error,
        "supports_singleton": True,
        "identity_fixed": True,
        "homomorphism_ok": True,
        "homomorphism_exhaustive": True,
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
    if report.psi.group != op.group:
        raise SideMismatchError("report and operator live on different groups")
    point, _, random = _model_fit(op, report.psi, report.conjugation, (1.0,), trials, seed)
    return max(point, random)
