"""Hypothesis checking and constructive recovery for transform-like operators.

``check_hypotheses`` measures how far an operator is from the four algebraic
identities that characterize the reference family:

  (a) additivity against the involution: F(f + g*) = F(f) + [F(g)]*,
      with each side's own involution;
  (b) the product law: primal->dual operators must send pointwise products to
      convolutions (output-side weight); primal->primal operators must
      preserve pointwise products;
  (c) the convolution law: primal->dual operators must send convolutions
      (input-side weight) to pointwise products; primal->primal operators
      must preserve convolutions;
  (d) the unit law: F(1) is the unit of the output algebra, so its primal
      image (through the inverse transform for primal->dual operators) is 1.

The zero operator satisfies (a)-(c) exactly; (d) rules it out.  This is the
paper's argument (arXiv 1604.07533) read on the primal side: a
(conjugate-)linear unital map that preserves pointwise products is
f -> f o sigma for a map sigma of the group, and preserving convolution then
forces sigma to be a bijective homomorphism.  (d) and ``recover``'s first
step share one probe of the constant 1, ``_unit_error``.

``recover`` reduces a primal->dual operator to a primal->primal one through the
inverse transform and runs the eleven steps its docstring lists.  The constants go
in one batch: the probe scalars, then the products and conjugate sums the
scalar-map laws need.  A dense operator's image of alpha * 1 is s * U(1) with s
= ``point_mass_scale(alpha)``, so its constants are scaled off the image of 1
that stage 1 probes, with no further matrix product.  Its last stage,
``model-fit``, scores the operator against the model f -> conj?(f o psi).  The
unit point masses are probed once: stage 2 reads the support map off them, and
the fit scales their statistics.  ``verify_recovery`` probes its own unit point
masses; only the random probes, ``_random_fit``, are shared.  Every verdict
compares an error with tol through one rule, ``_passes``.

Probes reach the operator in blocks of rows.  Unit point masses go through
``Operator.apply_point_masses``, which reads a dense operator's columns, so
each costs O(size); every other probe (the constant 1, random functions,
sums, and an apply function's scaled point masses and other constants) goes
through ``Operator.apply_batch``, which a dense operator answers in one call.
``_to_primal`` then takes T-form images back to the primal side with one
inverse transform.  An operator given only by its apply function is called
once per probe, in order, either way.  The exhaustive branch of
``check_hypotheses`` transforms each of the n point-mass images once.  (b) and
(c) are symmetric in the pair and floating-point products commute, so they take
y >= x0 for a run of x from x0, with the same errors: about n(n+1)/2 transforms.
A dense operator's image of delta_x + delta_y* is the sum of columns x and -y,
so its error of (a), U(delta_-y) - U(delta_y)* up to rounding whatever x, is
taken once; an apply function need not be additive, so it is sent all n^2
ordered pairs.
Every probe family streams in blocks of about ``_BLOCK_ELEMENTS`` values, each
reduced to per-probe scalars before the next is built, so memory stays flat and
every stage still fails at the first offending point mass.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DichotomyViolationError,
    GroupMismatchError,
    NotEssentiallyFourierError,
)
from .functions import PRIMAL, _random_rows, haar_weight, point_mass_rows, star_values
from .groups import Automorphism, as_int, find_additivity_violation
from .operators import Operator, T_FORM
from .transform import _dft_values, convolve_values

PROBE_SCALARS: tuple[complex, ...] = (1 + 0j, -1 + 0j, 1j, 2 + 0j, 0.5 + 0j, 1 + 1j)

DEFAULT_TOL = 1e-9
# An entry counts as off a point mass's support at or below this fraction of its largest magnitude.
DEFAULT_SUPPORT_TOL_FACTOR = 1e-12
RECOVER_TOL_BOUND = 0.5  # from 1/2 up, an entry can be within tol of both 0 and 1
DEFAULT_CHECK_TRIALS = 16
DEFAULT_RESIDUAL_TRIALS = 32
DEFAULT_RECOVER_SEED = 1789
DEFAULT_VERIFY_SEED = 905
_EXHAUSTIVE_PAIR_BUDGET = 4096
# Values per probe block: 32 probes at size 1024.
_BLOCK_ELEMENTS = 1 << 15
# The recover steps that decide whether the scalar map is the identity or conjugation.
_DICHOTOMY_STEPS = frozenset({"dichotomy", "dichotomy-cross-validation", "scalar-map-laws"})


@dataclass(frozen=True)
class HypothesisReport:
    """Largest observed violation of each identity, with pass flags at a tolerance."""

    max_err_a: float
    max_err_b: float
    max_err_c: float
    max_err_d: float
    trials: int
    seed: int
    tol: float

    @property
    def pass_a(self) -> bool:
        return _passes(self.max_err_a, self.tol)

    @property
    def pass_b(self) -> bool:
        return _passes(self.max_err_b, self.tol)

    @property
    def pass_c(self) -> bool:
        return _passes(self.max_err_c, self.tol)

    @property
    def pass_d(self) -> bool:
        return _passes(self.max_err_d, self.tol)

    @property
    def passed(self) -> bool:
        return self.pass_a and self.pass_b and self.pass_c and self.pass_d

    def as_dict(self) -> dict:
        return {
            "a": self.max_err_a,
            "b": self.max_err_b,
            "c": self.max_err_c,
            "d": self.max_err_d,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "pass_a": self.pass_a,
            "pass_b": self.pass_b,
            "pass_c": self.pass_c,
            "pass_d": self.pass_d,
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


def _require_tolerance(tol: float, bound: float = np.inf) -> float:
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < bound or tol > sys.float_info.max:
        below = "" if bound == np.inf else f" and < {bound}"
        raise ValueError(f"tol must be a finite number >= 0{below}, got {tol!r}")
    return float(tol)


def _passes(error, tol: float) -> bool | np.ndarray:
    """The rule behind every verdict: an error passes at or below ``tol`` (a bool, or an array's mask).
    tol is finite and NaN compares false, so no non-finite error passes; the public checks therefore
    silence numpy's overflow and invalid-value warnings, which a huge or non-finite operator raises."""
    return error <= tol if np.ndim(error) else bool(error <= tol)


def _require(passed: bool, step: str, message: str, **details) -> None:
    """Raise ``step``'s error unless ``passed``: DichotomyViolationError for the
    dichotomy steps, NotEssentiallyFourierError for every other step."""
    if not passed:
        error = DichotomyViolationError if step in _DICHOTOMY_STEPS else NotEssentiallyFourierError
        raise error(step, message, **details)


def _worst(errors: np.ndarray, axis: int | None = None):
    """Largest error (along ``axis``), with NaN counted as an infinite error."""
    largest = np.max(errors, axis=axis, initial=0.0)
    return np.where(np.isnan(largest), np.inf, largest)


def _blocks(count: int, size: int):
    """(start, stop) ranges over ``count`` probes of ``size`` values, in order."""
    step = max(1, _BLOCK_ELEMENTS // size)
    return ((start, min(start + step, count)) for start in range(0, count, step))


def _to_primal(op: Operator, images: np.ndarray) -> np.ndarray:
    """Operator images as images under the primal->primal map: unchanged for
    U-form, with the inverse transform composed on top for T-form."""
    return _dft_values(images, op.group, inverse=True) if op.form == T_FORM else images


def _unit_error(op: Operator) -> tuple[np.ndarray, float]:
    """The operator's image of the constant 1, a (1, size) row, and the largest
    deviation of its primal image from 1: U(1) must be the output algebra's unit."""
    unit_image = op.apply_batch(np.ones((1, op.group.size), dtype=np.complex128))
    return unit_image, float(_worst(np.abs(_to_primal(op, unit_image) - 1.0)))


def _scalar_map(op: Operator, alphas, tol: float, unit_image: np.ndarray) -> tuple[dict[complex, complex], float]:
    """m(alpha) for each scalar, read off the primal images of the constants
    alpha * 1, and the worst deviation of those images from constants.  Raises
    at the first alpha whose image is not constant.

    ``unit_image`` is the operator's own image of 1, a (1, size) row.  A dense
    operator's image of alpha * 1 is that row times s = ``op.point_mass_scale(alpha)``,
    scaled before the inverse transform as a probe's image would be, so no
    matrix product is made; an operator given by its apply function gets the
    constants as one batch."""
    if op.point_mass_scale(1) is None:
        constants = np.array(alphas, dtype=np.complex128)[:, None]
        images = op.apply_batch(np.repeat(constants, op.group.size, axis=1))
    else:
        images = np.array([op.point_mass_scale(alpha) for alpha in alphas])[:, None] * unit_image
    images = _to_primal(op, images)
    deviations = _worst(np.abs(images - images[:, :1]), axis=1)
    passed = _passes(deviations, tol)
    first = int(passed.argmin())
    alpha, deviation = alphas[first], float(deviations[first])
    _require(passed[first], "scalar-independence", f"U({alpha} * 1) is not constant (max deviation {deviation:.3e})",
             alpha=alpha, deviation=deviation)
    return dict(zip(alphas, (complex(v) for v in images[:, 0]))), float(_worst(deviations))


def _point_mass_blocks(op: Operator, alpha: complex = 1.0, phi: np.ndarray | None = None):
    """(start, images, targets, on_value, off_point) for each block of primal
    images of alpha * delta_x: each row's target is phi[x], or its largest entry
    without phi, and its statistics are its value there and its largest magnitude off it."""
    n = op.group.size
    for start, stop in _blocks(n, n):
        if alpha == 1:
            images = op.apply_point_masses(start, stop)
        else:
            images = op.apply_batch(point_mass_rows(n, start, stop, alpha))
        images = _to_primal(op, images)
        magnitude = np.abs(images)
        targets = magnitude.argmax(axis=1) if phi is None else phi[start:stop]
        rows = np.arange(stop - start)
        on_value = images[rows, targets]
        magnitude[rows, targets] = 0.0
        yield start, images, targets, on_value, magnitude.max(axis=1)


def _reject_point_mass(image, tol: float, x: int) -> None:
    """Raise stage 2's per-entry rule on U(delta_x), a row that failed the magnitude pass: with tol
    below 1/2 it is not {0,1}-valued or has no single entry within tol of 1, and the error names which."""
    distance_to_one = np.abs(image - 1.0)
    worst = float(_worst(np.minimum(np.abs(image), distance_to_one)))
    _require(_passes(worst, tol), "point-mass-binary", f"U(delta_{x}) is not {{0,1}}-valued (max deviation {worst:.3e})",
             x=x, max_deviation=worst)
    supp = np.flatnonzero(_passes(distance_to_one, tol))
    _require(False, "singleton-support", f"U(delta_{x}) has support of size {supp.size}, expected a single point",
             x=x, support=tuple(int(j) for j in supp))


def _score_point_masses(on_value, off_point, expected) -> tuple[float, bool]:
    """Worst residual of point-mass images, given by their statistics, against
    the model entry ``expected`` at the target and zero off it, and whether
    condition star holds on them."""
    on_point = np.abs(on_value)
    support_tol = DEFAULT_SUPPORT_TOL_FACTOR * np.maximum(on_point, off_point)
    worst = _worst(np.maximum(np.abs(on_value - expected), off_point))
    return float(worst), bool(np.all((on_point > support_tol) & (off_point <= support_tol)))


def _random_fit(op: Operator, psi: Automorphism, conjugation: bool, seed: int, tol: float) -> tuple[float | None, bool]:
    """Worst residual against the model f -> conj?(f o psi) on ``DEFAULT_RESIDUAL_TRIALS``
    random functions drawn from ``seed``, and whether each f's is within tol * sum|f|.

    A dense operator whose flag is ``conjugation`` is linear (or conjugate-linear)
    as the model is, so the unit point masses fix their difference E, and
    |E f| <= max|E| * sum|f| for every f: it gets no random function (None, True).
    A wrong flag, which the real scalar 1 cannot show, or an apply function does."""
    if op.point_mass_scale(1j) == (-1j if conjugation else 1j):
        return None, True
    perm = psi.perm_array
    rng = np.random.default_rng(seed)
    residual, fits = 0.0, True
    for start, stop in _blocks(DEFAULT_RESIDUAL_TRIALS, op.group.size):
        probes = _random_rows(op.group, rng, stop - start)
        images = _to_primal(op, op.apply_batch(probes))
        expected = np.conj(probes[:, perm]) if conjugation else probes[:, perm]
        errors = _worst(np.abs(images - expected), axis=1)
        residual = max(residual, float(errors.max()))
        fits &= bool(_passes(errors, tol * np.abs(probes).sum(axis=1)).all())
    return residual, fits


def _law_errors(op, op_f, op_g, hat_f, hat_g, lhs, weight) -> list:
    """Largest deviation of the product law (b) and the convolution law (c)
    over a block of probe pairs (f, g), NaN where any deviation is NaN.  ``check_hypotheses``
    calls it on its random pairs only; its own loop takes the point-mass pairs.

    The arguments broadcast together, one pair per broadcast row: ``op_f``
    and ``op_g`` are U(f) and U(g), ``hat_f`` and ``hat_g`` their forward
    transforms, ``weight`` the output side's Haar weight, and ``lhs`` the
    images of f g and f conv g in the broadcast shape, overwritten in place."""
    convolution = _dft_values(hat_f * hat_g, op.group, inverse=True)
    convolution *= weight
    product = op_f * op_g
    rhs = (convolution, product) if op.form == T_FORM else (product, convolution)
    for left, right in zip(lhs, rhs):
        left -= right
    return [np.abs(left).max() for left in lhs]


@np.errstate(over="ignore", invalid="ignore")
def check_hypotheses(
    op: Operator,
    trials: int = DEFAULT_CHECK_TRIALS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> HypothesisReport:
    """Probe identity (d) on the constant 1, and (a)-(c) on point-mass pairs and random functions.

    Point-mass pairs are exhausted whenever size^2 is at most
    ``_EXHAUSTIVE_PAIR_BUDGET``, (a) on all size^2 ordered pairs and (b) and (c),
    symmetric in the pair, on the size(size+1)/2 unordered ones; on top of that,
    ``trials`` seeded pairs of complex-Gaussian functions are checked.  The report
    carries the worst deviation per identity; nothing raises.  No other constant is
    probed, so an operator that breaks linearity only on constants passes: an
    identity that sends the constant 4 to 4.5 passes here, and ``recover``
    rejects it at ``scalar-map-laws``.
    """
    tol = _require_tolerance(tol)
    trials = as_int(trials, ValueError, "trials", minimum=1)
    seed = as_int(seed, ValueError, "seed", minimum=0)
    group = op.group
    n = group.size
    block_errors = []
    _, err_d = _unit_error(op)

    weight, out_weight = haar_weight(group, PRIMAL), haar_weight(group, op.output_side)
    if n * n <= _EXHAUSTIVE_PAIR_BUDGET:
        # A block is a run of x from x0: (a) takes every y; (b) and (c) take y >= x0, 2 n^2 values an x-row.
        op_delta = op.apply_point_masses(0, n)
        hat_delta = _dft_values(op_delta, group)
        star_delta = star_values(op_delta, group, op.output_side)
        op_zero = op.apply_batch(np.zeros((1, n), dtype=np.complex128))
        sums = group.add_index(*np.indices((n, n)))
        points = point_mass_rows(n, 0, n)
        star_points = star_values(points, group, PRIMAL)
        # delta_y* is the point mass at -y, so a dense operator's image of delta_x + delta_y*
        # is column x plus column -y: (a) errs by U(delta_-y) - U(delta_y)* whatever x.
        dense = op.point_mass_scale(1) is not None
        err_a = np.abs(op_delta[group.negation_perm] - star_delta).max() if dense else None
        for x0, x1 in _blocks(n, 2 * n * n):
            op_x, hat_x = op_delta[x0:x1, None], hat_delta[x0:x1, None]
            if not dense:
                op_sum = op.apply_batch((points[x0:x1, None] + star_points).reshape(-1, n))
                err_a = np.abs(op_sum - (op_x + star_delta).reshape(-1, n)).max()
            convolution = _dft_values(hat_x * hat_delta[x0:], group, inverse=True)
            convolution *= out_weight
            product = op_x * op_delta[x0:]
            rhs_b, rhs_c = (convolution, product) if op.form == T_FORM else (product, convolution)
            # delta_x delta_y is exactly delta_x if y = x and zero otherwise, and the primal
            # convolution of the pair is exactly the point mass at x + y.
            on_diagonal = np.diagonal(rhs_b).T - op_delta[x0:x1]
            rhs_b -= op_zero
            rhs_b[np.diag_indices(x1 - x0)] = on_diagonal
            rhs_c -= op_delta[sums[x0:x1, x0:]]
            block_errors.append([err_a, np.abs(rhs_b).max(), np.abs(rhs_c).max()])

    rng = np.random.default_rng(seed)
    for start, stop in _blocks(trials, n):
        draws = _random_rows(group, rng, 2 * (stop - start))
        f, g = draws[0::2], draws[1::2]
        # The five probe sets reach the operator as one batch, in this order.
        probes = [f, g, f * g, convolve_values(f, g, group, weight), f + star_values(g, group, PRIMAL)]
        op_f, op_g, op_prod, op_conv, op_sum = np.split(op.apply_batch(np.concatenate(probes)), 5)
        hat_f, hat_g = _dft_values(op_f, group), _dft_values(op_g, group)
        err_a = np.abs(op_sum - (op_f + star_values(op_g, group, op.output_side))).max()
        block_errors.append([err_a, *_law_errors(op, op_f, op_g, hat_f, hat_g, (op_prod, op_conv), out_weight)])

    err_a, err_b, err_c = (float(e) for e in _worst(np.array(block_errors), axis=0))
    return HypothesisReport(err_a, err_b, err_c, err_d, trials, seed, tol)


@np.errstate(over="ignore", invalid="ignore")
def recover(op: Operator, tol: float = DEFAULT_TOL) -> RecoveryReport:
    """Reconstruct the automorphism and conjugation flag behind a conforming operator.

    The steps run in this order, and the first that fails raises an exception
    that names it (``step``) and carries the offending data (``details``):
    ``unit-preservation``, ``point-mass-binary``, ``singleton-support``,
    ``support-map-bijection``, ``identity-not-fixed``, ``homomorphism``,
    ``scalar-independence``, ``dichotomy``, ``dichotomy-cross-validation``,
    ``scalar-map-laws`` and ``model-fit``.  The three dichotomy steps, which
    decide whether the scalar map is the identity or conjugation, raise
    DichotomyViolationError; the others raise NotEssentiallyFourierError, its
    base class.  So an accepted operator is within tol of the returned model on
    every unit point mass, within |alpha| * tol on each other probed alpha *
    delta_x, and within tol * sum|f| on each random f it was sent.  ``tol`` must
    lie in [0, 1/2), where a point-mass image is unambiguously {0,1}-valued, or
    ValueError is raised.
    """
    tol = _require_tolerance(tol, RECOVER_TOL_BOUND)
    group = op.group
    n = group.size

    # Stage 1: constants must be preserved.
    unit_image, unit_error = _unit_error(op)
    _require(_passes(unit_error, tol), "unit-preservation", f"U(1) deviates from 1 by {unit_error:.3e} (tol {tol:.1e})",
             max_error=unit_error)

    # Stage 2: each transformed point mass must be a {0,1} indicator of a single
    # point.  These images are also the model fit's probes 1 * delta_x, and the
    # support map phi is psi^-1 once stage 3 passes, so their statistics
    # against phi are kept for the fit: two values per point mass.
    binary_error = 0.0
    kept = []
    for start, images, targets, on, off in _point_mass_blocks(op):
        deviation = np.maximum(np.abs(on - 1.0), off)
        passed = _passes(deviation, tol)
        if not passed.all():
            row = int(passed.argmin())
            _reject_point_mass(images[row], tol, start + row)
        binary_error = max(binary_error, float(deviation.max()))
        kept.append((targets, on, off))
    phi, on_value, off_point = (np.concatenate(parts) for parts in zip(*kept))

    # Stage 3: the support map must be an automorphism; its inverse is psi.
    # The first repeat is the first index that is not a first occurrence.
    _, first = np.unique(phi, return_index=True)
    if first.size != n:
        x = int(np.setdiff1d(np.arange(n), first)[0])
        collision = (int((phi == phi[x]).argmax()), x)
        _require(False, "support-map-bijection",
                 f"point masses at {collision[0]} and {collision[1]} map to the same support", pair=collision)
    _require(phi[0] == 0, "identity-not-fixed", f"the support map sends the identity to index {int(phi[0])}",
             image=int(phi[0]))
    violation = find_additivity_violation(phi, group)
    _require(violation is None, "homomorphism", f"support map is not additive on the pair {violation}", pair=violation)
    psi = Automorphism(group, np.argsort(phi))

    # Stage 4: the scalar map m, read off constants, must be constant in x, must
    # send i to one of +-i and must obey the scalar laws on the probe scalars:
    # m(a b) = m(a) m(b) and m(a + conj b) = m(a) + conj m(b).  The constants
    # go in one batch: the probe scalars, then the products and conjugate sums.
    # A dense operator's batch is stage 1's image of 1, scaled.
    pairs = [(alpha, beta) for alpha in PROBE_SCALARS for beta in PROBE_SCALARS]
    scalars = list(dict.fromkeys([*PROBE_SCALARS, *(z for a, b in pairs for z in (a * b, a + b.conjugate()))]))
    m, independence_error = _scalar_map(op, scalars, tol, unit_image)
    m_samples = [(alpha, m[alpha]) for alpha in PROBE_SCALARS]
    m_i = m[1j]
    conjugation = _passes(abs(m_i + 1j), tol)  # tol is below 1/2, so at most one of i and -i is within tol of m(i)
    _require(conjugation or _passes(abs(m_i - 1j), tol), "dichotomy",
             f"m(i) = {m_i} matches neither i nor -i at tolerance {tol:.1e}", m_i=m_i)
    probe_dichotomy_error = float(
        _worst(np.array([abs(m[a] - (a.conjugate() if conjugation else a)) for a in PROBE_SCALARS]))
    )
    _require(_passes(probe_dichotomy_error, tol), "dichotomy-cross-validation",
             f"a probe scalar deviates from the {'conjugation' if conjugation else 'identity'} "
             f"branch by {probe_dichotomy_error:.3e}", max_error=probe_dichotomy_error)

    mult_error = float(_worst(np.array([abs(m[a * b] - m[a] * m[b]) for a, b in pairs])))
    conj_add_error = float(_worst(np.array([abs(m[a + b.conjugate()] - m[a] - m[b].conjugate()) for a, b in pairs])))
    _require(_passes(max(mult_error, conj_add_error), tol), "scalar-map-laws",
             f"the scalar map breaks multiplicativity by {mult_error:.3e} "
             f"and conjugate additivity by {conj_add_error:.3e}", max_error=max(mult_error, conj_add_error))

    # Stage 5: the model fit, and condition star, on alpha * delta_x for each probe scalar, whose
    # model image is conj?(alpha) at phi(x).  The unit scalar, and every scalar of a dense operator,
    # are stage 2's statistics times s, which stage 2 judged; an apply function's other scalars
    # are probed and judged within |alpha| * tol.  Then seeded random functions.
    residual_point, condition_star_ok, fits = 0.0, True, True
    for alpha in PROBE_SCALARS:
        scale = 1 if alpha == 1 else op.point_mass_scale(alpha)
        if scale is None:
            stats = ((on, off) for *_, on, off in _point_mass_blocks(op, alpha, phi))
        else:
            stats = [(scale * on_value, abs(scale) * off_point)]
        for on, off in stats:
            worst, star_ok = _score_point_masses(on, off, np.conj(alpha) if conjugation else alpha)
            residual_point, condition_star_ok = max(residual_point, worst), condition_star_ok and star_ok
            fits &= scale is not None or _passes(worst, abs(alpha) * tol)
    residual_random, random_fits = _random_fit(op, psi, conjugation, DEFAULT_RECOVER_SEED, tol)
    residual = max(residual_point, residual_random or 0.0)
    _require(fits and random_fits, "model-fit", f"U deviates from the recovered model by {residual:.3e}, "
             f"beyond tol {tol:.1e} times |alpha| on alpha * delta_x or sum|f| on a random f",
             residual_point_masses=residual_point, residual_random=residual_random)

    diagnostics = {
        "unit_error": unit_error,
        "point_mass_binary_error": binary_error,
        "supports_singleton": True,
        "identity_fixed": True,
        "homomorphism_ok": True,
        "homomorphism_exhaustive": True,
        "scalar_independence_error": independence_error,
        "probe_dichotomy_error": probe_dichotomy_error,
        "m_multiplicativity_error": mult_error,
        "m_conjugate_additivity_error": conj_add_error,
        "condition_star_ok": condition_star_ok,
        "residual_point_masses": residual_point,
        "residual_random": residual_random,
    }
    return RecoveryReport(
        psi=psi,
        conjugation=conjugation,
        residual=residual,
        m_samples=m_samples,
        diagnostics=diagnostics,
        tol=tol,
        seed=DEFAULT_RECOVER_SEED,
    )


@np.errstate(over="ignore", invalid="ignore")
def verify_recovery(op: Operator, report: RecoveryReport) -> float:
    """Independent residual of the operator against a report's model on every
    point mass, and on ``DEFAULT_RESIDUAL_TRIALS`` random functions seeded with
    ``DEFAULT_VERIFY_SEED``, so a wrong automorphism or flag shows an order-one
    residual.  A dense operator whose flag is the report's gets no random
    function: its point masses fix it (``_random_fit``)."""
    if report.psi.group != op.group:
        raise GroupMismatchError("report and operator live on different groups")
    phi = np.argsort(report.psi.perm_array)
    point = max(_score_point_masses(on, off, 1.0)[0] for *_, on, off in _point_mass_blocks(op, 1.0, phi))
    random, _ = _random_fit(op, report.psi, report.conjugation, DEFAULT_VERIFY_SEED, report.tol)
    return max(point, random or 0.0)
