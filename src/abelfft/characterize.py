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

``recover`` reduces a primal->dual operator to a primal->primal one through the
inverse transform and runs the ten steps its docstring lists.  The constants go
in one batch: the probe scalars, then the products and conjugate sums the
scalar-map laws need.  A dense operator's image of alpha * 1 is s * U(1) with s
= ``point_mass_scale(alpha)``, so its constants are scaled off the image of 1
that stage 1 probes, with no further matrix product.  Its last stage and
``verify_recovery`` score the operator against the model f -> conj?(f o psi) in
one shared fit: the model image of alpha * delta_x is the single entry
conj?(alpha) at psi^-1(x), so each point-mass image is scored through two
statistics: its value at that entry and its largest magnitude off it.  One
walker, ``_point_mass_blocks``, yields each block of point-mass images with
those statistics, at phi or at each row's largest entry, for stage 2, the fit
and ``verify_recovery``.  The unit point masses are probed once: stage 2 reads
the support map off them and keeps their statistics for the fit.  A dense
operator's image of alpha * delta_x is s * column x, so the fit scores its five
other scalars off stage 2's statistics times s, with no further transform; an
operator given by its apply function is still probed once per scalar.  Every
verdict compares an error with tol through one rule, ``_passes``.

Probes reach the operator in blocks of rows.  Scaled point masses go through
``Operator.apply_point_masses``, which reads a dense operator's columns, so
each costs O(size); every other probe (the constant 1, random functions,
sums, and an apply function's other constants) goes through
``Operator.apply_batch``, which a dense operator answers in one call.
``_to_primal`` then takes T-form images back to the primal side with one
inverse transform.  An operator given only by its apply function is called
once per probe, in order, either way.  The exhaustive
branch of ``check_hypotheses`` transforms each of the n point-mass images
once, so each of the n^2 pairs costs one inverse transform; each of its
blocks holds every y for a run of x, broadcast into rows, and stays under
``_PAIR_BLOCK_ELEMENTS`` values.  Every other side of (b) and (c) is gathered
from the point-mass images.  A dense operator's image of delta_x + delta_y*
is the sum of columns x and -y, so its error of (a), U(delta_-y) - U(delta_y)*
up to rounding whatever x, is taken once; an apply function need not be
additive, so it is sent delta_x + delta_y* for every pair.  The random branch
sends its five probe sets (f, g, f g, f conv g, f + g*) as one batch per
block.  Point-mass probes stream in fixed blocks of about ``_BLOCK_ELEMENTS``
values, each reduced to per-probe scalars before the next is built, so memory
stays flat and every stage still fails at the first offending point mass.
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
from .functions import PRIMAL, haar_weight, star_values
from .groups import Automorphism, Group, as_int, find_additivity_violation
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
# Values per exhaustive pair block: each complex temporary stays under glibc's
# 128 KiB mmap threshold, so blocks reuse heap memory instead of faulting it in.
_PAIR_BLOCK_ELEMENTS = 1 << 12
# The recover steps that decide whether the scalar map is the identity or conjugation.
_DICHOTOMY_STEPS = frozenset({"dichotomy", "dichotomy-cross-validation", "scalar-map-laws"})


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
        return _passes(self.max_err_a, self.tol)

    @property
    def pass_b(self) -> bool:
        return _passes(self.max_err_b, self.tol)

    @property
    def pass_c(self) -> bool:
        return _passes(self.max_err_c, self.tol)

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


def _blocks(count: int, size: int, budget: int = _BLOCK_ELEMENTS):
    """(start, stop) ranges over ``count`` probes of ``size`` values, in order."""
    step = max(1, budget // size)
    return ((start, min(start + step, count)) for start in range(0, count, step))


def _random_rows(group: Group, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` seeded random functions as rows, drawn in one call but in the
    order, and with the values, of ``count`` calls to ``random_function``."""
    rows = np.empty((count, group.size), dtype=np.complex128)
    rows.real, rows.imag = rng.standard_normal((count, 2, group.size)).transpose(1, 0, 2)
    return rows


def _to_primal(op: Operator, images: np.ndarray) -> np.ndarray:
    """Operator images as images under the primal->primal map: unchanged for
    U-form, with the inverse transform composed on top for T-form."""
    return _dft_values(images, op.group, inverse=True) if op.form == T_FORM else images


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
        images = _to_primal(op, op.apply_point_masses(start, stop, alpha))
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


def _model_fit(
    op: Operator,
    psi: Automorphism,
    conjugation: bool,
    scalars,
    trials: int,
    seed: int,
    unit_stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, bool, float]:
    """Worst residual against the model f -> conj?(f o psi) on the point masses
    alpha * delta_x (alpha in ``scalars``), whether condition star holds on
    them, and the worst residual on ``trials`` seeded random functions.  The
    model image of alpha * delta_x is the single entry conj?(alpha) at phi(x),
    phi = psi^-1, so each image is scored at that entry and off it.

    ``unit_stats`` are the statistics of the primal images of the unit point
    masses 1 * delta_x against phi.  Given them, the fit does not probe the
    unit scalar again, nor any scalar whose images are the unit images times
    s = ``op.point_mass_scale(alpha)``: it scores those from the unit
    statistics times s (|s| off the target).  The inverse transform is linear,
    so this matches probing up to rounding."""
    n = op.group.size
    perm = psi.perm_array
    phi = np.argsort(perm)
    residual_point = 0.0
    condition_star_ok = True
    for alpha in scalars:
        expected = np.conj(alpha) if conjugation else alpha
        scale = 1 if alpha == 1 else op.point_mass_scale(alpha)
        if unit_stats is not None and scale is not None:
            on_value, off_point = unit_stats
            stats = [(scale * on_value, abs(scale) * off_point)]
        else:
            stats = ((on, off) for _, _, _, on, off in _point_mass_blocks(op, alpha, phi))
        for on_value, off_point in stats:
            worst, star_ok = _score_point_masses(on_value, off_point, expected)
            residual_point = max(residual_point, worst)
            condition_star_ok &= star_ok

    rng = np.random.default_rng(seed)
    residual_random = 0.0
    for start, stop in _blocks(trials, n):
        probes = _random_rows(op.group, rng, stop - start)
        images = _to_primal(op, op.apply_batch(probes))
        expected = np.conj(probes[:, perm]) if conjugation else probes[:, perm]
        residual_random = max(residual_random, float(_worst(np.abs(images - expected))))
    return residual_point, condition_star_ok, residual_random


def _law_errors(op, op_f, op_g, hat_f, hat_g, lhs, weight) -> list:
    """Largest deviation of the product law (b) and the convolution law (c)
    over a block of probe pairs (f, g), NaN where any deviation is NaN.

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
    """Probe the three identities on point-mass pairs and random functions.

    Point-mass pairs are exhausted whenever size^2 is at most
    ``_EXHAUSTIVE_PAIR_BUDGET``; on top of that, ``trials`` seeded pairs of
    complex-Gaussian functions are checked.  The report carries the worst
    deviation per identity; nothing raises.  Constants are never probed, so
    an operator that breaks linearity only on constants passes: an identity
    that sends the constant 4 to 4.5 passes here, and ``recover`` rejects it
    at ``scalar-map-laws``.
    """
    tol = _require_tolerance(tol)
    trials = as_int(trials, ValueError, "trials", minimum=1)
    seed = as_int(seed, ValueError, "seed", minimum=0)
    group = op.group
    n = group.size
    block_errors = []

    weight, out_weight = haar_weight(group, PRIMAL), haar_weight(group, op.output_side)
    if n * n <= _EXHAUSTIVE_PAIR_BUDGET:
        # Pair (x, y) is row x * n + y: each block holds every y for a run of x.
        op_delta = op.apply_point_masses(0, n)
        hat_delta = _dft_values(op_delta, group)
        star_delta = star_values(op_delta, group, op.output_side)
        # Row n of images is U(0).  delta_x * delta_y is exactly delta_x or zero,
        # and their primal convolution is exactly the point mass at x + y.
        images = np.concatenate([op_delta, op.apply_batch(np.zeros((1, n), dtype=np.complex128))])
        xs, ys = np.indices((n, n))
        image_rows = np.stack([np.where(xs == ys, xs, n), group.add_index(xs, ys)])
        points = np.eye(n, dtype=np.complex128)
        star_points = star_values(points, group, PRIMAL)
        # delta_y* is the point mass at -y, so a dense operator's image of delta_x + delta_y*
        # is column x plus column -y: (a) errs by U(delta_-y) - U(delta_y)* whatever x.
        dense = op.point_mass_scale(1) is not None
        err_a = np.abs(op_delta[group.negation_perm] - star_delta).max() if dense else None
        for x0, x1 in _blocks(n, n * n, _PAIR_BLOCK_ELEMENTS):
            op_x, hat_x = op_delta[x0:x1, None], hat_delta[x0:x1, None]
            if not dense:
                op_sum = op.apply_batch((points[x0:x1, None] + star_points).reshape(-1, n))
                err_a = np.abs(op_sum - (op_x + star_delta).reshape(-1, n)).max()
            lhs = images[image_rows[:, x0:x1]]
            block_errors.append([err_a, *_law_errors(op, op_x, op_delta, hat_x, hat_delta, lhs, out_weight)])

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
    return HypothesisReport(err_a, err_b, err_c, trials, seed, tol)


@np.errstate(over="ignore", invalid="ignore")
def recover(op: Operator, tol: float = DEFAULT_TOL) -> RecoveryReport:
    """Reconstruct the automorphism and conjugation flag behind a conforming operator.

    The steps run in this order, and the first that fails raises an exception
    that names it (``step``) and carries the offending data (``details``):
    ``unit-preservation``, ``point-mass-binary``, ``singleton-support``,
    ``support-map-bijection``, ``identity-not-fixed``, ``homomorphism``,
    ``scalar-independence``, ``dichotomy``, ``dichotomy-cross-validation`` and
    ``scalar-map-laws``.  The last three, which decide whether the scalar
    map is the identity or conjugation, raise DichotomyViolationError; the
    others raise NotEssentiallyFourierError, its base class.  ``tol`` must lie in [0, 1/2), where a point-mass image is
    unambiguously {0,1}-valued, or ValueError is raised.
    """
    tol = _require_tolerance(tol, RECOVER_TOL_BOUND)
    group = op.group
    n = group.size

    # Stage 1: constants must be preserved.
    unit_image = op.apply_batch(np.ones((1, n), dtype=np.complex128))
    unit_error = float(_worst(np.abs(_to_primal(op, unit_image) - 1.0)))
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

    # Stage 5: residual of U(f) against the reconstructed model on scaled point
    # masses and seeded random functions, plus condition star on the point masses.
    # The fit scores the unit scalar, and every scalar of a dense operator, off
    # stage 2's statistics; it probes the other scalars of a callable operator.
    residual_point, condition_star_ok, residual_random = _model_fit(
        op,
        psi,
        conjugation,
        PROBE_SCALARS,
        DEFAULT_RESIDUAL_TRIALS,
        DEFAULT_RECOVER_SEED,
        unit_stats=(on_value, off_point),
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
        "m_multiplicativity_error": mult_error,
        "m_conjugate_additivity_error": conj_add_error,
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
        seed=DEFAULT_RECOVER_SEED,
    )


@np.errstate(over="ignore", invalid="ignore")
def verify_recovery(
    op: Operator,
    report: RecoveryReport,
    trials: int = DEFAULT_RESIDUAL_TRIALS,
    seed: int = DEFAULT_VERIFY_SEED,
) -> float:
    """Independent residual of the operator against a report's model.

    Probes every point mass plus ``trials`` fresh random functions, so a
    report carrying the wrong automorphism shows an order-one residual.
    ``trials = 0`` checks the point masses only.
    """
    trials = as_int(trials, ValueError, "trials", minimum=0)
    seed = as_int(seed, ValueError, "seed", minimum=0)
    if report.psi.group != op.group:
        raise GroupMismatchError("report and operator live on different groups")
    point, _, random = _model_fit(op, report.psi, report.conjugation, (1.0,), trials, seed)
    return max(point, random)
