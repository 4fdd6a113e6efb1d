"""Metamorphic verdict tests: what must not move when the question is asked another way.

Each case is a dense operator from ``test_recover_battery.build_operator`` on a
group of two or more factors and size at most 64, in both forms and under both
flags.  Its perturbation puts every error of ``check`` and ``recover`` at least
100 times away from the default tolerance, on either side, so that rounding
cannot move a verdict: the battery's 0.9e-9 gains, its 1e-11 leak and its 1e-13
noise are left out, and noise at 1e-15 stands in for an accepted perturbation.
A U-form case is run twice: as built (held as its factors when its matrix is
monomial), and kept dense with one off-support zero set to -0.0, as
``TestFactorsOnlyAgainstDense`` does.

Two relations are checked, on recover's verdict, failing step, psi and flag, and
on check's verdict:
  - flipping ``conjugate_input`` moves only the recovered flag;
  - reversing the factor order, the same coordinate permutation on both sides
    (the pairing is a sum over coordinates), keeps every verdict and step and
    transports psi.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_recover_battery import build_operator

from abelfft import (
    DUAL,
    PRIMAL,
    Group,
    NotEssentiallyFourierError,
    Operator,
    check_hypotheses,
    recover,
)

PERTURBATIONS = (
    "exact", "noise-1e-15", "noise-1e-6", "nan", "inf", "1e300", "column-swap", "split", "merge", "swap-zero",
)

CASES = st.tuples(
    st.lists(st.integers(2, 8), min_size=2, max_size=4).filter(lambda orders: math.prod(orders) <= 64).map(tuple),
    st.sampled_from("TU"),
    st.booleans(),
    st.sampled_from(PERTURBATIONS),
    st.integers(0, 2**16),
)


def _storages(orders, form, flag, perturbation, seed) -> list[np.ndarray]:
    """The case's matrix, and for a U-form case the same matrix with its first +0.0
    entry set to -0.0, which ``Operator`` keeps dense rather than as factors."""
    matrix = np.array(build_operator(orders, form, flag, perturbation, seed, "dense").matrix)
    if form == "T":
        return [matrix]
    zeros = np.flatnonzero(~np.ascontiguousarray(matrix).view(np.uint64).reshape(-1, 2).any(axis=1))
    if zeros.size == 0:
        return [matrix]
    negative_zero = matrix.copy()
    negative_zero.flat[zeros[0]] = complex(-0.0, 0.0)
    return [matrix, negative_zero]


def _operator(group, form, matrix, flag) -> Operator:
    return Operator.from_matrix(group, PRIMAL, DUAL if form == "T" else PRIMAL, matrix, flag)


def _outcome(op) -> tuple:
    """(verdict, failing step, psi, flag) of ``recover``, and whether ``check`` passes."""
    try:
        report = recover(op)
    except NotEssentiallyFourierError as exc:
        verdict = ("reject", exc.step, None, None)
    else:
        verdict = ("accept", None, tuple(report.psi.perm), report.conjugation)
    return verdict, check_hypotheses(op, trials=2, seed=0).passed


@given(CASES)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_flipping_conjugate_input_moves_only_the_flag(case):
    orders, form, flag = case[:3]
    group = Group(orders)
    for matrix in _storages(*case):
        (verdict, step, psi, conjugation), passed = _outcome(_operator(group, form, matrix, flag))
        flipped = None if conjugation is None else not conjugation
        assert _outcome(_operator(group, form, matrix, not flag)) == ((verdict, step, psi, flipped), passed)


@given(CASES)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_reversing_the_factor_order_transports_psi(case):
    orders, form, flag = case[:3]
    group, reversed_group = Group(orders), Group(orders[::-1])
    # Index y of the reversed group holds the element at index back[y] of the group.
    back = np.arange(group.size).reshape(orders).T.ravel()
    forth = np.argsort(back)
    for matrix in _storages(*case):
        op = _operator(group, form, matrix, flag)
        (verdict, step, psi, conjugation), passed = _outcome(op)
        transported = None if psi is None else tuple(forth[np.asarray(psi)[back]].tolist())
        reordered = _operator(reversed_group, form, matrix[np.ix_(back, back)], flag)
        assert (op._monomial is None) == (reordered._monomial is None)
        assert _outcome(reordered) == ((verdict, step, transported, conjugation), passed)
