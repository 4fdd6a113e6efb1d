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

Four relations are checked, on recover's verdict, failing step, psi and flag, and
on check's verdict:
  - flipping ``conjugate_input`` moves only the recovered flag;
  - reversing the factor order, the same coordinate permutation on both sides
    (the pairing is a sum over coordinates), keeps every verdict and step and
    transports psi;
  - merging two coprime factors Z_m x Z_n into Z_mn (the Chinese remainder
    theorem) keeps every verdict and transports psi.  The dual side's map differs
    from the primal one, so that the pairing is kept: (a, b) goes to a n + b m,
    and for Z_2 x Z_3 -> Z_6 its inverse is xi -> (xi mod 2, -xi mod 3);
  - precomposing with an automorphism sigma, U'(f) = U(f o sigma), keeps every
    verdict and turns psi into sigma o psi.
The last two relabel the point masses, and stage 2 of ``recover`` walks them in
index order and raises at the first bad one, as ``point-mass-binary`` or
``singleton-support`` by that one's entries.  A reject there may therefore name
the other of those two steps; every other step is decided on all point masses
at once, or on constants, and must not move.

No dense perturbation reaches the steps from ``support-map-bijection`` on with
its error far from tol, so the nonlinear boxes of the recover battery, each of
which rejects at one of them by an order-one error, are relabelled too: as black
boxes whose input and output indices are permuted as the dense cases permute a
matrix, under the factor-order and automorphism relations.  ``check`` sends a
black box every point-mass pair, so it is asked about the boxes on groups of size
at most 16 alone, where its pass flag on each identity, (d) included, must not move.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_recover_battery import build_operator

from abelfft import (
    DUAL,
    PRIMAL,
    GFunction,
    Group,
    NotEssentiallyFourierError,
    Operator,
    check_hypotheses,
    random_automorphism,
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
# Each callable box of the recover battery, and the step that rejects it.
BOX_STEPS = {
    "collide": "support-map-bijection",
    "uneven-four": "scalar-independence",
    "absolute-value": "dichotomy",
    "two-to-2.5": "dichotomy-cross-validation",
    "four-to-4.5": "scalar-map-laws",
    "add-one": "model-fit",
}
# (orders, form, flag, seed): the cases above without their perturbation.
BOX_CASES = CASES.map(lambda case: case[:3] + case[4:])
# The steps that stage 2 raises at its first bad point mass, in index order.
STAGE_2_STEPS = {"point-mass-binary", "singleton-support"}


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


def _recover_outcome(op) -> tuple:
    """(verdict, failing step, psi, flag) of ``recover``."""
    try:
        report = recover(op)
    except NotEssentiallyFourierError as exc:
        return "reject", exc.step, None, None
    return "accept", None, tuple(report.psi.perm), report.conjugation


def _outcome(op) -> tuple:
    """``_recover_outcome``, and whether ``check`` passes."""
    return _recover_outcome(op), check_hypotheses(op, trials=2, seed=0).passed


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


def _relabelled(outcome, expected) -> tuple:
    """``outcome`` of a relabelled operator, its step taken as ``expected``'s when
    both are stage 2 steps, which depend on the order of the point masses."""
    (verdict, step, psi, conjugation), passed = outcome
    if {step, expected[0][1]} <= STAGE_2_STEPS:
        step = expected[0][1]
    return (verdict, step, psi, conjugation), passed


def _coprime_pair(orders):
    """The first pair of factor positions (i, j), i < j, whose orders are coprime, or None."""
    pairs = ((i, j) for i in range(len(orders)) for j in range(i + 1, len(orders)))
    return next(((i, j) for i, j in pairs if math.gcd(orders[i], orders[j]) == 1), None)


def _crt_merge(group, i, j):
    """The group with factors i and j, of coprime orders m and n, merged into Z_mn at
    position i, and the index maps of the primal and the dual side onto it.

    On the primal side (u, v) goes to the z with z = u mod m and z = v mod n.  On the
    dual side (a, b) goes to a n + b m mod mn, so that u a / m + v b / n = z (a n + b m) / mn
    mod 1: the pairing is kept."""
    orders, coords = group.orders, group.coords_table
    m, n = orders[i], orders[j]
    rest = [k for k in range(len(orders)) if k not in (i, j)]
    merged = Group((m * n, *(orders[k] for k in rest)))
    u, v = coords[:, i], coords[:, j]

    def index(z):
        return np.ravel_multi_index((z, *coords[:, rest].T), merged.orders)

    primal = index((u * n * pow(n, -1, m) + v * m * pow(m, -1, n)) % (m * n))
    dual = index((u * n + v * m) % (m * n))
    return merged, primal, dual


@given(CASES.filter(lambda case: _coprime_pair(case[0]) is not None))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_merging_coprime_factors_transports_psi(case):
    orders, form, flag = case[:3]
    group = Group(orders)
    merged, primal, dual = _crt_merge(group, *_coprime_pair(orders))
    # Entry (r, c) of the matrix moves to (rows[r], primal[c]); an output lives on the dual side in T-form.
    rows = dual if form == "T" else primal
    for matrix in _storages(*case):
        op = _operator(group, form, matrix, flag)
        (verdict, step, psi, conjugation), passed = _outcome(op)
        transported = None if psi is None else tuple(primal[np.asarray(psi)[np.argsort(primal)]].tolist())
        moved = _operator(merged, form, matrix[np.ix_(np.argsort(rows), np.argsort(primal))], flag)
        assert (op._monomial is None) == (moved._monomial is None)
        expected = ((verdict, step, transported, conjugation), passed)
        assert _relabelled(_outcome(moved), expected) == expected


@given(CASES, st.integers(0, 2**16))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_precomposing_with_an_automorphism_composes_psi(case, sigma_seed):
    orders, form, flag = case[:3]
    group = Group(orders)
    sigma = random_automorphism(group, sigma_seed).perm_array
    for matrix in _storages(*case):
        op = _operator(group, form, matrix, flag)
        (verdict, step, psi, conjugation), passed = _outcome(op)
        composed = None if psi is None else tuple(sigma[np.asarray(psi)].tolist())
        # U'(f) = U(f o sigma): column c of the matrix moves to column sigma(c).
        moved = _operator(group, form, matrix[:, np.argsort(sigma)], flag)
        assert (op._monomial is None) == (moved._monomial is None)
        expected = ((verdict, step, composed, conjugation), passed)
        assert _relabelled(_outcome(moved), expected) == expected


def _relabelled_box(box: Operator, group: Group, rows, columns) -> Operator:
    """The black box on ``group`` whose matrix is ``box``'s taken at ``np.ix_(rows, columns)``:
    f is sent to ``box`` as the function with entry columns[c] = f[c], and entry r of
    the image is entry rows[r] of ``box``'s."""
    order = np.argsort(columns)

    def apply_fn(f):
        image = box.apply_fn(GFunction(box.group, PRIMAL, f.values[order]))
        return GFunction(group, box.output_side, image.values[rows])

    return Operator(group, PRIMAL, box.output_side, apply_fn)


def _box_outcome(box: str, orders, form, flag, seed) -> tuple:
    """The box operator and its ``_recover_outcome``, a reject at the box's step.  A
    black box is sent every point-mass pair by ``check``, so only ``recover`` is asked."""
    op = build_operator(orders, form, flag, box, seed, "box")
    outcome = _recover_outcome(op)
    assert outcome[:2] == ("reject", BOX_STEPS[box])
    return op, outcome


@pytest.mark.parametrize("box", BOX_STEPS)
@given(BOX_CASES)
@settings(max_examples=8, derandomize=True, deadline=None)
def test_reversing_the_factor_order_of_a_box_keeps_its_step(box, case):
    orders = case[0]
    op, expected = _box_outcome(box, *case)
    back = np.arange(op.group.size).reshape(orders).T.ravel()
    assert _recover_outcome(_relabelled_box(op, Group(orders[::-1]), back, back)) == expected


@pytest.mark.parametrize("box", BOX_STEPS)
@given(BOX_CASES, st.integers(0, 2**16))
@settings(max_examples=8, derandomize=True, deadline=None)
def test_precomposing_a_box_with_an_automorphism_keeps_its_step(box, case, sigma_seed):
    op, expected = _box_outcome(box, *case)
    sigma = random_automorphism(op.group, sigma_seed).perm_array
    moved = _relabelled_box(op, op.group, np.arange(op.group.size), np.argsort(sigma))
    assert _recover_outcome(moved) == expected


# The boxes that ``check`` is asked about, on groups of size at most 16: it sends a black box every
# point-mass pair, n^2 + n + 12 applies at two random pairs.
CHECK_BOX_CASES = BOX_CASES.filter(lambda case: math.prod(case[0]) <= 16)
# The boxes that break the scalar laws only on constants other than 1, which ``check`` never probes.
CONSTANT_BOXES = {"uneven-four", "two-to-2.5", "four-to-4.5"}


def _check_verdict(op: Operator) -> tuple:
    """``check``'s pass flag on each of its identities, (d) included."""
    report = check_hypotheses(op, trials=2, seed=0)
    return report.pass_a, report.pass_b, report.pass_c, report.pass_d


@pytest.mark.parametrize("box", BOX_STEPS)
@given(CHECK_BOX_CASES, st.integers(0, 2**16))
@settings(max_examples=6, derandomize=True, deadline=None)
def test_relabelling_a_box_keeps_its_check_verdict(box, case, sigma_seed):
    orders = case[0]
    op = build_operator(orders, case[1], case[2], box, case[3], "box")
    expected = _check_verdict(op)
    assert all(expected) is (box in CONSTANT_BOXES)
    back = np.arange(op.group.size).reshape(orders).T.ravel()
    assert _check_verdict(_relabelled_box(op, Group(orders[::-1]), back, back)) == expected
    sigma = random_automorphism(op.group, sigma_seed).perm_array
    assert _check_verdict(_relabelled_box(op, op.group, np.arange(op.group.size), np.argsort(sigma))) == expected
