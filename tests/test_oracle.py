"""The paper's conclusion as a finite oracle for dense operators on small groups.

A dense operator is essentially Fourier at tol if some model f -> conj?(f o psi),
with the operator's own conjugation flag, is within tol of it, entry by entry,
on the primal images of the unit point masses.  On a small group every psi can
be tried: an automorphism is fixed by the images of the k standard generators
(Hillar and Rhea, "Automorphisms of finite abelian groups", Amer. Math.
Monthly 114 (2007)), so Aut(G) is enumerated from every k-tuple of images
whose orders divide the generators' orders, extended additively, keeping the
bijections.

Every dense case of both verdict batteries with n <= 16 is judged by the
oracle at its own tol and by ``check_hypotheses`` and ``recover`` at the same
tol.  A verdict that accepts what the oracle rejects always fails, and so does
an accept whose psi or flag is not the oracle's.  A verdict that rejects what
the oracle accepts fails unless ``ALLOWED_DISAGREEMENTS`` lists it with the
ROADMAP item that mends it; that list may only shrink, and each entry must
still disagree.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import test_battery
import test_recover_battery

from abelfft import (
    Group,
    NotEssentiallyFourierError,
    character_matrix,
    check_hypotheses,
    is_automorphism,
    random_automorphism,
    recover,
)
from abelfft.characterize import DEFAULT_TOL

ORACLE_MAX_SIZE = 16

# Case id -> (ROADMAP item, the verdicts that reject it although the oracle
# accepts it).  The gain and tilt operators are 9.0e-10 from their model, and
# the T-form leak operators 1.0e-11: each is a false rejection by a tolerance
# that takes no scale (item 1).
ALLOWED_DISAGREEMENTS = {
    "dense-4-T-gain-tol1e-09": (1, ("check", "recover")),
    "dense-4-T-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-4-Tc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-4-Tc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-4-U-gain-tol1e-09": (1, ("check", "recover")),
    "dense-4-U-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-4-Uc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-4-Uc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2-T-gain-tol1e-09": (1, ("check", "recover")),
    "dense-2x2-T-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2-Tc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-2x2-Tc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2-U-gain-tol1e-09": (1, ("check", "recover")),
    "dense-2x2-U-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2-Uc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-2x2-Uc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-3x4-T-gain-tol1e-09": (1, ("check", "recover")),
    "dense-3x4-T-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-3x4-Tc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-3x4-Tc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-3x4-U-gain-tol1e-09": (1, ("check", "recover")),
    "dense-3x4-U-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-3x4-Uc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-3x4-Uc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-T-gain-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-T-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-Tc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-Tc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-U-gain-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-U-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-Uc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-Uc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-16-T-gain-tol1e-09": (1, ("check", "recover")),
    "dense-16-T-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-16-Tc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-16-Tc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-16-U-gain-tol1e-09": (1, ("check", "recover")),
    "dense-16-U-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-16-Uc-gain-tol1e-09": (1, ("check", "recover")),
    "dense-16-Uc-tilt-tol1e-09": (1, ("check", "recover")),
    "dense-2x2x2x2-T-leak-tol1e-09": (1, ("check",)),
    "dense-2x2x2x2-Tc-leak-tol1e-09": (1, ("check",)),
    "dense-16-T-leak-tol1e-09": (1, ("check",)),
    "dense-16-Tc-leak-tol1e-09": (1, ("check",)),
}

# Groups whose automorphisms are counted against the closed form: the battery
# groups with n <= 16 and a few more shapes, cyclic, elementary and mixed.
COUNTED_ORDERS = [
    (1,), (2,), (4,), (6,), (8,), (16,), (2, 2), (2, 4), (3, 3), (3, 4), (2, 6), (4, 4), (9, 3), (2, 2, 2),
    (2, 2, 3), (2, 2, 2, 2),
]
MAX_SAMPLED_AUT = 200
SAMPLED_SEEDS = 4000


def automorphisms(group: Group) -> np.ndarray:
    """Every automorphism of ``group``, an (|Aut|, size) array of index permutations."""
    coords, orders = group.coords_table, np.array(group.orders)
    # Generator e_i may go to any element g with n_i * g = 0.
    candidates = [np.flatnonzero((n * coords % orders == 0).all(axis=1)) for n in group.orders]
    images = coords[np.array(list(itertools.product(*candidates)))]  # (tuples, k generators, k coordinates)
    maps = np.ravel_multi_index(tuple(np.moveaxis(coords @ images % orders, -1, 0)), group.orders)
    return maps[(np.sort(maps, axis=1) == np.arange(group.size)).all(axis=1)]


def _multiplicity(p: int, n: int) -> int:
    return 0 if n % p else 1 + _multiplicity(p, n // p)


def hillar_rhea_count(orders) -> int:
    """|Aut(G)| by Hillar and Rhea's closed form, multiplied over the primes.

    For the p-part Z_{p^e_1} x ... x Z_{p^e_m}, e_1 <= ... <= e_m, with d_k the
    last and c_k the first index l such that e_l = e_k, it is the product over
    k of (p^d_k - p^(k-1)) * (p^e_k)^(m-d_k) * (p^(e_k-1))^(m-c_k+1)."""
    count = 1
    for p in (p for p in range(2, math.prod(orders) + 1) if all(p % q for q in range(2, p))):
        e = sorted(x for x in (_multiplicity(p, n) for n in orders) if x)
        m = len(e)
        for k, ek in enumerate(e, 1):
            d, c = sum(x <= ek for x in e), 1 + sum(x < ek for x in e)
            count *= (p**d - p ** (k - 1)) * p ** (ek * (m - d)) * p ** ((ek - 1) * (m - c + 1))
    return count


@pytest.fixture(scope="module")
def aut_cache():
    cache = {}

    def aut(orders):
        if orders not in cache:
            cache[orders] = automorphisms(Group(orders))
        return cache[orders]

    return aut


@pytest.mark.parametrize("orders", COUNTED_ORDERS, ids=lambda orders: "x".join(map(str, orders)))
def test_enumeration_counts_match_the_closed_form(orders, aut_cache):
    group, maps = Group(orders), aut_cache(orders)
    assert len(maps) == hillar_rhea_count(orders)
    assert all(is_automorphism(perm, group) for perm in maps)


def test_closed_form_on_known_counts():
    # GL(4, 2), Z_n^*, and Aut(Z_2 x Z_4), the dihedral group of order 8.
    assert hillar_rhea_count((2, 2, 2, 2)) == 20160
    assert hillar_rhea_count((12,)) == 4
    assert hillar_rhea_count((2, 4)) == 8


@pytest.mark.parametrize(
    "orders",
    [orders for orders in COUNTED_ORDERS if hillar_rhea_count(orders) <= MAX_SAMPLED_AUT],
    ids=lambda orders: "x".join(map(str, orders)),
)
def test_random_automorphism_reaches_every_automorphism(orders, aut_cache):
    group, every = Group(orders), {tuple(perm) for perm in aut_cache(orders).tolist()}
    seen = set()
    for seed in range(SAMPLED_SEEDS):
        seen.add(random_automorphism(group, seed).perm)
        if len(seen) == len(every):
            break
    assert seen == every


def oracle(matrix: np.ndarray, group: Group, form: str, tol: float, aut: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether the dense operator ``matrix`` is within tol of a model, and the psi of the nearest one.

    Row x of V is the primal image of delta_x, and the model's is the point mass
    at psi^-1(x).  cost[x, y] = max(|V[x, y] - 1|, the largest |V[x, y']| with
    y' != y) is the distance of row x to delta_y, computed once, so psi's
    distance is the largest cost[psi(y), y].  NaN counts as infinitely far."""
    n = group.size
    with np.errstate(invalid="ignore", over="ignore"):
        v = (np.conj(character_matrix(group)).T @ matrix / n if form == "T" else matrix).T
        magnitude = np.abs(v)
        second, first = np.sort(magnitude, axis=1)[:, -2:].T
        other = np.where(np.arange(n) == magnitude.argmax(axis=1)[:, None], second[:, None], first[:, None])
        cost = np.maximum(np.abs(v - 1.0), other)
    cost[np.isnan(cost)] = np.inf
    distances = cost[aut, np.arange(n)].max(axis=1)
    best = int(distances.argmin())
    return bool(distances[best] <= tol), aut[best]


def dense_cases():
    """(case id, orders, form, flag, operator, tol, check arguments) for every dense battery case with n <= 16."""
    cases = []
    for case_id, (orders, form, flag, perturbation, seed, twin), (trials, check_seed) in test_battery.battery_cases():
        if not twin and math.prod(orders) <= ORACLE_MAX_SIZE:
            op = test_battery.build_operator(orders, form, flag, perturbation, seed)
            cases.append((case_id, orders, form, flag, op, DEFAULT_TOL, (trials, check_seed)))
    for case_id, (orders, form, flag, perturbation, seed, kind), tol in test_recover_battery.battery_cases():
        if kind == "dense" and math.prod(orders) <= ORACLE_MAX_SIZE:
            op = test_recover_battery.build_operator(orders, form, flag, perturbation, seed, kind)
            cases.append((case_id, orders, form, flag, op, tol, ()))
    return cases


def test_verdicts_against_the_oracle(aut_cache):
    disagreements, wrong = set(), []
    for case_id, orders, form, flag, op, tol, check_args in dense_cases():
        accept, psi = oracle(op.matrix, op.group, form, tol, aut_cache(orders))
        if check_hypotheses(op, *check_args, tol=tol).passed != accept:
            disagreements.add((case_id, "check"))
            if not accept:
                wrong.append((case_id, "check accepts"))
        try:
            report = recover(op, tol=tol)
        except NotEssentiallyFourierError:
            if accept:
                disagreements.add((case_id, "recover"))
        else:
            if not accept:
                wrong.append((case_id, "recover accepts"))
            elif report.psi.perm != tuple(psi.tolist()) or report.conjugation != flag:
                wrong.append((case_id, "recover accepts another model"))
    assert not wrong
    assert disagreements == {(case_id, verdict) for case_id, (_, verdicts) in ALLOWED_DISAGREEMENTS.items()
                             for verdict in verdicts}
