"""A fixed battery of ``recover`` outcomes, pinned against a golden file.

Each case is a dense operator (or its callable twin) built from numpy alone,
as in ``test_battery.py``, or a small nonlinear box around one that only a
callable can be.  The golden file pins each verdict, the failing stage, every
integer, flag and complex payload component, and a sha256 of psi exactly;
floats (the stage payloads, an accepted report's diagnostics and
``verify_recovery``'s residual on it) are pinned by ``test_battery``'s rule,
``conftest.within_pin``: ``ERROR_RTOL`` relative above ``ROUNDING_FLOOR * n``.
A change to ``recover_golden.json`` is a change in behaviour: say which
outcomes moved and why.

Add new cases or fields to the golden file with

    PYTHONPATH=src python tests/test_recover_battery.py

which keeps every pin that holds, as ``test_battery.py`` does; an entry that
moved beyond its pin is written only with ``--accept-moved``.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import regenerate_golden, within_pin
from test_battery import (
    EXHAUSTIVE_LARGE,
    EXHAUSTIVE_SHAPES,
    FORMS,
    PERTURBATIONS,
    RANDOM_SHAPES,
    perturbed_matrix,
)

from abelfft import (
    DUAL,
    PRIMAL,
    DichotomyViolationError,
    GFunction,
    Group,
    NotEssentiallyFourierError,
    Operator,
    character_matrix,
    random_automorphism,
    recover,
    reference_operator_matrix,
    verify_recovery,
)

GOLDEN = Path(__file__).with_name("recover_golden.json")

# Column operations commute with the transform, so they act on either form's
# matrix; "tilt" scales two primal rows and is applied before the transform.
# "leak" is accepted but breaks condition star; "duplicate" is meant for
# tolerance 0.49, where constants survive it.
COLUMN_PERTURBATIONS = ("split", "merge", "swap-zero", "gain", "tilt", "leak")
DENSE_PERTURBATIONS = PERTURBATIONS + COLUMN_PERTURBATIONS
# Nonlinear boxes around a reference operator, one per late stage.
BOXES = ("nan-point-mass", "collide", "absolute-value", "two-to-2.5", "uneven-four", "four-to-4.5", "add-one")
STAGES = (
    "unit-preservation",
    "point-mass-binary",
    "singleton-support",
    "support-map-bijection",
    "identity-not-fixed",
    "homomorphism",
    "scalar-independence",
    "dichotomy",
    "dichotomy-cross-validation",
    "scalar-map-laws",
    "model-fit",
)
# The steps that raise DichotomyViolationError; every other step raises its base class.
DICHOTOMY_STEPS = ("dichotomy", "dichotomy-cross-validation", "scalar-map-laws")
RECOVER_SHAPES = EXHAUSTIVE_SHAPES + EXHAUSTIVE_LARGE + RANDOM_SHAPES


def _two_columns(n: int, seed: int) -> tuple[int, int]:
    """Two distinct seeded column indices, the first of them not 0."""
    rng = np.random.default_rng(seed + 1)
    j = 1 + int(rng.integers(0, n - 1))
    k = (j + 1 + int(rng.integers(0, n - 1))) % n
    return j, k


def recover_matrix(group: Group, form: str, perturbation: str, seed: int) -> np.ndarray:
    """The reference matrix of a seeded automorphism, with one seeded perturbation."""
    if perturbation not in COLUMN_PERTURBATIONS + ("duplicate",):
        return perturbed_matrix(group, form, perturbation, seed)
    n = group.size
    psi = random_automorphism(group, seed)
    j, k = _two_columns(n, seed)
    if perturbation == "tilt":
        # Constants stay within 1e-9 of 1, but 2 * 1 does not stay constant.
        primal = np.array(reference_operator_matrix(group, psi, "U"))
        primal[j] *= 1 + 0.9e-9
        primal[k] *= 1 - 0.9e-9
        return character_matrix(group) @ primal if form == "T" else primal
    matrix = np.array(reference_operator_matrix(group, psi, form))
    if perturbation == "split":
        matrix[:, [j, k]] = ((matrix[:, j] + matrix[:, k]) / 2)[:, None]
    elif perturbation == "merge":
        matrix[:, j] += matrix[:, k]
        matrix[:, k] = 0
    elif perturbation == "swap-zero":
        matrix[:, [0, j]] = matrix[:, [j, 0]]
    elif perturbation == "gain":
        matrix *= 1 + 0.9e-9
    elif perturbation == "leak":
        # Each point-mass image also holds 1e-11 of the next one's.
        matrix += 1e-11 * np.roll(matrix, -1, axis=1)
    elif perturbation == "duplicate":
        # Both columns 0.7 / 0.3 of the pair: a shared support at tolerance 0.49.
        matrix[:, [j, k]] = (0.7 * matrix[:, j] + 0.3 * matrix[:, k])[:, None]
    return matrix


def _box(group: Group, box: str, seed: int):
    """The input map of a nonlinear box, applied before conjugation and the
    operator's matrix: NaN in, NaN out."""
    n = group.size
    j, k = _two_columns(n, seed)

    def modify(values: np.ndarray) -> np.ndarray:
        point_mass_j = values[j] == 1 and np.count_nonzero(values) == 1
        if box == "nan-point-mass" and point_mass_j:
            return np.full(n, np.nan + 0j)
        if box == "collide" and point_mass_j:
            return np.eye(n, dtype=complex)[k]
        if box == "absolute-value":
            return np.abs(values).astype(complex)
        if box == "two-to-2.5" and np.all(values == 2):
            return np.full(n, 2.5 + 0j)
        if box == "uneven-four" and np.all(values == 4):
            values = values.copy()
            values[k] = 5
        if box == "four-to-4.5" and np.all(values == 4):
            return np.full(n, 4.5 + 0j)
        if box == "add-one" and np.count_nonzero(values) >= 2 and not np.all(values == values[0]):
            # Point masses and constants pass untouched; random functions do not.
            return values + 1
        return values

    return modify


def build_operator(orders, form, flag, perturbation, seed, kind) -> Operator:
    group = Group(orders)
    output_side = DUAL if form == "T" else PRIMAL
    matrix = recover_matrix(group, form, "exact" if kind == "box" else perturbation, seed)
    if kind == "dense":
        return Operator.from_matrix(group, PRIMAL, output_side, matrix, conjugate_input=flag)
    modify = _box(group, perturbation, seed) if kind == "box" else (lambda values: values)

    def apply_fn(f: GFunction) -> GFunction:
        values = modify(f.values)
        values = np.conj(values) if flag else values
        return GFunction(group, output_side, matrix @ values)

    return Operator(group, PRIMAL, output_side, apply_fn)


def battery_cases():
    """(case id, builder arguments, tolerance), in a fixed order."""
    cases = []

    def add(orders, form, flag, perturbation, kind="dense", tol=1e-9):
        shape = "x".join(map(str, orders))
        case_id = f"{kind}-{shape}-{form}{'c' if flag else ''}-{perturbation}-tol{tol:g}"
        op_seed = sum(orders) * 7 + len(orders)
        cases.append((case_id, (orders, form, flag, perturbation, op_seed, kind), tol))

    for orders in RECOVER_SHAPES:
        for form, flag in FORMS:
            for perturbation in DENSE_PERTURBATIONS:
                add(orders, form, flag, perturbation)
            for perturbation in ("exact", "split", "duplicate"):
                add(orders, form, flag, perturbation, tol=0.49)
    for orders in [(4,), (2, 2), (3, 4), (16,), (8, 8)]:
        for form, flag in FORMS:
            for perturbation in ("exact", "noise-1e-13") + COLUMN_PERTURBATIONS:
                add(orders, form, flag, perturbation, kind="callable")
            for box in BOXES:
                add(orders, form, flag, box, kind="box")
    add((1024,), "T", False, "exact")
    add((1024,), "T", True, "tilt")
    return cases


def _payload(value):
    """A JSON form of a stage payload: complex as [re, im], tuples as lists, None as null."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return [_payload(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def outcome(case) -> dict:
    _, build_args, tol = case
    op = build_operator(*build_args)
    try:
        report = recover(op, tol=tol)
    except NotEssentiallyFourierError as exc:
        assert isinstance(exc, DichotomyViolationError) == (exc.step in DICHOTOMY_STEPS), exc.step
        payload = {key: _payload(value) for key, value in exc.details.items()}
        return {"verdict": "reject", "stage": exc.step, "payload": payload}
    psi = np.asarray(report.psi.perm, dtype=np.int64)
    return {
        "verdict": "accept",
        "psi_sha256": hashlib.sha256(psi.tobytes()).hexdigest(),
        "conjugation": report.conjugation,
        "residual": report.residual,
        "diagnostics": {key: _payload(v) for key, v in report.diagnostics.items()},
        "verify": verify_recovery(op, report),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_battery_covers_every_case(golden):
    assert sorted(golden) == sorted(case[0] for case in battery_cases())


def test_battery_matches_golden(golden):
    mismatches = []
    for case in battery_cases():
        got = json.loads(json.dumps(outcome(case)))
        if not within_pin(got, golden[case[0]], math.prod(case[1][0])):
            mismatches.append((case[0], got, golden[case[0]]))
    assert not mismatches, mismatches[:5]


def test_every_stage_rejects(golden):
    stages = {result.get("stage") for result in golden.values()}
    assert set(STAGES) <= stages


def test_exact_operators_are_recovered(golden):
    for case_id, result in golden.items():
        if "-exact-" in case_id or "-noise-1e-13-" in case_id or "-leak-" in case_id:
            assert result["verdict"] == "accept", case_id
            # A 1e-11 leak is within tolerance, but off the support it is not rounding.
            assert result["diagnostics"]["condition_star_ok"] is ("-leak-" not in case_id), case_id


if __name__ == "__main__":
    sys.exit(regenerate_golden(GOLDEN, battery_cases(), outcome))
