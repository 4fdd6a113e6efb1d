"""A fixed battery of ``check_hypotheses`` outcomes, pinned against a golden file.

Each case is a dense operator (or its callable twin) built from numpy alone:
a reference matrix for a seeded automorphism, in T or U form, with or without
conjugated input, optionally perturbed.  The golden file pins every pass flag
exactly and every error to ``ERROR_RTOL`` relative, above a floor for errors
made of rounding alone (``conftest.within_pin``), so a change to the transform
kernel or to the check's probe blocks that moves an outcome shows here.  A
change to ``battery_golden.json`` is a change in behaviour: say which outcomes
moved and why.

Add new cases or fields to the golden file with

    PYTHONPATH=src python tests/test_battery.py

which keeps every entry that is still within its pin as it was, prints how many
entries are bit-equal, moved within their pin and moved beyond it, and names the
last.  Those it writes only with ``--accept-moved``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import ROUNDING_FLOOR, regenerate_golden, within_pin

from abelfft import characterize
from abelfft import (
    DUAL,
    PRIMAL,
    GFunction,
    Group,
    Operator,
    check_hypotheses,
    random_automorphism,
    reference_operator_matrix,
)

GOLDEN = Path(__file__).with_name("battery_golden.json")

# size^2 <= 4096: every point-mass pair is checked.
EXHAUSTIVE_SHAPES = [(4,), (2, 2), (3, 4), (2, 2, 2, 2), (16,)]
EXHAUSTIVE_LARGE = [(7, 7), (3, 21), (64,), (8, 8), (4, 4, 4), (2, 4, 8), (2,) * 6]
# Random pairs only.
RANDOM_SHAPES = [(128,), (256,), (16, 16), (4, 4, 4, 4), (2,) * 8, (3, 5, 7), (2, 3, 5, 7)]

PERTURBATIONS = ("exact", "noise-1e-13", "noise-1e-6", "nan", "inf", "1e300", "column-swap")
FORMS = [(form, flag) for form in ("T", "U") for flag in (False, True)]
IDENTITIES = ("a", "b", "c", "d")
PASS_FLAGS = tuple(f"pass_{identity}" for identity in IDENTITIES)


def perturbed_matrix(group: Group, form: str, perturbation: str, seed: int) -> np.ndarray:
    """The reference matrix of a seeded automorphism, with one seeded perturbation."""
    rng = np.random.default_rng(seed)
    matrix = np.array(reference_operator_matrix(group, random_automorphism(group, seed), form))
    n = group.size
    i, j = (int(v) for v in rng.integers(0, n, size=2))
    if perturbation.startswith("noise-"):
        scale = float(perturbation.removeprefix("noise-"))
        matrix += scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    elif perturbation in ("nan", "inf", "1e300"):
        matrix[i, j] = float(perturbation)
    elif perturbation == "column-swap":
        k = (j + 1 + int(rng.integers(0, n - 1))) % n if n > 1 else j
        matrix[:, [j, k]] = matrix[:, [k, j]]
    return matrix


def build_operator(orders, form, flag, perturbation, seed, callable_twin=False) -> Operator:
    group = Group(orders)
    matrix = perturbed_matrix(group, form, perturbation, seed)
    output_side = DUAL if form == "T" else PRIMAL
    if not callable_twin:
        return Operator.from_matrix(group, PRIMAL, output_side, matrix, conjugate_input=flag)

    def apply_fn(f: GFunction) -> GFunction:
        values = np.conj(f.values) if flag else f.values
        return GFunction(group, output_side, matrix @ values)

    return Operator(group, PRIMAL, output_side, apply_fn)


def battery_cases():
    """(case id, builder arguments, check arguments), in a fixed order."""
    cases = []

    def add(orders, form, flag, perturbation, twin=False, trials=16, seed=0):
        kind = "callable" if twin else "dense"
        shape = "x".join(map(str, orders))
        case_id = f"{kind}-{shape}-{form}{'c' if flag else ''}-{perturbation}-t{trials}s{seed}"
        op_seed = sum(orders) * 7 + len(orders)
        cases.append((case_id, (orders, form, flag, perturbation, op_seed, twin), (trials, seed)))

    for orders in EXHAUSTIVE_SHAPES + RANDOM_SHAPES:
        for form, flag in FORMS:
            for perturbation in PERTURBATIONS:
                add(orders, form, flag, perturbation)
    for orders in EXHAUSTIVE_LARGE:
        for form, flag in FORMS:
            for perturbation in ("exact", "noise-1e-13", "nan", "column-swap"):
                add(orders, form, flag, perturbation)
    for orders in [(4,), (2, 2), (3, 4), (2, 2, 2, 2)]:
        for form, flag in FORMS:
            for perturbation in ("exact", "noise-1e-6", "nan", "inf"):
                add(orders, form, flag, perturbation, twin=True)
    for orders in [(8,), (2, 4)]:
        add(orders, "T", True, "exact", trials=3, seed=5)
        add(orders, "U", False, "noise-1e-13", trials=3, seed=5)
    return cases


def outcome(case) -> dict:
    _, build_args, (trials, seed) = case
    report = check_hypotheses(build_operator(*build_args), trials=trials, seed=seed)
    return {key: report.as_dict()[key] for key in (*IDENTITIES, *PASS_FLAGS)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_battery_covers_every_case(golden):
    assert sorted(golden) == sorted(case[0] for case in battery_cases())


def test_battery_matches_golden(golden):
    mismatches = []
    for case in battery_cases():
        got, want = outcome(case), golden[case[0]]
        if not within_pin(got, want, math.prod(case[1][0])):
            mismatches.append((case[0], got, want))
    assert not mismatches, mismatches[:5]


def test_battery_rejects_every_perturbation_but_small_noise(golden):
    for case_id, result in golden.items():
        passed = all(result[k] for k in PASS_FLAGS)
        assert passed == ("-exact-" in case_id or "-noise-1e-13-" in case_id), case_id


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("form", ["T", "U"])
def test_non_finite_column_gives_infinite_error_dense_and_callable(value, form):
    group = Group((4, 4))
    matrix = reference_operator_matrix(group, random_automorphism(group, 2), form).copy()
    matrix[:, 5] = value
    output_side = DUAL if form == "T" else PRIMAL
    dense = Operator.from_matrix(group, PRIMAL, output_side, matrix, conjugate_input=True)
    twin = Operator(
        group, PRIMAL, output_side, lambda f: GFunction(group, output_side, matrix @ np.conj(f.values))
    )
    for op in (dense, twin):
        report = check_hypotheses(op, trials=2)
        assert report.max_err_a == report.max_err_b == report.max_err_c == np.inf
        assert not report.passed


@pytest.mark.parametrize("random_pairs", [True, False], ids=["with-random-pairs", "point-mass-pairs-only"])
@pytest.mark.parametrize("perturbation", ["noise-1e-6", "column-swap"])
@pytest.mark.parametrize("form, flag", FORMS)
@pytest.mark.parametrize("orders", [(3, 4), (8, 8), (2, 4, 8)])
def test_dense_reduction_of_identity_a_matches_its_callable_twin(
    orders, form, flag, perturbation, random_pairs, monkeypatch
):
    # A dense operator's error of (a) is taken once from its columns; the callable
    # twin is sent every pair's delta_x + delta_y* and so follows the definition.
    if not random_pairs:
        # Zero probes have zero images, so the point-mass pairs alone set every error.
        def zero_rows(group, rng, count):
            return np.zeros((count, group.size), np.complex128)

        monkeypatch.setattr(characterize, "_random_rows", zero_rows)
    build_args = (orders, form, flag, perturbation, sum(orders) * 7 + len(orders))
    dense = check_hypotheses(build_operator(*build_args)).as_dict()
    twin = check_hypotheses(build_operator(*build_args, callable_twin=True)).as_dict()
    assert dense["a"] > 0
    size = math.prod(orders)
    for key in "abc":
        assert abs(dense[key] - twin[key]) <= ROUNDING_FLOOR * size, key
    assert [dense[k] for k in ("pass_a", "pass_b", "pass_c")] == [twin[k] for k in ("pass_a", "pass_b", "pass_c")]


def test_regeneration_keeps_pins_and_writes_moved_entries_only_when_accepted(tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"kept": {"a": 1.0}, "within": {"a": 1.0}, "moved": {"a": 1.0, "b": True}, "gone": {}}))
    eps = np.finfo(np.float64).eps
    new = {"kept": {"a": 1.0, "c": 2}, "within": {"a": 1 + 2 * eps}, "moved": {"a": 1.0, "b": False},
           "added": {"a": 3.0}}
    cases = [(case_id, ((4,),)) for case_id in new]
    monkeypatch.setattr(sys, "argv", ["regenerate"])
    assert regenerate_golden(path, cases, lambda case: new[case[0]]) == 1
    assert json.loads(path.read_text()) == {
        "kept": {"a": 1.0, "c": 2}, "within": {"a": 1.0}, "moved": {"a": 1.0, "b": True}, "added": {"a": 3.0}
    }
    out = capsys.readouterr().out
    assert "1 bit-equal, 1 moved within their pin, 1 moved beyond it, 1 added, 1 dropped" in out
    assert "moved beyond its pin, old entry kept: moved" in out
    monkeypatch.setattr(sys, "argv", ["regenerate", "--accept-moved"])
    assert regenerate_golden(path, cases, lambda case: new[case[0]]) == 0
    assert json.loads(path.read_text())["moved"] == {"a": 1.0, "b": False}


if __name__ == "__main__":
    sys.exit(regenerate_golden(GOLDEN, battery_cases(), outcome))
