import json
import math
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from abelfft import Group

# How the golden files of ``test_battery.py`` and ``test_recover_battery.py`` pin
# a float: to ERROR_RTOL relative, above ROUNDING_FLOOR * n absolute, n the group
# size.  An error made of rounding alone moves with the transform kernel's
# summation order.  The compared entries reach about n in size (a T-form product
# of two transforms).  Replacing numpy's FFT by the small-factor kernel moved such
# errors by up to 33 eps * n over 3,576 checks of groups up to n = 256.
ERROR_RTOL = 1e-15
ROUNDING_FLOOR = 64 * np.finfo(np.float64).eps


def small_orders(max_size=64, max_factors=3, max_order=9):
    """Strategy for orders lists whose product stays at desk scale."""
    return (
        st.lists(st.integers(1, max_order), min_size=1, max_size=max_factors)
        .filter(lambda orders: np.prod(orders) <= max_size)
        .map(tuple)
    )


def small_groups(max_size=64, max_factors=3, max_order=9):
    return small_orders(max_size, max_factors, max_order).map(Group)


def random_orders(rng, max_size=1024, max_factors=4, max_order=12):
    """Seeded random orders list with product <= max_size."""
    while True:
        k = int(rng.integers(1, max_factors + 1))
        orders = tuple(int(rng.integers(1, max_order + 1)) for _ in range(k))
        if np.prod(orders) <= max_size:
            return orders


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


@pytest.fixture
def deeply_nested_operator(tmp_path):
    """Path of an operator record whose "matrix" is 100,000 nested empty lists."""
    depth = 100_000
    header = '{"group": {"orders": [1]}, "input_side": "primal", "output_side": "primal", '
    path = tmp_path / "deep.json"
    path.write_text(header + '"conjugate_input": false, "matrix": ' + "[" * depth + "]" * depth + "}")
    return path


def _close(actual: float, expected: float, size: int) -> bool:
    if math.isinf(expected) or math.isnan(expected):
        return actual == expected or (math.isnan(actual) and math.isnan(expected))
    return abs(actual - expected) <= ERROR_RTOL * abs(expected) + ROUNDING_FLOOR * size


def within_pin(actual, expected, size: int) -> bool:
    """Whether a JSON outcome matches a golden entry: floats within their pin,
    everything else, null included, exactly."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and actual.keys() == expected.keys() and all(
            within_pin(actual[key], expected[key], size) for key in expected
        )
    if isinstance(expected, list):
        return isinstance(actual, list) and len(actual) == len(expected) and all(
            within_pin(a, e, size) for a, e in zip(actual, expected)
        )
    if isinstance(expected, float) and not isinstance(actual, bool):
        return isinstance(actual, (int, float)) and _close(float(actual), expected, size)
    return type(actual) is type(expected) and actual == expected


BIT_EQUAL, WITHIN_PIN, BEYOND_PIN = range(3)


def _keep_pins(old, new, size: int):
    """``new`` with every value of the golden entry ``old`` that holds its pin put back as it was,
    and the largest change seen: BIT_EQUAL, WITHIN_PIN, or BEYOND_PIN for a value that moved
    beyond its pin, changed type or is gone.  Fields only ``new`` has are added."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() <= new.keys():
        parts = {key: _keep_pins(old[key], v, size) if key in old else (v, BIT_EQUAL) for key, v in new.items()}
        changes = [change for _, change in parts.values()]
        return {key: value for key, (value, _) in parts.items()}, max(changes, default=BIT_EQUAL)
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        parts = [_keep_pins(o, v, size) for o, v in zip(old, new)]
        return [value for value, _ in parts], max((change for _, change in parts), default=BIT_EQUAL)
    if json.dumps(old) == json.dumps(new):
        return old, BIT_EQUAL
    if not isinstance(old, (dict, list)) and within_pin(new, old, size):
        return old, WITHIN_PIN
    return new, BEYOND_PIN


def regenerate_golden(path, cases, outcome) -> int:
    """Rewrite the golden file at ``path`` from each case's ``outcome``, keeping every pin that holds.

    Each case is (case id, builder arguments that start with the group's orders, ...),
    as the battery modules build them.  An existing entry within its pin is kept as it is, with only the outcome's new
    fields added; new cases are added and cases no longer in ``cases`` dropped.  An
    entry that moved beyond its pin keeps its old value unless ``--accept-moved`` is
    on the command line.  Prints the tally and each entry that moved beyond its pin,
    and returns the exit status: 1 if such an entry was not written, else 0."""
    accept_moved = "--accept-moved" in sys.argv[1:]
    golden = json.loads(path.read_text()) if path.exists() else {}
    results, tally, moved = {}, [0, 0, 0], []
    for case in cases:
        case_id, new = case[0], json.loads(json.dumps(outcome(case)))
        if case_id not in golden:
            results[case_id] = new
            continue
        kept, change = _keep_pins(golden[case_id], new, math.prod(case[1][0]))
        tally[change] += 1
        if change == BEYOND_PIN:
            moved.append(case_id)
            kept = new if accept_moved else golden[case_id]
        results[case_id] = kept
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    added, dropped = len(results.keys() - golden.keys()), len(golden.keys() - results.keys())
    print(f"{path.name}: {tally[BIT_EQUAL]} bit-equal, {tally[WITHIN_PIN]} moved within their pin, "
          f"{tally[BEYOND_PIN]} moved beyond it, {added} added, {dropped} dropped")
    for case_id in moved:
        print(f"moved beyond its pin{'' if accept_moved else ', old entry kept'}: {case_id}")
    return 1 if moved and not accept_moved else 0
