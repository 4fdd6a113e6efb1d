import numpy as np
import pytest
from hypothesis import strategies as st

from abelfft import Group


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
