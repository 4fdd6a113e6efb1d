import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfft import (
    DUAL,
    PRIMAL,
    Automorphism,
    FileFormatError,
    GFunction,
    Group,
    Operator,
    fileio,
    random_automorphism,
    reference_operator_matrix,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestFunctionFiles:
    @given(
        orders=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        data=st.data(),
        side=st.sampled_from([PRIMAL, DUAL]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_exact_roundtrip(self, tmp_path_factory, orders, data, side):
        group = Group(tuple(orders))
        values = np.array(
            [
                complex(data.draw(finite_floats), data.draw(finite_floats))
                for _ in range(group.size)
            ]
        )
        f = GFunction(group, side, values)
        path = tmp_path_factory.mktemp("fn") / "f.json"
        fileio.save_function(path, f)
        loaded = fileio.load_function(path)
        assert loaded.group == group and loaded.side == side
        assert np.array_equal(loaded.values, f.values)

    def test_seventeen_digit_values_survive(self, tmp_path):
        group = Group((2,))
        values = np.array([0.1 + (1 / 3) * 1j, -1e-300 + 1e300j])
        path = tmp_path / "f.json"
        fileio.save_function(path, GFunction(group, PRIMAL, values))
        assert np.array_equal(fileio.load_function(path).values, values)

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"group": {"orders": [3]}, "side": "primal", "values": [[1, 0]]}))
        with pytest.raises(FileFormatError):
            fileio.load_function(path)

    def test_rejects_bad_side(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps({"group": {"orders": [1]}, "side": "up", "values": [[1, 0]]})
        )
        with pytest.raises(FileFormatError):
            fileio.load_function(path)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"group": {"orders": [1]}, "side": "primal", "values": [[NaN, 0]]}')
        with pytest.raises(FileFormatError):
            fileio.load_function(path)

    def test_rejects_missing_group(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"side": "primal", "values": [[1, 0]]}))
        with pytest.raises(FileFormatError):
            fileio.load_function(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{oops")
        with pytest.raises(FileFormatError):
            fileio.load_function(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            fileio.load_function(tmp_path / "absent.json")


class TestOperatorFiles:
    def test_roundtrip(self, tmp_path):
        group = Group((3, 2))
        psi = random_automorphism(group, 3)
        matrix = reference_operator_matrix(group, psi, "T")
        op = Operator.from_matrix(group, PRIMAL, DUAL, matrix, conjugate_input=True)
        path = tmp_path / "op.json"
        fileio.save_operator(path, op)
        loaded = fileio.load_operator(path)
        assert loaded.group == group
        assert loaded.input_side == PRIMAL and loaded.output_side == DUAL
        assert loaded.conjugate_input is True
        assert np.array_equal(loaded.matrix, matrix)

    def test_unserialized_operator_rejected(self, tmp_path):
        group = Group((2,))
        op = Operator(group, PRIMAL, PRIMAL, lambda f: f)
        with pytest.raises(FileFormatError):
            fileio.save_operator(tmp_path / "op.json", op)

    def test_rejects_non_square_matrix(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(
            json.dumps(
                {
                    "group": {"orders": [2]},
                    "input_side": "primal",
                    "output_side": "primal",
                    "conjugate_input": False,
                    "matrix": [[[1, 0]], [[0, 0]]],
                }
            )
        )
        with pytest.raises(FileFormatError):
            fileio.load_operator(path)

    def test_rejects_missing_flag(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(
            json.dumps(
                {
                    "group": {"orders": [1]},
                    "input_side": "primal",
                    "output_side": "primal",
                    "matrix": [[[1, 0]]],
                }
            )
        )
        with pytest.raises(FileFormatError):
            fileio.load_operator(path)


class TestReportAndTruthFiles:
    def test_report_roundtrip(self, tmp_path):
        payload = {
            "group": {"orders": [4]},
            "psi": [0, 3, 2, 1],
            "conjugation": True,
            "residual": 1.5e-12,
            "diagnostics": {"unit_error": 0.0},
            "version": "0.1.0",
            "seed": 7,
        }
        path = tmp_path / "rep.json"
        fileio.save_report(path, payload)
        loaded = fileio.load_report(path)
        assert loaded["psi"] == [0, 3, 2, 1]
        assert loaded["conjugation"] is True
        assert loaded["residual"] == 1.5e-12

    def test_report_writes_non_finite_numbers_as_null(self, tmp_path):
        payload = {
            "group": {"orders": [2]},
            "psi": [0, 1],
            "conjugation": False,
            "residual": 0.0,
            "hypothesis_errors": {"a": float("inf"), "b": float("nan"), "c": np.float64(2.0)},
        }
        path = tmp_path / "rep.json"
        fileio.save_report(path, payload)
        loaded = fileio.load_report(path)
        assert loaded["hypothesis_errors"] == {"a": None, "b": None, "c": 2.0}
        assert payload["hypothesis_errors"]["a"] == float("inf")

    def test_report_rejects_non_bijection(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(
            json.dumps({"group": {"orders": [3]}, "psi": [0, 0, 2], "conjugation": False})
        )
        with pytest.raises(FileFormatError):
            fileio.load_report(path)

    def test_truth_roundtrip(self, tmp_path):
        group = Group((2, 2))
        psi = random_automorphism(group, 1)
        path = tmp_path / "t.json"
        fileio.save_truth(path, group, psi.perm, True, 11)
        loaded = fileio.load_truth(path)
        assert loaded["group"] == group
        assert loaded["psi"] == list(psi.perm)
        assert loaded["conjugation"] is True
        Automorphism(group, tuple(loaded["psi"]))
