import json
import tracemalloc

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
    SideMismatchError,
    build_reference_operator,
    check_hypotheses,
    fileio,
    random_automorphism,
    recover,
    reference_operator_matrix,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class _Raw(str):
    """JSON text that a test writes into a record as it stands, not as a string."""


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

    @pytest.mark.parametrize("orders", [[2.7], [2.0], [True, 2], ["2"], [2, None]])
    def test_orders_must_be_json_integers(self, tmp_path, orders):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"group": {"orders": orders}, "side": "primal", "values": [[1, 0]] * 2}))
        with pytest.raises(FileFormatError, match="integers"):
            fileio.load_function(path)


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

    @pytest.mark.parametrize("conjugation", [False, True])
    def test_u_form_record_loads_to_its_factors_alone(self, tmp_path, conjugation):
        # A (16, 16) U-form matrix is 1 MiB; the loaded operator keeps O(n) numbers
        # and writes the bytes it was read from.
        group = Group((16, 16))
        psi = random_automorphism(group, 6)
        path, again = tmp_path / "u.json", tmp_path / "again.json"
        fileio.save_operator(
            path, Operator.from_matrix(group, PRIMAL, PRIMAL, reference_operator_matrix(group, psi, "U"), conjugation)
        )
        tracemalloc.start()
        try:
            op = fileio.load_operator(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < group.size**2 * 16 // 8
        fileio.save_operator(again, op)
        assert again.read_bytes() == path.read_bytes()

    def test_load_peaks_near_five_file_sizes(self, tmp_path):
        # The text, one slice of its array and the parsed numbers: an n = 256 T-form
        # record peaks at 4.95 times its size, a second copy of the array at 5.95.
        group = Group((256,))
        matrix = reference_operator_matrix(group, random_automorphism(group, 1), "T")
        path = tmp_path / "op.json"
        fileio.save_operator(path, Operator.from_matrix(group, PRIMAL, DUAL, matrix))
        tracemalloc.start()
        try:
            fileio.load_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * path.stat().st_size

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

    def test_dual_input_is_refused_before_the_matrix_is_read(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(
            json.dumps(
                {
                    "group": {"orders": [2]},
                    "input_side": "dual",
                    "output_side": "primal",
                    "conjugate_input": False,
                    "matrix": [[[1, 0]], [[0, 0], [1, 0]]],
                }
            )
        )
        with pytest.raises(SideMismatchError, match="operator sides"):
            fileio.load_operator(path)

    @pytest.mark.parametrize(
        "row",
        [
            [[1, 0], [0, True]],
            [[1, 0], [0, "0"]],
            [[1, 0], [0, 0, 0]],
            [[1, 0]],
            [[1, 0], [0, None]],
            [[1, 0], [0, 10**401]],
            [[1, 0], [0, 1e400]],
            "ab",
            [[1, 0], "ab"],
            [[1, 0], {"re": 0, "im": 0}],
            [[1, 0], [0, [1, 2]]],
            _Raw("[[0, 1]2, [3, 4]]"),
            _Raw("[[0, 1], [0, 0]]] 1 ["),
            _Raw("[[1, 0], [0, " + "1" * 5000 + "]]"),
        ],
        ids=[
            "bool",
            "string",
            "triple",
            "short-row",
            "null",
            "big-integer",
            "overflowing-float",
            # Containers of the right length that are not lists.
            "string-row",
            "string-pair",
            "object-pair",
            "list-as-number",
            # Text that no Python value dumps to; the matrix around the first is regular.
            "tokens-across-a-bracket",
            "junk-after-the-array",
            # More digits than Python converts to an int.
            "integer-past-the-digit-limit",
        ],
    )
    def test_rejects_malformed_entry(self, tmp_path, row):
        path = tmp_path / "op.json"
        record = {
            "group": {"orders": [2]},
            "input_side": "primal",
            "output_side": "primal",
            "conjugate_input": False,
            "matrix": [[[1, 0], [0, 0]], row],
        }
        text = json.dumps(record)
        path.write_text(text.replace(json.dumps(row), row) if isinstance(row, _Raw) else text)
        with pytest.raises(FileFormatError):
            fileio.load_operator(path)

    def test_keeps_negative_zero(self, tmp_path):
        path = tmp_path / "op.json"
        record = {
            "group": {"orders": [1]},
            "input_side": "primal",
            "output_side": "primal",
            "conjugate_input": False,
            "matrix": [[[-0.0, -0.0]]],
        }
        path.write_text(json.dumps(record))
        value = fileio.load_operator(path).matrix[0, 0]
        assert np.signbit(value.real) and np.signbit(value.imag)

    def test_deep_nesting_is_a_format_error(self, deeply_nested_operator):
        with pytest.raises(FileFormatError, match="too deeply"):
            fileio.load_operator(deeply_nested_operator)

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

    @pytest.mark.parametrize("tol", [np.float32(1e-6), np.int64(0), np.float16(1e-3)])
    def test_report_at_a_numpy_scalar_tolerance_roundtrips(self, tmp_path, tol):
        # Verdicts are Python bools and the tolerance a Python float, whatever numeric type tol has.
        group = Group((8,))
        op = build_reference_operator(group, Automorphism.identity(group), False, "U")
        report = recover(op, tol=tol)
        hypothesis = check_hypotheses(op, trials=2, tol=tol)
        payload = {**report.as_dict(), "group": {"orders": [8]}, "hypothesis_errors": hypothesis.as_dict()}
        fileio.save_report(tmp_path / "rep.json", payload)
        loaded = fileio.load_report(tmp_path / "rep.json")
        assert type(report.conjugation) is bool and loaded["conjugation"] is False
        assert loaded["tol"] == loaded["hypothesis_errors"]["tol"] == float(tol)
        assert loaded["hypothesis_errors"]["pass_a"] is True

    def test_report_rejects_non_bijection(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(
            json.dumps({"group": {"orders": [3]}, "psi": [0, 0, 2], "conjugation": False})
        )
        with pytest.raises(FileFormatError):
            fileio.load_report(path)

    @pytest.mark.parametrize("psi", [[0, 3.9, 2, 1], [0, 3.0, 2, 1], [0, True, 2, 3], [0, "3", 2, 1]])
    @pytest.mark.parametrize("load", [fileio.load_report, fileio.load_truth])
    def test_psi_entries_must_be_json_integers(self, tmp_path, psi, load):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({"group": {"orders": [4]}, "psi": psi, "conjugation": False}))
        with pytest.raises(FileFormatError, match="integers"):
            load(path)

    @pytest.mark.parametrize("load", [fileio.load_report, fileio.load_truth])
    def test_report_and_truth_share_their_checks(self, tmp_path, load):
        path = tmp_path / "rec.json"
        for record in (
            {"group": {"orders": [2.0]}, "psi": [0, 1], "conjugation": False},
            {"group": {"orders": [2]}, "psi": [0, 1, 2], "conjugation": False},
            {"group": {"orders": [2]}, "psi": [1, 1], "conjugation": False},
            {"group": {"orders": [2]}, "psi": [0, 1], "conjugation": 0},
        ):
            path.write_text(json.dumps(record))
            with pytest.raises(FileFormatError):
                load(path)

    @pytest.mark.parametrize(
        "orders, psi",
        [((8,), [0, 2, 1, 3, 4, 5, 6, 7]), ((2, 4), [0, 2, 1, 3, 4, 5, 6, 7]), ((3,), [1, 2, 0])],
        ids=["swap-on-z8", "swap-on-z2-x-z4", "moves-zero"],
    )
    @pytest.mark.parametrize("load", [fileio.load_report, fileio.load_truth])
    def test_psi_must_be_an_automorphism(self, tmp_path, orders, psi, load):
        # Each psi is a bijection of the indices that does not respect addition.
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({"group": {"orders": list(orders)}, "psi": psi, "conjugation": False}))
        with pytest.raises(FileFormatError, match="rec.json.*automorphism"):
            load(path)

    @pytest.mark.parametrize("entry", [2**70, 2**63, -(2**70)])
    @pytest.mark.parametrize("load", [fileio.load_report, fileio.load_truth])
    def test_psi_entry_past_int64_is_a_format_error(self, tmp_path, entry, load):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({"group": {"orders": [2]}, "psi": [0, entry], "conjugation": False}))
        with pytest.raises(FileFormatError, match="rec.json"):
            load(path)

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

    @pytest.mark.parametrize(
        "seed, message",
        [(2.7, "seed must be an integer, got 2.7"), (True, "seed must be an integer, got True"), (-1, "seed must be >= 0, got -1")],
    )
    def test_truth_seed_is_not_truncated(self, tmp_path, seed, message):
        path = tmp_path / "t.json"
        with pytest.raises(ValueError, match=message):
            fileio.save_truth(path, Group((2,)), (0, 1), False, seed)
        assert not path.exists()

    @pytest.mark.parametrize(
        "psi, message",
        [((0, 1.9), "a psi entry must be an integer, got 1.9"), ((0, True), "got True"), ([0, "1"], "got '1'")],
    )
    def test_truth_psi_is_not_truncated(self, tmp_path, psi, message):
        path = tmp_path / "t.json"
        with pytest.raises(ValueError, match=message):
            fileio.save_truth(path, Group((2,)), psi, False, 0)
        assert not path.exists()


def _reference_pairs(values):
    """The per-entry [re, im] lists the writers produced before they were vectorized."""
    values = np.asarray(values)
    if values.ndim > 1:
        return [_reference_pairs(row) for row in values]
    return [[float(v.real), float(v.imag)] for v in values]


def _parsed(path):
    # Re-encoding makes -0.0 and 0.0 (equal under ==) compare as different text.
    return json.dumps(json.loads(path.read_text()))


class TestWriters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)])
    def test_function_with_non_finite_value_leaves_no_file(self, tmp_path, bad):
        values = np.array([1.0, bad, 2.0], dtype=np.complex128)
        path = tmp_path / "f.json"
        with pytest.raises(FileFormatError):
            fileio.save_function(path, GFunction(Group((3,)), PRIMAL, values))
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_operator_with_non_finite_entry_leaves_no_file(self, tmp_path, bad):
        matrix = np.eye(3, dtype=np.complex128)
        matrix[2, 1] = bad
        op = Operator.from_matrix(Group((3,)), PRIMAL, PRIMAL, matrix)
        path = tmp_path / "op.json"
        with pytest.raises(FileFormatError):
            fileio.save_operator(path, op)
        assert not path.exists()

    def test_operator_negative_zeros_survive_bit_for_bit(self, tmp_path):
        matrix = np.array(
            [[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.5]]
        )
        path = tmp_path / "op.json"
        fileio.save_operator(path, Operator.from_matrix(Group((2,)), PRIMAL, PRIMAL, matrix))
        loaded = fileio.load_operator(path).matrix
        assert np.ascontiguousarray(loaded).view(np.uint64).tolist() == matrix.view(np.uint64).tolist()

    def test_non_contiguous_inputs_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        group = Group((3, 2))
        f = GFunction(group, DUAL, base[:, 1])
        fileio.save_function(tmp_path / "f.json", f)
        assert np.array_equal(fileio.load_function(tmp_path / "f.json").values, base[:, 1])
        # A transposed matrix keeps its column-major layout in op.matrix.
        op = Operator.from_matrix(group, PRIMAL, PRIMAL, base.T)
        assert not op.matrix.flags.c_contiguous
        fileio.save_operator(tmp_path / "op.json", op)
        assert np.array_equal(fileio.load_operator(tmp_path / "op.json").matrix, base.T)

    @pytest.mark.parametrize("orders,form,conjugation", [((8, 16), "T", False), ((2, 64), "U", True)])
    def test_operator_record_stays_row_major(self, tmp_path, orders, form, conjugation):
        # op.matrix is stored column-major; the file holds the rows, as before.
        group = Group(orders)
        psi = random_automorphism(group, 5)
        op = Operator.from_matrix(
            group, PRIMAL, DUAL if form == "T" else PRIMAL, reference_operator_matrix(group, psi, form), conjugation
        )
        assert op.matrix.flags.f_contiguous
        record = {
            "group": {"orders": list(orders)},
            "input_side": PRIMAL,
            "output_side": op.output_side,
            "conjugate_input": conjugation,
            "matrix": _reference_pairs(np.ascontiguousarray(op.matrix)),
        }
        path = tmp_path / "op.json"
        fileio.save_operator(path, op)
        assert path.read_bytes() == (json.dumps(record, allow_nan=False) + "\n").encode()

    @staticmethod
    def _distinct_values(rng, shape):
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = values.reshape(-1)
        flat[:4] = [complex(-0.0, 0.0), complex(5e-324, 1e-300), complex(1e300, -0.0), complex(3.0, -2.0)]
        return values

    def test_function_bytes_for_distinct_values(self, tmp_path):
        values = self._distinct_values(np.random.default_rng(6), 12)
        record = {"group": {"orders": [3, 4]}, "side": "dual", "values": _reference_pairs(values)}
        path = tmp_path / "f.json"
        fileio.save_function(path, GFunction(Group((3, 4)), DUAL, values))
        assert path.read_bytes() == (json.dumps(record, allow_nan=False) + "\n").encode()

    def test_operator_bytes_for_distinct_values(self, tmp_path):
        matrix = np.asfortranarray(self._distinct_values(np.random.default_rng(7), (6, 6)))
        op = Operator.from_matrix(Group((2, 3)), PRIMAL, DUAL, matrix, conjugate_input=True)
        assert op.matrix.flags.f_contiguous
        record = {
            "group": {"orders": [2, 3]},
            "input_side": PRIMAL,
            "output_side": DUAL,
            "conjugate_input": True,
            "matrix": _reference_pairs(matrix),
        }
        path = tmp_path / "op.json"
        fileio.save_operator(path, op)
        assert path.read_bytes() == (json.dumps(record, allow_nan=False) + "\n").encode()
        loaded = fileio.load_operator(path).matrix
        assert np.array_equal(np.ascontiguousarray(loaded).view(np.uint64), np.ascontiguousarray(matrix).view(np.uint64))

    def test_indented_layout_still_loads(self, tmp_path):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        matrix[0, 0] = complex(-0.0, -0.0)
        record = {
            "group": {"orders": [2, 2]},
            "input_side": "primal",
            "output_side": "dual",
            "conjugate_input": True,
            "matrix": _reference_pairs(matrix),
        }
        path = tmp_path / "op.json"
        path.write_text(json.dumps(record, allow_nan=False, indent=1) + "\n")
        loaded = fileio.load_operator(path)
        assert loaded.conjugate_input is True and loaded.output_side == DUAL
        assert np.ascontiguousarray(loaded.matrix).view(np.uint64).tolist() == matrix.view(np.uint64).tolist()

    def test_records_parse_to_the_per_entry_reference(self, tmp_path):
        rng = np.random.default_rng(5)
        group = Group((3, 2))
        values = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 1e-300
        values[1] = complex(-0.0, 0.0)
        fileio.save_function(tmp_path / "f.json", GFunction(group, PRIMAL, values))
        assert _parsed(tmp_path / "f.json") == json.dumps(
            {"group": {"orders": [3, 2]}, "side": "primal", "values": _reference_pairs(values)}
        )

        psi = random_automorphism(group, 2)
        matrix = reference_operator_matrix(group, psi, "T")
        op = Operator.from_matrix(group, PRIMAL, DUAL, matrix, conjugate_input=True)
        fileio.save_operator(tmp_path / "op.json", op)
        assert _parsed(tmp_path / "op.json") == json.dumps(
            {
                "group": {"orders": [3, 2]},
                "input_side": "primal",
                "output_side": "dual",
                "conjugate_input": True,
                "matrix": _reference_pairs(matrix),
            }
        )

        report = {
            "group": {"orders": [3, 2]},
            "psi": list(psi.perm),
            "conjugation": True,
            "residual": np.float64(1 / 3),
            "diagnostics": {"errors": [0.1, float("inf"), -0.0], "exhaustive": True},
            "hypothesis_errors": {"a": float("nan"), "b": 2e-17},
            "version": "0.1.0",
            "seed": 7,
        }
        fileio.save_report(tmp_path / "rep.json", report)
        assert _parsed(tmp_path / "rep.json") == json.dumps(
            {
                "group": {"orders": [3, 2]},
                "psi": list(psi.perm),
                "conjugation": True,
                "residual": 1 / 3,
                "diagnostics": {"errors": [0.1, None, -0.0], "exhaustive": True},
                "hypothesis_errors": {"a": None, "b": 2e-17},
                "version": "0.1.0",
                "seed": 7,
            }
        )

        fileio.save_truth(tmp_path / "t.json", group, np.array(psi.perm), False, 11)
        assert _parsed(tmp_path / "t.json") == json.dumps(
            {"group": {"orders": [3, 2]}, "psi": list(psi.perm), "conjugation": False, "seed": 11}
        )

    def test_records_are_one_line(self, tmp_path):
        group = Group((4,))
        fileio.save_function(tmp_path / "f.json", GFunction(group, PRIMAL, np.arange(4)))
        assert fileio.load_function(tmp_path / "f.json").values.tolist() == [0, 1, 2, 3]
        assert (tmp_path / "f.json").read_text().count("\n") == 1


_OP_HEADER = '"group": {"orders": [2]}, "input_side": "primal", "output_side": "primal", "conjugate_input": false'
_MATRIX = "[[[1.5, -0.0], [2e-3, 0]], [[7, 1e300], [-0.1, 3.0]]]"
_FN_HEADER = '"group": {"orders": [3]}, "side": "dual"'
_VALUES = "[[0.5, -1.25], [1e-300, 0], [2, 3.0]]"


def _op(matrix=_MATRIX, header=_OP_HEADER):
    return "{" + header + ', "matrix": ' + matrix + "}"


def _fn(values=_VALUES, header=_FN_HEADER):
    return "{" + header + ', "values": ' + values + "}"


def _entry(token):
    """An operator record whose last matrix entry is the text ``token``."""
    return _op(_MATRIX.replace("3.0]", token + "]"))


_KIND = {"operator": (fileio.load_operator, "matrix", 2), "function": (fileio.load_function, "values", 1)}


def _outcome(load, path):
    """What ``load`` makes of ``path``: the error's type and message, or the record's
    fields with its array's bits and flags."""
    try:
        loaded = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(loaded, Operator):
        fields, array = (loaded.group, loaded.input_side, loaded.output_side, loaded.conjugate_input), loaded.matrix
    else:
        fields, array = (loaded.group, loaded.side), loaded.values
    flags = [array.flags[name] for name in ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED")]
    return fields, np.ascontiguousarray(array).view(np.uint64).tolist(), flags


def _scan_takes(text, key, ndim):
    try:
        return fileio._scan_record(text, key, ndim) is not None
    except (ValueError, RecursionError):
        return False


def _full_parse_outcome(load, path):
    """``_outcome`` with every record parsed whole by _load_json, the scan bypassed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_load_array_record", lambda path, key, ndim: fileio._load_json(path))
        return _outcome(load, path)


class TestFlatScan:
    """The flat scan of a record's array against the full parse that it must match."""

    @pytest.mark.parametrize(
        "kind, text, taken",
        [
            pytest.param("operator", _op(), True, id="operator"),
            pytest.param("function", _fn(), True, id="function"),
            pytest.param("operator", _op("[[[1, 5], [0, 0]]2, [[3, 4], [0, 0]]]"), False, id="tokens-across-a-bracket"),
            pytest.param("function", _fn("[[1, 5]2, [3, 4], [0, 0]]"), False, id="function-tokens-across-a-bracket"),
            pytest.param("operator", _op(_MATRIX + " 5"), False, id="junk-after-the-array"),
            pytest.param("operator", "{}" + _op(), False, id="empty-object-prefix"),
            pytest.param("operator", '{"matrix": ' + _MATRIX + ", " + _OP_HEADER + "}", False, id="matrix-first"),
            pytest.param("operator", _op(_MATRIX + ', "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]'), True, id="duplicate-matrix"),
            pytest.param("operator", _op('[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "matrix": ' + _MATRIX), True, id="duplicate-matrix-swapped"),
            pytest.param("operator", _op('"ab", "matrix": ' + _MATRIX), True, id="duplicate-matrix-string-first"),
            pytest.param("operator", json.dumps(json.loads(_op()), indent=2), True, id="indented"),
            pytest.param("operator", json.dumps(json.loads(_op()), separators=(",", ":")), True, id="compact-separators"),
            pytest.param("operator", _op().replace('"matrix":', '"matrix" \t:'), True, id="space-before-colon"),
            # The array must be the record's last member, under its key, after one colon, and only
            # JSON whitespace (space, tab, LF, CR) may follow the record.
            pytest.param("operator", "{" + _OP_HEADER + ', "x\\"matrix": ' + _MATRIX + "}", False, id="escaped-quote-key"),
            pytest.param("operator", _op() + "\x0c", False, id="form-feed-after-brace"),
            pytest.param("operator", _op("1" + _MATRIX), False, id="number-before-array"),
            pytest.param("operator", '{"matrix": 1, ' + _OP_HEADER + ', "Matrix": ' + _MATRIX + "}", False, id="member-after-key"),
            pytest.param("operator", "{" + _OP_HEADER + ', "x": {"matrix": ' + _MATRIX + "}}", False, id="nested-key-last"),
            pytest.param("operator", _op(_MATRIX + ', "x": 1'), False, id="array-then-member"),
            pytest.param("function", json.dumps(json.loads(_fn()), indent="\t") + "\r\n", True, id="function-indented"),
            pytest.param("operator", _entry("-0.0"), True, id="negative-zero"),
            pytest.param("operator", _entry("5e-324"), True, id="subnormal"),
            pytest.param("operator", _op("[[[1, 0], [-0, 2]], [[3, -4], [5, 6]]]"), True, id="integers"),
            pytest.param("operator", _entry(str(10**401)), False, id="big-integer"),
            pytest.param("operator", _entry("1e400"), False, id="overflowing-float"),
            pytest.param("operator", _entry("NaN"), False, id="nan"),
            pytest.param("operator", _entry("-Infinity"), False, id="infinity"),
            pytest.param("operator", _entry("01"), False, id="leading-zero"),
            pytest.param("operator", _entry(".5"), False, id="bare-fraction"),
            pytest.param("operator", _entry("+1"), False, id="plus-sign"),
            pytest.param("operator", _entry("1."), False, id="bare-point"),
            pytest.param("operator", _op(header=_OP_HEADER.replace('"output_side": "primal"', '"output_side": "prïmal"')), True, id="non-ascii-header"),
            pytest.param("function", _fn(header=_FN_HEADER + ', "note": "été \\u00e9"'), True, id="non-ascii-extra-member"),
            pytest.param(
                "operator",
                _op("[[[1, 0]], [[0, 0], [1, 0]]]", _OP_HEADER.replace('"input_side": "primal"', '"input_side": "dual"')),
                False,
                id="dual-with-malformed-matrix",
            ),
            # JSON allows no character outside ASCII in an array of numbers: the scan refuses it unread.
            pytest.param("operator", _op(_MATRIX.replace("1.5", "\uff11.5")), False, id="non-ascii-digit-in-array"),
            pytest.param("function", _fn(_VALUES.replace(", ", ",\u00a0", 1)), False, id="non-ascii-space-in-array"),
            pytest.param("operator", _op(_MATRIX.replace("[[7", "[[ [7")), False, id="extra-bracket"),
            pytest.param("operator", _op(_MATRIX.replace("1.5,", "1.5")), False, id="missing-comma"),
            # Brackets and commas in place, one number in each slot, but outside its slot's brackets.
            pytest.param("operator", _op("[[[1, 0], [0, 0]], [[0, 0], 1[, 0]]]"), False, id="number-before-a-bracket"),
            pytest.param("operator", _op("[[[1, 0], [0, 0]], [[0, 0], [1, ]0]]"), False, id="number-after-a-bracket"),
            pytest.param("operator", _op("[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]"), True, id="3-by-3"),
            pytest.param("operator", _op("[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]"), False, id="2-by-3"),
        ],
    )
    def test_named_records_match_the_full_parse(self, tmp_path, kind, text, taken):
        load, key, ndim = _KIND[kind]
        path = tmp_path / "record.json"
        path.write_bytes(text.encode())
        assert _scan_takes(fileio._read_text(path), key, ndim) is taken
        assert _outcome(load, path) == _full_parse_outcome(load, path)

    @pytest.mark.parametrize("kind, text", [("operator", _op()), ("function", _fn())], ids=["operator", "function"])
    def test_mutated_records_match_the_full_parse(self, tmp_path, kind, text):
        load, key, ndim = _KIND[kind]
        key_start = text.index(key) - 1
        array_start = key_start + len(key) + 4
        path = tmp_path / "record.json"

        def array_biased(rng, size):
            # Three edits in four fall in the array, where the scan does its own reading.
            low = array_start if rng.random() < 0.75 else 0
            return int(rng.integers(low, size + 1))

        def key_biased(rng, size):
            # Every edit falls within a dozen characters of the key, where the scan decides
            # whether the array is the record's last member.
            return int(rng.integers(key_start - 12, min(array_start + 12, size) + 1))

        # The key-biased draw also edits in backslashes; the scan takes 68 (operator) and 128
        # (function) of its 800 records, and its window runs from under half to twice that.
        for position, seed, extra, (least, most) in [(array_biased, 22, "", (40, 760)), (key_biased, 30, "\\", (30, 260))]:
            rng = np.random.default_rng(seed)
            alphabet = list('[]{},:"0123456789.eE+- x' + extra)
            taken = 0
            for _ in range(800):
                mutated = list(text)
                for _ in range(rng.integers(1, 4)):
                    at = position(rng, len(mutated))
                    edit = rng.integers(4)
                    if edit == 0 and at < len(mutated):
                        mutated[at] = str(rng.choice(alphabet))
                    elif edit == 1:
                        mutated.insert(at, str(rng.choice(alphabet)))
                    elif edit == 2 and at < len(mutated):
                        del mutated[at]
                    elif edit == 3 and at + 1 < len(mutated):
                        mutated[at : at + 2] = mutated[at + 1], mutated[at]
                mutated = "".join(mutated)
                path.write_text(mutated)
                taken += _scan_takes(mutated, key, ndim)
                assert _outcome(load, path) == _full_parse_outcome(load, path), mutated
            # Both of the scan's answers come up often enough to be compared.
            assert least <= taken <= most, position.__name__
