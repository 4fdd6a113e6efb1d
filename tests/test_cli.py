import json

import numpy as np
import pytest

from abelfft import (
    DUAL,
    PRIMAL,
    Group,
    check_hypotheses,
    delta,
    fileio,
    max_abs_diff,
    random_function,
)
from abelfft.bench import time_transform_paths
from abelfft import cli
from abelfft.cli import main


def write_function(path, f):
    fileio.save_function(path, f)
    return str(path)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


class TestTransformCommand:
    def test_point_mass_to_constant(self, tmp_path):
        g = Group((2,))
        inp = write_function(tmp_path / "f.json", delta(g, 0))
        out = tmp_path / "F.json"
        assert main(["transform", inp, "-o", str(out)]) == 0
        F = fileio.load_function(out)
        assert F.side == DUAL
        assert np.allclose(F.values, [1, 1])

    def test_inverse_roundtrip(self, tmp_path):
        g = Group((6, 5))
        f = random_function(g, 12)
        inp = write_function(tmp_path / "f.json", f)
        mid, back = tmp_path / "F.json", tmp_path / "f2.json"
        assert main(["transform", inp, "-o", str(mid)]) == 0
        assert main(["transform", str(mid), "-o", str(back), "--inverse"]) == 0
        assert max_abs_diff(fileio.load_function(back), f) <= 1e-9

    def test_naive_matches_fast(self, tmp_path):
        g = Group((6, 5))
        inp = write_function(tmp_path / "f.json", random_function(g, 77))
        fast, naive = tmp_path / "fast.json", tmp_path / "naive.json"
        assert main(["transform", inp, "-o", str(fast)]) == 0
        assert main(["transform", inp, "-o", str(naive), "--naive"]) == 0
        assert max_abs_diff(fileio.load_function(fast), fileio.load_function(naive)) <= 1e-9

    def test_naive_inverse(self, tmp_path):
        g = Group((4, 3))
        f = random_function(g, 3)
        inp = write_function(tmp_path / "f.json", f)
        mid, back = tmp_path / "F.json", tmp_path / "f2.json"
        assert main(["transform", inp, "-o", str(mid), "--naive"]) == 0
        assert main(["transform", str(mid), "-o", str(back), "--inverse", "--naive"]) == 0
        assert max_abs_diff(fileio.load_function(back), f) <= 1e-9

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["transform", str(bad), "-o", str(tmp_path / "out.json")]) == 2

    def test_inverse_side_mismatch_exits_2(self, tmp_path, capsys):
        g = Group((2,))
        inp = write_function(tmp_path / "f.json", delta(g, 0))  # primal side
        for naive in ([], ["--naive"]):
            assert main(["transform", inp, "-o", str(tmp_path / "o.json"), "--inverse"] + naive) == 2
            assert_one_error_line(capsys)

    def test_forward_side_mismatch_exits_2(self, tmp_path, capsys):
        g = Group((2,))
        inp = write_function(tmp_path / "F.json", delta(g, 0, DUAL))
        for naive in ([], ["--naive"]):
            assert main(["transform", inp, "-o", str(tmp_path / "o.json")] + naive) == 2
            assert_one_error_line(capsys)

    def test_missing_argument_exits_2(self):
        assert main(["transform"]) == 2

    @pytest.mark.parametrize("orders", [[2.7], [True, 2]])
    def test_non_integer_orders_exit_2(self, tmp_path, capsys, orders):
        inp = tmp_path / "f.json"
        inp.write_text(json.dumps({"group": {"orders": orders}, "side": "primal", "values": [[1, 0]] * 2}))
        assert main(["transform", str(inp), "-o", str(tmp_path / "o.json")]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "o.json").exists()


class TestConvolveCommand:
    def test_unit(self, tmp_path):
        g = Group((5,))
        f = random_function(g, 8)
        a = write_function(tmp_path / "a.json", delta(g, 0))
        b = write_function(tmp_path / "b.json", f)
        out = tmp_path / "c.json"
        assert main(["convolve", a, b, "-o", str(out)]) == 0
        assert max_abs_diff(fileio.load_function(out), f) <= 1e-9

    def test_point_masses_add_indices(self, tmp_path):
        g = Group((4,))
        a = write_function(tmp_path / "a.json", delta(g, 2))
        b = write_function(tmp_path / "b.json", delta(g, 3))
        out = tmp_path / "c.json"
        assert main(["convolve", a, b, "-o", str(out), "--direct"]) == 0
        assert np.allclose(fileio.load_function(out).values, delta(g, 1).values, atol=1e-12)

    def test_direct_and_fft_agree(self, tmp_path):
        g = Group((6, 5))
        a = write_function(tmp_path / "a.json", random_function(g, 1))
        b = write_function(tmp_path / "b.json", random_function(g, 2))
        d_out, f_out = tmp_path / "d.json", tmp_path / "f.json"
        assert main(["convolve", a, b, "-o", str(d_out), "--direct"]) == 0
        assert main(["convolve", a, b, "-o", str(f_out), "--fft"]) == 0
        assert max_abs_diff(fileio.load_function(d_out), fileio.load_function(f_out)) <= 1e-9

    def test_group_mismatch_exits_2(self, tmp_path, capsys):
        a = write_function(tmp_path / "a.json", delta(Group((2,)), 0))
        b = write_function(tmp_path / "b.json", delta(Group((3,)), 0))
        for mode in ("--direct", "--fft"):
            assert main(["convolve", a, b, "-o", str(tmp_path / "c.json"), mode]) == 2
            assert_one_error_line(capsys)

    def test_side_mismatch_exits_2(self, tmp_path, capsys):
        g = Group((2,))
        a = write_function(tmp_path / "a.json", delta(g, 0, PRIMAL))
        b = write_function(tmp_path / "b.json", delta(g, 0, DUAL))
        for mode in ("--direct", "--fft"):
            assert main(["convolve", a, b, "-o", str(tmp_path / "c.json"), mode]) == 2
            assert_one_error_line(capsys)


class TestGenOperatorCommand:
    def test_identity_u_form(self, tmp_path):
        out = tmp_path / "op.json"
        rc = main(["gen-operator", "--orders", "2", "--psi", "identity", "--form", "U", "-o", str(out)])
        assert rc == 0
        op = fileio.load_operator(out)
        assert np.allclose(op.matrix, np.eye(2))
        assert op.conjugate_input is False

    def test_identity_t_form_matrix(self, tmp_path):
        out = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "2", "--psi", "identity", "--form", "T", "-o", str(out)]) == 0
        op = fileio.load_operator(out)
        assert np.allclose(op.matrix, [[1, 1], [1, -1]])

    def test_conjugate_flips_flag_only(self, tmp_path):
        plain, conj = tmp_path / "p.json", tmp_path / "c.json"
        base = ["gen-operator", "--orders", "2", "--psi", "identity", "--form", "U"]
        assert main(base + ["-o", str(plain)]) == 0
        assert main(base + ["--conjugate", "-o", str(conj)]) == 0
        a, b = fileio.load_operator(plain), fileio.load_operator(conj)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.conjugate_input is False and b.conjugate_input is True

    def test_writes_truth_sidecar(self, tmp_path):
        out = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "2", "--seed", "9", "--form", "T", "-o", str(out)]) == 0
        truth = fileio.load_truth(tmp_path / "op.truth.json")
        assert truth["group"] == Group((4, 2))

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen-operator", "--orders", "3", "3", "--seed", "5", "--form", "U"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert json.loads(a.read_text())["matrix"] == json.loads(b.read_text())["matrix"]

    def test_invalid_orders_exit_2(self, tmp_path):
        assert main(["gen-operator", "--orders", "0", "--form", "U", "-o", str(tmp_path / "x.json")]) == 2

    def test_group_too_large_to_index_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen-operator", "--orders", "99999999999999999999", "--form", "U", "--psi", "identity", "-o", str(out)]) == 2
        assert_one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []


class TestCheckCommand:
    def gen(self, tmp_path, *extra):
        out = tmp_path / "op.json"
        args = ["gen-operator", "--orders", "4", "2", "--seed", "3", "--form", "T", "-o", str(out)]
        assert main(args + list(extra)) == 0
        return out

    def test_reference_passes(self, tmp_path, capsys):
        out = self.gen(tmp_path)
        assert main(["check", str(out), "--trials", "4"]) == 0
        stdout = capsys.readouterr().out
        assert "passed: True" in stdout
        payload = json.loads(stdout.strip().splitlines()[-1])
        assert payload["hypothesis_errors"]["passed"] is True
        assert payload["version"]

    def test_identity_u_form_passes(self, tmp_path):
        out = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "3", "--psi", "identity", "--form", "U", "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    def test_row_swapped_fails(self, tmp_path):
        out = self.gen(tmp_path)
        data = json.loads(out.read_text())
        data["matrix"][0], data["matrix"][1] = data["matrix"][1], data["matrix"][0]
        out.write_text(json.dumps(data))
        assert main(["check", str(out), "--trials", "4"]) == 1

    def test_zero_operator_fails_identity_d(self, tmp_path, capsys):
        out = self.gen(tmp_path)
        data = json.loads(out.read_text())
        data["matrix"] = [[[0.0, 0.0] for _ in row] for row in data["matrix"]]
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(out), "--trials", "4"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert "hypothesis_d_error: 1.0" in lines and "passed: False" in lines
        errors = json.loads(lines[-1])["hypothesis_errors"]
        assert (errors["a"], errors["b"], errors["c"], errors["d"]) == (0.0, 0.0, 0.0, 1.0)
        assert errors["pass_c"] is True and errors["pass_d"] is False and errors["passed"] is False

    def test_malformed_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["check", str(bad)]) == 2

    def test_zero_trials_exits_2(self, tmp_path):
        assert main(["check", str(self.gen(tmp_path)), "--trials", "0"]) == 2

    def test_big_integer_entry_exits_2(self, tmp_path, capsys):
        out = self.gen(tmp_path)
        data = json.loads(out.read_text())
        data["matrix"][2][3] = [10**400, 0]
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(out)]) == 2
        captured = capsys.readouterr()
        assert "too large" in captured.err and "Traceback" not in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_entry_fails_with_null_errors(self, tmp_path, capsys):
        out = self.gen(tmp_path)
        data = json.loads(out.read_text())
        data["matrix"][2][3] = [1e300, 0.0]
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(out), "--trials", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out.strip().splitlines()[-1])
        errors = payload["hypothesis_errors"]
        assert errors["passed"] is False
        assert None in (errors["a"], errors["b"], errors["c"])

    def test_overflowing_float_entry_exits_2(self, tmp_path, capsys):
        # json reads 1e400 as inf.
        out = self.gen(tmp_path)
        data = json.loads(out.read_text())
        data["matrix"][2][3] = [123.25, 0.0]
        out.write_text(json.dumps(data).replace("123.25", "1e400"))
        capsys.readouterr()
        assert main(["check", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-finite value" in err and "Traceback" not in err

    def test_zero_group_order_exits_2(self, tmp_path, capsys):
        out = self.gen(tmp_path)
        data = json.loads(out.read_text())
        data["group"]["orders"] = [0]
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad group orders" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "recover"])
    def test_dual_input_record_exits_2(self, tmp_path, capsys, command):
        out = self.gen(tmp_path)
        data = json.loads(out.read_text())
        data["input_side"] = "dual"
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([command, str(out)]) == 2
        assert_one_error_line(capsys)


class TestRecoverCommand:
    def gen(self, tmp_path, *extra):
        out = tmp_path / "op.json"
        args = [
            "gen-operator", "--orders", "4", "2", "--seed", "6", "--form", "T",
            "--conjugate", "-o", str(out),
        ]
        assert main(args + list(extra)) == 0
        return out, tmp_path / "op.truth.json"

    def test_roundtrip_with_truth(self, tmp_path):
        op_path, truth_path = self.gen(tmp_path)
        report_path = tmp_path / "rep.json"
        rc = main(["recover", str(op_path), "-o", str(report_path), "--truth", str(truth_path)])
        assert rc == 0
        report = fileio.load_report(report_path)
        truth = fileio.load_truth(truth_path)
        assert report["psi"] == truth["psi"]
        assert report["conjugation"] is True
        assert report["residual"] <= 1e-9
        assert report["hypothesis_errors"]["passed"] is True

    def test_plain_fourier(self, tmp_path):
        out = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--psi", "identity", "--form", "T", "-o", str(out)]) == 0
        report_path = tmp_path / "rep.json"
        assert main(["recover", str(out), "-o", str(report_path)]) == 0
        report = fileio.load_report(report_path)
        assert report["psi"] == [0, 1, 2, 3]
        assert report["conjugation"] is False

    def test_all_ones_matrix_rejected(self, tmp_path):
        g = Group((4,))
        from abelfft import Operator

        op = Operator.from_matrix(g, PRIMAL, PRIMAL, np.ones((4, 4), dtype=complex))
        path = tmp_path / "op.json"
        fileio.save_operator(path, op)
        assert main(["recover", str(path)]) == 1

    @pytest.mark.parametrize("form", ["T", "U"])
    def test_doubled_record_prints_the_failing_step(self, tmp_path, capsys, form):
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "2", "--seed", "3", "--form", form, "-o", str(op_path)]) == 0
        record = json.loads(op_path.read_text())
        record["matrix"] = [[[2 * v for v in entry] for entry in row] for row in record["matrix"]]
        op_path.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["recover", str(op_path)]) == 1
        recovered, reason, detail = capsys.readouterr().out.splitlines()
        assert recovered == "recovered: False"
        assert reason == "reason: unit-preservation: U(1) deviates from 1 by 1.000e+00 (tol 1.0e-09)"
        key, value = detail.split(": ")
        assert key == "detail_max_error" and float(value) == pytest.approx(1.0)

    def test_exit_code_is_the_recover_verdict_alone(self, tmp_path, capsys):
        # At tol 0 the exact U-form operator is recovered, while the embedded check
        # fails on the rounding of its transforms: recover still exits 0.
        op_path = tmp_path / "op.json"
        args = ["gen-operator", "--orders", "4", "2", "--seed", "3", "--form", "U", "--conjugate", "-o", str(op_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["recover", str(op_path), "--tol", "0", "--truth", str(tmp_path / "op.truth.json")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "truth_match: True" in out and "hypotheses_passed: False" in out

    def test_wrong_truth_exits_1(self, tmp_path):
        op_path, truth_path = self.gen(tmp_path)
        truth = json.loads(truth_path.read_text())
        truth["conjugation"] = False
        truth_path.write_text(json.dumps(truth))
        assert main(["recover", str(op_path), "--truth", str(truth_path)]) == 1

    def test_malformed_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["recover", str(bad)]) == 2

    def test_truth_of_another_group_exits_2(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        small, big = tmp_path / "a" / "op.json", tmp_path / "b" / "op.json"
        assert main(["gen-operator", "--orders", "2", "2", "--form", "U", "-o", str(small)]) == 0
        assert main(["gen-operator", "--orders", "4", "--form", "U", "-o", str(big)]) == 0
        capsys.readouterr()
        assert main(["recover", str(big), "--truth", str(tmp_path / "a" / "op.truth.json")]) == 2
        assert "truth sidecar describes a different group" in capsys.readouterr().err

    @pytest.mark.parametrize("psi", [[0, 1, 2, 3.9], [0, True, 2, 3], [0, 1, 2, "3"]])
    def test_non_integer_truth_psi_exits_2(self, tmp_path, capsys, psi):
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--psi", "identity", "--form", "U", "-o", str(op_path)]) == 0
        truth_path = tmp_path / "op.truth.json"
        truth = json.loads(truth_path.read_text())
        truth["psi"] = psi  # the identity [0, 1, 2, 3] if each entry were cast to int
        truth_path.write_text(json.dumps(truth))
        capsys.readouterr()
        assert main(["recover", str(op_path), "--truth", str(truth_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "integers" in err and "Traceback" not in err

    def test_truth_psi_that_is_not_an_automorphism_exits_2(self, tmp_path, capsys):
        # Swapping 1 and 2 on Z_8 is a bijection that fixes 0, but 1 + 1 = 2 goes to 2 + 2 = 4, not 1.
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "8", "--form", "U", "-o", str(op_path)]) == 0
        truth_path = tmp_path / "bad.truth.json"
        truth = json.loads((tmp_path / "op.truth.json").read_text())
        truth["psi"] = [0, 2, 1, 3, 4, 5, 6, 7]
        truth_path.write_text(json.dumps(truth))
        capsys.readouterr()
        assert main(["recover", str(op_path), "--truth", str(truth_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad.truth.json" in captured.err and "automorphism" in captured.err

    @pytest.mark.parametrize("sidecar", ["missing", "other-group"])
    def test_bad_truth_exits_2_before_recovering(self, tmp_path, capsys, sidecar):
        op_path, truth_path = self.gen(tmp_path)
        if sidecar == "missing":
            truth_path = tmp_path / "missing.json"
        else:
            truth_path = tmp_path / "other" / "op.truth.json"
            truth_path.parent.mkdir()
            assert main(["gen-operator", "--orders", "8", "--form", "T", "-o", str(truth_path.parent / "op.json")]) == 0
        report_path = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["recover", str(op_path), "-o", str(report_path), "--truth", str(truth_path)]) == 2
        assert capsys.readouterr().out == ""
        assert not report_path.exists()

    @pytest.mark.parametrize("option", [["--trials", "4"], ["--check-seed", "1"]], ids=["trials", "check-seed"])
    def test_removed_options_exit_2(self, tmp_path, capsys, option):
        op_path, _ = self.gen(tmp_path)
        capsys.readouterr()
        assert main(["recover", str(op_path), *option]) == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_report_embeds_the_default_check(self, tmp_path):
        # 8 random pairs with seed 0, at the recover tolerance.
        op_path, _ = self.gen(tmp_path)
        report_path = tmp_path / "rep.json"
        assert main(["recover", str(op_path), "-o", str(report_path)]) == 0
        expected = check_hypotheses(fileio.load_operator(op_path), trials=8, seed=0, tol=1e-9).as_dict()
        assert fileio.load_report(report_path)["hypothesis_errors"] == expected

    @pytest.mark.parametrize("tol", ["0.5", "0.6", "1"])
    def test_tolerance_from_one_half_exits_2(self, tmp_path, capsys, tol):
        op_path, _ = self.gen(tmp_path)
        capsys.readouterr()
        assert main(["recover", str(op_path), "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"error: tol must be a finite number >= 0 and < 0.5, got {float(tol)!r}"
        ]
        assert "Traceback" not in err
        # check compares errors against tol as a plain threshold, so it takes any finite tol.
        assert main(["check", str(op_path), "--tol", "0.6"]) == 0


class TestBenchCommand:
    def test_small_run(self, capsys):
        assert main(["bench", "--orders", "8", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "fft_median_s" in out and "speedup" in out

    def test_trivial_group(self):
        assert main(["bench", "--orders", "1", "--reps", "1"]) == 0

    def test_naive_skipped_above_cap(self, capsys):
        assert main(["bench", "--orders", "8192", "--reps", "1"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_oversize_exits_2(self):
        assert main(["bench", "--orders", str(1 << 23), "--reps", "1"]) == 2

    def test_zero_reps_exits_2(self):
        assert main(["bench", "--orders", "4", "--reps", "0"]) == 2


class TestBenchLibrary:
    @pytest.mark.parametrize("reps", [0, -3])
    def test_non_positive_reps_raise_value_error(self, reps):
        with pytest.raises(ValueError, match=f"reps must be >= 1, got {reps}"):
            time_transform_paths(Group((4,)), reps=reps)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"reps": True}, "reps must be an integer, got True"),
            ({"reps": 2.5}, "reps must be an integer, got 2.5"),
            ({"seed": 0.5}, "seed must be an integer, got 0.5"),
            ({"seed": -2}, "seed must be >= 0, got -2"),
        ],
    )
    def test_reps_and_seed_must_be_integers(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            time_transform_paths(Group((4,)), **{"reps": 1, **kwargs})


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["gen-operator", "--orders", "4", "--form", "U", "-o", "OP", "--seed", "-5"],
            ["check", "OP", "--seed", "-1"],
            ["check", "OP", "--seed=-3"],
            ["bench", "--orders", "8", "--reps", "1", "--seed", "-2"],
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, args):
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--form", "U", "-o", str(op_path)]) == 0
        capsys.readouterr()
        assert main([str(op_path) if a == "OP" else a for a in args]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "recover"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, capsys, command, tol):
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--form", "T", "-o", str(op_path)]) == 0
        capsys.readouterr()
        assert main([command, str(op_path), "--tol", tol]) == 2
        assert "finite number >= 0" in capsys.readouterr().err

    def test_non_numeric_tolerance_exits_2(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--form", "T", "-o", str(op_path)]) == 0
        capsys.readouterr()
        assert main(["check", str(op_path), "--tol", "abc"]) == 2
        assert "argument --tol: invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, name",
        [
            (["check", "OP", "--tol", "-1"], "tol"),
            (["check", "OP", "--trials", "0"], "trials"),
            (["check", "OP", "--trials", "2.5"], "trials"),
            (["check", "OP", "--seed", "-1"], "seed"),
            (["recover", "OP", "-o", "NEW", "--tol", "0.5"], "tol"),
            (["gen-operator", "--orders", "4", "--form", "U", "--psi", "identity", "--seed", "-1", "-o", "NEW"], "seed"),
            (["gen-operator", "--orders", "4", "--form", "U", "--seed", "-1", "-o", "NEW"], "seed"),
            (["bench", "--orders", "4", "--reps", "0"], "reps"),
            (["bench", "--orders", "4", "--reps", "1", "--seed", "-2"], "seed"),
        ],
    )
    def test_bad_argument_value_exits_2_with_one_error_naming_it(self, tmp_path, capsys, args, name):
        # argparse only parses numbers; the library function that takes the value refuses it.
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--form", "T", "-o", str(op_path)]) == 0
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        paths = {"OP": str(op_path), "NEW": str(tmp_path / "new.json")}
        assert main([paths.get(a, a) for a in args]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and name in errors[0], err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["check", "recover"])
    def test_deeply_nested_record_exits_2(self, deeply_nested_operator, capsys, command):
        assert main([command, str(deeply_nested_operator)]) == 2
        assert_one_error_line(capsys)

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr("abelfft.cli.reference_operator_matrix", no_memory)
        assert main(["gen-operator", "--orders", "100000", "--form", "U", "-o", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 149. GiB\n"
        assert not (tmp_path / "x.json").exists()

    def test_non_utf8_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "op.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestVersion:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "abelfft" in capsys.readouterr().out


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_calls(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "2", "--seed", "3", "--form", "U", "-o", str(op_path)]) == 0
        capsys.readouterr()
        calls = [["check", str(op_path), "--seed", "-1"], ["check", str(op_path)], ["--version"]]

        def run(args):
            code = main(args)
            out = capsys.readouterr()
            return code, out.out, out.err

        fresh = []
        for args in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(args))
        cli._build_parser.cache_clear()
        reused = [run(args) for args in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0, 0]
        assert "seed must be >= 0" in reused[0][2] and reused[2][1].startswith("abelfft ")

    def test_a_command_wrapped_after_the_parser_is_built_is_the_one_run(self, tmp_path, monkeypatch):
        # A tracer may wrap cmd_* functions at any time; the cached parser must not hold the old ones.
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--form", "T", "-o", str(op_path)]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.operator) or 7)
        assert main(["check", str(op_path)]) == 7
        assert seen == [str(op_path)]
