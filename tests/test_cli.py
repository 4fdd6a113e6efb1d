import json

import numpy as np
import pytest

from abelfft import (
    DUAL,
    PRIMAL,
    Group,
    delta,
    fileio,
    max_abs_diff,
    random_function,
)
from abelfft.cli import main


def write_function(path, f):
    fileio.save_function(path, f)
    return str(path)


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

    def test_inverse_side_mismatch_exits_2(self, tmp_path):
        g = Group((2,))
        inp = write_function(tmp_path / "f.json", delta(g, 0))  # primal side
        assert main(["transform", inp, "-o", str(tmp_path / "o.json"), "--inverse"]) == 2

    def test_forward_side_mismatch_exits_2(self, tmp_path):
        g = Group((2,))
        inp = write_function(tmp_path / "F.json", delta(g, 0, DUAL))
        assert main(["transform", inp, "-o", str(tmp_path / "o.json")]) == 2

    def test_missing_argument_exits_2(self):
        assert main(["transform"]) == 2


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

    def test_group_mismatch_exits_2(self, tmp_path):
        a = write_function(tmp_path / "a.json", delta(Group((2,)), 0))
        b = write_function(tmp_path / "b.json", delta(Group((3,)), 0))
        assert main(["convolve", a, b, "-o", str(tmp_path / "c.json")]) == 2

    def test_side_mismatch_exits_2(self, tmp_path):
        g = Group((2,))
        a = write_function(tmp_path / "a.json", delta(g, 0, PRIMAL))
        b = write_function(tmp_path / "b.json", delta(g, 0, DUAL))
        assert main(["convolve", a, b, "-o", str(tmp_path / "c.json")]) == 2


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

    def test_zero_trials_exits_2(self, tmp_path):
        op_path, _ = self.gen(tmp_path)
        assert main(["recover", str(op_path), "--trials", "0"]) == 2


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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["gen-operator", "--orders", "4", "--form", "U", "-o", "OP", "--seed", "-5"],
            ["check", "OP", "--seed", "-1"],
            ["recover", "OP", "--check-seed", "-3"],
            ["bench", "--orders", "8", "--reps", "1", "--seed", "-2"],
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, args):
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--form", "U", "-o", str(op_path)]) == 0
        capsys.readouterr()
        assert main([str(op_path) if a == "OP" else a for a in args]) == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "recover"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, capsys, command, tol):
        op_path = tmp_path / "op.json"
        assert main(["gen-operator", "--orders", "4", "--form", "T", "-o", str(op_path)]) == 0
        capsys.readouterr()
        assert main([command, str(op_path), "--tol", tol]) == 2
        assert "finite number >= 0" in capsys.readouterr().err

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
