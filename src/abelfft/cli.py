"""Command-line surface: transform, convolve, gen-operator, check, recover, bench.

Exit codes follow one contract everywhere: 0 success / pass, 1 checked
failure (hypotheses fail, recovery impossible, truth mismatch), 2 usage or
format error, or not enough memory.  All commands are deterministic given
their --seed; reports embed the seed and the tool version.  argparse only
parses --tol, --trials, --seed and --reps as numbers: the library function
that takes each value checks it, and its message is the one printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from . import fileio
from .bench import NAIVE_SIZE_CAP, time_transform_paths
from .characterize import DEFAULT_CHECK_TRIALS, DEFAULT_TOL, RECOVER_TOL_BOUND, check_hypotheses, recover
from .errors import NotEssentiallyFourierError
from .functions import DUAL, PRIMAL, convolve
from .groups import Automorphism, Group, as_int, random_automorphism
from .operators import Operator, T_FORM, U_FORM, reference_operator_matrix
from .transform import convolve_fast, dft_naive, fft_forward, fft_inverse, idft_naive

RECOVER_CHECK_TRIALS = 8  # random pairs of the check that a recover report embeds


def _print_kv(key: str, value) -> None:
    print(f"{key}: {value}")


def _truth_path(operator_path: str) -> Path:
    return Path(operator_path).with_suffix(".truth.json")


def cmd_transform(args: argparse.Namespace) -> int:
    f = fileio.load_function(args.input)
    if args.inverse:
        out = idft_naive(f) if args.naive else fft_inverse(f)
    else:
        out = dft_naive(f) if args.naive else fft_forward(f)
    fileio.save_function(args.output, out)
    return 0


def cmd_convolve(args: argparse.Namespace) -> int:
    f = fileio.load_function(args.f)
    g = fileio.load_function(args.g)
    out = convolve(f, g) if args.direct else convolve_fast(f, g)
    fileio.save_function(args.output, out)
    return 0


def cmd_gen_operator(args: argparse.Namespace) -> int:
    as_int(args.seed, ValueError, "seed", minimum=0)  # before any file; --psi identity draws no seeded psi
    group = Group(tuple(args.orders))
    if args.psi == "identity":
        psi = Automorphism.identity(group)
    else:
        psi = random_automorphism(group, args.seed)
    output_side = DUAL if args.form == T_FORM else PRIMAL
    # Passed unnamed, so a U-form matrix is freed once the operator holds its factors; the save rebuilds it.
    op = Operator.from_matrix(
        group, PRIMAL, output_side, reference_operator_matrix(group, psi, args.form), args.conjugate
    )
    fileio.save_operator(args.output, op)
    truth = _truth_path(args.output)
    fileio.save_truth(truth, group, psi.perm, args.conjugate, args.seed)
    _print_kv("operator", args.output)
    _print_kv("truth", truth)
    _print_kv("orders", list(group.orders))
    _print_kv("form", args.form)
    _print_kv("conjugation", args.conjugate)
    _print_kv("seed", args.seed)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    op = fileio.load_operator(args.operator)
    report = check_hypotheses(op, trials=args.trials, seed=args.seed, tol=args.tol)
    _print_kv("hypothesis_a_error", report.max_err_a)
    _print_kv("hypothesis_b_error", report.max_err_b)
    _print_kv("hypothesis_c_error", report.max_err_c)
    _print_kv("hypothesis_d_error", report.max_err_d)
    _print_kv("trials", report.trials)
    _print_kv("tol", report.tol)
    _print_kv("passed", report.passed)
    payload = {"hypothesis_errors": report.as_dict(), "version": __version__, "seed": args.seed}
    print(json.dumps(fileio.finite_or_null(payload), allow_nan=False))
    return 0 if report.passed else 1


def cmd_recover(args: argparse.Namespace) -> int:
    op = fileio.load_operator(args.operator)
    # The sidecar is read and checked first, so a bad one exits 2 before any recovery or report file.
    truth = fileio.load_truth(args.truth) if args.truth else None
    if truth is not None and truth["group"] != op.group:
        print("error: truth sidecar describes a different group", file=sys.stderr)
        return 2
    try:
        report = recover(op, tol=args.tol)
    except NotEssentiallyFourierError as exc:
        _print_kv("recovered", False)
        _print_kv("reason", f"{exc.step}: {exc}")
        for key, value in exc.details.items():
            _print_kv(f"detail_{key}", value)
        return 1
    hypothesis = check_hypotheses(op, trials=RECOVER_CHECK_TRIALS, tol=args.tol)
    payload = report.as_dict()
    payload["group"] = {"orders": list(op.group.orders)}
    payload["hypothesis_errors"] = hypothesis.as_dict()
    payload["version"] = __version__
    if args.output:
        fileio.save_report(args.output, payload)
    _print_kv("recovered", True)
    _print_kv("psi", list(report.psi.perm))
    _print_kv("conjugation", report.conjugation)
    _print_kv("residual", report.residual)
    _print_kv("hypotheses_passed", hypothesis.passed)
    if truth is not None:
        matches = truth["psi"] == list(report.psi.perm) and truth["conjugation"] == report.conjugation
        _print_kv("truth_match", matches)
        if not matches:
            return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    result = time_transform_paths(Group(tuple(args.orders)), reps=args.reps, seed=args.seed)
    _print_kv("orders", result["orders"])
    _print_kv("size", result["size"])
    _print_kv("reps", result["reps"])
    _print_kv("fft_median_s", f"{result['fft_median_s']:.6f}")
    if result["naive_median_s"] is None:
        _print_kv("naive_median_s", f"skipped (size above {NAIVE_SIZE_CAP})")
    else:
        _print_kv("naive_median_s", f"{result['naive_median_s']:.6f}")
        _print_kv("speedup", f"{result['speedup']:.1f}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelfft",
        description="Fourier analysis on finite abelian groups and operator recovery.",
    )
    parser.add_argument("--version", action="version", version=f"abelfft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="transform a function file, flipping its side")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--naive", action="store_true", help="use the quadratic reference path")
    p.add_argument("--inverse", action="store_true", help="apply the inverse transform")

    p = sub.add_parser("convolve", help="convolve two function files on the same side")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("-o", "--output", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--direct", action="store_true", help="direct quadratic sum")
    mode.add_argument("--fft", action="store_true", help="transform-multiply-inverse (default)")

    p = sub.add_parser("gen-operator", help="write a reference operator plus a truth sidecar")
    p.add_argument("--orders", nargs="+", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conjugate", action="store_true")
    p.add_argument("--form", choices=[T_FORM, U_FORM], required=True)
    p.add_argument("--psi", choices=["identity", "random"], default="random")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("check", help="check the algebraic hypotheses of an operator file")
    p.add_argument("operator")
    p.add_argument("--trials", type=int, default=DEFAULT_CHECK_TRIALS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="largest identity error that passes, >= 0")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("recover", help="recover the automorphism and conjugation flag")
    p.add_argument("operator")
    p.add_argument("-o", "--output")
    p.add_argument(
        "--tol", type=float, default=DEFAULT_TOL, help=f"largest deviation a stage allows, in [0, {RECOVER_TOL_BOUND})"
    )
    p.add_argument("--truth", help="truth sidecar to verify the recovery against")

    p = sub.add_parser("bench", help="time the fast path against the reference path")
    p.add_argument("--orders", nargs="+", type=int, required=True)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # Looked up at call time, so a command wrapped after the parser was built is the one run.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2

