"""Command-line surface: transform, convolve, gen-operator, check, recover, bench.

Exit codes follow one contract everywhere: 0 success / pass, 1 checked
failure (hypotheses fail, recovery impossible, truth mismatch), 2 usage or
format error.  All commands are deterministic given their --seed; reports
embed the seed and the tool version.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from . import fileio
from .bench import MAX_BENCH_SIZE, NAIVE_SIZE_CAP, time_transform_paths
from .characterize import DEFAULT_TOL, check_hypotheses, recover, NotEssentiallyFourierError
from .errors import AbelfftError
from .functions import DUAL, PRIMAL, convolve
from .groups import Automorphism, Group, random_automorphism
from .operators import Operator, T_FORM, U_FORM, reference_operator_matrix
from .transform import convolve_fast, dft_naive, fft_forward, fft_inverse, idft_naive


def _print_kv(key: str, value) -> None:
    print(f"{key}: {value}")


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _truth_path(operator_path: str) -> Path:
    return Path(operator_path).with_suffix(".truth.json")


def cmd_transform(args: argparse.Namespace) -> int:
    f = fileio.load_function(args.input)
    if args.inverse:
        if f.side != DUAL:
            print("error: --inverse expects a dual-side function file", file=sys.stderr)
            return 2
        out = idft_naive(f) if args.naive else fft_inverse(f)
    else:
        if f.side != PRIMAL:
            print("error: the forward transform expects a primal-side function file", file=sys.stderr)
            return 2
        out = dft_naive(f) if args.naive else fft_forward(f)
    fileio.save_function(args.output, out)
    return 0


def cmd_convolve(args: argparse.Namespace) -> int:
    f = fileio.load_function(args.f)
    g = fileio.load_function(args.g)
    if f.group != g.group:
        print("error: inputs live on different groups", file=sys.stderr)
        return 2
    if f.side != g.side:
        print("error: inputs live on different sides", file=sys.stderr)
        return 2
    out = convolve(f, g) if args.direct else convolve_fast(f, g)
    fileio.save_function(args.output, out)
    return 0


def cmd_gen_operator(args: argparse.Namespace) -> int:
    group = Group(tuple(args.orders))
    if args.psi == "identity":
        psi = Automorphism.identity(group)
    else:
        psi = random_automorphism(group, args.seed)
    matrix = reference_operator_matrix(group, psi, args.form)
    output_side = DUAL if args.form == T_FORM else PRIMAL
    op = Operator.from_matrix(group, PRIMAL, output_side, matrix, args.conjugate)
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
    _print_kv("trials", report.trials)
    _print_kv("tol", report.tol)
    _print_kv("passed", report.passed)
    payload = {"hypothesis_errors": report.as_dict(), "version": __version__, "seed": args.seed}
    print(json.dumps(fileio.finite_or_null(payload), allow_nan=False))
    return 0 if report.passed else 1


def cmd_recover(args: argparse.Namespace) -> int:
    op = fileio.load_operator(args.operator)
    try:
        report = recover(op, tol=args.tol)
    except NotEssentiallyFourierError as exc:
        _print_kv("recovered", False)
        _print_kv("reason", f"{exc.step}: {exc}")
        for key, value in exc.details.items():
            _print_kv(f"detail_{key}", value)
        return 1
    hypothesis = check_hypotheses(op, trials=args.trials, seed=args.check_seed, tol=args.tol)
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
    if args.truth:
        truth = fileio.load_truth(args.truth)
        if truth["group"] != op.group:
            print("error: truth sidecar describes a different group", file=sys.stderr)
            return 2
        matches = truth["psi"] == list(report.psi.perm) and truth["conjugation"] == report.conjugation
        _print_kv("truth_match", matches)
        if not matches:
            return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    group = Group(tuple(args.orders))
    if group.size > MAX_BENCH_SIZE:
        print(f"error: benchmark capped at size {MAX_BENCH_SIZE}", file=sys.stderr)
        return 2
    result = time_transform_paths(group, reps=args.reps, seed=args.seed)
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
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("convolve", help="convolve two function files on the same side")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("-o", "--output", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--direct", action="store_true", help="direct quadratic sum")
    mode.add_argument("--fft", action="store_true", help="transform-multiply-inverse (default)")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("gen-operator", help="write a reference operator plus a truth sidecar")
    p.add_argument("--orders", nargs="+", type=int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--conjugate", action="store_true")
    p.add_argument("--form", choices=[T_FORM, U_FORM], required=True)
    p.add_argument("--psi", choices=["identity", "random"], default="random")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_operator)

    p = sub.add_parser("check", help="check the algebraic hypotheses of an operator file")
    p.add_argument("operator")
    p.add_argument("--trials", type=_positive_int, default=16)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("recover", help="recover the automorphism and conjugation flag")
    p.add_argument("operator")
    p.add_argument("-o", "--output")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--truth", help="truth sidecar to verify the recovery against")
    p.add_argument("--trials", type=_positive_int, default=8, help="random pairs for the embedded check")
    p.add_argument("--check-seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("bench", help="time the fast path against the reference path")
    p.add_argument("--orders", nargs="+", type=int, required=True)
    p.add_argument("--reps", type=_positive_int, default=20)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (AbelfftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
