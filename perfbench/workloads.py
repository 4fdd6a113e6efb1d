"""The benchmark's workloads: seeded job lists that drive abelfft through its public API.

Each workload builds its inputs from the seed in ``setup`` and returns a fixed
list of jobs; a job times only its calls into the library and then checks
the result with an oracle from ``oracles``.  A job's library time leaves out
the time the host-speed probe (``probe``) spent inside it.  Jobs look library
functions up through their modules at call time, so the span wrappers of a
traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from abelfft import characterize, cli, fileio, transform
from abelfft.errors import NotEssentiallyFourierError
from abelfft.functions import DUAL, PRIMAL, GFunction, random_function
from abelfft.groups import Group, random_automorphism
from abelfft.operators import T_FORM, U_FORM, Operator, reference_operator_matrix

import probe
from oracles import VERDICT_TOL, Outcome, cli_ok, recovery_ok, rel_err, transform_ok
from spans import shape_class


@dataclass
class Job:
    key: str
    kind: str
    run: Callable[[], Outcome]
    # (kernel factory, *args) the probe samples while this job runs; None keeps the workload's.
    probe_kernel: tuple | None = None


def run_pass(jobs: list[Job], recorder=None) -> list[tuple[Job, Outcome]]:
    """Run every job once, in order; a job that raises counts as failed."""
    results = []
    for job in jobs:
        if job.probe_kernel:
            probe.use(*job.probe_kernel)
        first_sample = probe.sample_count()
        with recorder.span(f"job.{job.kind}") if recorder else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                outcome = job.run()
            except Exception as exc:  # one broken job must not end the run
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome(perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
        outcome.probe_s = probe.mean_since(first_sample)
        outcome.nominal_s = probe.nominal_s()
        results.append((job, outcome))
    return results


def nominal_seconds(results, pass_probe_s: float) -> float:
    """A pass's library seconds at the probe's nominal host speed: each job's
    seconds times its kernel's nominal time over the mean probe sample taken
    while it ran, or over the pass's mean sample if none was."""
    return sum(o.seconds * o.nominal_s / (pass_probe_s if math.isnan(o.probe_s) else o.probe_s) for _, o in results)


def _label(orders) -> str:
    return "x".join(str(n) for n in orders)


def median_by_key(passes, keep) -> dict[str, float]:
    """Per-job median seconds across passes, for jobs that pass ``keep``."""
    seconds: dict[str, list[float]] = {}
    for results in passes:
        for job, outcome in results:
            if keep(job):
                seconds.setdefault(job.key, []).append(outcome.seconds)
    return {k: statistics.median(v) for k, v in seconds.items()}


def _per_pass(passes, keep, value) -> float:
    """Median over passes of value(list of (job, outcome) kept in that pass)."""
    return statistics.median(value([(j, o) for j, o in results if keep(j)]) for results in passes)


class TransformShapes:
    """fft_forward, fft_inverse and convolve_fast over the shape matrix, checked by np.fft."""

    name = "transform-shapes"
    probe_kernel = staticmethod(probe.transform_kernel)
    shapes = ((4096,), (1 << 18,), (4099,), (65537,), (15015,), (64, 64), (8, 9, 5, 7), (2,) * 12)
    naive_limit = 4096

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        rng = np.random.default_rng(seed)
        self.inputs = []
        jobs: list[Job] = []
        for orders in self.shapes:
            group = Group(orders)
            f, h = random_function(group, rng), random_function(group, rng)
            self.inputs.append((group, f))
            jobs += self._shape_jobs(group, f, h)
            # Warm-up: plan tables of the library and of np.fft.
            transform.fft_inverse(transform.fft_forward(f))
            transform.convolve_fast(f, h)
            np.fft.ifftn(np.fft.fftn(f.values.reshape(orders)))
        return jobs

    def _shape_jobs(self, group: Group, f: GFunction, h: GFunction) -> list[Job]:
        orders, n, label = group.orders, group.size, _label(group.orders)
        extra = {"n": n, "class": shape_class(orders)}
        slot: dict[str, GFunction] = {}

        def forward() -> Outcome:
            F, seconds = probe.timed(lambda: transform.fft_forward(f))
            slot["F"] = F
            ref, numpy_s = probe.timed(lambda: np.fft.fftn(f.values.reshape(orders)).reshape(-1))
            ok = F.side == DUAL and transform_ok(F.values, ref)
            return Outcome(seconds, ok, f"rel_err {rel_err(F.values, ref):.2e}", extra={**extra, "numpy_s": numpy_s})

        def inverse() -> Outcome:
            # Round trip: the inverse of this pass's forward output must give f back.
            F = slot.pop("F")
            g, seconds = probe.timed(lambda: transform.fft_inverse(F))
            ref = np.fft.ifftn(F.values.reshape(orders)).reshape(-1)
            ok = g.side == PRIMAL and transform_ok(g.values, ref) and transform_ok(g.values, f.values)
            return Outcome(seconds, ok, f"round trip {rel_err(g.values, f.values):.2e}", extra=extra)

        def convolve() -> Outcome:
            c, seconds = probe.timed(lambda: transform.convolve_fast(f, h))
            fv, hv = f.values.reshape(orders), h.values.reshape(orders)
            ref = np.fft.ifftn(np.fft.fftn(fv) * np.fft.fftn(hv)).reshape(-1)
            return Outcome(seconds, transform_ok(c.values, ref), f"rel_err {rel_err(c.values, ref):.2e}", extra=extra)

        return [
            Job(f"fwd:{label}", "forward", forward),
            Job(f"inv:{label}", "inverse", inverse),
            Job(f"conv:{label}", "convolve", convolve),
        ]

    def validate(self) -> list[tuple[str, Outcome]]:
        """Once per run: np.fft.fftn and fft_forward against the defining sum, size <= 4096."""
        checks = []
        for group, f in self.inputs:
            if group.size > self.naive_limit:
                continue
            naive, seconds = probe.timed(lambda: transform.dft_naive(f).values)
            ref = np.fft.fftn(f.values.reshape(group.orders)).reshape(-1)
            ok = transform_ok(ref, naive) and transform_ok(transform.fft_forward(f).values, naive)
            checks.append((f"naive:{_label(group.orders)}", Outcome(seconds, ok, f"np.fft vs naive {rel_err(ref, naive):.2e}")))
        return checks

    def detail(self, passes) -> dict[str, tuple[float, str]]:
        def melem_per_s(kinds):
            def rate(results):
                secs = sum(o.seconds for _, o in results)
                return sum(o.extra["n"] for _, o in results) / secs / 1e6
            return _per_pass(passes, lambda j: j.kind in kinds, rate)

        return {
            "transform_melem_per_s": (melem_per_s(("forward", "inverse")), "Melem/s"),
            "convolve_melem_per_s": (melem_per_s(("convolve",)), "Melem/s"),
        }


def _operator(group: Group, psi, form: str, conjugate: bool, matrix=None) -> Operator:
    matrix = reference_operator_matrix(group, psi, form) if matrix is None else matrix
    output_side = DUAL if form == T_FORM else PRIMAL
    return Operator.from_matrix(group, PRIMAL, output_side, matrix, conjugate)


def _corrupt(kind: str, matrix: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A non-Fourier variant of a reference matrix; each kind fails a different recover stage."""
    n = matrix.shape[0]
    out = matrix.copy()
    if kind == "scale":  # U(1) != 1: stage 1
        out *= 1.001
    elif kind == "split-row":  # a point mass maps to a 1/2-valued image: stage 2
        r = int(rng.integers(1, n))
        c = (int(np.flatnonzero(out[r])[0]) + int(rng.integers(1, n))) % n
        out[r] *= 0.5
        out[r, c] += 0.5
    elif kind == "swap":  # a bijective support map that is not additive: stage 3
        a, b = rng.choice(np.arange(1, n), size=2, replace=False)
        out[:, [a, b]] = out[:, [b, a]]
    elif kind == "nudge":  # one entry moved below tol: passes stage 2, fails scalar-independence
        r, c = int(rng.integers(1, n)), int(rng.integers(n))
        out[r, c] += 0.8 * VERDICT_TOL * n
    else:
        raise ValueError(kind)
    return out


class ForensicsDense:
    """check_hypotheses + recover + verify_recovery on in-memory dense operators, plus negatives."""

    name = "forensics-dense"
    probe_kernel = staticmethod(probe.forensics_kernel)
    # (orders, form, conjugate) per tier; every tier has both forms and both flags.
    # n = 1024 has three jobs, not four, so that a pass stays well under a minute.
    tiers = {
        64: (((8, 8), T_FORM, False), ((64,), T_FORM, True), ((2, 4, 8), U_FORM, False), ((4, 4, 4), U_FORM, True)),
        256: (((256,), T_FORM, False), ((16, 16), T_FORM, True), ((4, 8, 8), U_FORM, False), ((2, 2, 64), U_FORM, True)),
        1024: (((1024,), T_FORM, False), ((1024,), T_FORM, True), ((32, 32), U_FORM, False)),
    }
    # (orders, form, conjugate, corruption): rejections early (stage 1) to late (stage 4).
    negatives = (
        ((8, 8), U_FORM, False, "scale"),
        ((64,), U_FORM, True, "split-row"),
        ((16, 16), U_FORM, False, "swap"),
        ((256,), T_FORM, True, "scale"),
        ((1024,), T_FORM, False, "nudge"),
        ((32, 32), U_FORM, True, "scale"),
    )

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        rng = np.random.default_rng(seed)
        jobs = []
        for n, cases in self.tiers.items():
            for orders, form, conjugate in cases:
                group = Group(orders)
                psi = random_automorphism(group, int(rng.integers(1 << 31)))
                op = _operator(group, psi, form, conjugate)
                op.apply(random_function(group, rng))
                key = f"genuine:n{n}:{_label(orders)}:{form}:{'conj' if conjugate else 'plain'}"
                kernel = (probe.forensics_kernel, workdir, n)
                jobs.append(Job(key, f"genuine.n{n}", self._genuine(op, psi.perm, conjugate), kernel))
        for orders, form, conjugate, kind in self.negatives:
            group = Group(orders)
            psi = random_automorphism(group, int(rng.integers(1 << 31)))
            matrix = _corrupt(kind, reference_operator_matrix(group, psi, form), rng)
            op = _operator(group, psi, form, conjugate, matrix)
            op.apply(random_function(group, rng))
            key = f"negative:n{group.size}:{_label(orders)}:{form}:{kind}"
            jobs.append(Job(key, "negative", self._negative(op), (probe.forensics_kernel, workdir, group.size)))
        # Warm-up: one full genuine job on a small group.
        group = Group((4, 2))
        psi = random_automorphism(group, seed)
        self._genuine(_operator(group, psi, T_FORM, False), psi.perm, False)()
        return jobs

    @staticmethod
    def _genuine(op: Operator, truth, conjugate: bool) -> Callable[[], Outcome]:
        def verdict():
            hyp = characterize.check_hypotheses(op)
            try:
                report = characterize.recover(op)
            except NotEssentiallyFourierError as exc:
                return hyp, None, exc.step, None
            return hyp, report, None, characterize.verify_recovery(op, report)

        def job() -> Outcome:
            (hyp, report, step, residual), seconds = probe.timed(verdict)
            if report is None:
                return Outcome(seconds, False, f"recover rejected a genuine operator at {step}")
            recovered = recovery_ok(report.psi.perm, report.conjugation, truth, conjugate, residual)
            note = f"check a={hyp.max_err_a:.2e} b={hyp.max_err_b:.2e} c={hyp.max_err_c:.2e}; residual {residual:.2e}"
            # The seed's documented false rejection (ROADMAP item 2): on the cyclic
            # group of order 1024 in T-form, check fails identity (c) alone.
            known = (
                recovered
                and op.form == T_FORM
                and op.group.orders == (1024,)
                and hyp.pass_a
                and hyp.pass_b
                and hyp.tol < hyp.max_err_c < 1e-6
            )
            return Outcome(seconds, hyp.passed and recovered, note, known_defect=known)

        return job

    @staticmethod
    def _negative(op: Operator) -> Callable[[], Outcome]:
        def verdict():
            try:
                characterize.recover(op)
            except NotEssentiallyFourierError as exc:
                return exc.step
            return None

        def job() -> Outcome:
            step, seconds = probe.timed(verdict)
            if step is None:
                return Outcome(seconds, False, "a non-Fourier operator was accepted")
            return Outcome(seconds, True, f"rejected at {step}")

        return job

    def validate(self) -> list[tuple[str, Outcome]]:
        return []

    def detail(self, passes) -> dict[str, tuple[float, str]]:
        out = {}
        for n in self.tiers:
            by_job = median_by_key(passes, lambda j, n=n: j.kind == f"genuine.n{n}")
            out[f"verdict_s.n{n}"] = (statistics.median(by_job.values()), "s")
        out["reject_s"] = (_per_pass(passes, lambda j: j.kind == "negative", lambda r: sum(o.seconds for _, o in r)), "s")
        return out


def _run_cli(argv: list[str]) -> tuple[int, float, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code, seconds = probe.timed(lambda: cli.main(argv))
    return code, seconds, stdout.getvalue()


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class CliFiles:
    """gen-operator -> check -> recover through abelfft.cli.main on JSON files, plus a negative file."""

    name = "cli-files"
    probe_kernel = staticmethod(probe.cli_kernel)
    cases = (((128,), T_FORM, False), ((8, 16), T_FORM, True), ((2, 64), U_FORM, False), ((4, 4, 8), U_FORM, True))
    negative = ((8, 16), U_FORM, False, "swap")

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = []
        for i, (orders, form, conjugate) in enumerate(self.cases):
            gen_seed = int(rng.integers(1 << 31))
            truth = random_automorphism(Group(orders), gen_seed).perm
            jobs += self._round_trip(workdir, i, orders, form, conjugate, gen_seed, truth)
        orders, form, conjugate, kind = self.negative
        group = Group(orders)
        psi = random_automorphism(group, int(rng.integers(1 << 31)))
        matrix = _corrupt(kind, reference_operator_matrix(group, psi, form), rng)
        negative_path = workdir / "negative.json"
        fileio.save_operator(negative_path, _operator(group, psi, form, conjugate, matrix))
        jobs.append(Job("check:negative", "check.negative", self._command(["check", str(negative_path)], 1, lambda out: "passed: False" in out)))
        jobs.append(Job("recover:negative", "recover.negative", self._command(["recover", str(negative_path)], 1, lambda out: "recovered: False" in out)))
        # Warm-up: one small round trip through every command.
        for job in self._round_trip(workdir, "warmup", (4, 2), T_FORM, False, seed, None):
            job.run()
        return jobs

    def _round_trip(self, workdir: Path, i, orders, form, conjugate, gen_seed, truth) -> list[Job]:
        op_path = workdir / f"op-{i}.json"
        truth_path = op_path.with_suffix(".truth.json")
        report_path = workdir / f"report-{i}.json"
        gen = ["gen-operator", "--orders", *map(str, orders), "--form", form, "--seed", str(gen_seed), "-o", str(op_path)]
        if conjugate:
            gen.append("--conjugate")

        def written(_out: str) -> bool:
            sidecar = _read_json(truth_path)
            return (
                op_path.is_file()
                and isinstance(sidecar, dict)
                and (truth is None or sidecar.get("psi") == list(truth))
                and sidecar.get("conjugation") is conjugate
            )

        def recovered(out: str) -> bool:
            report = _read_json(report_path)
            return (
                "truth_match: True" in out
                and isinstance(report, dict)
                and (truth is None or recovery_ok(report.get("psi", []), report.get("conjugation"), truth, conjugate, report.get("residual", float("inf"))))
            )

        label = f"{i}:{_label(orders)}:{form}"
        return [
            Job(f"gen:{label}", "gen", self._command(gen, 0, written)),
            Job(f"check:{label}", "check", self._command(["check", str(op_path)], 0, lambda out: "passed: True" in out)),
            Job(
                f"recover:{label}",
                "recover",
                self._command(["recover", str(op_path), "-o", str(report_path), "--truth", str(truth_path)], 0, recovered),
            ),
        ]

    @staticmethod
    def _command(argv: list[str], expected_exit_code: int, output_ok: Callable[[str], bool]) -> Callable[[], Outcome]:
        def job() -> Outcome:
            code, seconds, out = _run_cli(argv)
            ok = cli_ok(code, expected_exit_code, output_ok(out))
            reason = next((line for line in out.splitlines() if line.startswith("reason:")), "")
            return Outcome(seconds, ok, f"exit {code} (expected {expected_exit_code}) {reason}".strip())

        return job

    def validate(self) -> list[tuple[str, Outcome]]:
        return []

    def detail(self, passes) -> dict[str, tuple[float, str]]:
        out = {}
        for command in ("gen", "check", "recover"):
            by_job = median_by_key(passes, lambda j, c=command: j.kind == c)
            out[f"cli_s.{command}"] = (statistics.median(by_job.values()), "s")
        return out


WORKLOADS = {w.name: w for w in (TransformShapes, ForensicsDense, CliFiles)}
