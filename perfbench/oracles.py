"""Independent checks of every benchmark job, plus a self-test with planted wrong answers.

The oracles use numpy and the benchmark's own inputs, never the library
under test, so a traced run counts only the work of the jobs themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Relative error allowed against np.fft.fftn and on a forward/inverse round trip.
TRANSFORM_RTOL = 1e-10
# Absolute tolerance of the library's verdicts (characterize.DEFAULT_TOL).
VERDICT_TOL = 1e-9


@dataclass
class Outcome:
    """One job's timed library work and its verdict; known_defect marks a documented failure.

    probe_s is the mean host-speed probe sample taken while the job ran, nan if
    none was, and nominal_s the nominal time of the kernel sampled.
    """

    seconds: float
    ok: bool
    note: str = ""
    known_defect: bool = False
    extra: dict = field(default_factory=dict)
    probe_s: float = math.nan
    nominal_s: float = math.nan


def rel_err(out: np.ndarray, ref: np.ndarray) -> float:
    """max |out - ref| / max |ref|; NaN or inf anywhere gives inf."""
    if not (np.all(np.isfinite(out)) and np.all(np.isfinite(ref))):
        return float("inf")
    scale = float(np.max(np.abs(ref))) or 1.0
    return float(np.max(np.abs(out - ref))) / scale


def transform_ok(out: np.ndarray, ref: np.ndarray) -> bool:
    return rel_err(out, ref) <= TRANSFORM_RTOL


def recovery_ok(psi, conjugation, truth_psi, truth_conjugation, residual) -> bool:
    return (
        list(psi) == list(truth_psi)
        and bool(conjugation) == bool(truth_conjugation)
        and residual <= VERDICT_TOL
    )


def cli_ok(exit_code: int, expected_exit_code: int, output_ok: bool) -> bool:
    return exit_code == expected_exit_code and output_ok


def self_test(seed: int) -> tuple[int, int]:
    """Feed each oracle one planted wrong answer; returns (planted, counted as failed)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    ref = np.fft.fftn(values)
    corrupted = ref.copy()
    corrupted[int(rng.integers(256))] += 1e-6 * float(np.max(np.abs(ref)))
    truth = list(rng.permutation(64))
    wrong_psi = truth.copy()
    wrong_psi[1], wrong_psi[2] = wrong_psi[2], wrong_psi[1]
    verdicts = [
        transform_ok(corrupted, ref),
        recovery_ok(wrong_psi, False, truth, False, 0.0),
        cli_ok(0, expected_exit_code=1, output_ok=True),
    ]
    # The unplanted answers must still pass, or the oracles reject everything.
    controls = [
        transform_ok(ref.copy(), ref),
        recovery_ok(truth, False, truth, False, 0.0),
        cli_ok(1, expected_exit_code=1, output_ok=True),
    ]
    caught = sum(not v for v in verdicts) if all(controls) else 0
    return len(verdicts), caught
