#!/usr/bin/env python3
"""Benchmark launcher for abelfft.

Run from the repository root:

    python3 perfbench/run.py --workload forensics-dense --seed 1 --seconds 15 --trace 0

It caps the BLAS threads at one, imports abelfft from
./src, sets the workload up several times (timed as setup_s), runs the
workload's fixed job list in passes for about --seconds seconds in this one
process while the host-speed probe samples it, checks every job, and prints
one JSON result as its last line: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer metrics
with --trace 1.  Details, the run environment and (traced) spans are written
under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# Named here as well as in workloads.WORKLOADS: workloads imports numpy, which
# must wait until the BLAS thread cap is set.
WORKLOAD_NAMES = ("transform-shapes", "forensics-dense", "cli-files")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the client is one closed loop, and a second BLAS thread makes
# the library's time depend on whether the host lends the run a second core,
# while the host-speed probe runs on one thread.
BLAS_THREADS = 1
SETUP_REPS = 5
MAX_FAILURE_NOTES = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description="abelfft benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _environment(blas_cap: int) -> dict:
    import numpy  # only after main() has set the BLAS thread cap

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": _usable_cpus(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_thread_cap": blas_cap,
    }


def _clear_library_caches(modules) -> None:
    """Empty every functools cache in abelfft, so each set-up repetition starts cold."""
    for module in modules:
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "abelfft" / "__init__.py").is_file():
        print(f"error: no abelfft sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    abelfft = importlib.import_module("abelfft")
    import_s = perf_counter() - t0
    if Path(abelfft.__file__).resolve().parent != (src / "abelfft").resolve():
        print(f"error: imported abelfft from {abelfft.__file__}, not from {src}", file=sys.stderr)
        return 2

    import oracles
    import probe
    import spans
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    layer_map = json.loads((Path(__file__).parent / "layer_map.json").read_text())["per_layer"]
    if set(layer_map) != {m["name"] for m in declared["per_layer"]}:
        print("error: layer_map.json and the per_layer metrics of BENCHMARK.json differ", file=sys.stderr)
        return 2
    environment = _environment(BLAS_THREADS)

    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)
    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        # The host-speed probe samples set-up and every pass of an untraced
        # run; a traced run leaves it off, so that spans hold library time only.
        if not args.trace:
            probe.start(workload.probe_kernel, workdir)
        first_sample = probe.sample_count()
        setup_reps = []
        for _ in range(SETUP_REPS):
            jobs = []  # drop the previous repetition's inputs before building new ones
            gc.collect()
            _clear_library_caches(spans.library_modules())
            jobs, seconds = probe.timed(lambda: workload.setup(args.seed, workdir))
            setup_reps.append(seconds)
        setup_probe_s = probe.mean_since(first_sample)
        setup_nominal_s = probe.nominal_s()
        checks = workload.validate()
        planted, caught = oracles.self_test(args.seed)

        # Passes run until the next one would overrun --seconds; a traced run
        # alternates untraced and traced passes and keeps at least one of each.
        recorder = spans.Recorder() if args.trace else None
        passes, traced_flags, durations, probe_means = [], [], [], []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            uninstall = spans.install(recorder) if traced else None
            first_sample = probe.sample_count()
            t0 = perf_counter()
            try:
                passes.append(workloads.run_pass(jobs, recorder if traced else None))
            finally:
                if uninstall:
                    uninstall()
            durations.append(perf_counter() - t0)
            probe_means.append(probe.mean_since(first_sample))
            traced_flags.append(traced)
            elapsed = perf_counter() - start
            if len(passes) >= 1 + args.trace and elapsed + statistics.median(durations) > args.seconds:
                break
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    keyed = [(j.key, o) for results in passes for j, o in results] + checks
    attempted = len(keyed)
    failed = sum(not o.ok for _, o in keyed)
    unexplained = [f"{k}: {o.note}" for k, o in keyed if not o.ok and not o.known_defect]
    correct = not unexplained and caught == planted
    setup_raw_s = import_s + statistics.median(setup_reps)
    # Raw seconds drift with the host by more than the bounds allow, so both
    # time metrics are taken at the probe's nominal host speed.
    setup_s = setup_raw_s if args.trace else setup_raw_s * setup_nominal_s / setup_probe_s
    untraced = [r for r, t in zip(passes, traced_flags) if not t]
    walls = [sum(o.seconds for _, o in results) for results in untraced]
    untraced_probe = [m for m, t in zip(probe_means, traced_flags) if not t]
    nominal_walls = [] if args.trace else [workloads.nominal_seconds(r, m) for r, m in zip(untraced, untraced_probe)]
    wall_nominal_s = statistics.median(nominal_walls) if nominal_walls else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    by_job = workloads.median_by_key(untraced, lambda j: True)
    job_summary: dict[str, dict] = {}
    for key, o in keyed:
        entry = job_summary.setdefault(key, {"s": by_job.get(key, o.seconds), "ok": True})
        entry["ok"] = entry["ok"] and o.ok
        entry["note"] = o.note

    if args.trace:
        traced_passes = [r for r, t in zip(passes, traced_flags) if t]
        numpy_s: dict[str, list[float]] = {}
        for results in traced_passes:
            for _, o in results:
                if "numpy_s" in o.extra:
                    numpy_s.setdefault(o.extra["class"], []).append(o.extra["numpy_s"])
        values = spans.layer_metrics(recorder, len(traced_passes), numpy_s)
        traced_walls = [sum(o.seconds for _, o in results) for results in traced_passes]
        values["trace.overhead_s"] = min(traced_walls) - min(walls)
        recorder.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "wall_nominal_s": wall_nominal_s,
            "setup_s": setup_s,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
    if set(values) != set(wanted):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "pass_wall_s": walls,
        "pass_probe_mean_s": untraced_probe,
        "pass_wall_nominal_s": nominal_walls,
        "probe_samples": probe.sample_count(),
        "traced_passes": len(passes) - len(untraced),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "known_defect_failures": sum(not o.ok and o.known_defect for _, o in keyed),
        "selftest": {"planted": planted, "counted_failed": caught},
        "setup_reps_s": setup_reps,
        "import_s": import_s,
        "setup_raw_s": setup_raw_s,
        "setup_probe_mean_s": setup_probe_s,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_nominal_s": {"value": wall_nominal_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            **{k: {"value": v, "unit": u} for k, (v, u) in workload.detail(untraced).items()},
        },
        "jobs": job_summary,
        "unexplained_failures": unexplained[:MAX_FAILURE_NOTES],
        "environment": environment,
    }
    print("detail " + json.dumps(detail), flush=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
