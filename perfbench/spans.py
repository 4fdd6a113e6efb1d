"""In-memory span tracing around the library's public functions.

Spans are recorded from outside the library: ``install`` replaces each traced
function with a wrapper under every name a caller looks it up by (for example
``abelfft.characterize.fft_inverse`` as well as ``abelfft.transform.fft_inverse``),
and ``Operator.apply`` on the class.  Each span keeps its name, start, end and
parent span id; the spans stay in memory until ``dump`` writes them out.
``layer_metrics`` turns them into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions traced per layer module; span name is "<module>.<function>".
LAYER_FUNCTIONS = {
    "transform": ("fft_forward", "fft_inverse", "convolve_fast"),
    "functions": ("pointwise_product", "star", "max_abs_diff", "delta", "random_function"),
    "groups": ("find_additivity_violation",),
    "characterize": ("check_hypotheses", "recover", "verify_recovery"),
    "fileio": ("load_operator", "save_operator", "save_report", "save_truth", "load_truth"),
}
# CLI command handlers, looked up by name when main() builds its parser.
CLI_COMMANDS = {"cmd_gen_operator": "gen-operator", "cmd_check": "check", "cmd_recover": "recover"}
SHAPE_CLASSES = ("pow2", "smooth", "prime", "small_factors", "multi_axis")
APPLY_COUNTS = (("check_hypotheses", 64), ("recover", 1024), ("verify_recovery", 1024))


def shape_class(orders: tuple[int, ...]) -> str:
    """pow2 / prime / smooth for one axis; small_factors (every order <= 9) or multi_axis otherwise."""
    if len(orders) > 1:
        return "small_factors" if max(orders) <= 9 else "multi_axis"
    n = orders[0]
    if n & (n - 1) == 0:
        return "pow2"
    if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)):
        return "prime"
    return "smooth"


def _group_orders(args) -> dict:
    return {"orders": args[0].group.orders}


def _group_size(args) -> dict:
    return {"n": args[0].group.size}


def _file_bytes(args) -> dict:
    try:
        return {"bytes": os.path.getsize(args[0])}
    except OSError:
        return {"bytes": 0}


ATTRIBUTES = {"transform": _group_orders, "characterize": _group_size, "fileio": _file_bytes}


class Recorder:
    """Span store in flat arrays; span ids are indices, parents precede children."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        t0 = perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, t0, perf_counter())

    def wrap(self, name: str, fn, attributes=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.attrs[sid] = {"error": getattr(exc, "step", type(exc).__name__)}
                raise
            finally:
                self._close(sid, t0, perf_counter())
                if attributes is not None:
                    self.attrs.setdefault(sid, {}).update(attributes(args))

        return functools.update_wrapper(traced, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "attrs": {str(k): v for k, v in self.attrs.items()},
                },
                fh,
            )


def library_modules() -> list:
    """Every loaded abelfft module: any of them may hold a traced function under an imported name."""
    return [m for name, m in list(sys.modules.items()) if name == "abelfft" or name.startswith("abelfft.")]


def install(recorder: Recorder):
    """Wrap every traced function under each name callers use; returns an undo function."""
    modules = library_modules()
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for layer, names in LAYER_FUNCTIONS.items():
        home = importlib.import_module(f"abelfft.{layer}")
        for fname in names:
            original = getattr(home, fname)
            wrapper = recorder.wrap(f"{layer}.{fname}", original, ATTRIBUTES.get(layer))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, wrapper)
    operator_cls = importlib.import_module("abelfft.operators").Operator
    patch(operator_cls, "apply", recorder.wrap("operators.apply", operator_cls.apply))
    cli = importlib.import_module("abelfft.cli")
    for attr, command in CLI_COMMANDS.items():
        patch(cli, attr, recorder.wrap(f"cli.{command}", getattr(cli, attr)))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(rec: Recorder, passes: int, numpy_s: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer metrics per traced pass; numpy_s holds np.fft.fftn seconds per shape class."""
    nid = np.frombuffer(rec.name, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int64)
    dur = np.frombuffer(rec.end, dtype=np.float64) - np.frombuffer(rec.start, dtype=np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    span_name = np.array(rec.names, dtype=object)[nid] if nid.size else np.empty(0, dtype=object)

    def select(name):
        return np.flatnonzero(span_name == name)

    out: dict[str, float] = {}
    per_pass = 1.0 / max(passes, 1)
    for layer, fnames in LAYER_FUNCTIONS.items():
        for fname in fnames:
            idx = select(f"{layer}.{fname}")
            out[f"{layer}.{fname}.calls"] = idx.size * per_pass
            out[f"{layer}.{fname}.self_s"] = float(self_time[idx].sum()) * per_pass
            if layer == "fileio":
                total = sum(rec.attrs.get(int(i), {}).get("bytes", 0) for i in idx) / 1e6
                out[f"fileio.{fname}.mb"] = total / idx.size if idx.size else 0.0
                if fname == "load_operator":
                    busy = float(dur[idx].sum())
                    out["fileio.load_operator.mb_per_s"] = total / busy if busy > 0 else 0.0

    applies = select("operators.apply")
    out["operators.apply.calls"] = applies.size * per_pass
    out["operators.apply.self_s"] = float(self_time[applies].sum()) * per_pass
    out["operators.apply.us_per_call"] = (
        float(self_time[applies].sum()) / applies.size * 1e6 if applies.size else 0.0
    )

    # Applies made under each characterize span (its nearest characterize ancestor).
    char_ids = {i for i, n in enumerate(rec.names) if n.startswith("characterize.")}
    nearest = np.full(nid.size, -1, dtype=np.int64)
    for sid in range(nid.size):
        if nid[sid] in char_ids:
            nearest[sid] = sid
        elif parent[sid] >= 0:
            nearest[sid] = nearest[parent[sid]]
    owners = nearest[applies]
    apply_count = np.bincount(owners[owners >= 0], minlength=nid.size)
    for fname in LAYER_FUNCTIONS["characterize"]:
        idx = select(f"characterize.{fname}")
        out[f"characterize.{fname}.applies_per_call"] = (
            float(apply_count[idx].mean()) if idx.size else 0.0
        )
    rejected = [i for i in select("characterize.recover") if "error" in rec.attrs.get(int(i), {})]
    out["characterize.recover.applies_before_reject"] = (
        float(apply_count[rejected].mean()) if rejected else 0.0
    )
    for fname, n in APPLY_COUNTS:
        counts = [
            apply_count[i]
            for i in select(f"characterize.{fname}")
            if rec.attrs.get(int(i), {}).get("n") == n and "error" not in rec.attrs[int(i)]
        ]
        out[f"characterize.{fname}.applies.n{n}"] = float(np.median(counts)) if counts else 0.0

    for command in CLI_COMMANDS.values():
        out[f"cli.{command}.self_s"] = float(self_time[select(f"cli.{command}")].sum()) * per_pass

    # Transform kernel by shape class, against np.fft.fftn on the same inputs.
    # Flops (5 n log2 n) and bytes (one complex128 read and write per element)
    # are computed from the array sizes, not measured.
    by_class = {c: [] for c in SHAPE_CLASSES}
    for i in select("transform.fft_forward"):
        orders = rec.attrs[int(i)]["orders"]
        by_class[shape_class(orders)].append((math.prod(orders), float(dur[i])))
    for c in SHAPE_CLASSES:
        calls = by_class[c]
        seconds = sum(t for _, t in calls)
        fwd_ms = seconds / len(calls) * 1e3 if calls else 0.0
        ref = numpy_s.get(c, [])
        np_ms = sum(ref) / len(ref) * 1e3 if ref else 0.0
        out[f"transform.fwd_ms.{c}"] = fwd_ms
        out[f"transform.numpy_ms.{c}"] = np_ms
        out[f"transform.vs_numpy.{c}"] = fwd_ms / np_ms if fwd_ms and np_ms else 0.0
        flops = sum(5 * n * math.log2(n) for n, _ in calls if n > 1)
        moved = sum(32 * n for n, _ in calls)
        out[f"transform.gflops_computed.{c}"] = flops / seconds / 1e9 if seconds else 0.0
        out[f"transform.gbps_computed.{c}"] = moved / seconds / 1e9 if seconds else 0.0
    return out
