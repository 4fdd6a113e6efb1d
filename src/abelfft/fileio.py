"""JSON record formats for functions, operators, recovery reports, and truth sidecars.

All complex values are stored as [re, im] pairs in row-major element-index
order.  Python's float serialization emits shortest round-trip decimals, so
every finite double survives a save/load cycle bit-exactly.  Non-finite
values are rejected in both directions, except in reports, where a
non-finite error or residual is written as null.  Each record is written as
one compact JSON line, by json's C encoder; loaders accept any whitespace.

Function file:   {"group": {"orders": [...]}, "side": "primal"|"dual",
                  "values": [[re, im], ...]}
Operator file:   {"group": ..., "input_side": ..., "output_side": ...,
                  "conjugate_input": bool, "matrix": [[[re, im], ...], ...]}
                 meaning apply(f) = matrix @ (conj(f) if conjugate_input else f)
Report file:     {"group": ..., "psi": [...], "conjugation": bool,
                  "residual": float, "m_samples": ..., "diagnostics": {...},
                  "hypothesis_errors": {...}|null, "version": str, "seed": int}
Truth sidecar:   {"group": ..., "psi": [...], "conjugation": bool, "seed": int}
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .errors import FileFormatError
from .functions import SIDES, GFunction
from .groups import Group
from .operators import Operator

PathLike = Union[str, Path]


def _reject_constant(token: str):
    raise FileFormatError(f"non-finite number {token!r} is not allowed in record files")


def _load_json(path: PathLike) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    return data


def _dump_json(path: PathLike, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, allow_nan=False) + "\n")


def finite_or_null(value):
    """Copy of a JSON payload with every non-finite float replaced by None (null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite_or_null(v) for v in value]
    return value


def _parse_group(data: dict, path: PathLike) -> Group:
    record = data.get("group")
    if not isinstance(record, dict) or "orders" not in record:
        raise FileFormatError(f'{path}: missing "group" record with an "orders" list')
    orders = record["orders"]
    if not isinstance(orders, list) or not orders:
        raise FileFormatError(f'{path}: "orders" must be a nonempty list')
    try:
        return Group(tuple(orders))
    except Exception as exc:
        raise FileFormatError(f"{path}: bad group orders {orders!r}: {exc}") from exc


def _parse_side(value, path: PathLike, key: str) -> str:
    if value not in SIDES:
        raise FileFormatError(f'{path}: "{key}" must be one of {SIDES}, got {value!r}')
    return value


def _complex_to_pairs(values: np.ndarray) -> list:
    if not np.isfinite(values).all():
        raise FileFormatError("refusing to serialize a non-finite value")
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _parse_values(raw, shape: tuple[int, ...], path: PathLike) -> np.ndarray:
    """Complex array of ``shape`` from nested lists of [re, im] number pairs, in one pass."""
    # With dtype=object, a ragged or too-shallow list gives a shallower shape, never an error.
    pairs = np.array(raw, dtype=object)
    if pairs.shape != shape + (2,):
        raise FileFormatError(
            f"{path}: expected an array of shape {shape} of [re, im] pairs, got shape {pairs.shape}"
        )
    kinds = set(map(type, pairs.flat))
    if not kinds <= {int, float}:
        names = sorted(kind.__name__ for kind in kinds - {int, float})
        raise FileFormatError(f"{path}: [re, im] entries must be numbers, got {', '.join(names)}")
    try:
        floats = pairs.astype(np.float64)
    except OverflowError as exc:
        raise FileFormatError(f"{path}: a number is too large for a double: {exc}") from exc
    if not np.isfinite(floats).all():
        raise FileFormatError(f"{path}: non-finite value in a [re, im] pair")
    # A (..., 2) float64 array is a (..., 1) complex128 array in memory; -0.0 survives.
    return floats.view(np.complex128).reshape(shape)


def save_function(path: PathLike, f: GFunction) -> None:
    _dump_json(
        path,
        {
            "group": {"orders": list(f.group.orders)},
            "side": f.side,
            "values": _complex_to_pairs(f.values),
        },
    )


def load_function(path: PathLike) -> GFunction:
    data = _load_json(path)
    group = _parse_group(data, path)
    side = _parse_side(data.get("side"), path, "side")
    values = _parse_values(data.get("values"), (group.size,), path)
    return GFunction(group, side, values)


def save_operator(path: PathLike, op: Operator) -> None:
    if op.matrix is None:
        raise FileFormatError("operator has no serialized matrix form")
    _dump_json(
        path,
        {
            "group": {"orders": list(op.group.orders)},
            "input_side": op.input_side,
            "output_side": op.output_side,
            "conjugate_input": bool(op.conjugate_input),
            "matrix": _complex_to_pairs(op.matrix),
        },
    )


def load_operator(path: PathLike) -> Operator:
    data = _load_json(path)
    group = _parse_group(data, path)
    input_side = _parse_side(data.get("input_side"), path, "input_side")
    output_side = _parse_side(data.get("output_side"), path, "output_side")
    conjugate_input = data.get("conjugate_input")
    if not isinstance(conjugate_input, bool):
        raise FileFormatError(f'{path}: "conjugate_input" must be a boolean')
    matrix = _parse_values(data.get("matrix"), (group.size, group.size), path)
    return Operator.from_matrix(
        group, input_side, output_side, matrix, conjugate_input, label=str(path)
    )


def _parse_permutation(raw, size: int, path: PathLike) -> list[int]:
    if not isinstance(raw, list) or len(raw) != size:
        raise FileFormatError(f'{path}: "psi" must be a permutation list of length {size}')
    try:
        perm = [int(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f'{path}: "psi" entries must be integers') from exc
    if sorted(perm) != list(range(size)):
        raise FileFormatError(f'{path}: "psi" is not a bijection of 0..{size - 1}')
    return perm


def save_report(path: PathLike, payload: dict) -> None:
    _dump_json(path, finite_or_null(payload))


def load_report(path: PathLike) -> dict:
    data = _load_json(path)
    group = _parse_group(data, path)
    data["psi"] = _parse_permutation(data.get("psi"), group.size, path)
    if not isinstance(data.get("conjugation"), bool):
        raise FileFormatError(f'{path}: "conjugation" must be a boolean')
    return data


def save_truth(path: PathLike, group: Group, perm, conjugation: bool, seed: int) -> None:
    _dump_json(
        path,
        {
            "group": {"orders": list(group.orders)},
            "psi": [int(p) for p in perm],
            "conjugation": bool(conjugation),
            "seed": int(seed),
        },
    )


def load_truth(path: PathLike) -> dict:
    data = _load_json(path)
    group = _parse_group(data, path)
    perm = _parse_permutation(data.get("psi"), group.size, path)
    if not isinstance(data.get("conjugation"), bool):
        raise FileFormatError(f'{path}: "conjugation" must be a boolean')
    return {"group": group, "psi": perm, "conjugation": data["conjugation"]}
