"""JSON record formats for functions, operators, recovery reports, and truth sidecars.

All complex values are stored as [re, im] pairs in row-major element-index
order.  Python's float serialization emits shortest round-trip decimals, so
every finite double survives a save/load cycle bit-exactly.  Non-finite
values are rejected in both directions, except in reports, where a
non-finite error or residual is written as null.  Each record is written as
one compact JSON line; loaders accept any whitespace.

The [re, im] array is written as text straight from the numpy array, each
distinct value formatted once; the bytes are exactly those json.dumps writes
for the per-entry float lists.

Function and operator records are read in one flat pass over their array
when it is the record's last member, as every writer puts it: json decodes
the record with its array replaced by 0, the array's brackets and commas
(numbers and whitespace deleted) must equal those of a regular array of
[re, im] pairs, no number may touch a bracket from outside, and its numbers,
brackets turned into spaces, are parsed as one JSON list.  Any record that
this scan does not take, whether malformed or merely unusual, is parsed
whole by json.loads, which loads it or names what is wrong with it.

Function file:   {"group": {"orders": [...]}, "side": "primal"|"dual",
                  "values": [[re, im], ...]}
Operator file:   {"group": ..., "input_side": "primal", "output_side": ...,
                  "conjugate_input": bool, "matrix": [[[re, im], ...], ...]}
                 meaning apply(f) = matrix @ (conj(f) if conjugate_input else f)
Report file:     {"group": ..., "psi": [...], "conjugation": bool,
                  "residual": float, "m_samples": ..., "diagnostics": {...},
                  "hypothesis_errors": {...}|null, "version": str, "seed": int}
Truth sidecar:   {"group": ..., "psi": [...], "conjugation": bool, "seed": int}
                 a report's or sidecar's psi must be an automorphism of its group
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Union

import numpy as np

from .errors import FileFormatError
from .functions import SIDES, GFunction
from .groups import Group, as_int, is_automorphism
from .operators import Operator, require_operator_sides

PathLike = Union[str, Path]


def _reject_constant(token: str):
    raise FileFormatError(f"non-finite number {token!r} is not allowed in record files")


def _read_text(path: PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def _load_json(path: PathLike, text: str | None = None) -> dict:
    try:
        data = json.loads(_read_text(path) if text is None else text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    except FileFormatError:  # a non-finite constant, already named
        raise
    except ValueError as exc:  # an integer past Python's digit limit
        raise FileFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path} nests its values too deeply") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    return data


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_NUMBER_CHARS = b"0123456789.eE+-"
_NUMBERS_TO_ZEROS = bytes.maketrans(_NUMBER_CHARS, b"0" * len(_NUMBER_CHARS))
_BRACKETS_TO_SPACES = str.maketrans("[]", "  ")
_JSON_WHITESPACE = " \t\n\r"


def _skeleton(shape: tuple[int, ...]) -> bytes:
    """The brackets and commas of a JSON array of ``shape`` of [re, im] pairs."""
    text = b"[,]"
    for size in reversed(shape):
        text = b"[" + b",".join([text] * size) + b"]"
    return text


def _regular_shape(value: str, ndim: int) -> tuple[int, ...] | None:
    """The shape (n,) * ndim of the array of [re, im] pairs whose brackets and commas
    ``value`` has, once its number characters and whitespace are deleted; None if it
    has no such shape, is not ASCII, or has a number outside its slot's brackets."""
    if not value.isascii():
        return None
    squeezed = value.encode().translate(_NUMBERS_TO_ZEROS, b" \t\n\r")
    skeleton = squeezed.translate(None, b"0")
    shape = (round(skeleton.count(b"[,]") ** (1 / ndim)),) * ndim
    if skeleton != _skeleton(shape):
        return None
    # Brackets turn into spaces for the number parse, so it cannot see "5[" or "]5".
    chars = np.frombuffer(squeezed, np.uint8)
    for first, second in ("0[", "]0"):
        touching = chars[:-1] == ord(first)
        touching &= chars[1:] == ord(second)
        if touching.any():
            return None
    return shape


def _flat_array(value: str, ndim: int) -> np.ndarray | None:
    """The float64 array of shape (n,) * ndim + (2,) that the JSON text ``value`` holds,
    or None unless it is a regular array of [re, im] pairs of finite JSON numbers."""
    shape = _regular_shape(value, ndim)
    if shape is None:
        return None
    # Spaces, not deletions, so that no two numbers can merge across a bracket.
    try:
        floats = np.array(json.loads("[" + value.translate(_BRACKETS_TO_SPACES) + "]"), dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    return floats.reshape(shape + (2,)) if np.isfinite(floats).all() else None


def _scan_record(text: str, key: str, ndim: int) -> dict | None:
    """The JSON object ``text`` as json.loads reads it, but its last member, the ``key``
    array, read by ``_flat_array``; None for any record that this scan does not take.

    It takes a record only when the last '"' before the final '}' closes ``key``, the
    key follows '{' or ',', only JSON whitespace and one colon sit between the key and
    '[', and only JSON whitespace follows the '}'.  json decodes the record with that
    array replaced by 0, so member grammar, escapes, duplicate keys (the last wins) and
    nesting are those of json.loads.
    """
    closing = text.rfind("}")
    quote = text.rfind('"', 0, closing)
    opening = text.find("[", quote, closing)
    start = quote - len(key) - 1
    if not (
        quote < opening < closing
        and text[start : quote + 1] == f'"{key}"'
        and text[:start].rstrip(_JSON_WHITESPACE).endswith(("{", ","))
        and text[quote + 1 : opening].strip(_JSON_WHITESPACE) == ":"
        and not text[closing + 1 :].strip(_JSON_WHITESPACE)
    ):
        return None
    data = _DECODER.decode(text[:opening] + "0}")
    data[key] = _flat_array(text[opening:closing], ndim)
    return None if data[key] is None else data


def _load_array_record(path: PathLike, key: str, ndim: int) -> dict:
    """The record at ``path`` as ``_load_json`` reads it, or as ``_scan_record`` does
    when the scan takes it."""
    text = _read_text(path)
    try:
        data = _scan_record(text, key, ndim)
    except (ValueError, RecursionError):  # json found an error outside the array; the full parse names it
        data = None
    return _load_json(path, text) if data is None else data


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
    if not isinstance(orders, list) or not orders or any(type(n) is not int for n in orders):
        raise FileFormatError(f'{path}: "orders" must be a nonempty list of integers, got {orders!r}')
    try:
        return Group(tuple(orders))
    except Exception as exc:
        raise FileFormatError(f"{path}: bad group orders {orders!r}: {exc}") from exc


def _parse_side(value, path: PathLike, key: str) -> str:
    if value not in SIDES:
        raise FileFormatError(f'{path}: "{key}" must be one of {SIDES}, got {value!r}')
    return value


def _pairs_text(values: np.ndarray) -> str:
    """JSON text of a complex array as nested [re, im] pairs in row-major order.

    The text is what json.dumps writes for the per-entry float lists, but each
    distinct value (by bit pattern, so -0.0 stays apart from 0.0) is formatted
    once, and the text is joined in one pass with no Python float per entry.
    """
    if not np.isfinite(values).all():
        raise FileFormatError("refusing to serialize a non-finite value")
    bits = np.stack([values.real, values.imag], axis=-1).view(np.uint64)
    distinct, index = np.unique(bits.ravel(), return_inverse=True)
    tokens = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    # Each entry is written as re, ", ", im and the separator that follows it:
    # "], [" within a row, with one more bracket each side per axis that ends
    # there; the last entry's closes the array.
    parts = np.empty(values.shape + (4,), dtype=object)
    parts[..., 0::2] = tokens[index.reshape(bits.shape)]
    parts[..., 1] = ", "
    parts[..., 3] = "], ["
    for depth in range(1, values.ndim):
        parts[(Ellipsis,) + (-1,) * depth + (3,)] = "]" * (depth + 1) + ", " + "[" * (depth + 1)
    parts.flat[-1] = "]" * (values.ndim + 1)
    return "[" * (values.ndim + 1) + "".join(parts.ravel().tolist())


def _dump_array_record(path: PathLike, header: dict, key: str, values: np.ndarray) -> None:
    """Write ``header`` with ``key``: the [re, im] pairs of ``values`` as its last member."""
    pairs = _pairs_text(values)
    head = json.dumps(header, allow_nan=False)
    Path(path).write_text(f"{head[:-1]}, {json.dumps(key)}: {pairs}}}\n")


def _parse_values(raw, shape: tuple[int, ...], path: PathLike) -> np.ndarray:
    """Complex array of ``shape`` from nested lists of [re, im] number pairs, or from
    the array ``_flat_array`` read."""
    if isinstance(raw, np.ndarray):
        if raw.shape == shape + (2,):
            return raw.view(np.complex128).reshape(shape)
        raw = raw.tolist()  # fails the length checks below as json.loads' lists do
    level = [raw]
    for depth, size in enumerate(shape + (2,)):
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            raise FileFormatError(
                f"{path}: expected an array of shape {shape} of [re, im] pairs; "
                f"the lists at depth {depth} must all have length {size}"
            )
        level = list(chain.from_iterable(level))
    kinds = set(map(type, level))
    if not kinds <= {int, float}:
        names = sorted(kind.__name__ for kind in kinds - {int, float})
        raise FileFormatError(f"{path}: [re, im] entries must be numbers, got {', '.join(names)}")
    try:
        floats = np.array(level, dtype=np.float64)
    except OverflowError as exc:
        raise FileFormatError(f"{path}: a number is too large for a double: {exc}") from exc
    if not np.isfinite(floats).all():
        raise FileFormatError(f"{path}: non-finite value in a [re, im] pair")
    # Consecutive (re, im) float64s are complex128s in memory; -0.0 survives.
    return floats.view(np.complex128).reshape(shape)


def save_function(path: PathLike, f: GFunction) -> None:
    _dump_array_record(path, {"group": {"orders": list(f.group.orders)}, "side": f.side}, "values", f.values)


def load_function(path: PathLike) -> GFunction:
    data = _load_array_record(path, "values", 1)
    group = _parse_group(data, path)
    side = _parse_side(data.get("side"), path, "side")
    values = _parse_values(data.get("values"), (group.size,), path)
    return GFunction(group, side, values)


def save_operator(path: PathLike, op: Operator) -> None:
    matrix = op.matrix  # built on each read for an operator kept as its factors
    if matrix is None:
        raise FileFormatError("operator has no serialized matrix form")
    _dump_array_record(
        path,
        {
            "group": {"orders": list(op.group.orders)},
            "input_side": op.input_side,
            "output_side": op.output_side,
            "conjugate_input": bool(op.conjugate_input),
        },
        "matrix",
        matrix,
    )


def load_operator(path: PathLike) -> Operator:
    data = _load_array_record(path, "matrix", 2)
    group = _parse_group(data, path)
    input_side = _parse_side(data.get("input_side"), path, "input_side")
    output_side = _parse_side(data.get("output_side"), path, "output_side")
    # Checked before the matrix, so a dual record fails on its side even if its matrix is malformed.
    require_operator_sides(input_side, output_side)
    conjugate_input = data.get("conjugate_input")
    if not isinstance(conjugate_input, bool):
        raise FileFormatError(f'{path}: "conjugate_input" must be a boolean')
    matrix = _parse_values(data.get("matrix"), (group.size, group.size), path)
    return Operator.from_matrix(group, input_side, output_side, matrix, conjugate_input)


def _parse_assignment(data: dict, path: PathLike) -> tuple[Group, list[int], bool]:
    """The group, "psi" permutation and "conjugation" flag of a report or truth sidecar."""
    group = _parse_group(data, path)
    perm = data.get("psi")
    if not isinstance(perm, list) or len(perm) != group.size:
        raise FileFormatError(f'{path}: "psi" must be a permutation list of length {group.size}')
    if any(type(v) is not int for v in perm):
        raise FileFormatError(f'{path}: "psi" entries must be integers')
    if not is_automorphism(perm, group):
        raise FileFormatError(f'{path}: "psi" is not an automorphism of the group with orders {list(group.orders)}')
    if not isinstance(data.get("conjugation"), bool):
        raise FileFormatError(f'{path}: "conjugation" must be a boolean')
    return group, perm, data["conjugation"]


def save_report(path: PathLike, payload: dict) -> None:
    _dump_json(path, finite_or_null(payload))


def load_report(path: PathLike) -> dict:
    data = _load_json(path)
    _parse_assignment(data, path)
    return data


def save_truth(path: PathLike, group: Group, perm, conjugation: bool, seed: int) -> None:
    _dump_json(
        path,
        {
            "group": {"orders": list(group.orders)},
            "psi": [as_int(p, ValueError, "a psi entry") for p in perm],
            "conjugation": bool(conjugation),
            "seed": as_int(seed, ValueError, "seed", minimum=0),
        },
    )


def load_truth(path: PathLike) -> dict:
    group, perm, conjugation = _parse_assignment(_load_json(path), path)
    return {"group": group, "psi": perm, "conjugation": conjugation}
