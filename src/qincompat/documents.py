"""Input and output documents for the command-line tool.

Input documents are JSON: a dimension plus a list of items, each either an
observable given as a Hermitian matrix or a basis given as its vectors.
Complex numbers are [re, im] pairs so files are human-writable and
round-trip losslessly; emitted floats use Python's shortest exact repr, so
every number parses back to the identical double.

Example::

    {
      "dim": 2,
      "items": [
        {"type": "observable", "label": "Z", "matrix": [[[1,0],[0,0]],[[0,0],[-1,0]]]},
        {"type": "basis", "label": "X", "vectors": [[[0.707,0],[0.707,0]], ...]}
      ]
    }
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from . import linalg
from .errors import InputFormatError, NotHermitianError
from .fidelity import Povm, ReconstructionMap
from .observables import Eigenbasis, ObservableSet, basis_checks, eigenbasis_rows
from .optimizer import IncompatibilityReport, OptimizerConfig, check_kernel_size
from .tolerances import BASIS_GRAM_TOL, HERMITICITY_TOL, INPUT_BASIS_TOL

# the field that holds each item type's (d, d) array of [re, im] pairs
_ITEM_FIELDS = {"observable": "matrix", "basis": "vectors"}


def to_pairs(array: np.ndarray):
    """Nested lists with complex entries expanded to [re, im] pairs."""
    arr = np.asarray(array, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


class _Unsupported(Exception):
    """A value or key :func:`dumps` leaves to the standard library."""


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte, written faster.

    With ``indent`` set CPython encodes in pure Python, one call per value.
    Here a rectangular nested list of floats (the ``to_pairs`` arrays of a
    report) is written in one pass: one ``float.__repr__`` map over its
    leaves and one ``str.join`` per nesting level. Other values follow json's
    own rules; a value or dict key of any other type sends the whole object
    to ``json.dumps``.
    """
    chunks: list[str] = []
    try:
        _encode(obj, 0, chunks.append)
    except _Unsupported:
        return json.dumps(obj, indent=2)
    return "".join(chunks)


_INF = float("inf")
_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _encode(value, level: int, out) -> None:
    # the order of json's own type checks: bool before int, str before all
    if isinstance(value, str):
        out(_encode_str(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        text = _float_array_text(value, level)
        if text is not None:
            out(text)
            return
        newline = "\n" + "  " * (level + 1)
        out("[" + newline)
        for i, item in enumerate(value):
            if i:
                out("," + newline)
            _encode(item, level + 1, out)
        out("\n" + "  " * level + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        newline = "\n" + "  " * (level + 1)
        out("{" + newline)
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise _Unsupported
            if i:
                out("," + newline)
            out(_encode_str(key) + ": ")
            _encode(item, level + 1, out)
        out("\n" + "  " * level + "}")
    else:
        raise _Unsupported


def _float_array_text(array, level: int) -> str | None:
    """The indented text of a rectangular nested list of floats, else None.

    ``array`` is a nonempty list at nesting ``level``. Every sublist must be a
    nonempty list or tuple of the same length as its siblings, and every leaf
    a float (np.float64 included; bools and ints are not floats).
    """
    shape = [len(array)]
    leaves = array
    while True:
        kinds = set(map(type, leaves))
        if kinds <= {list, tuple}:
            sizes = set(map(len, leaves))
            if len(sizes) != 1:  # ragged, or empty below: no leaves, no sizes
                return None
            shape.append(sizes.pop())
            leaves = list(itertools.chain.from_iterable(leaves))
        elif all(issubclass(kind, float) for kind in kinds):
            break
        else:
            return None
    # A list at nesting j opens with "[\n" and its items' indent, and closes
    # with a newline, its own indent and "]". Siblings at nesting j + 1 are
    # joined by every deeper close, the separator at j + 1, every deeper open.
    depth = len(shape)
    opens = ["[\n" + "  " * (level + j + 1) for j in range(depth)]
    closes = ["\n" + "  " * (level + j) + "]" for j in range(depth)]
    texts = map(float.__repr__, leaves)
    for j in reversed(range(1, depth)):
        joiner = "".join(closes[:j:-1]) + ",\n" + "  " * (level + j + 1) + "".join(opens[j + 1:])
        texts = map(joiner.join, zip(*[iter(texts)] * shape[j]))
    joiner = "".join(closes[:0:-1]) + ",\n" + "  " * (level + 1) + "".join(opens[1:])
    text = "".join(opens) + joiner.join(texts) + "".join(closes[::-1])
    if "n" in text:  # only nan and inf put letters other than "e" in a float's repr
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def from_pairs(data, where: str) -> np.ndarray:
    """Parse nested [re, im] pairs back into a complex array; NaN and Inf are rejected."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{where}: malformed complex array ({exc})") from exc
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise InputFormatError(f"{where}: complex entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise InputFormatError(f"{where}: non-finite number")
    return arr[..., 0] + 1j * arr[..., 1]


def load_document(path: str) -> dict:
    """Read a JSON document, reporting parse failures with line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: top level must be an object")
    return doc


def _item_arrays(raw: list, fields: list[str], dim: int) -> tuple[np.ndarray, InputFormatError | None]:
    """The complex (d, d) arrays of the items, each checked as by :func:`from_pairs` and for shape.

    One np.asarray reads them all when they form a (n, d, d, 2) array;
    otherwise they are read one by one up to the first that fails. Returns
    the arrays of the items before the first failure, and its error.
    """
    try:
        stack = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        stack = None
    if stack is not None and stack.shape == (len(raw), dim, dim, 2):
        good, error = len(raw), None
        if not np.isfinite(stack).all():
            good = int(np.argmin(np.isfinite(stack).all(axis=(1, 2, 3))))
            error = InputFormatError(f"items[{good}].{fields[good]}: non-finite number")
        return stack[:good, ..., 0] + 1j * stack[:good, ..., 1], error
    arrays, error = [], None
    for idx, (data, field) in enumerate(zip(raw, fields)):
        where = f"items[{idx}].{field}"
        try:
            array = from_pairs(data, where)
        except InputFormatError as exc:
            error = exc
            break
        if array.shape != (dim, dim):
            error = InputFormatError(f"{where}: expected shape ({dim}, {dim}), got {array.shape}")
            break
        arrays.append(array)
    return np.array(arrays, dtype=complex).reshape(-1, dim, dim), error


def parse_observable_set(doc: dict, config: OptimizerConfig | None = None) -> ObservableSet:
    """Validate a parsed input document and build the observable set.

    Matrices must be Hermitian within 1e-9, with a Frobenius norm that
    does not overflow, and basis vectors orthonormal within 1e-9;
    observables additionally need a nondegenerate spectrum so their
    eigenbases are well defined. The document is read and checked in
    one batched pass: one array of all items, one eigendecomposition of all
    observables (:func:`eigenbasis_rows`), then one :func:`basis_checks` of
    every member, at 1e-10 for eigenbases and 1e-9 for basis items, then
    distinct labels, a missing one reading ``item-<i>``. The
    error raised is that of the first item, in document order, that fails
    any check. Given the ``config`` the set will be searched with, a search
    too large for the see-saw (:func:`check_kernel_size`, counting every
    item as a basis) is rejected before any item is read.
    """
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise InputFormatError(f"dim must be an integer >= 2, got {dim!r}")
    items = doc.get("items")
    if not isinstance(items, list) or not items:
        raise InputFormatError("items must be a nonempty list")
    if config is not None:
        check_kernel_size(config, dim, len(items))

    labels, fields, raw = [], [], []
    error = None
    for idx, item in enumerate(items):
        if not isinstance(item, dict):
            error = InputFormatError(f"items[{idx}]: must be an object")
            break
        kind = item.get("type")
        if kind not in _ITEM_FIELDS:
            error = InputFormatError(f"items[{idx}]: unknown item type {kind!r}")
            break
        labels.append(str(item.get("label", f"item-{idx}")))
        fields.append(_ITEM_FIELDS[kind])
        raw.append(item.get(fields[-1]))
    arrays, array_error = _item_arrays(raw, fields, dim)
    error = array_error or error

    # every item before the first structural failure is numerically checked
    rows = arrays
    at = [k for k in range(len(rows)) if fields[k] == "matrix"]
    tol = np.full(len(rows), INPUT_BASIS_TOL)
    failures: dict[int, Exception] = {}
    if at:
        rows[at], found = eigenbasis_rows(rows[at], [labels[k] for k in at])
        tol[at] = BASIS_GRAM_TOL
        for j, exc in found.items():
            k = at[j]
            if isinstance(exc, NotHermitianError):
                exc = InputFormatError(f"items[{k}].matrix: not Hermitian within {HERMITICITY_TOL:g}")
            elif isinstance(exc, ValueError):
                exc = InputFormatError(f"items[{k}].matrix: {exc}")
                exc.__cause__ = found[j]
            failures[k] = exc
    for k, exc in linalg.first_failures(*basis_checks(rows, tol, labels)).items():
        if k in failures:
            continue
        if fields[k] == "matrix":
            failures[k] = exc
        else:
            failures[k] = InputFormatError(f"items[{k}].vectors: {exc}")
            failures[k].__cause__ = exc
    # a repeated label is an item's last check
    first: dict[str, int] = {}
    for k, label in enumerate(labels[: len(rows)]):
        if first.setdefault(label, k) != k:
            failures.setdefault(k, InputFormatError(f"items[{k}].label: {label!r} repeats items[{first[label]}].label"))
    if failures:
        raise failures[min(failures)]
    if error is not None:
        raise error
    rows.setflags(write=False)
    return ObservableSet(tuple(map(Eigenbasis._checked, rows, labels)))


def basis_document(obs: ObservableSet) -> dict:
    """Serialize an observable set as a basis-item input document."""
    return {
        "dim": obs.dim,
        "items": [
            {"type": "basis", "label": b.label, "vectors": to_pairs(b.vectors)}
            for b in obs.members
        ],
    }


def povm_to_dict(povm: Povm) -> dict:
    return {
        "weights": [float(w) for w in povm.weights],
        "directions": to_pairs(povm.directions),
    }


def reconstruction_to_dict(recon: ReconstructionMap) -> dict:
    return {"states": to_pairs(recon.states)}


def incompatibility_report_to_dict(report: IncompatibilityReport) -> dict:
    return {
        "incompatibility": report.incompatibility,
        "optimal_fidelity": report.optimal_fidelity,
        "dim": report.dim,
        "n_observables": report.n_observables,
        "fidelity_floor": report.fidelity_floor,
        "q_upper_small_n": report.q_upper_small_n,
        "q_upper_large_n": report.q_upper_large_n,
        "fuchs_floor": report.fuchs_floor,
        "fidelity_upper": report.fidelity_upper,
        "optimality_gap": report.optimality_gap,
        "iterations_used": report.iterations_used,
        "restart_trace": list(report.restart_trace),
        "start_sweeps": list(report.start_sweeps),
        "start_stops": list(report.start_stops),
        "minimal_subset_labels": list(report.minimal_subset_labels),
        "search_status": report.search_status,
        "best_povm": povm_to_dict(report.best_povm),
        "best_reconstruction": reconstruction_to_dict(report.best_reconstruction),
    }
