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
from .errors import InputFormatError, QincompatError
from .fidelity import Povm, ReconstructionMap
from .observables import Eigenbasis, ObservableSet, eigenbasis_of
from .optimizer import IncompatibilityReport

INPUT_HERMITICITY_TOL = 1e-9
INPUT_BASIS_TOL = 1e-9


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
    except (TypeError, ValueError) as exc:
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


def parse_observable_set(doc: dict, degeneracy_tol: float = 1e-8) -> ObservableSet:
    """Validate a parsed input document and build the observable set.

    Matrices must be Hermitian within 1e-9 and basis vectors orthonormal
    within 1e-9; observables additionally need a nondegenerate spectrum so
    their eigenbases are well defined.
    """
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise InputFormatError(f"dim must be an integer >= 2, got {dim!r}")
    items = doc.get("items")
    if not isinstance(items, list) or not items:
        raise InputFormatError("items must be a nonempty list")

    bases = []
    for idx, item in enumerate(items):
        where = f"items[{idx}]"
        if not isinstance(item, dict):
            raise InputFormatError(f"{where}: must be an object")
        kind = item.get("type")
        label = item.get("label", f"item-{idx}")
        if kind == "observable":
            matrix = from_pairs(item.get("matrix"), f"{where}.matrix")
            if matrix.shape != (dim, dim):
                raise InputFormatError(f"{where}.matrix: expected shape ({dim}, {dim}), got {matrix.shape}")
            if not linalg.is_hermitian(matrix, INPUT_HERMITICITY_TOL):
                raise InputFormatError(f"{where}.matrix: not Hermitian within {INPUT_HERMITICITY_TOL:g}")
            bases.append(eigenbasis_of(matrix, degeneracy_tol, label=str(label)))
        elif kind == "basis":
            vectors = from_pairs(item.get("vectors"), f"{where}.vectors")
            if vectors.shape != (dim, dim):
                raise InputFormatError(f"{where}.vectors: expected shape ({dim}, {dim}), got {vectors.shape}")
            try:
                bases.append(Eigenbasis(vectors=vectors, label=str(label), tol=INPUT_BASIS_TOL))
            except (ValueError, QincompatError) as exc:
                raise InputFormatError(f"{where}.vectors: {exc}") from exc
        else:
            raise InputFormatError(f"{where}: unknown item type {kind!r}")
    return ObservableSet(tuple(bases))


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
        "iterations_used": report.iterations_used,
        "restart_trace": list(report.restart_trace),
        "start_sweeps": list(report.start_sweeps),
        "minimal_subset_labels": list(report.minimal_subset_labels),
        "search_status": report.search_status,
        "best_povm": povm_to_dict(report.best_povm),
        "best_reconstruction": reconstruction_to_dict(report.best_reconstruction),
    }
