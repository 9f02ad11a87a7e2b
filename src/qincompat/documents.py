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
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [to_pairs(row) for row in arr]


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
