"""Entropy-based incompatibility bound, and the cases where it fails.

For two measurement bases the half-sum of their outcome entropies on any
state is at least -log2(c), where c is the largest overlap magnitude
between the two bases (Maassen-Uffink). The bound is a popular proxy for
incompatibility, but it is identically zero whenever the bases share even
one eigenvector, including pairs that do not commute. This module
evaluates the bound and, via :func:`entropic_failure_demo`, constructs such
a pair explicitly and shows its incompatibility measure is still strictly
positive while the entropic bound and the entropy sum both vanish.

All entropies are in bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, QincompatError
from .linalg import projector
from .observables import Eigenbasis, ObservableSet, commutes
from .optimizer import OptimizerConfig, incompatibility
from .tolerances import (
    DEMO_ENTROPY_TOL,
    DEMO_MIN_INCOMPATIBILITY,
    PROB_FLOOR,
    SHARED_VECTOR_TOL,
    VACUOUS_TOL,
)


class Verdict(enum.Enum):
    BOUND_INFORMATIVE = "BOUND_INFORMATIVE"
    BOUND_VACUOUS_BUT_INCOMPATIBLE = "BOUND_VACUOUS_BUT_INCOMPATIBLE"
    COMMUTING = "COMMUTING"


@dataclass(frozen=True)
class EntropicReport:
    """Entropic-bound evaluation of a basis pair, with the measure attached.

    ``entropy_bound`` equals -log2(max_overlap); ``entropy_sum_at_witness``
    is the plain (not halved) entropy sum at the witness state, which is the
    second basis's vector attaining the maximal overlap. When the bound is
    vacuous that witness is a shared eigenvector and the sum is zero.
    """

    max_overlap: float
    entropy_bound: float
    entropy_sum_at_witness: float
    witness_state: np.ndarray
    incompatibility: float
    verdict: Verdict


def measurement_entropy(rho: np.ndarray, basis: Eigenbasis) -> float:
    """Shannon entropy in bits of measuring ``basis`` on the state ``rho``.

    Outcome probabilities below 1e-15 contribute zero (0 log 0 := 0).
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape != (basis.dim, basis.dim):
        raise DimensionMismatchError(f"state shape {m.shape} vs basis dim {basis.dim}")
    probs = np.einsum("ji,ik,jk->j", basis.vectors.conj(), m, basis.vectors).real
    probs = probs[probs > PROB_FLOOR]
    return float(-np.sum(probs * np.log2(probs)))


def maassen_uffink_bound(a: Eigenbasis, b: Eigenbasis) -> tuple[float, float]:
    """Largest inter-basis overlap c and the entropy bound -log2(c) in bits."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch {a.dim} vs {b.dim}")
    c = min(float(np.max(np.abs(a.vectors.conj() @ b.vectors.T))), 1.0)
    return c, float(-np.log2(c)) + 0.0  # normalizes -0.0 at c = 1


def entropic_report(
    a: Eigenbasis,
    b: Eigenbasis,
    config: OptimizerConfig | None = None,
) -> EntropicReport:
    """Evaluate the entropic bound for a pair and compare it to the measure."""
    c, bound = maassen_uffink_bound(a, b)
    pair = commutes(a, b)
    overlaps = np.abs(a.vectors.conj() @ b.vectors.T)
    # first maximal pair in row-major order; for c = 1 this is a shared eigenvector
    _, witness_index = np.unravel_index(int(np.argmax(overlaps)), overlaps.shape)
    witness = b.vectors[witness_index].copy()
    witness_dm = projector(witness / np.linalg.norm(witness))
    entropy_sum = measurement_entropy(witness_dm, a) + measurement_entropy(witness_dm, b)

    report = incompatibility(ObservableSet((a, b)), config)

    if pair.commutes:
        verdict = Verdict.COMMUTING
    elif bound <= VACUOUS_TOL:
        verdict = Verdict.BOUND_VACUOUS_BUT_INCOMPATIBLE
    else:
        verdict = Verdict.BOUND_INFORMATIVE
    return EntropicReport(
        max_overlap=c,
        entropy_bound=bound,
        entropy_sum_at_witness=entropy_sum,
        witness_state=witness,
        incompatibility=report.incompatibility,
        verdict=verdict,
    )


def shared_eigenvector_pair(dim: int) -> tuple[Eigenbasis, Eigenbasis]:
    """A noncommuting basis pair that shares exactly one eigenvector.

    The first basis is computational. The second keeps e_0 and replaces the
    rest by the Fourier basis of their span, so the two agree on e_0 and are
    maximally mismatched on the orthogonal complement. Needs dim >= 3.
    """
    if dim < 3:
        raise ValueError(f"a strict subspace pair needs dim >= 3, got {dim}")
    sub = dim - 1
    vectors = np.zeros((dim, dim), dtype=complex)
    vectors[0, 0] = 1.0
    j, k = np.meshgrid(np.arange(sub), np.arange(sub), indexing="ij")
    vectors[1:, 1:] = np.exp(2j * np.pi * ((j * k) % sub) / sub) / np.sqrt(sub)
    return (
        Eigenbasis(vectors=np.eye(dim, dtype=complex), label="computational"),
        Eigenbasis(vectors=vectors, label="shared-axis-fourier"),
    )


def entropic_failure_demo(dim: int, config: OptimizerConfig | None = None) -> EntropicReport:
    """Show the entropic bound failing on a noncommuting pair.

    Builds the shared-eigenvector pair in dimension ``dim``, checks the
    shared direction survived construction, and returns its report, which
    must carry a vacuous bound (0 within 1e-12), a vanishing entropy sum at
    the shared eigenvector, and strictly positive incompatibility. Any
    other outcome raises, since it would mean the construction or the
    optimizer is broken.
    """
    a, b = shared_eigenvector_pair(dim)
    shared = abs(np.vdot(a.vectors[0], b.vectors[0])) ** 2
    if abs(shared - 1.0) > SHARED_VECTOR_TOL:
        raise QincompatError("construction lost the shared eigenvector")

    report = entropic_report(a, b, config)
    if report.entropy_bound > DEMO_ENTROPY_TOL:
        raise QincompatError(f"expected a vacuous bound, got {report.entropy_bound!r}")
    if report.entropy_sum_at_witness > DEMO_ENTROPY_TOL:
        raise QincompatError(
            f"expected zero entropy sum at the witness, got {report.entropy_sum_at_witness!r}"
        )
    if report.incompatibility <= DEMO_MIN_INCOMPATIBILITY:
        raise QincompatError(
            f"expected strictly positive incompatibility, got {report.incompatibility!r}"
        )
    if report.verdict is not Verdict.BOUND_VACUOUS_BUT_INCOMPATIBLE:
        raise QincompatError(f"unexpected verdict {report.verdict}")
    return report
