"""Intercept-resend fidelity calculus for uniform pure-state ensembles.

The scenario: a sender transmits states drawn uniformly from a signal
ensemble; an interceptor measures each state with a rank-1 POVM and forwards
a reconstruction state chosen per outcome. The average fidelity is linear in
each resend state, so a pure one, eta_a eta_a^dagger, always does best, and
a strategy is rank-1 on both sides: a :class:`Povm` and a
:class:`ReconstructionMap` of unit directions. ``average_fidelity`` scores a
full strategy, ``achievable_fidelity`` scores a measurement under its best
possible reconstruction, and ``optimal_reconstruction`` produces that best
reconstruction explicitly.

The achievable fidelity has two independent routes,

* the eigenvalue form: sum over outcomes of m_a * lambda_max(Phi(chi_a)),
* the explicit strategy: ``average_fidelity`` of the measurement and its
  optimal reconstruction, a double sum over outcome probabilities and the
  squared overlaps of each resend direction with the signal states,

where Phi is the ensemble-averaged measure-and-reprepare map implemented by
:func:`ensemble_map`. The two must agree to high precision; the test suite
holds them to 1e-10 of each other on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, OutcomeCountMismatchError
from .observables import SignalEnsemble
from .tolerances import COMPLETENESS_TOL, DIRECTION_NORM_TOL, FRAME_FLOOR, INPUT_TRACE_TOL


@dataclass(frozen=True)
class Povm:
    """A rank-1 POVM: positive weights on unit direction vectors.

    Element a is ``weights[a] * |directions[a]><directions[a]|``. On
    construction the elements are checked to sum to the identity within
    1e-9 (Frobenius), which also forces the weights to sum to the dimension.
    """

    dim: int
    weights: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        x = np.array(self.directions, dtype=complex)
        if w.ndim != 1 or x.shape != (w.shape[0], self.dim):
            raise DimensionMismatchError(
                f"expected weights (K,) and directions (K, {self.dim}), got {w.shape} and {x.shape}"
            )
        _check_povms(self.dim, w[None], x[None])
        w.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "directions", x)

    @property
    def n_outcomes(self) -> int:
        return self.weights.shape[0]


def _check_povms(dim: int, weights: np.ndarray, directions: np.ndarray) -> None:
    """The checks of :class:`Povm` on (R, K) weights and (R, K, d) directions, in one pass.

    Each check runs on all R POVMs at once and raises ValueError when any
    fails: finite entries, positive weights, unit directions within 1e-10,
    elements summing to the identity within 1e-9 (Frobenius) and weights
    summing to the dimension within 1e-9.
    """
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(directions))):
        raise ValueError("POVM weights and directions must be finite")
    if np.any(weights <= 0):
        raise ValueError("all POVM weights must be strictly positive")
    norms = np.linalg.norm(directions, axis=2)
    if np.max(np.abs(norms - 1.0)) > DIRECTION_NORM_TOL:
        raise ValueError("POVM directions must be unit vectors")
    resolution = (directions.swapaxes(1, 2) * weights[:, None, :]) @ directions.conj()
    if np.any(linalg.frobenius_norms(resolution - linalg.identity(dim)) > COMPLETENESS_TOL):
        raise ValueError("POVM elements do not sum to the identity within 1e-9")
    if np.any(np.abs(np.sum(weights, axis=1) - dim) > COMPLETENESS_TOL):
        raise ValueError("POVM weights must sum to the dimension")


@dataclass(frozen=True)
class ReconstructionMap:
    """A pure resend state per measurement outcome: outcome a resends |directions[a]>.

    The directions are checked on construction to be finite unit vectors
    within 1e-10, as those of a :class:`Povm`.
    """

    directions: np.ndarray

    def __post_init__(self):
        x = np.array(self.directions, dtype=complex)
        if x.ndim != 2:
            raise DimensionMismatchError(f"expected (K, d) directions, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("reconstruction directions must be finite")
        if np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) > DIRECTION_NORM_TOL:
            raise ValueError("reconstruction directions must be unit vectors")
        x.setflags(write=False)
        object.__setattr__(self, "directions", x)

    @property
    def states(self) -> np.ndarray:
        """The resend density matrices eta_a eta_a^dagger, as a (K, d, d) stack."""
        eta = self.directions
        return eta[:, :, None] * eta.conj()[:, None, :]

    @property
    def n_outcomes(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


def _check_dims(ens: SignalEnsemble, povm: Povm) -> None:
    if ens.dim != povm.dim:
        raise DimensionMismatchError(f"ensemble dim {ens.dim} vs POVM dim {povm.dim}")


def _signal_overlaps(ens: SignalEnsemble, directions: np.ndarray) -> np.ndarray:
    """p[..., a, k] = |<v_k|chi_a>|^2 for directions (..., K, d) and every signal state k."""
    return np.abs(directions @ ens.kets.conj().T) ** 2


def _phi_batch(ens: SignalEnsemble, probs: np.ndarray) -> np.ndarray:
    """Phi for each row of real weights p[..., k]: (1/Nd) sum_k p[..., k] P_k, as (..., d, d).

    The one Phi kernel of the package: a single real matmul against the
    ensemble's precomputed projector rows.
    """
    flat = (probs @ ens.phi_rows).view(complex)
    return flat.reshape(*probs.shape[:-1], ens.dim, ens.dim)


def ensemble_map(ens: SignalEnsemble, rho: np.ndarray) -> np.ndarray:
    """Averaged measure-and-reprepare map of the ensemble applied to ``rho``.

    Pinches ``rho`` in each basis of the ensemble and averages with weight
    1/(N*d): the output is (1/Nd) sum_k Tr(P_k rho) P_k over all N*d signal
    projectors. It is Hermitian, PSD, and has trace exactly 1/d for any
    unit-trace input, so d times the output is a density matrix.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape != (ens.dim, ens.dim):
        raise DimensionMismatchError(f"expected a ({ens.dim}, {ens.dim}) state, got {m.shape}")
    if not linalg.is_hermitian(m):
        raise ValueError("input state must be Hermitian")
    if abs(complex(np.trace(m)).real - 1.0) > INPUT_TRACE_TOL:
        raise ValueError("input state must have unit trace")
    probs = np.einsum("ki,ij,kj->k", ens.kets.conj(), m, ens.kets).real
    return _phi_batch(ens, probs)


def average_fidelity(ens: SignalEnsemble, povm: Povm, recon: ReconstructionMap) -> float:
    """Average fidelity of the full intercept-resend strategy.

    (1/Nd) sum over states k and outcomes a of Tr(P_k M_a) |<eta_a|v_k>|^2:
    the joint probability of sending state k and observing outcome a, times
    the fidelity of the resent state eta_a against state k.
    """
    _check_dims(ens, povm)
    if recon.n_outcomes != povm.n_outcomes:
        raise OutcomeCountMismatchError(
            f"{recon.n_outcomes} reconstruction states for {povm.n_outcomes} outcomes"
        )
    if recon.dim != ens.dim:
        raise DimensionMismatchError(f"reconstruction dim {recon.dim} vs ensemble dim {ens.dim}")
    p_outcome = povm.weights[:, None] * _signal_overlaps(ens, povm.directions)
    p_resend = _signal_overlaps(ens, recon.directions)
    return float(np.sum(p_outcome * p_resend)) / ens.n_states


def optimal_reconstruction(ens: SignalEnsemble, povm: Povm) -> ReconstructionMap:
    """Best reconstruction for a fixed measurement.

    For each outcome, resend the pure state along the top eigenvector of
    d * Phi(chi_a), which is a density matrix; by linearity of the average
    fidelity in sigma_a no mixed choice can do better. Degenerate top
    eigenvalues resolve to the deterministic eigenvector order of eigh, and
    each direction's phase is fixed.
    """
    _check_dims(ens, povm)
    phi = _phi_batch(ens, _signal_overlaps(ens, povm.directions))
    _, eta = linalg.batched_top_eig(phi)
    return ReconstructionMap(linalg.fix_phases(eta))


def achievable_fidelity(ens: SignalEnsemble, povm: Povm) -> float:
    """Fidelity of a measurement under its optimal reconstruction.

    Eigenvalue form: sum over outcomes of m_a * lambda_max(Phi(chi_a)).
    """
    _check_dims(ens, povm)
    phi = _phi_batch(ens, _signal_overlaps(ens, povm.directions))
    lam = np.linalg.eigvalsh(phi)[:, -1]
    return float(np.sum(povm.weights * lam))


def random_povm(dim: int, n_outcomes: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Random rank-1 POVMs, one per generator: Haar directions symmetrized to completeness.

    Each generator draws ``n_outcomes`` Haar-random directions chi_a; each
    unnormalized element |chi_a><chi_a| is then replaced by
    W^(-1/2) |chi_a><chi_a| W^(-1/2), with W the sum of all of them, which
    restores the identity resolution. The R POVMs are built with one batched
    eigh and checked in one pass (:func:`_check_povms`), with the bits each
    would get if built alone. Returns (R, K) weights and (R, K, d) directions.
    """
    if n_outcomes < dim:
        raise ValueError(f"completeness needs at least {dim} rank-1 outcomes, got {n_outcomes}")
    x = np.stack([linalg.random_unit_vectors(n_outcomes, dim, rng) for rng in rngs])
    w = np.einsum("rai,raj->rij", x, x.conj())
    vals, vecs = np.linalg.eigh(w)
    if np.any(vals[:, 0] < FRAME_FLOOR):
        raise ValueError("sampled directions do not span the space; try more outcomes")
    inv_root = (vecs * (1.0 / np.sqrt(vals))[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    y = x @ inv_root.swapaxes(1, 2)
    norms = np.linalg.norm(y, axis=2)
    weights, directions = norms**2, y / norms[..., None]
    _check_povms(dim, weights, directions)
    return weights, directions
