"""Intercept-resend fidelity calculus for uniform pure-state ensembles.

The scenario: a sender transmits states drawn uniformly from a signal
ensemble; an interceptor measures each state with a rank-1 POVM and forwards
a reconstruction state chosen per outcome. ``average_fidelity`` scores a
full strategy (measurement plus reconstruction), ``achievable_fidelity``
scores a measurement under its best possible reconstruction, and
``optimal_reconstruction`` produces that best reconstruction explicitly.

Two independent closed forms of the achievable fidelity are provided,

* the eigenvalue form: sum over outcomes of m_a * lambda_max(Phi(chi_a)),
* the overlap form: a double sum over outcome probabilities and the
  squared overlaps of the reconstruction direction with the signal states,

where Phi is the ensemble-averaged measure-and-reprepare map implemented by
:func:`ensemble_map`. The two must agree to high precision; the test suite
holds them to 1e-10 of each other on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, OutcomeCountMismatchError
from .observables import Eigenbasis, SignalEnsemble

COMPLETENESS_TOL = 1e-9
DENSITY_TRACE_TOL = 1e-10
PSD_TOL = 1e-10


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
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(x))):
            raise ValueError("POVM weights and directions must be finite")
        if np.any(w <= 0):
            raise ValueError("all POVM weights must be strictly positive")
        norms = np.linalg.norm(x, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ValueError("POVM directions must be unit vectors")
        resolution = np.einsum("a,ai,aj->ij", w, x, x.conj())
        if linalg.frobenius_norm(resolution - np.eye(self.dim)) > COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity within 1e-9")
        if abs(float(np.sum(w)) - self.dim) > COMPLETENESS_TOL:
            raise ValueError("POVM weights must sum to the dimension")
        w.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "directions", x)

    @property
    def n_outcomes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ReconstructionMap:
    """Assignment of a resend density matrix to each measurement outcome."""

    states: np.ndarray

    def __post_init__(self):
        s = np.array(self.states, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise DimensionMismatchError(f"expected (K, d, d) states, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("reconstruction states must be finite")
        herm = np.max(np.abs(s - s.conj().transpose(0, 2, 1)))
        if herm > 1e-9:
            raise ValueError("reconstruction states must be Hermitian")
        traces = np.einsum("aii->a", s).real
        if np.max(np.abs(traces - 1.0)) > DENSITY_TRACE_TOL:
            raise ValueError("reconstruction states must have unit trace")
        smallest = np.min(np.linalg.eigvalsh((s + s.conj().transpose(0, 2, 1)) / 2))
        if smallest < -PSD_TOL:
            raise ValueError(f"reconstruction states must be PSD, min eigenvalue {smallest:.3e}")
        s.setflags(write=False)
        object.__setattr__(self, "states", s)

    @property
    def n_outcomes(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


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
    if abs(complex(np.trace(m)).real - 1.0) > 1e-9:
        raise ValueError("input state must have unit trace")
    probs = np.einsum("ki,ij,kj->k", ens.kets.conj(), m, ens.kets).real
    return _phi_batch(ens, probs)


def average_fidelity(ens: SignalEnsemble, povm: Povm, recon: ReconstructionMap) -> float:
    """Average fidelity of the full intercept-resend strategy.

    (1/Nd) sum over states k and outcomes a of Tr(P_k M_a) Tr(P_k sigma_a):
    the joint probability of sending state k and observing outcome a, times
    the fidelity of the resent state against state k.
    """
    _check_dims(ens, povm)
    if recon.n_outcomes != povm.n_outcomes:
        raise OutcomeCountMismatchError(
            f"{recon.n_outcomes} reconstruction states for {povm.n_outcomes} outcomes"
        )
    if recon.dim != ens.dim:
        raise DimensionMismatchError(f"reconstruction dim {recon.dim} vs ensemble dim {ens.dim}")
    p_outcome = povm.weights[:, None] * _signal_overlaps(ens, povm.directions)
    p_resend = np.einsum("ki,aij,kj->ak", ens.kets.conj(), recon.states, ens.kets).real
    return float(np.sum(p_outcome * p_resend)) / ens.n_states


def optimal_reconstruction(ens: SignalEnsemble, povm: Povm) -> ReconstructionMap:
    """Best reconstruction for a fixed measurement.

    For each outcome, resend the pure state along the top eigenvector of
    d * Phi(chi_a), which is a density matrix; by linearity of the average
    fidelity in sigma_a no mixed choice can do better. Degenerate top
    eigenvalues resolve to the deterministic eigenvector order of herm_eig.
    """
    _check_dims(ens, povm)
    phi = _phi_batch(ens, _signal_overlaps(ens, povm.directions))
    _, eta = linalg.batched_top_eig(phi)
    return ReconstructionMap(states=eta[:, :, None] * eta.conj()[:, None, :])


def achievable_fidelity(ens: SignalEnsemble, povm: Povm) -> float:
    """Fidelity of a measurement under its optimal reconstruction.

    Eigenvalue form: sum over outcomes of m_a * lambda_max(Phi(chi_a)).
    """
    _check_dims(ens, povm)
    phi = _phi_batch(ens, _signal_overlaps(ens, povm.directions))
    lam = np.linalg.eigvalsh(phi)[:, -1]
    return float(np.sum(povm.weights * lam))


def achievable_fidelity_overlap_form(ens: SignalEnsemble, povm: Povm) -> float:
    """Achievable fidelity via outcome probabilities and overlaps.

    With p[a, k] = Tr(P_k chi_a) and q[a, k] = <eta_a|P_k|eta_a> for the
    optimal resend direction eta_a, the per-outcome factor is
    sum_k p[a, k] q[a, k] = <eta_a| (Nd Phi(chi_a)) |eta_a>, so the total is
    (1/Nd) sum_a m_a sum_k p[a, k] q[a, k]. The m_a weighting is forced by
    consistency with the eigenvalue form, since lambda_max(Phi(chi_a)) =
    <eta_a|Phi(chi_a)|eta_a>.
    """
    _check_dims(ens, povm)
    probs = _signal_overlaps(ens, povm.directions)
    _, eta = linalg.batched_top_eig(_phi_batch(ens, probs))
    resend_overlaps = _signal_overlaps(ens, eta)
    per_outcome = np.sum(probs * resend_overlaps, axis=1)
    return float(np.sum(povm.weights * per_outcome)) / ens.n_states


def projective_strategy_fidelity(ens: SignalEnsemble, basis_index: int) -> float:
    """Average fidelity of the simplest projective strategy.

    Measure in basis ``basis_index`` of the ensemble and resend the outcome's
    basis vector. Evaluates to (1/Nd) sum over states k and outcomes l of
    Tr(P_k B_l)^2, which is bounded below by (N + d - 1)/(N d) for any
    ensemble built from orthonormal bases.
    """
    if not 0 <= basis_index < ens.n_bases:
        raise IndexError(f"basis index {basis_index} out of range for {ens.n_bases} bases")
    overlaps = _signal_overlaps(ens, ens.vectors[basis_index])
    return float(np.sum(overlaps**2)) / ens.n_states


def projective_povm(basis: Eigenbasis) -> Povm:
    """The von Neumann measurement in the given basis as a rank-1 POVM."""
    return Povm(
        dim=basis.dim,
        weights=np.ones(basis.dim),
        directions=basis.vectors.copy(),
    )


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Random rank-1 POVM: Haar directions symmetrized to completeness.

    Draws ``n_outcomes`` Haar-random directions chi_a, then replaces each
    unnormalized element |chi_a><chi_a| by W^(-1/2) |chi_a><chi_a| W^(-1/2)
    with W the sum of all of them, which restores the identity resolution.
    """
    if n_outcomes < dim:
        raise ValueError(f"completeness needs at least {dim} rank-1 outcomes, got {n_outcomes}")
    x = linalg.random_unit_vectors(n_outcomes, dim, rng)
    w = np.einsum("ai,aj->ij", x, x.conj())
    vals, vecs = np.linalg.eigh(w)
    if float(vals[0]) < 1e-12:
        raise ValueError("sampled directions do not span the space; try more outcomes")
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    y = x @ inv_root.T
    norms = np.linalg.norm(y, axis=1)
    return Povm(dim=dim, weights=norms**2, directions=y / norms[:, None])
