"""Shared helpers for the test suite.

The qubit helpers give an independent closed form for the optimal fidelity
of a qubit ensemble: writing each signal projector through its Bloch axis
u_k, the achievable fidelity of the measurement along axis n is
1/2 + |K n| / (2 n_states) with K the sum of outer products of the axes, so
the best projective value is 1/2 + lambda_max(K) / (2 n_states). Each basis's
axes sum to zero, so a POVM {m_a, n_a} resending along r_a scores
1/2 + sum_a m_a n_a^T K r_a / (4 n_states) <= 1/2 + lambda_max(K) / (2 n_states)
(the weights sum to 2): the closed form is the exact optimum over all
measurements. This never touches the library's fidelity or optimizer code
paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from qincompat.observables import Eigenbasis, ObservableSet, SignalEnsemble, eigenbasis_of, signal_ensemble

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_basis(dim: int, rng: np.random.Generator, label: str = "") -> Eigenbasis:
    return eigenbasis_of(random_hermitian(dim, rng), label=label)


def random_ensemble(dim: int, count: int, rng: np.random.Generator) -> SignalEnsemble:
    obs = ObservableSet(tuple(random_basis(dim, rng, f"r{i}") for i in range(count)))
    return signal_ensemble(obs)


def bloch_axes(ens: SignalEnsemble) -> np.ndarray:
    """(n_states, 3) Bloch axes of a qubit ensemble's signal projectors."""
    return np.real(np.einsum("kij,aji->ak", PAULIS, ens.state_projectors))


def qubit_fidelity_optimum(ens: SignalEnsemble) -> float:
    """Closed-form optimum of the intercept-resend fidelity for qubits."""
    axes = bloch_axes(ens)
    overlap_matrix = axes.T @ axes
    return 0.5 + float(np.linalg.eigvalsh(overlap_matrix)[-1]) / (2 * ens.n_states)


def rotated_qubit_basis(angle: float, label: str = "") -> Eigenbasis:
    c, s = np.cos(angle), np.sin(angle)
    return Eigenbasis(np.array([[c, s], [-s, c]], dtype=complex), label=label)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
