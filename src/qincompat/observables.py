"""Eigenbases, observable sets, signal ensembles, and unbiased-bases tools.

An observable with a nondegenerate spectrum is represented by its eigenbasis:
the ordered list of rank-1 eigenprojectors. Degenerate observables are
rejected rather than silently resolved, because the eigenprojector list is
not unique for them; callers that know the basis they want can construct an
:class:`Eigenbasis` directly from its vectors.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotPrimeError,
    NoValidSubsetError,
    TooManyBasesError,
)

# Absolute tolerance on Frobenius norms of projector commutators; projectors
# are unit scale, so no relative scaling is needed.
COMMUTATION_TOL = 1e-9

BASIS_GRAM_TOL = 1e-10
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class Eigenbasis:
    """An orthonormal basis, i.e. the eigenprojector list of one observable.

    ``vectors`` is a (d, d) complex array whose row j is the j-th basis
    vector. Rows are validated to be orthonormal on construction (Gram
    deviation and resolution of identity both within ``tol``) and stored
    read-only.
    """

    vectors: np.ndarray
    label: str = ""
    tol: InitVar[float] = BASIS_GRAM_TOL

    def __post_init__(self, tol: float):
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatchError(f"basis vectors must form a square array, got {v.shape}")
        # written as not (err <= tol) so that NaN amplitudes fail too
        overlaps = np.abs(v.conj() @ v.T) ** 2
        if not np.max(np.abs(overlaps - np.eye(v.shape[0]))) <= tol:
            raise ValueError(f"basis {self.label!r} is not orthonormal within {tol:g}")
        completeness = v.T @ v.conj()
        if not linalg.frobenius_norm(completeness - np.eye(v.shape[0])) <= tol:
            raise ValueError(f"basis {self.label!r} does not resolve the identity within {tol:g}")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class ObservableSet:
    """A nonempty collection of eigenbases acting on the same space."""

    members: tuple[Eigenbasis, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("an observable set needs at least one member")
        dims = {b.dim for b in members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"members have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.members)


@dataclass(frozen=True)
class SignalEnsemble:
    """The uniform pure-state ensemble built from an observable set.

    One state per (basis, vector) pair, each carrying prior 1/(N*d).
    ``vectors[i, j]`` holds the amplitudes of state j of basis i.
    """

    dim: int
    vectors: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 3 or v.shape[1] != self.dim or v.shape[2] != self.dim:
            raise DimensionMismatchError(f"expected (N, {self.dim}, {self.dim}) vectors, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("ensemble states must be finite")
        norms = np.linalg.norm(v, axis=2)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ValueError("ensemble states must be unit vectors")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_bases(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_states(self) -> int:
        return self.vectors.shape[0] * self.dim

    @cached_property
    def kets(self) -> np.ndarray:
        """(N*d, d) flat view of the state amplitudes, basis-major order."""
        k = self.vectors.reshape(self.n_states, self.dim)
        k.setflags(write=False)
        return k

    @cached_property
    def state_projectors(self) -> np.ndarray:
        """(N*d, d, d) stack of the rank-1 projectors onto the states, in ``kets`` order."""
        p = self.kets[:, :, None] * self.kets.conj()[:, None, :]
        p.setflags(write=False)
        return p

    @cached_property
    def phi_rows(self) -> np.ndarray:
        """(N*d, 2*d*d) real rows: P_k / (N*d), complex entries split into (re, im).

        A real probability array p[..., k] times these rows, viewed as
        complex, is (1/Nd) sum_k p[..., k] P_k flattened: the ensemble map
        as one real matmul.
        """
        rows = (self.state_projectors / self.n_states).reshape(self.n_states, -1).view(float)
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True)
class CommutationReport:
    """Outcome of a pairwise commutation test between two eigenbases."""

    commutes: bool
    common_eigenvector_count: int
    commutator_norm: float


def eigenbasis_of(
    matrix: np.ndarray,
    degeneracy_tol: float = DEGENERACY_TOL,
    label: str = "",
) -> Eigenbasis:
    """Eigenbasis of a Hermitian observable, eigenvalues sorted descending.

    Raises DegenerateSpectrumError when two eigenvalues are closer than
    ``degeneracy_tol``; the eigenprojector list is ambiguous in that case and
    the ambiguity is surfaced instead of resolved arbitrarily.
    """
    eig = linalg.herm_eig(matrix)
    gaps = -np.diff(eig.eigenvalues)
    if gaps.size and float(np.min(gaps)) < degeneracy_tol:
        raise DegenerateSpectrumError(
            f"observable {label!r} has eigenvalue gap {float(np.min(gaps)):.3e} < {degeneracy_tol:g}"
        )
    return Eigenbasis(vectors=eig.eigenvectors.T.copy(), label=label)


def _commutator_norms(overlaps: np.ndarray) -> np.ndarray:
    """Largest ||[P_j, Q_l]||_F over the last two axes of c[..., j, l] = |<a_j|b_l>|^2.

    For rank-1 projectors ||[P_j, Q_l]||_F^2 = 2 c (1 - c). The factor 1 - c
    is taken as the sum of the other overlaps in row j, which is exact for
    orthonormal bases and, unlike 1.0 - c, keeps its relative accuracy when
    c rounds to 1: a duplicate from eigenbasis_of reads about 1e-15, not 2e-8.
    """
    rest = overlaps @ (1.0 - np.eye(overlaps.shape[-1]))
    return np.sqrt(2.0 * overlaps * rest).max(axis=(-2, -1))


def commutes(a: Eigenbasis, b: Eigenbasis, tol: float = COMMUTATION_TOL) -> CommutationReport:
    """Test whether two eigenbases commute projector-by-projector.

    ``commutes`` is true iff every cross commutator [P_j, Q_l] has Frobenius
    norm at most ``tol``; ``common_eigenvector_count`` counts pairs with
    Tr(P_j Q_l) >= 1 - tol, i.e. shared eigendirections. Both come from the
    one d x d overlap matrix of the two bases.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch {a.dim} vs {b.dim}")
    overlaps = np.abs(a.vectors.conj() @ b.vectors.T) ** 2
    worst = float(_commutator_norms(overlaps))
    count = int(np.sum(overlaps >= 1.0 - tol))
    return CommutationReport(
        commutes=worst <= tol,
        common_eigenvector_count=count,
        commutator_norm=worst,
    )


def _commutation_matrix(obs: ObservableSet, tol: float) -> np.ndarray:
    """(N, N) booleans: entry (i, j) is commutes(members[i], members[j], tol).commutes."""
    n, d = obs.count, obs.dim
    kets = np.concatenate([b.vectors for b in obs.members])
    overlaps = (np.abs(kets.conj() @ kets.T) ** 2).reshape(n, d, n, d).transpose(0, 2, 1, 3)
    return _commutator_norms(overlaps) <= tol


def _greedy_subset(commuting: np.ndarray, order) -> list[int]:
    kept: list[int] = []
    for idx in order:
        if not commuting[idx, kept].any():
            kept.append(idx)
    return kept


def _covers_excluded(commuting: np.ndarray, kept: list[int]) -> bool:
    kept_set = set(kept)
    return all(commuting[i, kept].any() for i in range(len(commuting)) if i not in kept_set)


def minimal_noncommuting_subset(obs: ObservableSet, tol: float = COMMUTATION_TOL) -> ObservableSet:
    """Extract a minimal noncommuting subset of an observable set.

    The returned subset S satisfies (i) all members of S pairwise noncommute
    and (ii) every excluded observable commutes with at least one member of
    S. If all inputs pairwise commute the subset is a single member. Greedy
    over input order; if the cover property (ii) fails for that order, the
    greedy scan is retried from each rotated start index, and
    NoValidSubsetError is raised if no start works. Every scan reads one
    N x N commutation matrix built from the overlaps of all members at once.
    """
    members = obs.members
    n = len(members)
    commuting = _commutation_matrix(obs, tol)
    for start in range(n):
        order = list(range(start, n)) + list(range(start))
        kept = _greedy_subset(commuting, order)
        if _covers_excluded(commuting, kept):
            return ObservableSet(tuple(members[k] for k in kept))
    raise NoValidSubsetError("no start index yields a subset with both defining properties")


def signal_ensemble(obs: ObservableSet) -> SignalEnsemble:
    """Uniform ensemble of all eigenstates of the set, prior 1/(N*d) each."""
    return SignalEnsemble(
        dim=obs.dim,
        vectors=np.stack([b.vectors for b in obs.members]),
        labels=obs.labels,
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def mub_bases(dim: int, n_bases: int) -> ObservableSet:
    """Construct ``n_bases`` mutually unbiased bases in prime dimension ``dim``.

    Basis 0 is computational. For odd prime d, basis b in 1..d has vectors
    with amplitudes <k|psi_j^b> = omega^(b k^2 + j k) / sqrt(d), with omega
    the primitive d-th root of unity; for d = 2 the three bases are the
    eigenbases of the Pauli Z, X, Y operators. Deterministic output.
    """
    if not _is_prime(dim):
        raise NotPrimeError(f"dimension {dim} is not prime")
    if n_bases > dim + 1:
        raise TooManyBasesError(f"at most {dim + 1} mutually unbiased bases exist in dimension {dim}")
    if n_bases < 1:
        raise ValueError(f"n_bases must be >= 1, got {n_bases}")

    bases = [np.eye(dim, dtype=complex)]
    if dim == 2:
        s = 1.0 / np.sqrt(2.0)
        bases.append(np.array([[s, s], [s, -s]], dtype=complex))
        bases.append(np.array([[s, 1j * s], [s, -1j * s]], dtype=complex))
    else:
        k = np.arange(dim)
        for b in range(1, dim + 1):
            # integer exponent reduced mod d keeps the phase argument small and exact
            exponent = (b * k[None, :] ** 2 + k[:, None] * k[None, :]) % dim
            bases.append(np.exp(2j * np.pi * exponent / dim) / np.sqrt(dim))
    return ObservableSet(
        tuple(
            Eigenbasis(vectors=bases[i], label=f"mub-{i}")
            for i in range(n_bases)
        )
    )


def is_mutually_unbiased(obs: ObservableSet, tol: float = 1e-10) -> bool:
    """True iff every pair of bases in the set is mutually unbiased.

    Intra-basis overlaps must match the identity and every cross-basis
    squared overlap must equal 1/d, each within ``tol``.
    """
    d = obs.dim
    eye = np.eye(d)
    for i, a in enumerate(obs.members):
        intra = np.abs(a.vectors.conj() @ a.vectors.T) ** 2
        if np.max(np.abs(intra - eye)) > tol:
            return False
        for b in obs.members[i + 1 :]:
            cross = np.abs(a.vectors.conj() @ b.vectors.T) ** 2
            if np.max(np.abs(cross - 1.0 / d)) > tol:
                return False
    return True
