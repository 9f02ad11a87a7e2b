from itertools import combinations

import numpy as np
import pytest

from qincompat import Eigenbasis, ObservableSet, eigenbasis_of, mub_bases
from qincompat.errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotPrimeError,
    TooManyBasesError,
)
from qincompat.linalg import projector
from qincompat.observables import (
    COMMUTATION_TOL,
    SignalEnsemble,
    commutes,
    is_mutually_unbiased,
    minimal_noncommuting_subset,
    signal_ensemble,
)
from conftest import PAULI_X, PAULI_Z, random_basis, rotated_qubit_basis

Z_BASIS = Eigenbasis(np.eye(2, dtype=complex), label="Z")
Z_RELABELED = Eigenbasis(np.eye(2, dtype=complex)[::-1].copy(), label="Z-swapped")
X_BASIS = Eigenbasis(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), label="X")
Y_BASIS = Eigenbasis(np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2), label="Y")


def split_basis_d3() -> Eigenbasis:
    s = 1 / np.sqrt(2)
    vectors = np.array(
        [[1, 0, 0], [0, s, s], [0, s, -s]],
        dtype=complex,
    )
    return Eigenbasis(vectors, label="split")


class TestEigenbasisOf:
    def test_pauli_z(self):
        basis = eigenbasis_of(PAULI_Z)
        np.testing.assert_allclose(projector(basis.vectors[0]), np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(projector(basis.vectors[1]), np.diag([0.0, 1.0]), atol=1e-14)

    def test_pauli_x(self):
        basis = eigenbasis_of(PAULI_X)
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(projector(basis.vectors[0]), plus, atol=1e-14)
        np.testing.assert_allclose(projector(basis.vectors[1]), minus, atol=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            eigenbasis_of(np.eye(3, dtype=complex))

    def test_near_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            eigenbasis_of(np.diag([1.0, 1.0 + 1e-9]).astype(complex))


class TestEigenbasisValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Eigenbasis(np.array([[1, 0], [1, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            Eigenbasis(np.zeros((2, 3), dtype=complex))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        vectors = np.eye(2, dtype=complex)
        vectors[0, 1] = bad
        with pytest.raises(ValueError):
            Eigenbasis(vectors)

    def test_projectors_resolve_identity(self, rng):
        basis = random_basis(4, rng)
        resolution = sum(projector(v) for v in basis.vectors)
        np.testing.assert_allclose(resolution, np.eye(4), atol=1e-10)
        gram = np.abs(basis.vectors.conj() @ basis.vectors.T) ** 2
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


class TestCommutes:
    def test_relabeled_basis_commutes(self):
        report = commutes(Z_BASIS, Z_RELABELED)
        assert report.commutes
        assert report.common_eigenvector_count == 2
        assert report.commutator_norm <= 1e-12

    def test_unbiased_pair_shares_nothing(self):
        report = commutes(Z_BASIS, X_BASIS)
        assert not report.commutes
        assert report.common_eigenvector_count == 0

    def test_subspace_overlap_counts_one(self):
        # noncommuting pair sharing exactly the first eigenvector
        report = commutes(eigenbasis_of(np.diag([3.0, 2.0, 1.0]).astype(complex)), split_basis_d3())
        assert not report.commutes
        assert report.common_eigenvector_count == 1

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutes(Z_BASIS, split_basis_d3())

    def test_duplicate_from_eigenbasis_of_commutes(self):
        # the eigensolver returns the basis to about 1e-16; 1.0 - c then
        # rounds to about 1e-16 and sqrt(2 c (1.0 - c)) exceeds the tolerance
        basis = mub_bases(3, 2).members[1]
        spectrum = np.array([2.0, 0.5, -1.0])
        duplicate = eigenbasis_of((basis.vectors.T * spectrum) @ basis.vectors.conj(), label="dup")
        c = np.abs(basis.vectors.conj() @ duplicate.vectors.T) ** 2
        assert np.max(np.sqrt(np.clip(2.0 * c * (1.0 - c), 0.0, None))) > COMMUTATION_TOL
        report = commutes(basis, duplicate)
        assert report.commutes
        assert report.commutator_norm <= 1e-12
        assert report.common_eigenvector_count == 3
        assert minimal_noncommuting_subset(ObservableSet((basis, duplicate))).labels == ("mub-1",)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_commuting_pairs_share_a_full_basis(self, seed):
        # any relabeling of one basis commutes with it and must share all d
        # eigendirections
        rng = np.random.default_rng(seed)
        basis = random_basis(4, rng, "r")
        order = rng.permutation(4)
        report = commutes(basis, Eigenbasis(basis.vectors[order].copy(), label="perm"))
        assert report.commutes
        assert report.common_eigenvector_count == 4


def brute_force_valid_subsets(obs: ObservableSet) -> list[tuple[int, ...]]:
    """All index subsets satisfying both minimality properties, by enumeration."""
    n = obs.count
    valid = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            pairwise = all(
                not commutes(obs.members[i], obs.members[j]).commutes
                for i, j in combinations(subset, 2)
            )
            covered = all(
                any(commutes(obs.members[i], obs.members[k]).commutes for k in subset)
                for i in range(n)
                if i not in subset
            )
            if pairwise and covered:
                valid.append(subset)
    return valid


class TestMinimalNoncommutingSubset:
    def test_duplicate_collapses(self):
        subset = minimal_noncommuting_subset(ObservableSet((Z_BASIS, Z_RELABELED, X_BASIS)))
        assert subset.labels == ("Z", "X")

    def test_pauli_triple_all_kept(self):
        subset = minimal_noncommuting_subset(ObservableSet((Z_BASIS, X_BASIS, Y_BASIS)))
        assert subset.count == 3

    def test_partially_commuting_triple(self):
        # a commutes with b, c noncommutes with both
        a = Eigenbasis(np.eye(2, dtype=complex), label="a")
        b = Z_RELABELED
        c = X_BASIS
        obs = ObservableSet((a, b, c))
        subset = minimal_noncommuting_subset(obs)
        assert subset.labels == ("a", "X")
        assert (0, 2) in brute_force_valid_subsets(obs)

    def test_all_commuting_returns_single(self):
        subset = minimal_noncommuting_subset(ObservableSet((Z_BASIS, Z_RELABELED)))
        assert subset.count == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_satisfies_both_properties(self, seed):
        rng = np.random.default_rng(seed)
        members = [random_basis(3, rng, f"m{i}") for i in range(3)]
        members.append(Eigenbasis(members[0].vectors[::-1].copy(), label="dup"))
        obs = ObservableSet(tuple(members))
        subset = minimal_noncommuting_subset(obs)
        chosen = tuple(sorted(obs.labels.index(lbl) for lbl in subset.labels))
        assert chosen in brute_force_valid_subsets(obs)


def priors(ens: SignalEnsemble) -> np.ndarray:
    """The weight each state carries in the ensemble map: tr(P_k) / n_states = 1/(N*d)."""
    rows = ens.phi_rows.view(complex).reshape(ens.n_states, ens.dim, ens.dim)
    return np.trace(rows, axis1=1, axis2=2).real


class TestSignalEnsemble:
    @pytest.mark.parametrize(
        "bases,expected_states",
        [((Z_BASIS,), 2), ((Z_BASIS, X_BASIS), 4)],
    )
    def test_counts_and_prior(self, bases, expected_states):
        ens = signal_ensemble(ObservableSet(bases))
        assert ens.n_states == expected_states
        np.testing.assert_allclose(priors(ens), 1.0 / expected_states, rtol=1e-15)

    def test_three_qutrit_bases(self):
        ens = signal_ensemble(mub_bases(3, 3))
        assert ens.n_states == 9
        np.testing.assert_allclose(priors(ens), 1.0 / 9.0, rtol=1e-15)

    def test_states_are_projectors(self):
        ens = signal_ensemble(ObservableSet((Z_BASIS, X_BASIS)))
        for p in ens.state_projectors:
            assert np.linalg.norm(p @ p - p) < 1e-12
            assert abs(np.trace(p) - 1.0) < 1e-12

    def test_rejects_nan_amplitude(self):
        vectors = np.stack([Z_BASIS.vectors, X_BASIS.vectors])
        vectors[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SignalEnsemble(dim=2, vectors=vectors)

    def test_order_is_basis_major(self):
        ens = signal_ensemble(ObservableSet((Z_BASIS, X_BASIS)))
        np.testing.assert_array_equal(ens.kets[0], Z_BASIS.vectors[0])
        np.testing.assert_array_equal(ens.kets[2], X_BASIS.vectors[0])


class TestMubBases:
    def test_qubit_triple_is_pauli(self):
        obs = mub_bases(2, 3)
        for built, reference in zip(obs.members, (Z_BASIS, X_BASIS, Y_BASIS)):
            np.testing.assert_allclose(built.vectors, reference.vectors, atol=1e-15)
        cross = np.abs(obs.members[0].vectors.conj() @ obs.members[1].vectors.T) ** 2
        np.testing.assert_allclose(cross, 0.5, atol=1e-15)

    def test_qutrit_complete_set(self):
        obs = mub_bases(3, 4)
        assert obs.count == 4
        for i, a in enumerate(obs.members):
            for b in obs.members[i + 1 :]:
                cross = np.abs(a.vectors.conj() @ b.vectors.T) ** 2
                np.testing.assert_allclose(cross, 1.0 / 3.0, atol=1e-12)

    def test_single_basis_is_computational(self):
        obs = mub_bases(2, 1)
        np.testing.assert_array_equal(obs.members[0].vectors, np.eye(2))

    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_constructed_sets_are_unbiased(self, dim):
        assert is_mutually_unbiased(mub_bases(dim, dim + 1), 1e-10)

    def test_deterministic(self):
        a, b = mub_bases(5, 6), mub_bases(5, 6)
        for left, right in zip(a.members, b.members):
            assert np.array_equal(left.vectors, right.vectors)

    @pytest.mark.parametrize("bad", [4, 6, 9, 1])
    def test_rejects_non_prime(self, bad):
        with pytest.raises(NotPrimeError):
            mub_bases(bad, 2)

    def test_rejects_too_many(self):
        with pytest.raises(TooManyBasesError):
            mub_bases(3, 5)

    def test_rejects_zero_bases(self):
        with pytest.raises(ValueError):
            mub_bases(3, 0)


class TestIsMutuallyUnbiased:
    def test_repeated_basis_fails(self):
        assert not is_mutually_unbiased(ObservableSet((Z_BASIS, Z_RELABELED)))

    def test_slightly_rotated_fails(self):
        # overlap is 0.5 + O(angle), far outside 1e-10
        tilted = rotated_qubit_basis(np.pi / 4 + 0.1, label="tilted")
        assert not is_mutually_unbiased(ObservableSet((Z_BASIS, tilted)))

    def test_accepts_constructions(self):
        assert is_mutually_unbiased(mub_bases(5, 3), 1e-10)
