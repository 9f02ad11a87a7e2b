import numpy as np
import pytest

from qincompat import ObservableSet, mub_bases
from qincompat.errors import DimensionMismatchError, OutcomeCountMismatchError
from qincompat.fidelity import (
    Povm,
    ReconstructionMap,
    achievable_fidelity,
    achievable_fidelity_overlap_form,
    average_fidelity,
    ensemble_map,
    optimal_reconstruction,
    projective_povm,
    projective_strategy_fidelity,
    random_povm,
)
from qincompat.observables import signal_ensemble
from conftest import random_density, random_ensemble, rotated_qubit_basis

ZX_ENSEMBLE = signal_ensemble(mub_bases(2, 2))
ZXY_ENSEMBLE = signal_ensemble(mub_bases(2, 3))
Z_POVM = projective_povm(mub_bases(2, 1).members[0])
SINGLE_BASIS = signal_ensemble(mub_bases(3, 1))


def resend_basis_states(basis_vectors: np.ndarray) -> ReconstructionMap:
    states = basis_vectors[:, :, None] * basis_vectors.conj()[:, None, :]
    return ReconstructionMap(states=states)


class TestPovmValidation:
    def test_projective_is_valid(self):
        povm = projective_povm(mub_bases(3, 2).members[1])
        assert povm.n_outcomes == 3
        resolution = sum(m * np.outer(chi, chi.conj()) for m, chi in zip(povm.weights, povm.directions))
        np.testing.assert_allclose(resolution, np.eye(3), atol=1e-12)

    def test_weights_sum_to_dimension(self, rng):
        povm = random_povm(3, 9, rng)
        assert float(np.sum(povm.weights)) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Povm(dim=2, weights=np.array([1.0]), directions=np.array([[1.0, 0.0]]))

    def test_rejects_nonpositive_weight(self):
        directions = np.array([[1, 0], [0, 1], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            Povm(dim=2, weights=np.array([1.0, 1.0, 0.0]), directions=directions)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            Povm(dim=2, weights=np.array([1.0, 1.0]), directions=2 * np.eye(2, dtype=complex))

    @pytest.mark.parametrize("where", ["weights", "directions"])
    def test_rejects_nan(self, where):
        weights, directions = np.ones(2), np.eye(2, dtype=complex)
        if where == "weights":
            weights[0] = np.nan
        else:
            directions[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Povm(dim=2, weights=weights, directions=directions)

    def test_random_povm_needs_enough_outcomes(self, rng):
        with pytest.raises(ValueError):
            random_povm(3, 2, rng)


class TestReconstructionValidation:
    def test_rejects_trace_violation(self):
        with pytest.raises(ValueError):
            ReconstructionMap(states=np.stack([np.eye(2, dtype=complex)]))

    def test_rejects_negative_state(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            ReconstructionMap(states=np.stack([bad]))

    def test_rejects_nan(self):
        states = np.stack([np.eye(2, dtype=complex) / 2])
        states[0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ReconstructionMap(states=states)

    def test_accepts_mixed_states(self, rng):
        states = np.stack([random_density(2, rng) for _ in range(3)])
        assert ReconstructionMap(states=states).n_outcomes == 3


class TestAverageFidelity:
    def test_perfect_discrimination_of_one_basis(self):
        basis = mub_bases(3, 1).members[0]
        ens = signal_ensemble(ObservableSet((basis,)))
        value = average_fidelity(ens, projective_povm(basis), resend_basis_states(basis.vectors))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_measure_z_resend_z_on_two_unbiased_bases(self):
        recon = resend_basis_states(np.eye(2, dtype=complex))
        value = average_fidelity(ZX_ENSEMBLE, Z_POVM, recon)
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_maximally_mixed_resend_scores_one_over_d(self, rng):
        for dim, count in [(2, 2), (3, 2), (4, 3)]:
            ens = random_ensemble(dim, count, rng)
            povm = random_povm(dim, dim * dim, rng)
            recon = ReconstructionMap(states=np.stack([np.eye(dim) / dim] * povm.n_outcomes))
            assert average_fidelity(ens, povm, recon) == pytest.approx(1.0 / dim, abs=1e-12)

    def test_outcome_count_mismatch(self):
        recon = resend_basis_states(np.eye(2, dtype=complex))
        povm3 = random_povm(2, 3, np.random.default_rng(0))
        with pytest.raises(OutcomeCountMismatchError):
            average_fidelity(ZX_ENSEMBLE, povm3, recon)

    def test_dim_mismatch(self):
        recon = resend_basis_states(np.eye(2, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            average_fidelity(SINGLE_BASIS, Z_POVM, recon)


class TestEnsembleMap:
    def test_maximally_mixed_input(self):
        out = ensemble_map(ZX_ENSEMBLE, np.eye(2, dtype=complex) / 2)
        np.testing.assert_allclose(out, np.eye(2) / 4, atol=1e-14)

    def test_hand_computed_qubit_case(self):
        # (1/4) [ diag(1,0) + (1/2)(P+ + P-) ] = (1/4) diag(1,0) + I/8
        out = ensemble_map(ZX_ENSEMBLE, np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([3.0 / 8.0, 1.0 / 8.0]), atol=1e-14)
        assert np.trace(out).real == pytest.approx(0.5, abs=1e-12)

    def test_trace_is_one_over_d(self, rng):
        for dim, count in [(2, 1), (3, 2), (4, 3), (5, 2)]:
            ens = random_ensemble(dim, count, rng)
            rho = random_density(dim, rng)
            out = ensemble_map(ens, rho)
            assert np.trace(out).real == pytest.approx(1.0 / dim, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError):
            ensemble_map(ZX_ENSEMBLE, np.eye(2, dtype=complex))


class TestOptimalReconstruction:
    def test_single_basis_resends_outcomes(self):
        basis = mub_bases(3, 1).members[0]
        ens = signal_ensemble(ObservableSet((basis,)))
        recon = optimal_reconstruction(ens, projective_povm(basis))
        projectors = [np.outer(v, v.conj()) for v in basis.vectors]
        np.testing.assert_allclose(recon.states, projectors, atol=1e-12)

    def test_two_unbiased_bases_z_measurement(self):
        recon = optimal_reconstruction(ZX_ENSEMBLE, Z_POVM)
        np.testing.assert_allclose(recon.states[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(recon.states[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_degenerate_top_is_deterministic(self):
        ens = signal_ensemble(mub_bases(3, 4))  # complete set: flat spectrum everywhere
        povm = random_povm(3, 4, np.random.default_rng(5))
        a = optimal_reconstruction(ens, povm)
        b = optimal_reconstruction(ens, povm)
        assert np.array_equal(a.states, b.states)

    def test_never_beaten_by_other_reconstructions(self, rng):
        for _ in range(10):
            ens = random_ensemble(2, 2, rng)
            povm = random_povm(2, 4, rng)
            best = average_fidelity(ens, povm, optimal_reconstruction(ens, povm))
            rival = ReconstructionMap(
                states=np.stack([random_density(2, rng) for _ in range(povm.n_outcomes)])
            )
            assert best >= average_fidelity(ens, povm, rival) - 1e-10


def top_eigenvalues(ens, povm) -> np.ndarray:
    """lambda_max(Phi(chi_a)) per outcome, through the public ensemble map."""
    return np.array(
        [np.linalg.eigvalsh(ensemble_map(ens, np.outer(chi, chi.conj())))[-1] for chi in povm.directions]
    )


class TestAchievableFidelity:
    def test_two_unbiased_bases_z_measurement(self):
        assert achievable_fidelity(ZX_ENSEMBLE, Z_POVM) == pytest.approx(0.75, abs=1e-12)

    def test_single_basis_perfect(self):
        basis = mub_bases(3, 1).members[0]
        ens = signal_ensemble(ObservableSet((basis,)))
        assert achievable_fidelity(ens, projective_povm(basis)) == pytest.approx(1.0, abs=1e-12)

    def test_three_unbiased_bases_z_measurement(self):
        # per outcome the averaged state is (1/6) diag(2, 1), so each of the
        # two unit-weight outcomes contributes 1/3
        assert achievable_fidelity(ZXY_ENSEMBLE, Z_POVM) == pytest.approx(2.0 / 3.0, abs=1e-12)
        np.testing.assert_allclose(top_eigenvalues(ZXY_ENSEMBLE, Z_POVM), 1.0 / 3.0, atol=1e-12)

    def test_breakdown_sums_to_value(self, rng):
        # the value is the sum over outcomes of m_a * lambda_max(Phi(chi_a))
        ens = random_ensemble(3, 2, rng)
        povm = random_povm(3, 9, rng)
        terms = povm.weights * top_eigenvalues(ens, povm)
        assert achievable_fidelity(ens, povm) == pytest.approx(float(np.sum(terms)), abs=1e-12)

    def test_values_stay_in_range(self, rng):
        for _ in range(20):
            ens = random_ensemble(2, 3, rng)
            povm = random_povm(2, 4, rng)
            value = achievable_fidelity(ens, povm)
            assert 0.5 - 1e-10 <= value <= 1.0 + 1e-10


class TestRouteConsistency:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_three_routes_agree(self, dim):
        rng = np.random.default_rng(dim * 17)
        for _ in range(50):
            count = int(rng.integers(1, 4))
            ens = random_ensemble(dim, count, rng)
            povm = random_povm(dim, int(rng.integers(dim, dim * dim + 1)), rng)
            eig_form = achievable_fidelity(ens, povm)
            overlap_form = achievable_fidelity_overlap_form(ens, povm)
            explicit = average_fidelity(ens, povm, optimal_reconstruction(ens, povm))
            assert abs(eig_form - overlap_form) <= 1e-10
            assert abs(eig_form - explicit) <= 1e-10

    def test_projective_measurement_case(self):
        assert achievable_fidelity_overlap_form(ZX_ENSEMBLE, Z_POVM) == pytest.approx(0.75, abs=1e-12)

    def test_single_basis_is_perfect(self):
        basis = mub_bases(3, 1).members[0]
        ens = signal_ensemble(ObservableSet((basis,)))
        assert achievable_fidelity_overlap_form(ens, projective_povm(basis)) == pytest.approx(
            1.0, abs=1e-12
        )


class TestProjectiveStrategyFidelity:
    @pytest.mark.parametrize("dim,count", [(2, 2), (2, 3), (3, 2), (3, 4), (5, 6)])
    def test_unbiased_bases_hit_floor_exactly(self, dim, count):
        ens = signal_ensemble(mub_bases(dim, count))
        floor = (count + dim - 1.0) / (count * dim)
        for k in range(count):
            assert projective_strategy_fidelity(ens, k) == pytest.approx(floor, abs=1e-12)

    def test_single_basis(self):
        assert projective_strategy_fidelity(SINGLE_BASIS, 0) == pytest.approx(1.0, abs=1e-14)

    def test_matches_explicit_strategy(self):
        tilted = rotated_qubit_basis(0.3, label="tilted")
        z = mub_bases(2, 1).members[0]
        ens = signal_ensemble(ObservableSet((z, tilted)))
        for k in range(2):
            basis_vectors = ens.vectors[k]
            explicit = average_fidelity(
                ens,
                Povm(dim=2, weights=np.ones(2), directions=basis_vectors),
                resend_basis_states(basis_vectors),
            )
            assert abs(projective_strategy_fidelity(ens, k) - explicit) <= 1e-12

    def test_floor_property_on_random_ensembles(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            count = int(rng.integers(1, 4))
            ens = random_ensemble(dim, count, rng)
            floor = (count + dim - 1.0) / (count * dim)
            for k in range(count):
                assert projective_strategy_fidelity(ens, k) >= floor - 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            projective_strategy_fidelity(ZX_ENSEMBLE, 2)
