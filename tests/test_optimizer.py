import numpy as np
import pytest

from qincompat import (
    Eigenbasis,
    ObservableSet,
    OptimizerConfig,
    incompatibility,
    mub_bases,
    shared_eigenvector_pair,
)
from qincompat.errors import NotMutuallyUnbiasedError, SingularUpdateError
from qincompat.fidelity import (
    Povm,
    achievable_fidelity,
    average_fidelity,
    projective_povm,
    random_povm,
)
from qincompat.observables import signal_ensemble
from qincompat.optimizer import (
    collision_probability_sum,
    fuchs_lower_bound,
    optimal_fidelity,
    q_upper_bounds,
    see_saw,
)
from conftest import qubit_fidelity_optimum, random_ensemble, rotated_qubit_basis

FAST = OptimizerConfig(restarts=4, seed=0)


def reference_see_saw(ens, initial, config):
    """The per-start see-saw loop that the lock-step batch kernel replaced.

    Builds Phi from the (Nd, d, d) projector stack and shrinks the arrays
    when it prunes. Returns (fidelity, sweeps, outcomes left at the end).
    """
    kets = ens.kets
    stack = ens.state_projectors
    weights = initial.weights.copy()
    directions = initial.directions.copy()
    best_value = -np.inf
    previous = None
    sweeps = 0
    for sweep in range(1, config.max_iters + 1):
        sweeps = sweep
        probs = np.abs(kets.conj() @ directions.T) ** 2
        phi = np.einsum("ka,kij->aij", probs, stack) / ens.n_states
        vals, vecs = np.linalg.eigh(phi)
        lam, eta = vals[:, -1], vecs[:, :, -1]
        value = float(weights @ lam)
        assert previous is None or value >= previous - 1e-12
        best_value = max(best_value, value)
        if previous is not None and value - previous < config.convergence_eps:
            break
        previous = value
        if sweep == config.max_iters:
            break
        resend_probs = np.abs(kets.conj() @ eta.T) ** 2
        gain_ops = np.einsum("ka,kij->aij", resend_probs, stack) / ens.n_states
        pulled = np.einsum("aij,aj->ai", gain_ops, directions)
        update_op = np.einsum("a,ai,aj->ij", weights, pulled, pulled.conj())
        uvals, uvecs = np.linalg.eigh(update_op)
        inv = np.zeros_like(uvals)
        mask = uvals > 1e-12 * uvals[-1]
        inv[mask] = 1.0 / np.sqrt(uvals[mask])
        moved = pulled @ ((uvecs * inv) @ uvecs.conj().T).T
        weights = weights * np.linalg.norm(moved, axis=1) ** 2
        keep = weights >= config.weight_prune_eps
        assert np.any(keep)
        weights = weights[keep]
        moved = moved[keep]
        directions = moved / np.linalg.norm(moved, axis=1)[:, None]
        resolution = np.einsum("a,ai,aj->ij", weights, directions, directions.conj())
        assert np.linalg.norm(resolution - np.eye(ens.dim)) <= 1e-9
    return best_value, sweeps, weights.shape[0]


def search_starts(ens, config):
    """The starts optimal_fidelity runs, in its order: projective, then random."""
    starts = [projective_povm(Eigenbasis(v)) for v in ens.vectors]
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        starts.append(random_povm(ens.dim, config.n_outcomes(ens.dim), rng))
    return starts


class TestClosedFormBounds:
    def test_two_qubit_observables(self):
        assert q_upper_bounds(2, 2) == (pytest.approx(0.25), pytest.approx(1.0 / 3.0))

    def test_bounds_coincide_at_crossover(self):
        small, large = q_upper_bounds(3, 2)
        assert small == pytest.approx(large)

    def test_single_observable(self):
        small, large = q_upper_bounds(1, 5)
        assert small == 0.0
        assert large == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("dim,expected", [(1, 1.0), (2, 2.0 / 3.0), (3, 0.5)])
    def test_fuchs_floor(self, dim, expected):
        assert fuchs_lower_bound(dim) == pytest.approx(expected)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            q_upper_bounds(0, 2)
        with pytest.raises(ValueError):
            q_upper_bounds(2, 1)
        with pytest.raises(ValueError):
            fuchs_lower_bound(0)


class TestOptimizerConfig:
    def test_defaults_resolve_outcomes(self):
        assert OptimizerConfig().n_outcomes(3) == 9
        assert OptimizerConfig(outcomes=5).n_outcomes(3) == 5

    def test_rejects_too_few_outcomes(self):
        with pytest.raises(ValueError):
            OptimizerConfig(outcomes=2).n_outcomes(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"max_iters": 0},
            {"convergence_eps": 0.0},
            {"seed": -1},
            {"weight_prune_eps": 0.0},
            {"convergence_eps": float("nan")},
            {"convergence_eps": float("inf")},
            {"convergence_eps": float("-inf")},
            {"weight_prune_eps": float("nan")},
            {"weight_prune_eps": float("inf")},
            {"weight_prune_eps": float("-inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestUpdateOperator:
    def test_rank_zero_raises(self):
        from qincompat.optimizer import _pinv_sqrt

        with pytest.raises(SingularUpdateError):
            _pinv_sqrt(np.zeros((2, 2), dtype=complex))

    def test_inverts_on_support(self):
        from qincompat.optimizer import _pinv_sqrt

        m = np.diag([4.0, 1.0, 0.0]).astype(complex)
        root = _pinv_sqrt(m)
        np.testing.assert_allclose(root, np.diag([0.5, 1.0, 0.0]), atol=1e-14)

    def test_batch_matches_single_and_names_singular_entry(self):
        from qincompat.optimizer import _pinv_sqrt

        m = np.diag([4.0, 1.0, 0.0]).astype(complex)
        batch = np.stack([m, 2.0 * m])
        np.testing.assert_array_equal(_pinv_sqrt(batch)[0], _pinv_sqrt(m))
        with pytest.raises(SingularUpdateError, match=r"rank 0 \(entry 1\)"):
            _pinv_sqrt(np.stack([m, np.zeros_like(m)]), lambda i: f"entry {i}")


class TestSeeSaw:
    def test_single_basis_converges_to_one(self):
        ens = signal_ensemble(mub_bases(3, 1))
        start = random_povm(3, 9, np.random.default_rng(1))
        result = see_saw(ens, start)
        assert result.fidelity == pytest.approx(1.0, abs=1e-8)

    def test_projective_start_is_stationary(self):
        ens = signal_ensemble(mub_bases(2, 2))
        result = see_saw(ens, projective_povm(mub_bases(2, 2).members[0]))
        assert result.fidelity == pytest.approx(0.75, abs=1e-12)
        assert result.iterations == 2

    def test_three_unbiased_bases_from_random_starts(self):
        ens = signal_ensemble(mub_bases(2, 3))
        best = optimal_fidelity(ens, OptimizerConfig(restarts=16, seed=0))
        assert best.fidelity == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_trace_is_monotone(self, rng):
        for _ in range(5):
            ens = random_ensemble(2, 2, rng)
            start = random_povm(2, 4, rng)
            result = see_saw(ens, start)
            gains = np.diff(result.fidelity_trace)
            assert np.all(gains >= -1e-12)

    def test_final_triple_is_consistent(self, rng):
        ens = random_ensemble(3, 2, rng)
        result = see_saw(ens, random_povm(3, 9, rng))
        replay = average_fidelity(ens, result.povm, result.reconstruction)
        assert abs(replay - result.fidelity) <= 1e-10
        assert abs(achievable_fidelity(ens, result.povm) - result.fidelity) <= 1e-10


class TestBatchedKernel:
    """The lock-step kernel against the per-start reference loop, start by start."""

    CONFIG = OptimizerConfig(restarts=2, seed=3, max_iters=300)

    @staticmethod
    def ensembles():
        rng = np.random.default_rng(7)
        cases = [random_ensemble(d, n, rng) for d in (2, 3, 4, 5) for n in (2, 3)]
        # d = 6 takes the warm-started eigenpairs from sweep 2 on
        warm = random_ensemble(6, 2, np.random.default_rng(8))
        return cases + [signal_ensemble(mub_bases(3, 2)), warm]

    def test_every_start_matches_reference_and_runs_alone(self, monkeypatch):
        from qincompat import linalg

        accepted = []
        warm_top_eig = linalg._warm_top_eig

        def counted(matrices, guess):
            result = warm_top_eig(matrices, guess)
            accepted.append(result is not None)
            return result

        monkeypatch.setattr(linalg, "_warm_top_eig", counted)
        for ens in self.ensembles():
            search = optimal_fidelity(ens, self.CONFIG)
            starts = search_starts(ens, self.CONFIG)
            assert len(search.start_sweeps) == len(starts)
            assert search.iterations == sum(search.start_sweeps)
            for index, start in enumerate(starts):
                value, sweeps, _ = reference_see_saw(ens, start, self.CONFIG)
                alone = see_saw(ens, start, self.CONFIG)
                assert search.start_sweeps[index] == sweeps == alone.iterations
                assert abs(search.restart_trace[index] - value) <= 1e-12
                assert abs(alone.fidelity - search.restart_trace[index]) <= 1e-12
                assert len(alone.fidelity_trace) == sweeps
        assert sum(accepted) > 100

    def test_pruned_start_matches_reference(self):
        # a projective start plus one outcome of weight 1e-13, below the
        # default prune threshold: the first update drops it
        from qincompat.optimizer import _see_saw_batch

        config = OptimizerConfig(restarts=1, seed=0, max_iters=300)
        ens = random_ensemble(3, 2, np.random.default_rng(5))
        tiny = 1e-13
        start = Povm(
            dim=3,
            weights=np.array([1.0 - tiny, 1.0, 1.0, tiny]),
            directions=np.concatenate([ens.vectors[0], ens.vectors[0][:1]]),
        )
        value, sweeps, left = reference_see_saw(ens, start, config)
        assert left == 3 < start.n_outcomes
        alone = see_saw(ens, start, config)
        assert alone.iterations == sweeps
        assert abs(alone.fidelity - value) <= 1e-12
        assert alone.povm.n_outcomes == left
        # in a batch beside a random start, padded to its outcome count
        mate = search_starts(ens, config)[-1]
        weights = np.zeros((2, mate.n_outcomes))
        directions = np.repeat(mate.directions[None], 2, axis=0)
        weights[0, :4], directions[0, :4] = start.weights, start.directions
        weights[1] = mate.weights
        runs = _see_saw_batch(ens, weights, directions, config)
        assert runs.sweeps[0] == sweeps
        assert abs(runs.fidelity[0] - value) <= 1e-12
        mate_value, mate_sweeps, _ = reference_see_saw(ens, mate, config)
        assert runs.sweeps[1] == mate_sweeps
        assert abs(runs.fidelity[1] - mate_value) <= 1e-12

    def test_prune_error_names_start_and_sweep(self):
        ens = signal_ensemble(mub_bases(2, 2))
        with pytest.raises(SingularUpdateError, match=r"all outcomes pruned .*\(start 0, sweep 1\)"):
            optimal_fidelity(ens, OptimizerConfig(restarts=1, weight_prune_eps=10.0))


class TestOptimalFidelity:
    @pytest.mark.parametrize("dim,count", [(2, 2), (2, 3), (3, 2), (3, 4), (5, 6)])
    def test_unbiased_bases_closed_form(self, dim, count):
        ens = signal_ensemble(mub_bases(dim, count))
        search = optimal_fidelity(ens, FAST)
        assert search.fidelity == pytest.approx((count + dim - 1.0) / (count * dim), abs=1e-6)

    def test_commuting_input_is_perfect(self):
        ens = signal_ensemble(mub_bases(5, 1))
        search = optimal_fidelity(ens, FAST)
        assert search.fidelity == pytest.approx(1.0, abs=1e-8)

    def test_restart_trace_covers_all_starts(self):
        ens = signal_ensemble(mub_bases(2, 2))
        search = optimal_fidelity(ens, OptimizerConfig(restarts=3, seed=1))
        assert len(search.restart_trace) == 2 + 3
        assert search.fidelity == max(search.restart_trace)
        assert len(search.start_sweeps) == 2 + 3
        assert search.iterations == sum(search.start_sweeps)

    def test_capped_starts_show_in_start_sweeps(self):
        ens = signal_ensemble(mub_bases(3, 2))
        search = optimal_fidelity(ens, OptimizerConfig(restarts=2, seed=0, max_iters=5))
        assert max(search.start_sweeps) == 5
        assert min(search.start_sweeps) >= 1

    def test_shared_eigenvector_pair_optimum(self):
        # the computational measurement attains the exact optimum (d + 2)/(2 d):
        # the shared axis is read perfectly and the orthogonal subspace is an
        # unbiased pair, so the value follows from the block structure
        for dim in (3, 4):
            obs = ObservableSet(shared_eigenvector_pair(dim))
            ens = signal_ensemble(obs)
            block_value = achievable_fidelity(ens, projective_povm(obs.members[0]))
            assert block_value == pytest.approx((dim + 2.0) / (2.0 * dim), abs=1e-12)
            search = optimal_fidelity(ens, FAST)
            assert search.fidelity == pytest.approx((dim + 2.0) / (2.0 * dim), abs=1e-9)


class TestIncompatibility:
    def test_two_unbiased_qubit_bases(self):
        report = incompatibility(mub_bases(2, 2), FAST)
        assert report.incompatibility == pytest.approx(0.25, abs=1e-6)
        assert report.incompatibility == 1.0 - report.optimal_fidelity

    def test_commuting_pair_is_zero(self):
        z = Eigenbasis(np.eye(2, dtype=complex), label="Z")
        z2 = Eigenbasis(np.eye(2, dtype=complex)[::-1].copy(), label="Z2")
        report = incompatibility(ObservableSet((z, z2)), FAST)
        assert abs(report.incompatibility) <= 1e-8
        assert report.minimal_subset_labels == ("Z",)
        assert report.n_observables == 1

    def test_complete_qutrit_set(self):
        report = incompatibility(mub_bases(3, 4), FAST)
        assert report.incompatibility == pytest.approx(0.5, abs=1e-6)

    def test_certificates_populated(self):
        report = incompatibility(mub_bases(3, 2), FAST)
        assert report.fidelity_floor == pytest.approx(4.0 / 6.0)
        assert report.q_upper_small_n == pytest.approx(1.0 / 3.0)
        assert report.q_upper_large_n == pytest.approx(0.5)
        assert report.fuchs_floor == pytest.approx(0.5)
        assert report.optimal_fidelity >= report.fidelity_floor - 1e-9
        assert report.search_status == "best-found-lower-bound"

    def test_deterministic_for_fixed_seed(self):
        config = OptimizerConfig(restarts=3, seed=11)
        a = incompatibility(mub_bases(2, 2), config)
        b = incompatibility(mub_bases(2, 2), config)
        assert a.incompatibility == b.incompatibility
        assert a.restart_trace == b.restart_trace
        assert np.array_equal(a.best_povm.weights, b.best_povm.weights)
        assert np.array_equal(a.best_povm.directions, b.best_povm.directions)
        assert np.array_equal(a.best_reconstruction.states, b.best_reconstruction.states)


class TestQubitGridOracle:
    """The see-saw on qubit ensembles against the exact optimum qubit_fidelity_optimum."""

    @staticmethod
    def check_unbiased(n_bases, exact):
        ens = signal_ensemble(mub_bases(2, n_bases))
        assert qubit_fidelity_optimum(ens) == pytest.approx(exact, abs=1e-12)
        assert abs(optimal_fidelity(ens, FAST).fidelity - exact) <= 1e-9

    def test_two_bases(self):
        self.check_unbiased(2, 0.75)

    def test_three_bases(self):
        self.check_unbiased(3, 2.0 / 3.0)

    def test_single_basis(self):
        self.check_unbiased(1, 1.0)

    def test_matches_closed_form_on_random_ensembles(self, rng):
        for _ in range(5):
            ens = random_ensemble(2, int(rng.integers(2, 4)), rng)
            search = optimal_fidelity(ens, FAST)
            assert abs(search.fidelity - qubit_fidelity_optimum(ens)) <= 1e-9

    def test_agrees_with_see_saw(self):
        tilted = rotated_qubit_basis(0.3, label="tilted")
        z = mub_bases(2, 1).members[0]
        ens = signal_ensemble(ObservableSet((z, tilted)))
        search = optimal_fidelity(ens, FAST)
        assert abs(search.fidelity - qubit_fidelity_optimum(ens)) <= 1e-9


class TestCollisionProbabilitySum:
    def test_basis_vectors_saturate(self):
        for dim, count in [(2, 2), (3, 4), (5, 3)]:
            bases = mub_bases(dim, count)
            cap = (count + dim - 1.0) / dim
            for member in bases.members:
                for vector in member.vectors:
                    total, reported_cap, holds = collision_probability_sum(vector, bases)
                    assert reported_cap == pytest.approx(cap)
                    assert holds
                    assert total == pytest.approx(cap, abs=1e-12)

    def test_montecarlo_cap_holds(self):
        bases = mub_bases(3, 4)
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            total, cap, holds = collision_probability_sum(z / np.linalg.norm(z), bases)
            assert holds
            assert total <= cap + 1e-10

    def test_complete_qubit_set_pins_the_sum(self):
        # all three qubit axes together square-sum every Bloch component,
        # so pure states always give exactly 2
        bases = mub_bases(2, 3)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            total, _, _ = collision_probability_sum(z / np.linalg.norm(z), bases)
            assert total == pytest.approx(2.0, abs=1e-12)

    def test_rejects_biased_bases(self):
        z = Eigenbasis(np.eye(2, dtype=complex), label="Z")
        tilted = rotated_qubit_basis(0.2, label="tilted")
        with pytest.raises(NotMutuallyUnbiasedError):
            collision_probability_sum(np.array([1.0, 0.0]), ObservableSet((z, tilted)))
