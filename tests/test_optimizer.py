import math
import sys
import threading
import tracemalloc

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
from qincompat import linalg, optimizer
from qincompat.errors import BoundViolationError, NonMonotoneError, SingularUpdateError
from qincompat.fidelity import (
    Povm,
    achievable_fidelity,
    average_fidelity,
)
from qincompat.observables import signal_ensemble
from qincompat.optimizer import (
    check_kernel_size,
    fuchs_lower_bound,
    optimal_fidelity,
    q_upper_bounds,
    see_saw,
)
from qincompat.tolerances import GAP_TOL, RETIRE_MARGIN, TIE_TOL, WEIGHT_PRUNE_EPS
from conftest import (
    one_random_povm,
    projective_povm,
    qubit_fidelity_optimum,
    random_basis,
    random_ensemble,
    random_hermitian,
    rotated_qubit_basis,
)

FAST = OptimizerConfig(restarts=4, seed=0)


def reference_see_saw(ens, initial, config):
    """The see-saw of one start as a plain loop, with the kernel's accept/reject rule.

    Builds Phi from the (Nd, d, d) projector stack and shrinks the arrays
    when it prunes. Each sweep scores one point. The next point is the plain
    step from the accepted one, or, once omega > 1, a candidate: for a basis
    (d outcomes) the step whose pulled vectors have their part off chi_a
    stretched by omega, otherwise the weights m_a s_a^omega on the plain
    step's directions, completed by W^(-1/2). A candidate is accepted when
    its fidelity is at least the accepted one; a rejected candidate gives way
    to the plain step from the accepted point with omega reset to 1, and so
    does a candidate that is not a measurement. Omega leaves 1 after a plain
    step that gains at least 0.9 times the last accepted gain.

    Every MERGE_EVERY sweeps a next point with more than d outcomes has its
    nearly coincident outcomes merged: each outcome's leader is the first
    outcome whose direction overlaps it by more than MERGE_OVERLAP, a leader
    that leads itself takes the top eigenpair of its group's summed element
    and its group's other outcomes are dropped, and the result is completed
    by W^(-1/2). The merged point is scored as a candidate; rejected, it
    leaves the start as it was, and accepted with omega at 1, it is booked
    as a plain step that cannot stop the start. Returns (fidelity, sweeps,
    outcomes of the best point, the sweeps that rejected a weight candidate,
    the sweeps that scored a merge, the accepted fidelity after each sweep,
    the gain booked at each sweep: 0 for a rejected candidate, the last one
    for a rejected merge).
    """
    kets = ens.kets
    stack = ens.state_projectors
    eye = np.eye(ens.dim)

    def phi(directions):
        probs = np.abs(kets.conj() @ directions.T) ** 2
        return np.einsum("ka,kij->aij", probs, stack) / ens.n_states

    def inverse_root(op):
        vals, vecs = np.linalg.eigh(op)
        inv = np.zeros_like(vals)
        mask = vals > 1e-12 * vals[-1]
        inv[mask] = 1.0 / np.sqrt(vals[mask])
        return (vecs * inv) @ vecs.conj().T

    def pruned(weights, moved, factor):
        """Unit directions of ``moved`` with weights * |moved|^2, pruned; None when not a measurement."""
        weights = weights * np.linalg.norm(moved, axis=1) ** 2
        keep = weights >= WEIGHT_PRUNE_EPS
        weights, moved, factor = weights[keep], moved[keep], factor[keep]
        directions = moved / np.linalg.norm(moved, axis=1)[:, None]
        resolution = np.einsum("a,ai,aj->ij", weights, directions, directions.conj())
        if not keep.any() or np.linalg.norm(resolution - eye) > 1e-9:
            return None
        return weights, directions, factor

    def plain_step(weights, directions, eta, stretch=1.0):
        pulled = np.einsum("aij,aj->ai", phi(eta), directions)
        if stretch > 1.0:
            along = np.einsum("ai,ai->a", directions.conj(), pulled)[:, None] * directions
            pulled = along + stretch * (pulled - along)
        update_op = np.einsum("a,ai,aj->ij", weights, pulled, pulled.conj())
        moved = pulled @ inverse_root(update_op).T
        step = pruned(weights, moved, np.linalg.norm(moved, axis=1) ** 2)
        assert step is not None or stretch > 1.0
        return step

    def candidate(plain_weights, plain_directions, factor, omega):
        tilted = plain_weights / factor * factor**omega
        frame = np.einsum("a,ai,aj->ij", tilted, plain_directions, plain_directions.conj())
        step = pruned(tilted, plain_directions @ inverse_root(frame).T, factor)
        return None if step is None else step[:2]

    def merged(weights, directions):
        overlap = np.abs(directions.conj() @ directions.T) ** 2
        leader = [int(np.flatnonzero(row > optimizer.MERGE_OVERLAP)[0]) for row in overlap]
        new_weights, new_directions = [], []
        for a, head in enumerate(leader):
            if head != a and leader[head] == head:
                continue  # joined its head's group
            group = [b for b, lead in enumerate(leader) if lead == a] if head == a else [a]
            summed = sum(weights[b] * np.outer(directions[b], directions[b].conj()) for b in group)
            vals, vecs = np.linalg.eigh(summed)
            single = len(group) == 1
            new_weights.append(weights[a] if single else vals[-1])
            new_directions.append(directions[a] if single else vecs[:, -1])
        if len(new_weights) == len(weights):
            return None
        new_weights, new_directions = np.array(new_weights), np.array(new_directions)
        frame = np.einsum("a,ai,aj->ij", new_weights, new_directions, new_directions.conj())
        step = pruned(new_weights, new_directions @ inverse_root(frame).T, new_weights)
        return None if step is None else step[:2]

    weights = initial.weights.copy()
    directions = initial.directions.copy()
    best_value, best_outcomes = -np.inf, 0
    kept = None
    omega, last_gain = 1.0, np.inf
    sweeps, tilted, merging, rejected, merges = 0, False, False, [], []
    trace, booked = [], []
    for sweep in range(1, config.max_iters + 1):
        sweeps = sweep
        vals, vecs = np.linalg.eigh(phi(directions))
        eta = vecs[:, :, -1]
        value = float(weights @ vals[:, -1])
        if value > best_value:
            best_value, best_outcomes = value, weights.shape[0]
        relaxed, take, gain = omega > 1.0 or merging, True, np.inf
        if merging:
            merges.append(sweep)
        if kept is not None:
            gain = value - kept[3]
            if omega > 1.0:
                take = gain >= 0.0
                if tilted and not take:
                    rejected.append(sweep)
                omega = min(1.5 * omega, 50.0) if take and gain >= config.convergence_eps else 1.0
                last_gain = gain if take else 0.0
            elif not merging or gain >= 0.0:
                assert gain >= -1e-12
                if gain >= 0.9 * last_gain:
                    omega = 1.5
                last_gain = gain
            else:
                take = False
        if take:
            kept = (weights, directions, eta, value)
        trace.append(kept[3])
        booked.append(last_gain)
        if sweep == config.max_iters or (not relaxed and gain < config.convergence_eps):
            break
        tilted = merging = False
        stretched = plain_step(*kept[:3], omega) if omega > 1.0 and len(kept[0]) == ens.dim else None
        if stretched is not None:
            weights, directions = stretched[:2]
            continue
        plain = plain_step(*kept[:3])
        weights, directions = plain[:2]
        over = candidate(*plain, omega) if omega > 1.0 and len(plain[0]) > ens.dim else None
        if over is None:
            omega = 1.0
        else:
            weights, directions = over
            tilted = True
        if sweep % optimizer.MERGE_EVERY == 0 and len(weights) > ens.dim:
            merge = merged(weights, directions)
            if merge is not None:
                weights, directions = merge
                merging = True
    return best_value, sweeps, best_outcomes, rejected, merges, trace, booked


def search_starts(ens, config):
    """The starts optimal_fidelity runs, in its order: projective, then random."""
    starts = [projective_povm(Eigenbasis(v)) for v in ens.vectors]
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        starts.append(one_random_povm(ens.dim, config.n_outcomes(ens.dim), rng))
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
        with pytest.raises(ValueError, match=r"^outcomes 2 is too small: completeness needs at least d = 3$"):
            OptimizerConfig(outcomes=2).n_outcomes(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"max_iters": 0},
            {"convergence_eps": 0.0},
            {"seed": -1},
            {"convergence_eps": float("nan")},
            {"convergence_eps": float("inf")},
            {"convergence_eps": float("-inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("field", ["restarts", "outcomes", "max_iters", "seed"])
    def test_rejects_non_integer_counts(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= [01], got 2\.5$"):
            OptimizerConfig(**{field: 2.5})

    @pytest.mark.parametrize("field", ["restarts", "outcomes", "max_iters", "seed"])
    def test_rejects_bool_counts(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= [01], got True$"):
            OptimizerConfig(**{field: True})

    @pytest.mark.parametrize("value", ["1e-9", None, True])
    def test_rejects_non_number_convergence_eps(self, value):
        with pytest.raises(ValueError, match=rf"^convergence_eps must be positive and finite, got {value!r}$"):
            OptimizerConfig(convergence_eps=value)

    def test_accepts_numpy_integers(self):
        config = OptimizerConfig(restarts=np.int64(2), outcomes=np.int32(4), max_iters=np.uint16(10), seed=np.int8(3))
        assert config == OptimizerConfig(restarts=2, outcomes=4, max_iters=10, seed=3)
        assert all(type(value) is int for value in (config.restarts, config.outcomes, config.max_iters, config.seed))


class TestKernelSize:
    """The see-saw's Phi stack of (N + restarts) x outcomes x d x d complex entries has a byte budget."""

    def test_default_search_fits(self):
        check_kernel_size(OptimizerConfig(), 8, 3)

    @pytest.mark.parametrize(
        "config,dim,field",
        [
            (OptimizerConfig(restarts=10**8), 2, r"restarts 100000000 is too large"),
            (OptimizerConfig(restarts=1, outcomes=10**9), 2, r"outcomes 1000000000 is too large"),
            (OptimizerConfig(restarts=1), 4096, r"dim 4096 is too large"),
            (OptimizerConfig(restarts=10**8, outcomes=10**9), 4096, r"dim 4096 is too large"),
        ],
    )
    def test_names_the_field_to_lower(self, config, dim, field):
        with pytest.raises(ValueError, match=field):
            check_kernel_size(config, dim, 2)

    def test_search_checks_before_it_allocates(self, monkeypatch):
        monkeypatch.setattr(optimizer, "KERNEL_BYTE_BUDGET", 1000)
        optimizer._held_starts.cache_clear()
        for warm in (False, True):
            if warm:  # a search of the same d that fits holds its starts first
                incompatibility(mub_bases(2, 2), OptimizerConfig(restarts=1, seed=0))
            held = optimizer._held_starts.cache_info()
            expected = r"^restarts 4 is too large: .* hold 6 x 4 x 2 x 2 complex entries \(1536 bytes\)"
            with monkeypatch.context() as patch, pytest.raises(ValueError, match=expected):
                patch.setattr(optimizer, "random_povm", None)
                incompatibility(mub_bases(2, 2), FAST)
            # the refused search neither looked up nor left an entry
            assert optimizer._held_starts.cache_info() == held
        assert held.currsize == 1


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
        start = one_random_povm(3, 9, np.random.default_rng(1))
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
            start = one_random_povm(2, 4, rng)
            result = see_saw(ens, start)
            gains = np.diff(result.traces[0])
            assert np.all(gains >= -1e-12)

    def test_final_triple_is_consistent(self, rng):
        ens = random_ensemble(3, 2, rng)
        result = see_saw(ens, one_random_povm(3, 9, rng))
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
        more = [random_ensemble(3, 2, np.random.default_rng(21)), random_ensemble(6, 2, np.random.default_rng(8))]
        return cases + more

    def test_every_start_matches_reference_and_runs_alone(self, monkeypatch):
        from qincompat import linalg

        # per see-saw batch, whether each of its top-eigenpair calls was given a guess
        guessed = []
        see_saw_batch, batched_top_eig = optimizer._see_saw_batch, linalg.batched_top_eig

        def batch(*args, **kwargs):
            guessed.append([])
            return see_saw_batch(*args, **kwargs)

        def top_eig(matrices, guess=None):
            guessed[-1].append(guess is not None)
            return batched_top_eig(matrices, guess)

        monkeypatch.setattr(optimizer, "_see_saw_batch", batch)
        monkeypatch.setattr(linalg, "batched_top_eig", top_eig)
        rejections, merged_dims, retired = 0, set(), 0
        for ens in self.ensembles():
            search = optimal_fidelity(ens, self.CONFIG)
            starts = search_starts(ens, self.CONFIG)
            assert len(search.start_sweeps) == len(search.start_stops) == len(starts)
            assert search.iterations == sum(search.start_sweeps)
            for index, start in enumerate(starts):
                value, sweeps, _, rejected, merged, trace, booked = reference_see_saw(ens, start, self.CONFIG)
                alone = see_saw(ens, start, self.CONFIG)
                assert alone.iterations == sweeps and alone.start_stops != ("retired",)
                assert abs(alone.fidelity - value) <= 1e-12
                assert len(alone.traces[0]) == sweeps
                if search.start_stops[index] == "retired":
                    retired += 1
                    self.check_retired(search, index, trace, booked)
                    rejected = [sweep for sweep in rejected if sweep <= search.start_sweeps[index]]
                else:
                    assert search.start_sweeps[index] == sweeps
                    assert abs(search.restart_trace[index] - value) <= 1e-12
                # a rejected weight candidate leaves the accepted fidelity where it was; the next
                # sweep scores the plain step from there, as the reference does
                for sweep in rejected:
                    assert alone.traces[0][sweep - 1] == alone.traces[0][sweep - 2]
                    assert search.traces[index][sweep - 1] == search.traces[index][sweep - 2]
                rejections += len(rejected)
                if merged:
                    merged_dims.add(ens.dim)
        assert rejections > 0 and retired > 0
        # the random starts merge outcomes at every d
        assert merged_dims == {2, 3, 4, 5, 6}
        # sweep 1 guesses each outcome's own direction; from sweep 2 on every row goes to eigh
        assert all(calls[0] and not any(calls[1:]) for calls in guessed)
        assert sum(len(calls) > 1 for calls in guessed) == len(guessed) == 54

    def check_retired(self, search, index, trace, booked):
        """A retired start follows the reference up to its retirement sweep t, and at t it cannot catch up.

        At t the best fidelity any start had reached leads its own by more than RETIRE_MARGIN plus its
        largest booked gain of the last MERGE_EVERY sweeps, gained again at every sweep left.
        """
        t = search.start_sweeps[index]
        assert optimizer.MERGE_EVERY < t < len(trace)
        np.testing.assert_allclose(search.traces[index], trace[:t], rtol=0.0, atol=1e-12)
        assert abs(search.restart_trace[index] - max(trace[:t])) <= 1e-12
        best = max(float(np.max(other[:t])) for other in search.traces)
        reach = max(booked[t - optimizer.MERGE_EVERY : t]) * (self.CONFIG.max_iters - t)
        assert best - search.traces[index][t - 1] > RETIRE_MARGIN + reach

    def test_sweep_one_takes_no_rayleigh_step(self, monkeypatch):
        # at sweep 1 a row's guess is its own measurement direction: exact on a 2-design, far off on a
        # random start, so a guess that misses goes straight to eigh, with no shifted solve or Cholesky
        monkeypatch.setattr(np.linalg, "solve", None)
        monkeypatch.setattr(np.linalg, "cholesky", None)
        ens = random_ensemble(7, 2, np.random.default_rng(9))
        search = optimal_fidelity(ens, OptimizerConfig(restarts=2, seed=0, max_iters=1))
        assert search.start_sweeps == (1,) * 4

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
        value, sweeps, left, *_ = reference_see_saw(ens, start, config)
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
        mate_value, mate_sweeps, *_ = reference_see_saw(ens, mate, config)
        assert runs.sweeps[1] == mate_sweeps
        assert abs(runs.fidelity[1] - mate_value) <= 1e-12

    def test_prune_error_names_start_and_sweep(self, monkeypatch):
        # on a random qutrit pair the caps are loose, so sweep 1 is followed by a step
        monkeypatch.setattr(optimizer, "WEIGHT_PRUNE_EPS", 10.0)
        ens = random_ensemble(3, 2, np.random.default_rng(21))
        with pytest.raises(SingularUpdateError, match=r"all outcomes pruned .*\(start 0, sweep 1\)"):
            optimal_fidelity(ens, OptimizerConfig(restarts=1))

    def test_fall_error_names_start_and_sweep(self, monkeypatch):
        # at -1 the guard reads any plain step that gains less than 1, as the first one of start 0 does, as a fall
        monkeypatch.setattr(optimizer, "MONOTONE_TOL", -1.0)
        with pytest.raises(NonMonotoneError, match=r"^fidelity fell from .* \(start 0, sweep 2\)$"):
            optimal_fidelity(random_ensemble(3, 2, np.random.default_rng(21)), FAST)


class TestOverRelaxation:
    """The adaptive over-relaxed step: what it keeps of the plain see-saw and what it buys."""

    def test_first_step_is_the_plain_update(self):
        # the fixed-point update written out: after one step every start holds its bits
        from qincompat.fidelity import _phi_batch, _signal_overlaps
        from qincompat.optimizer import _pinv_sqrt, _see_saw_batch

        for dim in (3, 6):
            ens = random_ensemble(dim, 2, np.random.default_rng(dim))
            config = OptimizerConfig(restarts=3, seed=1, max_iters=2)
            starts = search_starts(ens, config)[ens.n_bases:]
            weights = np.stack([start.weights for start in starts])
            directions = np.stack([start.directions for start in starts])
            _, eta = np.linalg.eigh(_phi_batch(ens, _signal_overlaps(ens, directions)))
            eta = eta[..., :, -1]
            pulled = (_phi_batch(ens, _signal_overlaps(ens, eta)) @ directions[..., None])[..., 0]
            update_op = (pulled.swapaxes(1, 2) * weights[:, None, :]) @ pulled.conj()
            moved = pulled @ _pinv_sqrt(update_op).swapaxes(1, 2)
            norms = np.linalg.norm(moved, axis=2)
            runs = _see_saw_batch(ens, weights, directions, config)
            assert np.all(runs.sweeps == 2)
            assert np.all(runs.traces[0][1] > runs.traces[0][0])
            np.testing.assert_array_equal(runs.weights, weights * norms**2)
            np.testing.assert_array_equal(runs.directions, moved / norms[..., None])

    def test_unbiased_qutrit_pair_converges_before_the_cap(self, monkeypatch):
        # with no upper bound to stop at sweep 1, every start runs its own measurement steps
        monkeypatch.setattr(optimizer, "collision_cap", lambda ens: (math.inf, True))
        search = optimal_fidelity(signal_ensemble(mub_bases(3, 2)), FAST)
        assert search.fidelity_upper == math.inf and max(search.start_sweeps) > 1
        assert max(search.start_sweeps) < FAST.max_iters
        assert abs(search.fidelity - 2.0 / 3.0) <= 1e-9

    @pytest.mark.parametrize("seed", [3, 4])
    def test_reaches_the_tightly_converged_plain_value(self, seed, monkeypatch):
        ens = random_ensemble(4, 2, np.random.default_rng(seed))
        search = optimal_fidelity(ens, FAST)
        monkeypatch.setattr(optimizer, "OMEGA_MAX", 1.0)  # every step plain
        tight = optimal_fidelity(ens, OptimizerConfig(restarts=4, seed=0, convergence_eps=1e-15, max_iters=40000))
        assert max(tight.start_sweeps) < 40000
        assert abs(search.fidelity - tight.fidelity) <= 1e-9


class TestBasisStretch:
    """A basis start over-relaxes by stretching its directions inside the plain step."""

    # the seed-21 qutrit pair: under plain steps alone its two basis starts ran 216 and 215 sweeps
    # and ended at these fidelities; its random starts, which merge outcomes, run 187, 180, 100 and 68.
    # Without merging the best random start ends at UNMERGED_RANDOM_BEST, which merging must not lose.
    PLAIN_BASIS_SWEEPS = (216, 215)
    PLAIN_BASIS_FIDELITY = (0.7080922549418827, 0.7080922549655421)
    RANDOM_SWEEPS = (187, 180, 100, 68)
    UNMERGED_RANDOM_BEST = 0.7088613191538862

    @staticmethod
    def ensemble():
        return random_ensemble(3, 2, np.random.default_rng(21))

    def test_basis_starts_stop_sooner_and_no_lower(self):
        # each basis start run alone, where no better start retires it
        ens = self.ensemble()
        search = optimal_fidelity(ens, FAST)
        # the last random start trails the best by more than it can still gain, and retires a sweep early
        assert search.start_sweeps[2:] == self.RANDOM_SWEEPS[:3] + (67,)
        assert search.start_stops[2:] == ("converged",) * 3 + ("retired",)
        assert search.fidelity == max(search.restart_trace[2:]) >= self.UNMERGED_RANDOM_BEST
        for basis, plain_sweeps, plain_value in zip(ens.vectors, self.PLAIN_BASIS_SWEEPS, self.PLAIN_BASIS_FIDELITY):
            alone = see_saw(ens, projective_povm(Eigenbasis(basis)), FAST)
            assert alone.start_stops == ("converged",)
            assert alone.iterations < plain_sweeps
            assert alone.fidelity >= plain_value - 1e-12

    def test_only_tilted_starts_build_a_weight_candidate(self, monkeypatch):
        # a candidate is built only for the starts with more than d outcomes and omega > 1, and each of
        # its rows has the bits it has when built alone
        calls = []
        over_relaxed = optimizer._over_relaxed

        def counted(weights, directions, factors, omega):
            calls.append(len(weights))
            assert np.all(omega > 1.0) and np.all(np.count_nonzero(weights, axis=1) > directions.shape[2])
            built = over_relaxed(weights, directions, factors, omega)
            for row in range(len(weights)):
                alone = over_relaxed(*(a[row : row + 1].copy() for a in (weights, directions, factors, omega)))
                for array, row_alone in zip(built, alone):
                    np.testing.assert_array_equal(array[row], row_alone[0])
            return built

        monkeypatch.setattr(optimizer, "_over_relaxed", counted)
        ens = self.ensemble()
        search = optimal_fidelity(ens, FAST)
        # most candidates are built for fewer rows than the 4 random starts
        assert calls and sum(rows < FAST.restarts for rows in calls) > len(calls) / 2
        calls.clear()
        alone = see_saw(ens, projective_povm(Eigenbasis(ens.vectors[0])), FAST)
        assert calls == []
        assert alone.iterations < self.PLAIN_BASIS_SWEEPS[0]

    def test_stretch_that_is_not_a_measurement_gives_way_to_the_plain_step(self, monkeypatch):
        # every stretched step made rank 1, so it loses completeness: each basis start falls back
        # to the plain step unscored, and the search runs as under plain steps alone
        fallbacks = []

        def rank_one(pulled, directions, omega):
            stretched = omega > 1.0
            fallbacks.append(np.count_nonzero(stretched))
            return np.where(stretched[:, None, None], pulled[:, :1], pulled)

        monkeypatch.setattr(optimizer, "_stretched", rank_one)
        ens = self.ensemble()
        search = optimal_fidelity(ens, FAST)
        assert sum(fallbacks) > 0
        assert search.start_sweeps[2:] == self.RANDOM_SWEEPS[:3] + (67,)
        # in the search the random starts retire the basis starts; alone, each runs its plain course
        assert search.start_stops[:2] == ("retired",) * 2
        for basis, plain_sweeps, plain_value in zip(ens.vectors, self.PLAIN_BASIS_SWEEPS, self.PLAIN_BASIS_FIDELITY):
            alone = see_saw(ens, projective_povm(Eigenbasis(basis)), FAST)
            assert alone.iterations == plain_sweeps
            assert abs(alone.fidelity - plain_value) <= 1e-12


class TestOutcomeMerge:
    """Every MERGE_EVERY sweeps a start with more than d outcomes scores its nearly coincident outcomes merged."""

    @staticmethod
    def ensemble():
        return random_ensemble(6, 2, np.random.default_rng(8))

    def test_a_merge_that_lowers_the_fidelity_is_rejected(self, monkeypatch):
        # every merge candidate is swapped for the computational basis, far below the accepted point
        merge, plain_step = optimizer._merged, optimizer._plain_step
        merge_sweeps, steps = [], []

        def lowered(weights, directions, where):
            weights, directions, merged = merge(weights, directions, where)
            if merged.any():
                merge_sweeps.append(len(steps))
                dim = directions.shape[2]
                weights = np.where(merged[:, None], np.arange(weights.shape[1]) < dim, weights)
                directions = directions.copy()
                directions[merged, :dim] = np.eye(dim)
            return weights, directions, merged

        def recorded(ens, weights, directions, eta, *args):
            live = weights[0] > 0.0
            steps.append((weights[0, live], directions[0, live], eta[0, live]))
            return plain_step(ens, weights, directions, eta, *args)

        monkeypatch.setattr(optimizer, "_merged", lowered)
        monkeypatch.setattr(optimizer, "_plain_step", recorded)
        ens = self.ensemble()
        start = search_starts(ens, FAST)[-1]
        alone = see_saw(ens, start, FAST)
        assert merge_sweeps and all(sweep % optimizer.MERGE_EVERY == 0 for sweep in merge_sweeps)
        trace = alone.traces[0]
        assert np.all(np.diff(trace) >= 0.0)
        for sweep in merge_sweeps:
            # sweep + 1 scored the merge: the accepted fidelity stays where it was, and the step after
            # it starts again from the outcomes accepted at sweep `sweep`
            assert trace[sweep] == trace[sweep - 1]
            for before, after in zip(steps[sweep - 1], steps[sweep]):
                np.testing.assert_array_equal(before, after)
        assert alone.povm.n_outcomes > ens.dim

    @pytest.mark.parametrize("dim, lead", [(3, 3e-4), (4, 1e-3), (8, 1e-3)])
    def test_random_start_reports_fewer_than_d2_outcomes(self, dim, lead):
        rng = np.random.default_rng(1)
        report = incompatibility(ObservableSet(tuple(random_basis(dim, rng, f"r{i}") for i in range(2))), FAST)
        # a random start beats both basis starts by far more than TIE_TOL, so its strategy is reported
        assert max(report.restart_trace[2:]) - max(report.restart_trace[:2]) > lead
        assert dim < report.best_povm.n_outcomes < dim * dim

    @staticmethod
    def merged_outcomes(monkeypatch):
        """The live outcomes, before the merge, of every start that merged: filled in as the search runs."""
        merge, merged_outcomes = optimizer._merged, []

        def recorded(weights, directions, where):
            result = merge(weights, directions, where)
            merged_outcomes.extend(np.count_nonzero(weights[result[2]], axis=1).tolist())
            return result

        monkeypatch.setattr(optimizer, "_merged", recorded)
        return merged_outcomes

    @pytest.mark.parametrize("dim", [2, 6])
    def test_basis_starts_never_merge(self, monkeypatch, dim):
        merged_outcomes = self.merged_outcomes(monkeypatch)
        ens = random_ensemble(dim, 2, np.random.default_rng(dim))
        for basis in ens.vectors:
            see_saw(ens, projective_povm(Eigenbasis(basis)), FAST)
        assert merged_outcomes == []

    @pytest.mark.parametrize("dim", [2, 6])
    def test_random_starts_merge(self, monkeypatch, dim):
        # only random starts, which have more than d live outcomes, merge; qubit sets as well
        merged_outcomes = self.merged_outcomes(monkeypatch)
        optimal_fidelity(random_ensemble(dim, 2, np.random.default_rng(dim)), FAST)
        assert merged_outcomes and min(merged_outcomes) > dim


class TestAcceptRule:
    """The accept phase on the batch record: one case per branch of its rule, as one row of a batch each."""

    EPS = 1e-10
    # omega, last gain, merging, gain -> take, done, omega, last gain
    CASES = {
        "candidate gains at least eps: omega grows": ((1.5, 1e-6, False, 1e-8), (True, False, 2.25, 1e-8)),
        "candidate gains at least eps: omega capped": ((40.0, 1e-6, False, 1e-8), (True, False, 50.0, 1e-8)),
        "candidate gains less than eps: omega reset": ((2.25, 1e-6, False, 1e-12), (True, False, 1.0, 1e-12)),
        "candidate lowers F: rejected": ((2.25, 1e-6, False, -1e-9), (False, False, 1.0, 0.0)),
        "merge lowers F: rejected, state kept": ((1.0, 1e-6, True, -1e-9), (False, False, 1.0, 1e-6)),
        "merge keeps F: taken, not done": ((1.0, 1e-6, True, 0.0), (True, False, 1.0, 0.0)),
        "plain step gains shrink slowly: omega 1.5": ((1.0, 1e-6, False, 1e-6), (True, False, 1.5, 1e-6)),
        "plain step gains shrink fast: omega stays 1": ((1.0, 1e-6, False, 1e-7), (True, False, 1.0, 1e-7)),
        "plain step below eps: done": ((1.0, 1e-6, False, 1e-11), (True, True, 1.0, 1e-11)),
        "plain step falls within MONOTONE_TOL: done": ((1.0, 1e-6, False, -1e-13), (True, True, 1.0, -1e-13)),
    }

    @staticmethod
    def batch(rows):
        """A batch record whose kept value is 0, so that each scored value is its gain exactly."""
        omega, last_gain, merging, _ = np.array(rows, dtype=object).T
        batch = optimizer._Batch(np.ones((len(rows), 2)), np.zeros((len(rows), 2, 2), dtype=complex))
        batch.value = np.zeros(len(rows))
        batch.omega, batch.last_gain = omega.astype(float), last_gain.astype(float)
        batch.merging = merging.astype(bool)
        return batch

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_start(self, case):
        state, expected = self.CASES[case]
        batch = self.batch([state])
        take, done = optimizer._accept(batch, np.array([state[3]]), self.EPS, str)
        assert (take[0], done[0], float(batch.omega[0]), float(batch.last_gain[0])) == expected

    def test_every_case_in_one_batch_as_alone(self):
        states, expected = zip(*self.CASES.values())
        batch = self.batch(states)
        take, done = optimizer._accept(batch, np.array([state[3] for state in states]), self.EPS, str)
        assert list(zip(take, done, batch.omega.tolist(), batch.last_gain.tolist())) == list(expected)

    def test_plain_step_that_falls_beyond_monotone_tol_raises(self):
        batch = self.batch([(1.0, 1e-6, False, 0.0), (1.0, 1e-6, False, 0.0)])
        with pytest.raises(NonMonotoneError, match=r"fell from 0\.0 to -1e-09 \(row 1\)$"):
            optimizer._accept(batch, np.array([0.0, -1e-9]), self.EPS, lambda i: f"row {i}")


class TestBestPoint:
    """Each start reports its best scored point, bit for bit, whichever write-out copies it."""

    @staticmethod
    def recorded(monkeypatch, ens):
        """optimal_fidelity with every scored point recorded: checks its best points, returns (search, scored)."""
        scored, raw = [], []
        score, run_batch = optimizer._score, optimizer._see_saw_batch

        def recording(ens, weights, directions, batch):
            value, eta, rows = score(ens, weights, directions, batch)
            scored.append((batch.ids.copy(), weights.copy(), directions.copy(), eta.copy(), value.copy()))
            return value, eta, rows

        def kept(*args):
            raw.append(run_batch(*args))
            return raw[-1]

        monkeypatch.setattr(optimizer, "_score", recording)
        monkeypatch.setattr(optimizer, "_see_saw_batch", kept)
        search = optimal_fidelity(ens, FAST)
        TestBestPoint.check(search, raw[0], scored)
        return search, scored

    @staticmethod
    def check(search, runs, scored):
        # each start's best point is the first it scored with a value no later point beats
        best = {}
        for ids, weights, directions, eta, value in scored:
            for row, start in enumerate(ids.tolist()):
                if start not in best or value[row] > best[start][0]:
                    best[start] = (value[row], weights[row], directions[row], eta[row])
        assert sorted(best) == list(range(len(runs.fidelity)))
        for start, (value, weights, directions, eta) in best.items():
            width = len(weights)
            assert runs.fidelity[start] == value
            np.testing.assert_array_equal(runs.weights[start], np.pad(weights, (0, runs.weights.shape[1] - width)))
            np.testing.assert_array_equal(runs.directions[start, :width], directions)
            np.testing.assert_array_equal(runs.eta[start, :width], eta)
        assert search.restart_trace == tuple(runs.fidelity.tolist())
        value, weights, directions, eta = best[search.best_start]
        live = weights > 0.0
        assert search.fidelity == value
        np.testing.assert_array_equal(search.povm.weights, weights[live])
        np.testing.assert_array_equal(search.povm.directions, linalg.fix_phases(directions[live]))
        np.testing.assert_array_equal(search.reconstruction.directions, linalg.fix_phases(eta[live]))

    @staticmethod
    def rejections(search, scored):
        """Scored values below the fidelity accepted before them, which stayed accepted."""
        values = np.full((len(scored), len(search.restart_trace)), np.nan)
        for sweep, (ids, _, _, _, value) in enumerate(scored):
            values[sweep, ids] = value
        accepted = np.full_like(values, np.nan)
        for start, trace in enumerate(search.traces):
            accepted[: len(trace), start] = trace
        return np.count_nonzero((values[1:] < accepted[:-1]) & (accepted[1:] == accepted[:-1]))

    def test_plain_steps_that_fall_within_monotone_tol(self, monkeypatch):
        # every step plain, and a fall within the (raised) tolerance is taken and stops the start. The
        # second step sends starts 0, 2 and 4 back to their sweep-1 points and the third sends 1, 3 and 5
        # back to their sweep-2 points: each start reports the sweep before its fall, whether the others
        # improved at the sweep of the fall (sweep 3) or fell too (sweep 4)
        monkeypatch.setattr(optimizer, "MONOTONE_TOL", 1.0)
        monkeypatch.setattr(optimizer, "OMEGA_MAX", 1.0)
        plain_step, inputs = optimizer._plain_step, []

        def step_back(ens, weights, directions, *args):
            inputs.append((weights, directions))
            new_weights, new_directions, *rest = plain_step(ens, weights, directions, *args)
            if len(inputs) == 2:
                new_weights[::2], new_directions[::2] = inputs[0][0][::2], inputs[0][1][::2]
            elif len(inputs) == 3:
                new_weights, new_directions = inputs[1][0][1::2], inputs[1][1][1::2]
            return (new_weights, new_directions, *rest)

        monkeypatch.setattr(optimizer, "_plain_step", step_back)
        search, _ = self.recorded(monkeypatch, random_ensemble(3, 2, np.random.default_rng(21)))
        assert search.start_sweeps == (3, 4) * 3
        for start, (trace, value) in enumerate(zip(search.traces, search.restart_trace)):
            fall = search.start_sweeps[start] - 1
            assert trace[fall] == trace[fall - 2] < trace[fall - 1] == value

    def test_rejected_weight_candidates_are_never_reported(self, monkeypatch):
        search, scored = self.recorded(monkeypatch, random_ensemble(3, 2, np.random.default_rng(21)))
        assert self.rejections(search, scored) > 0

    def test_rejected_merges_are_never_reported(self, monkeypatch):
        # every merge candidate is swapped for the computational basis, far below the accepted point
        merge, merged_sweeps = optimizer._merged, []

        def lowered(weights, directions, where):
            weights, directions, merged = merge(weights, directions, where)
            if merged.any():
                merged_sweeps.append(merged.sum())
                dim = directions.shape[2]
                weights = np.where(merged[:, None], np.arange(weights.shape[1]) < dim, weights)
                directions = directions.copy()
                directions[merged, :dim] = np.eye(dim)
            return weights, directions, merged

        monkeypatch.setattr(optimizer, "_merged", lowered)
        search, scored = self.recorded(monkeypatch, random_ensemble(6, 2, np.random.default_rng(8)))
        assert merged_sweeps and self.rejections(search, scored) >= sum(merged_sweeps)

    def test_gap_stop_at_sweep_one(self, monkeypatch):
        search, _ = self.recorded(monkeypatch, signal_ensemble(mub_bases(3, 4)))
        assert search.start_sweeps == (1,) * 8

    def test_compaction_at_d5(self, monkeypatch):
        search, scored = self.recorded(monkeypatch, random_ensemble(5, 2, np.random.default_rng(5)))
        widths = [weights.shape[1] for _, weights, _, _, _ in scored]
        assert widths[0] == 25 and min(widths) < 25
        assert search.best_start >= 2 and search.povm.n_outcomes > 5


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
        ens = random_ensemble(3, 2, np.random.default_rng(21))
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


def search_bytes(search):
    """Everything a search reports about its strategy and starts, as bytes and tuples."""
    arrays = (search.povm.weights, search.povm.directions, search.reconstruction.directions)
    return tuple(a.tobytes() for a in arrays), search.restart_trace, search.start_sweeps


class TestRandomStartCache:
    """Random starts depend only on (d, outcomes, seed, restarts): later searches reuse them, bit for bit."""

    @pytest.fixture(autouse=True)
    def cold(self):
        optimizer._held_starts.cache_clear()
        yield
        optimizer._held_starts.cache_clear()

    def test_repeated_and_cleared_searches_are_byte_identical(self):
        ens = random_ensemble(3, 2, np.random.default_rng(3))
        built = optimal_fidelity(ens, FAST)
        held = optimal_fidelity(ens, FAST)
        assert optimizer._held_starts.cache_info().hits == 1
        optimizer._held_starts.cache_clear()
        rebuilt = optimal_fidelity(ens, FAST)
        assert optimizer._held_starts.cache_info().misses == 1
        assert max(built.start_sweeps) > 1  # the random starts ran steps, so their bits mattered
        assert search_bytes(built) == search_bytes(held) == search_bytes(rebuilt)

    def test_interleaved_configurations_match_each_alone(self):
        ensembles = {dim: random_ensemble(dim, 2, np.random.default_rng(10 * dim + 1)) for dim in (3, 5)}
        runs = [(dim, seed, restarts) for restarts in (4, 16) for dim, seed in ((3, 0), (5, 7), (3, 0))]

        def search(dim, seed, restarts):
            return search_bytes(optimal_fidelity(ensembles[dim], OptimizerConfig(restarts, seed=seed, max_iters=20)))

        interleaved = [search(*run) for run in runs]
        assert optimizer._held_starts.cache_info().hits == 2
        for run, found in zip(runs, interleaved):
            optimizer._held_starts.cache_clear()
            assert search(*run) == found, run

    def test_held_arrays_are_read_only_and_apart_from_every_batch(self, monkeypatch):
        weights, directions = optimizer._random_starts(3, 9, 0, 4)
        assert not weights.flags.writeable and not directions.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 0.0
        saved = weights.tobytes(), directions.tobytes()

        batches = []
        original = optimizer._see_saw_batch

        def kept(ens, weights, directions, config, upper):
            batches.append((weights, directions))
            return original(ens, weights, directions, config, upper)

        monkeypatch.setattr(optimizer, "_see_saw_batch", kept)
        search = optimal_fidelity(random_ensemble(3, 2, np.random.default_rng(3)), FAST)
        assert optimizer._held_starts.cache_info().hits == 1
        for array in (*batches[0], search.povm.weights, search.povm.directions, search.reconstruction.directions):
            assert not np.shares_memory(array, weights) and not np.shares_memory(array, directions)
            array.setflags(write=True)
            array[...] = np.nan
        again = optimizer._random_starts(3, 9, 0, 4)
        assert again[0] is weights and again[1] is directions
        assert (weights.tobytes(), directions.tobytes()) == saved

    def test_failed_build_holds_nothing(self, monkeypatch):
        def collinear(count, dim, rng):
            return np.tile(np.eye(dim, dtype=complex)[:1], (count, 1))

        ens = random_ensemble(3, 2, np.random.default_rng(3))
        monkeypatch.setattr(linalg, "random_unit_vectors", collinear)
        with pytest.raises(ValueError, match="do not span"):
            optimal_fidelity(ens, FAST)
        assert optimizer._held_starts.cache_info().currsize == 0
        monkeypatch.undo()
        found = search_bytes(optimal_fidelity(ens, FAST))
        assert optimizer._held_starts.cache_info().misses == 2
        optimizer._held_starts.cache_clear()
        assert search_bytes(optimal_fidelity(ens, FAST)) == found

    def test_bytes_held_stay_within_the_bound(self):
        assert optimizer.START_HELD_COUNT * optimizer.START_HELD_BYTES == 2**24
        # d = 8 with 64 outcomes: 8704 bytes a restart, so 60 restarts are the largest held configuration
        per_restart = 64 * (1 + 2 * 8) * 8
        largest = optimizer.START_HELD_BYTES // per_restart
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(optimizer.START_HELD_COUNT + 8):
                weights, directions = optimizer._random_starts(8, 64, seed, largest)
                assert weights.nbytes + directions.nbytes == largest * per_restart
            del weights, directions
            assert optimizer._held_starts.cache_info().currsize == optimizer.START_HELD_COUNT
            held = tracemalloc.get_traced_memory()[0] - before
            assert optimizer.START_HELD_COUNT * largest * per_restart <= held
            assert held <= optimizer.START_HELD_COUNT * optimizer.START_HELD_BYTES
            # one restart more is built for each search and not held
            optimizer._random_starts(8, 64, 0, largest + 1)
            assert optimizer._held_starts.cache_info().currsize == optimizer.START_HELD_COUNT
            assert tracemalloc.get_traced_memory()[0] - before <= held + 4096
        finally:
            tracemalloc.stop()

    def test_threads_share_the_held_starts(self):
        keys = [(dim, dim * dim, seed, 4) for dim in (2, 3) for seed in (0, 1)]
        expected = {key: tuple(a.tobytes() for a in optimizer._built_starts(*key)) for key in keys}
        found, errors = [], []

        def worker(offset):
            try:
                for i in range(200):
                    key = keys[(offset + i) % len(keys)]
                    found.append((key, tuple(a.tobytes() for a in optimizer._random_starts(*key))))
                    if i % 50 == offset:
                        optimizer._held_starts.cache_clear()
            except Exception as exc:  # reported below: an exception in a thread does not fail the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(found) == 8 * 200
        assert all(got == expected[key] for key, got in found)
        assert optimizer._held_starts.cache_info().currsize <= len(keys)


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
        # the collision-sum cap is the exact 2/3 on a pair of unbiased qutrit bases (the spectral cap is 0.789)
        assert 0.0 < report.fidelity_upper - 2.0 / 3.0 <= 1e-13
        assert report.optimality_gap == report.fidelity_upper - report.optimal_fidelity
        assert report.search_status == "certified-within-gap"
        assert report.start_sweeps == (1,) * (2 + FAST.restarts)

    def test_deterministic_for_fixed_seed(self):
        config = OptimizerConfig(restarts=3, seed=11)
        a = incompatibility(mub_bases(2, 2), config)
        b = incompatibility(mub_bases(2, 2), config)
        assert a.incompatibility == b.incompatibility
        assert a.restart_trace == b.restart_trace
        assert np.array_equal(a.best_povm.weights, b.best_povm.weights)
        assert np.array_equal(a.best_povm.directions, b.best_povm.directions)
        assert np.array_equal(a.best_reconstruction.directions, b.best_reconstruction.directions)


class TestSpectralCap:
    """The cap lambda_max(sum_k P_k (x) P_k)/N: a bound on every set, the stop on the sets it certifies."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_complete_unbiased_sets_are_certified_at_sweep_one(self, dim):
        report = incompatibility(mub_bases(dim, dim + 1), FAST)
        assert report.start_sweeps == (1,) * (dim + 1 + FAST.restarts)
        assert report.search_status == "certified-within-gap"
        assert report.best_povm.n_outcomes == dim
        assert abs(report.incompatibility - (dim - 1.0) / (dim + 1.0)) <= 1e-12
        assert 0.0 <= report.optimality_gap <= 1e-12
        assert report.fidelity_upper == report.optimal_fidelity + report.optimality_gap

    @pytest.mark.parametrize(
        "dim, seed, sweeps",
        [(3, 21, (49, 49, 187, 180, 100, 67)), (4, 22, (37, 37, 48, 43, 48, 53))],
    )
    def test_random_sets_keep_their_search(self, dim, seed, sweeps):
        # the cap is loose here, so no start stops at it; the d = 3 basis starts, which would converge at
        # 78 sweeps as they stretch their directions (see TestBasisStretch), trail the random starts by
        # more than they can gain and retire at sweep 49, as does the last random start at 67, a sweep
        # before it would converge; the random starts merge their outcomes (see TestOutcomeMerge)
        rng = np.random.default_rng(seed)
        report = incompatibility(ObservableSet(tuple(random_basis(dim, rng, f"r{i}") for i in range(2))), FAST)
        assert report.start_sweeps == sweeps
        assert report.search_status == "best-found-lower-bound"
        assert report.optimal_fidelity <= report.fidelity_upper
        assert report.optimality_gap > 1e-3

    def test_cap_is_exact_on_complete_unbiased_sets(self):
        # on complete sets the cap is the exact 2/(d + 1) plus its rounding pad, within the 1e-12 gap
        for dim in (2, 3, 5, 7):
            cap = optimizer.spectral_cap(signal_ensemble(mub_bases(dim, dim + 1)))
            assert 0.0 < cap - 2.0 / (dim + 1.0) <= 1e-12

    def test_complete_set_factorizes_no_phi(self, monkeypatch):
        # each direction is an exact top eigenvector of its Phi on a 2-design: sweep 1 needs no solver
        from qincompat import linalg

        calls = {"eigh": 0, "cholesky": 0}
        eigh_top, cholesky = linalg._eigh_top, np.linalg.cholesky

        def counted_eigh(matrices):
            calls["eigh"] += 1
            return eigh_top(matrices)

        def counted_cholesky(a, *args, **kwargs):
            calls["cholesky"] += 1
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_eigh_top", counted_eigh)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        ens = signal_ensemble(mub_bases(7, 8))
        search = optimal_fidelity(ens, FAST)
        assert calls == {"eigh": 0, "cholesky": 0}
        assert search.start_sweeps == (1,) * (8 + FAST.restarts)
        assert 0.0 <= search.fidelity_upper - search.fidelity <= GAP_TOL
        assert incompatibility(mub_bases(7, 8), FAST).search_status == "certified-within-gap"
        assert calls == {"eigh": 0, "cholesky": 0}

    def test_search_without_a_cap_has_an_infinite_one(self):
        ens = signal_ensemble(mub_bases(2, 3))
        assert see_saw(ens, projective_povm(mub_bases(2, 3).members[0])).fidelity_upper == np.inf

    @pytest.mark.parametrize("lead, reported", [(0.5, 0), (2.0, 3 + FAST.restarts)])
    def test_later_start_is_reported_only_beyond_tie_tol(self, monkeypatch, lead, reported):
        # the last start is made to beat all others by lead * TIE_TOL
        run_batch = optimizer._see_saw_batch

        def last_start_ahead(*args):
            runs = run_batch(*args)
            runs.fidelity[-1] = runs.fidelity.max() + lead * TIE_TOL
            return runs

        monkeypatch.setattr(optimizer, "_see_saw_batch", last_start_ahead)
        search = optimal_fidelity(signal_ensemble(mub_bases(3, 4)), FAST)
        assert search.best_start == reported
        assert 0.0 <= max(search.restart_trace) - search.fidelity <= TIE_TOL

    def test_fidelity_above_the_cap_raises(self, monkeypatch):
        config = OptimizerConfig(restarts=2, seed=5)
        monkeypatch.setattr(optimizer, "collision_cap", lambda ens: (0.5, True))
        with pytest.raises(BoundViolationError, match=r"above its upper bound 0\.5 \(seed 5, start 0\)$"):
            incompatibility(mub_bases(3, 2), config)


class TestCollisionCap:
    """The collision-sum cap: a bound on every set, exact on unbiased sets, qubits and shared-eigenvector pairs."""

    TIGHT = OptimizerConfig(restarts=2, seed=0, convergence_eps=1e-14, max_iters=20000)

    @staticmethod
    def turned(bases, rng):
        """The bases under one Haar-random unitary, the eigenbasis of a random Hermitian matrix."""
        turn = random_basis(bases[0].dim, rng).vectors
        return ObservableSet(tuple(Eigenbasis(b.vectors @ turn, label=b.label) for b in bases))

    def tight_fidelity(self, ens, monkeypatch):
        """The search at convergence_eps 1e-14 with no cap to stop at."""
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "collision_cap", lambda ens: (math.inf, True))
            return optimal_fidelity(ens, self.TIGHT).fidelity

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_never_below_a_tight_search(self, dim, count, monkeypatch):
        # the d = 6, N = 5 set is drawn from default_rng(3), the others from default_rng((d, N))
        ens = random_ensemble(dim, count, np.random.default_rng(3 if (dim, count) == (6, 5) else (dim, count)))
        cap, attained = optimizer.collision_cap(ens)
        assert not attained
        assert cap >= self.tight_fidelity(ens, monkeypatch)

    def test_stop_takes_the_lower_of_the_two_caps(self):
        # on this d = 4 set of 5 bases the spectral cap is 0.0254 below the collision-sum cap
        ens = random_ensemble(4, 5, np.random.default_rng(51))
        spectral = optimizer.spectral_cap(ens)
        assert spectral < optimizer.collision_cap(ens)[0] - 0.02
        assert optimal_fidelity(ens, FAST).fidelity_upper == spectral

    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_exact_on_every_unbiased_set(self, dim, monkeypatch):
        ensembles = [signal_ensemble(mub_bases(dim, count)) for count in range(1, dim + 2)]
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # Weyl's inequality settles unbiased bases
        for count, ens in enumerate(ensembles, start=1):
            cap, attained = optimizer.collision_cap(ens)
            assert attained
            assert 0.0 <= cap - (count + dim - 1.0) / (count * dim) <= 1e-13

    def test_partial_unbiased_set_stops_at_sweep_one(self, monkeypatch):
        monkeypatch.setattr(optimizer, "spectral_cap", None)  # the projective starts attain the cap: not needed
        report = incompatibility(mub_bases(5, 3), OptimizerConfig())
        assert report.search_status == "certified-within-gap"
        assert report.start_sweeps == (1,) * (3 + OptimizerConfig().restarts)
        assert abs(report.incompatibility - (1 - 1 / 3) * (1 - 1 / 5)) <= 1e-15

    # under their seeded unitaries the pairs of d = 12, 16 and 20 overlap across blocks by 4e-16 to 6e-16
    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8, 12, 16, 20])
    def test_exact_on_shared_eigenvector_pairs(self, dim):
        pair = shared_eigenvector_pair(dim)
        for obs in (ObservableSet(pair), self.turned(pair, np.random.default_rng(dim))):
            cap, attained = optimizer.collision_cap(signal_ensemble(obs))
            assert attained
            assert 0.0 <= cap - (0.5 + 1.0 / dim) <= 1e-12
            report = incompatibility(obs, FAST)
            assert report.search_status == "certified-within-gap"
            assert report.start_sweeps == (1,) * (2 + FAST.restarts)

    def test_perturbed_shared_pair_stays_bounded(self, monkeypatch):
        # the second basis turned by exp(1e-7 i H): its kets split into blocks that overlap by about 1e-7
        pair = shared_eigenvector_pair(6)
        rng = np.random.default_rng(6)
        values, vectors = np.linalg.eigh(random_hermitian(6, rng))
        turn = (vectors * np.exp(1e-7j * values)) @ vectors.conj().T
        ens = signal_ensemble(ObservableSet((pair[0], Eigenbasis(pair[1].vectors @ turn))))
        cap, attained = optimizer.collision_cap(ens)
        assert not attained
        assert self.tight_fidelity(ens, monkeypatch) <= cap < 0.5 + 1.0 / 6.0 + 1e-3


class TestRetire:
    """A start that trails the best by more than it can still gain leaves the batch, and F keeps its bits."""

    @staticmethod
    def ensemble():
        # a qutrit pair whose basis starts, run alone, take 86 and 79 sweeps to end 5.1e-3 below the best
        # random start, which converges at sweep 34
        return random_ensemble(3, 2, np.random.default_rng(34))

    def test_trailing_basis_starts_retire(self):
        ens = self.ensemble()
        search = optimal_fidelity(ens, FAST)
        assert search.start_stops == ("retired",) * 2 + ("converged",) * 4
        alone = [see_saw(ens, projective_povm(Eigenbasis(basis)), FAST) for basis in ens.vectors]
        for sweeps, start in zip(search.start_sweeps, alone):
            assert optimizer.MERGE_EVERY < sweeps < start.iterations
            assert search.fidelity - start.fidelity > 5e-3
        # without them the batch stops at its slowest random start, 78 sweeps, not at 86
        assert max(search.start_sweeps) == max(search.start_sweeps[2:]) == 78 < alone[0].iterations == 86

    def test_winner_keeps_the_bits_it_has_alone(self):
        ens = self.ensemble()
        search = optimal_fidelity(ens, FAST)
        winner = search_starts(ens, FAST)[search.best_start]
        alone = see_saw(ens, winner, FAST)
        assert search.best_start >= ens.n_bases
        assert search.fidelity == alone.fidelity
        assert search_bytes(search)[0] == search_bytes(alone)[0]

    def test_lone_start_is_never_retired(self, monkeypatch):
        # a start is its own best, so it trails nothing, even with no margin and no sweeps left to gain in
        monkeypatch.setattr(optimizer, "RETIRE_MARGIN", 0.0)
        ens = self.ensemble()
        alone = see_saw(ens, projective_povm(Eigenbasis(ens.vectors[0])), OptimizerConfig(max_iters=100))
        assert alone.start_stops == ("converged",) and alone.iterations == 86

    def test_young_starts_are_never_retired(self, monkeypatch):
        # with an infinite lead to catch up, every start retires at the first sweep that may retire it
        monkeypatch.setattr(optimizer, "RETIRE_MARGIN", -math.inf)
        search = optimal_fidelity(self.ensemble(), FAST)
        assert search.start_sweeps == (optimizer.MERGE_EVERY + 1,) * 6
        assert search.start_stops == ("retired",) * 6


class TestStopReasons:
    """Each start records why it stopped: converged, max_iters, cap or retired."""

    def test_complete_set_stops_every_start_at_the_cap(self):
        search = optimal_fidelity(signal_ensemble(mub_bases(3, 4)), FAST)
        assert search.start_stops == ("cap",) * 8

    def test_sweep_limit(self):
        ens = random_ensemble(3, 2, np.random.default_rng(21))
        search = optimal_fidelity(ens, OptimizerConfig(restarts=2, max_iters=3))
        assert set(search.start_stops) <= {"max_iters", "converged"} and "max_iters" in search.start_stops
        for sweeps, stop in zip(search.start_sweeps, search.start_stops):
            assert sweeps == 3 or stop == "converged"

    def test_report_carries_the_search_stops(self):
        rng = np.random.default_rng(34)
        report = incompatibility(ObservableSet(tuple(random_basis(3, rng, f"r{i}") for i in range(2))), FAST)
        assert report.start_stops == ("retired",) * 2 + ("converged",) * 4
        assert len(report.start_stops) == len(report.start_sweeps) == len(report.restart_trace)


class TestQubitCap:
    """For d = 2 the collision-sum cap is the exact optimum 1/2 + lambda_max(K)/(2S); the spectral cap is loose."""

    @staticmethod
    def ensembles():
        rng = np.random.default_rng(2024)
        return [random_ensemble(2, int(rng.integers(2, 4)), rng) for _ in range(200)]

    def test_cap_is_the_closed_form(self, monkeypatch):
        ensembles = self.ensembles()
        padded = [optimizer.collision_cap(ens)[0] for ens in ensembles]
        monkeypatch.setattr(optimizer, "COLLISION_CAP_SLACK", 0.0)
        for ens, cap in zip(ensembles, padded):
            exact = qubit_fidelity_optimum(ens)
            assert abs(optimizer.collision_cap(ens)[0] - exact) <= 1e-15
            assert exact < cap <= exact + 1e-13

    def test_fidelity_never_exceeds_the_cap(self):
        certified = 0
        for ens in self.ensembles():
            search = optimal_fidelity(ens, FAST)
            cap, attained = optimizer.collision_cap(ens)
            assert search.fidelity_upper == (cap if attained else min(cap, optimizer.spectral_cap(ens)))
            assert search.fidelity <= cap
            certified += search.fidelity_upper - search.fidelity <= GAP_TOL
        assert certified > 100

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_random_pairs_are_certified(self, seed):
        rng = np.random.default_rng(seed)
        obs = ObservableSet((random_basis(2, rng, "a"), random_basis(2, rng, "b")))
        exact = qubit_fidelity_optimum(signal_ensemble(obs))
        report = incompatibility(obs, FAST)
        assert report.search_status == "certified-within-gap"
        assert abs(report.fidelity_upper - exact) <= 1e-13
        assert abs(report.optimal_fidelity - exact) <= 1e-12
        assert "cap" in report.start_stops


class TestBoundViolationContext:
    def test_message_names_seed_and_reported_start(self, monkeypatch):
        config = OptimizerConfig(restarts=3, seed=7)
        search = optimal_fidelity(signal_ensemble(mub_bases(2, 2)), config)
        assert search.fidelity == search.restart_trace[search.best_start]
        assert search.best_start == search.restart_trace.index(search.fidelity)
        monkeypatch.setattr(optimizer, "BOUND_SLACK", -1.0)
        expected = rf"below projective floor .* \(seed 7, start {search.best_start}\)$"
        with pytest.raises(BoundViolationError, match=expected):
            incompatibility(mub_bases(2, 2), config)


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
