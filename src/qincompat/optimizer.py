"""Fidelity maximization over measurements and the incompatibility measure.

The incompatibility of a set of observables is one minus the best average
fidelity any intercept-resend strategy can achieve against the set's signal
ensemble. The supremum over measurements has no closed form in general, so
:func:`optimal_fidelity` runs a monotone see-saw from every projective
eigenbasis measurement plus a configurable number of random starts, and
reports the best value found. That value is always a certified lower bound
on the true supremum (every iterate is an actual strategy); closed-form
upper bounds are attached so callers can see how tight it is:

* achievable fidelity is at least (N + d - 1)/(N d), the projective
  baseline, so incompatibility is at most (1 - 1/N)(1 - 1/d),
* incompatibility is at most (d - 1)/(d + 1) in any case, via the
  accessible-fidelity floor 2/(d + 1) (Fuchs) for pure-state ensembles,
* for mutually unbiased bases both the fidelity and the measure are known
  exactly, and the projective baseline attains them.

Reports are deterministic: restart r draws from a stream seeded by
(config.seed, r), so identical configurations give identical output.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    BoundViolationError,
    DimensionMismatchError,
    NonMonotoneError,
    NotMutuallyUnbiasedError,
    SingularUpdateError,
)
from .fidelity import (
    COMPLETENESS_TOL,
    Povm,
    ReconstructionMap,
    _phi_batch,
    _signal_overlaps,
    random_povm,
)
from .observables import (
    ObservableSet,
    SignalEnsemble,
    is_mutually_unbiased,
    minimal_noncommuting_subset,
    signal_ensemble,
)

MONOTONE_TOL = 1e-12
BOUND_SLACK = 1e-9
PINV_CUTOFF = 1e-12
# Below this dimension an eigensolve of a weight-0 outcome costs less than
# gathering the live outcomes around it. It must not exceed
# linalg.WARM_MIN_DIM: a weight-0 outcome's guess can be an exact
# eigenvector, which makes the warm step's shifted matrix singular.
GATHER_MIN_DIM = 3


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters for the see-saw fidelity maximization.

    ``outcomes`` is the number of rank-1 elements in random starting POVMs;
    None means d^2, enough for any extremal rank-1 POVM in dimension d.
    """

    restarts: int = 16
    outcomes: int | None = None
    max_iters: int = 2000
    convergence_eps: float = 1e-10
    seed: int = 0
    weight_prune_eps: float = 1e-12

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.outcomes is not None and self.outcomes < 1:
            raise ValueError("outcomes must be positive when given")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.convergence_eps) and self.convergence_eps > 0):
            raise ValueError(f"convergence_eps must be positive and finite, got {self.convergence_eps!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not (math.isfinite(self.weight_prune_eps) and self.weight_prune_eps > 0):
            raise ValueError(f"weight_prune_eps must be positive and finite, got {self.weight_prune_eps!r}")

    def n_outcomes(self, dim: int) -> int:
        k = self.outcomes if self.outcomes is not None else dim * dim
        if k < dim:
            raise ValueError(f"completeness needs at least {dim} outcomes, got {k}")
        return k


@dataclass(frozen=True)
class SeeSawResult:
    """Converged state of one see-saw run."""

    povm: Povm
    reconstruction: ReconstructionMap
    fidelity: float
    iterations: int
    fidelity_trace: np.ndarray


@dataclass(frozen=True)
class FidelitySearch:
    """Best strategy over all see-saw starts, with the per-start record.

    ``restart_trace`` lists the converged fidelity of every start in run
    order: the N projective eigenbasis seeds first, then the random
    restarts. ``start_sweeps`` lists the sweeps of every start in the same
    order (a start at ``max_iters`` stopped at the cap, not by converging),
    and ``iterations`` is their sum.
    """

    fidelity: float
    povm: Povm
    reconstruction: ReconstructionMap
    restart_trace: tuple[float, ...]
    iterations: int
    start_sweeps: tuple[int, ...]


@dataclass(frozen=True)
class IncompatibilityReport:
    """Full output of the incompatibility computation with bound certificates.

    ``incompatibility`` is exactly 1 - optimal_fidelity. ``fidelity_floor``
    is the projective-strategy guarantee (N + d - 1)/(N d); the two
    ``q_upper_*`` fields are the closed-form caps described in the module
    docstring (the small-N form is tight for N <= d + 1, the large-N form
    for N >= d + 1, equal at N = d + 1); ``fuchs_floor`` is 2/(d + 1).
    ``search_status`` records that the reported fidelity is a certified
    lower bound on the true supremum, not a proof of optimality.
    """

    incompatibility: float
    optimal_fidelity: float
    best_povm: Povm
    best_reconstruction: ReconstructionMap
    dim: int
    n_observables: int
    fidelity_floor: float
    q_upper_small_n: float
    q_upper_large_n: float
    fuchs_floor: float
    iterations_used: int
    restart_trace: tuple[float, ...]
    start_sweeps: tuple[int, ...]
    minimal_subset_labels: tuple[str, ...]
    search_status: str = "best-found-lower-bound"


def q_upper_bounds(n_observables: int, dim: int) -> tuple[float, float]:
    """The two closed-form caps on the incompatibility of N observables.

    Returns ((1 - 1/N)(1 - 1/d), (d - 1)/(d + 1)). Both hold for any N;
    the first is the better one below N = d + 1, the second above, and they
    coincide at N = d + 1.
    """
    if n_observables < 1:
        raise ValueError("n_observables must be >= 1")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return (
        (1.0 - 1.0 / n_observables) * (1.0 - 1.0 / dim),
        (dim - 1.0) / (dim + 1.0),
    )


def fuchs_lower_bound(dim: int) -> float:
    """Accessible-fidelity floor 2/(d + 1) for any pure-state ensemble."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return 2.0 / (dim + 1.0)


def _pinv_sqrt(matrices: np.ndarray, where: Callable[[int], str] | None = None) -> np.ndarray:
    """Pseudo-inverse square root of PSD matrices (..., d, d) on their numerical support.

    Raises SingularUpdateError when a matrix has numerical rank 0; for a
    batch, ``where(i)`` names entry i in the message.
    """
    vals, vecs = np.linalg.eigh(matrices)
    top = vals[..., -1:]
    singular = np.flatnonzero(top <= 0.0)
    if singular.size:
        context = f" ({where(int(singular[0]))})" if where else ""
        raise SingularUpdateError(f"measurement update operator has numerical rank 0{context}")
    mask = vals > PINV_CUTOFF * top
    inv = np.where(mask, 1.0 / np.sqrt(np.where(mask, vals, 1.0)), 0.0)
    return (vecs * inv[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


class _Runs(NamedTuple):
    """Per-start outcome of a lock-step see-saw batch; strategy arrays hold each start's best sweep."""

    fidelity: np.ndarray
    sweeps: np.ndarray
    weights: np.ndarray
    directions: np.ndarray
    eta: np.ndarray
    traces: list[np.ndarray]


def _see_saw_batch(
    ens: SignalEnsemble,
    weights: np.ndarray,
    directions: np.ndarray,
    config: OptimizerConfig,
) -> _Runs:
    """Run the see-saw of :func:`see_saw` from B starts at once, in lock step.

    ``weights`` is (B, K) and ``directions`` (B, K, d). An outcome of weight
    0 is padding or pruned: it adds nothing to the fidelity, the update
    operator or completeness, and keeps its last direction so that no 0/0
    enters Phi. A start leaves the active set at its own stopping rule, and
    every operation acts on each start's rows alone, so each start follows
    the trajectory and sweep count it would follow on its own. Every check
    is made per start, and its error names the start and the sweep.

    Top eigenpairs and resend maps are computed for the live (weight > 0)
    rows only; a dead row keeps its last, finite, resend direction. From
    sweep 2 on, each live row's resend direction of the previous sweep is
    the warm-start guess of its top eigenpair.
    """
    n_starts, dim = weights.shape[0], ens.dim
    ids = np.arange(n_starts)
    best_value = np.full(n_starts, -math.inf)
    best_weights = weights.copy()
    best_directions = directions.copy()
    best_eta = np.empty_like(directions)
    sweeps = np.zeros(n_starts, dtype=int)
    history: list[tuple[np.ndarray, np.ndarray]] = []
    previous = None
    eta = directions.copy()

    def where(i: int) -> str:
        return f"start {ids[i]}, sweep {sweep}"

    for sweep in range(1, config.max_iters + 1):
        live = weights > 0.0
        gather = dim >= GATHER_MIN_DIM and not live.all()
        if gather:
            phi = _phi_batch(ens, _signal_overlaps(ens, directions[live]))
            lam = np.zeros(weights.shape)
            lam[live], eta[live] = linalg.batched_top_eig(phi, None if sweep == 1 else eta[live])
        else:
            phi = _phi_batch(ens, _signal_overlaps(ens, directions))
            lam, eta = linalg.batched_top_eig(phi, None if sweep == 1 else eta)
        value = np.einsum("sa,sa->s", weights, lam)
        history.append((ids, value))

        if previous is not None:
            fell = np.flatnonzero(value < previous - MONOTONE_TOL)
            if fell.size:
                i = fell[0]
                raise NonMonotoneError(
                    f"fidelity fell from {float(previous[i])!r} to {float(value[i])!r} ({where(i)})"
                )
        better = value > best_value[ids]
        if better.any():
            at = ids[better]
            best_value[at] = value[better]
            best_weights[at] = weights[better]
            best_directions[at] = directions[better]
            best_eta[at] = eta[better]
        if sweep == config.max_iters:
            sweeps[ids] = sweep
            break
        if previous is not None:
            done = value - previous < config.convergence_eps
            if done.any():
                sweeps[ids[done]] = sweep
                going = ~done
                if not going.any():
                    break
                ids, weights, directions, eta, value, live = (
                    ids[going], weights[going], directions[going], eta[going], value[going], live[going]
                )
                gather = gather and not live.all()
        previous = value

        # M_a <- L^(-1/2) G_a M_a G_a L^(-1/2) with G_a = Phi(eta_a), L = sum_a G_a M_a G_a
        if gather:
            pulled = np.zeros_like(directions)
            pulled[live] = (_phi_batch(ens, _signal_overlaps(ens, eta[live])) @ directions[live][..., None])[..., 0]
        else:
            pulled = (_phi_batch(ens, _signal_overlaps(ens, eta)) @ directions[..., None])[..., 0]
        update_op = (pulled.swapaxes(1, 2) * weights[:, None, :]) @ pulled.conj()
        moved = pulled @ _pinv_sqrt(update_op, where).swapaxes(1, 2)
        norms = np.linalg.norm(moved, axis=2)
        weights = weights * norms**2
        keep = weights >= config.weight_prune_eps
        empty = np.flatnonzero(~keep.any(axis=1))
        if empty.size:
            raise SingularUpdateError(
                f"all outcomes pruned during measurement update ({where(empty[0])})"
            )
        weights = np.where(keep, weights, 0.0)
        directions = np.where(keep[..., None], moved / np.where(keep, norms, 1.0)[..., None], directions)
        resolution = (directions.swapaxes(1, 2) * weights[:, None, :]) @ directions.conj()
        lost = np.flatnonzero(np.linalg.norm(resolution - np.eye(dim), axis=(1, 2)) > COMPLETENESS_TOL)
        if lost.size:
            raise SingularUpdateError(f"measurement update lost completeness ({where(lost[0])})")

    trace = np.full((len(history), n_starts), np.nan)
    for row, (active, values) in zip(trace, history):
        row[active] = values
    return _Runs(
        fidelity=best_value,
        sweeps=sweeps,
        weights=best_weights,
        directions=best_directions,
        eta=best_eta,
        traces=[trace[: sweeps[s], s].copy() for s in range(n_starts)],
    )


def _strategy(ens: SignalEnsemble, runs: _Runs, start: int) -> tuple[Povm, ReconstructionMap]:
    """The best measurement and reconstruction of one start, weight-0 outcomes dropped."""
    kept = runs.weights[start] > 0.0
    eta = linalg.fix_phases(runs.eta[start][kept])
    povm = Povm(
        dim=ens.dim,
        weights=runs.weights[start][kept],
        directions=linalg.fix_phases(runs.directions[start][kept]),
    )
    return povm, ReconstructionMap(states=eta[:, :, None] * eta.conj()[:, None, :])


def see_saw(
    ens: SignalEnsemble,
    initial: Povm,
    config: OptimizerConfig | None = None,
) -> SeeSawResult:
    """Monotone alternating maximization of the average fidelity.

    Each sweep (i) takes the exact best reconstruction for the current
    measurement (top eigenvector of d * Phi(chi_a) per outcome) and then
    (ii) improves the measurement for that fixed reconstruction with the
    fixed-point update M_a <- L^(-1/2) G_a M_a G_a L^(-1/2), where
    G_a = Phi(sigma_a) and L = sum_a G_a M_a G_a, taken on the support of L.
    Rank-1 elements stay rank-1 under the update; outcomes whose weight
    falls below ``weight_prune_eps`` are dropped and completeness is
    re-verified. Terminates when the per-sweep gain drops below
    ``convergence_eps`` or after ``max_iters`` sweeps.

    The recorded fidelity sequence is non-decreasing to 1e-12 per sweep;
    a larger decrease raises NonMonotoneError, since the update scheme
    guarantees monotone ascent and any violation signals a numerical bug.
    The returned measurement, reconstruction, and fidelity come from the
    best evaluated sweep and are mutually consistent. This is the batch
    kernel of :func:`optimal_fidelity` run on a batch of one start.
    """
    if ens.dim != initial.dim:
        raise DimensionMismatchError(f"ensemble dim {ens.dim} vs POVM dim {initial.dim}")
    config = config or OptimizerConfig()
    runs = _see_saw_batch(ens, initial.weights[None], initial.directions[None], config)
    povm, recon = _strategy(ens, runs, 0)
    return SeeSawResult(
        povm=povm,
        reconstruction=recon,
        fidelity=float(runs.fidelity[0]),
        iterations=int(runs.sweeps[0]),
        fidelity_trace=runs.traces[0],
    )


def optimal_fidelity(ens: SignalEnsemble, config: OptimizerConfig | None = None) -> FidelitySearch:
    """Best intercept-resend fidelity found over all see-saw starts.

    Starts from each of the N projective eigenbasis measurements, which
    guarantees the (N + d - 1)/(N d) floor, then from ``config.restarts``
    random POVMs with ``config.n_outcomes(d)`` outcomes. All starts run in
    one lock-step batch; the projective ones are padded to that outcome
    count with weight-0 outcomes. The maximum is a lower bound on the true
    supremum; ties resolve to the earliest start.
    """
    config = config or OptimizerConfig()
    dim, n_bases = ens.dim, ens.n_bases
    n_outcomes = config.n_outcomes(dim)

    weights = np.zeros((n_bases + config.restarts, n_outcomes))
    directions = np.empty((n_bases + config.restarts, n_outcomes, dim), dtype=complex)
    weights[:n_bases, :dim] = 1.0
    directions[:n_bases, :dim] = ens.vectors
    directions[:n_bases, dim:] = ens.vectors[:, :1]
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        povm = random_povm(dim, n_outcomes, rng)
        weights[n_bases + restart] = povm.weights
        directions[n_bases + restart] = povm.directions

    runs = _see_saw_batch(ens, weights, directions, config)
    best = int(np.argmax(runs.fidelity))
    povm, recon = _strategy(ens, runs, best)
    return FidelitySearch(
        fidelity=float(runs.fidelity[best]),
        povm=povm,
        reconstruction=recon,
        restart_trace=tuple(float(f) for f in runs.fidelity),
        iterations=int(np.sum(runs.sweeps)),
        start_sweeps=tuple(int(n) for n in runs.sweeps),
    )


def incompatibility(obs: ObservableSet, config: OptimizerConfig | None = None) -> IncompatibilityReport:
    """Incompatibility of an observable set, with bound certificates.

    Reduces the set to a minimal noncommuting subset, builds its signal
    ensemble, maximizes the intercept-resend fidelity, and checks the
    result against every applicable closed-form bound. A bound violation
    means a numerical bug and raises BoundViolationError rather than being
    reported as data.
    """
    config = config or OptimizerConfig()
    subset = minimal_noncommuting_subset(obs)
    ens = signal_ensemble(subset)
    search = optimal_fidelity(ens, config)

    n, d = subset.count, subset.dim
    floor = (n + d - 1.0) / (n * d)
    q_small, q_large = q_upper_bounds(n, d)
    fuchs = fuchs_lower_bound(d)
    q = 1.0 - search.fidelity

    if search.fidelity < floor - BOUND_SLACK:
        raise BoundViolationError(
            f"fidelity {search.fidelity!r} below projective floor {floor!r}"
        )
    if search.fidelity < fuchs - BOUND_SLACK:
        raise BoundViolationError(
            f"fidelity {search.fidelity!r} below accessible-fidelity floor {fuchs!r}"
        )
    if n <= d + 1 and q > q_small + BOUND_SLACK:
        raise BoundViolationError(f"incompatibility {q!r} above cap {q_small!r}")
    if q > q_large + BOUND_SLACK:
        raise BoundViolationError(f"incompatibility {q!r} above cap {q_large!r}")

    return IncompatibilityReport(
        incompatibility=q,
        optimal_fidelity=search.fidelity,
        best_povm=search.povm,
        best_reconstruction=search.reconstruction,
        dim=d,
        n_observables=n,
        fidelity_floor=floor,
        q_upper_small_n=q_small,
        q_upper_large_n=q_large,
        fuchs_floor=fuchs,
        iterations_used=search.iterations,
        restart_trace=search.restart_trace,
        start_sweeps=search.start_sweeps,
        minimal_subset_labels=subset.labels,
    )


def collision_probability_sum(
    state: np.ndarray,
    bases: ObservableSet,
    mub_tol: float = 1e-9,
) -> tuple[float, float, bool]:
    """Summed collision probability of a pure state across unbiased bases.

    For each basis the collision probability of its outcome distribution is
    the sum of squared outcome probabilities; summed over N mutually
    unbiased bases it is capped by (N + d - 1)/d, with equality exactly
    when the state lies in one of the bases. Returns (sum, cap, holds)
    where ``holds`` allows 1e-10 slack.
    """
    if not is_mutually_unbiased(bases, mub_tol):
        raise NotMutuallyUnbiasedError("the bases are not mutually unbiased within tolerance")
    phi = np.asarray(state, dtype=complex)
    if phi.shape != (bases.dim,):
        raise DimensionMismatchError(f"expected a length-{bases.dim} vector, got {phi.shape}")
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise ValueError("state must be a unit vector")
    stacked = np.concatenate([b.vectors for b in bases.members])
    outcome_probs = np.abs(stacked.conj() @ phi) ** 2
    total = float(np.sum(outcome_probs**2))
    cap = (bases.count + bases.dim - 1.0) / bases.dim
    return total, cap, total <= cap + 1e-10
