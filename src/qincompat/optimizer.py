"""Fidelity maximization over measurements and the incompatibility measure.

The incompatibility of a set of observables is one minus the best average
fidelity any intercept-resend strategy can achieve against the set's signal
ensemble. The supremum over measurements has no closed form in general, so
:func:`optimal_fidelity` runs a monotone see-saw from every projective
eigenbasis measurement plus a configurable number of random starts, and
reports the best value found. That value is always a certified lower bound
on the true supremum (every iterate is an actual strategy). Every set also
gets a rigorous upper bound, the spectral cap of :func:`spectral_cap`,
which is exact on complete sets of unbiased bases: the search stops as soon
as its best start comes within GAP_TOL of the cap, and the report then reads
``certified-within-gap``. Starts whose values differ by at most TIE_TOL are
tied, and the earliest of them is reported, so float noise does not pick the
strategy. Closed-form bounds are checked as well:

* achievable fidelity is at least (N + d - 1)/(N d), the projective
  baseline, so incompatibility is at most (1 - 1/N)(1 - 1/d),
* incompatibility is at most (d - 1)/(d + 1) in any case, via the
  accessible-fidelity floor 2/(d + 1) (Fuchs) for pure-state ensembles,
* for mutually unbiased bases both the fidelity and the measure are known
  exactly, and the projective baseline attains them,
* fidelity is at most the spectral cap.

The measurement step is the fixed-point iteration of Jezek, Rehacek and
Fiurasek (PRA 65, 060301(R), 2002), which converges linearly. Each start
over-relaxes it adaptively (Salakhutdinov and Roweis, ICML 2003): once the
plain step's gains shrink slowly, the start tries a candidate with a factor
omega > 1, keeps it only if the fidelity did not fall, and otherwise takes
the plain step with omega back at 1. A start with more than d outcomes
raises the step's weight factors to the power omega. A basis (d outcomes of
weight 1, which every projective start is) keeps its weights under that
tilt, so it stretches the step's change of direction by omega instead. A
start converges only on a plain step that gains less than
``convergence_eps``. See :func:`_see_saw_batch` for the rule.

Reports are deterministic: restart r draws from a stream seeded by
(config.seed, r), so identical configurations give identical output.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    BoundViolationError,
    DimensionMismatchError,
    NonMonotoneError,
    SingularUpdateError,
)
from .fidelity import (
    Povm,
    ReconstructionMap,
    _phi_batch,
    _signal_overlaps,
    random_povm,
)
from .observables import (
    ObservableSet,
    SignalEnsemble,
    minimal_noncommuting_subset,
    signal_ensemble,
)
from .tolerances import (
    BOUND_SLACK,
    COMPLETENESS_TOL,
    CONVERGENCE_EPS,
    GAP_TOL,
    MONOTONE_TOL,
    PINV_CUTOFF,
    SPECTRAL_CAP_SLACK,
    TIE_TOL,
    WEIGHT_PRUNE_EPS,
)

# Below this dimension an eigensolve of a weight-0 outcome costs less than
# gathering the live outcomes around it.
GATHER_MIN_DIM = 3

# Adaptive over-relaxation of the measurement step (see _see_saw_batch), by
# weight tilt or, for a basis, by direction stretch. Each accepted candidate
# multiplies a start's factor omega by OMEGA_GROWTH, up to OMEGA_MAX; a
# rejected one resets it to 1. Omega leaves 1 after a plain step that gains
# at least SLOW_GAIN_RATIO times the start's last accepted gain: on starts
# whose gains shrink faster, a candidate costs a sweep's update twice over
# and saves no sweeps.
OMEGA_GROWTH = 1.5
OMEGA_MAX = 50.0
SLOW_GAIN_RATIO = 0.9

# Largest Phi stack, in bytes, that the see-saw may hold for one set.
KERNEL_BYTE_BUDGET = 2**28


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters for the see-saw fidelity maximization.

    ``outcomes`` is the number of rank-1 elements in random starting POVMs;
    None means d^2, enough for any extremal rank-1 POVM in dimension d.
    """

    restarts: int = 16
    outcomes: int | None = None
    max_iters: int = 2000
    convergence_eps: float = CONVERGENCE_EPS
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("outcomes", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is None and name == "outcomes":
                continue
            # bool is an Integral, but restarts=True is a mistake, not 1
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            # stored as a Python int: numpy integer arithmetic wraps, as in check_kernel_size's byte count
            object.__setattr__(self, name, int(value))
        eps = self.convergence_eps
        if isinstance(eps, bool) or not (isinstance(eps, numbers.Real) and math.isfinite(eps) and eps > 0):
            raise ValueError(f"convergence_eps must be positive and finite, got {eps!r}")

    def n_outcomes(self, dim: int) -> int:
        k = self.outcomes if self.outcomes is not None else dim * dim
        if k < dim:
            raise ValueError(f"outcomes {k} is too small: completeness needs at least d = {dim}")
        return k


def check_kernel_size(config: OptimizerConfig, dim: int, n_bases: int) -> None:
    """Raise ValueError when the see-saw of ``n_bases`` bases in dimension ``dim`` would not fit.

    The kernel holds (n_bases + restarts) x outcomes x d x d complex
    entries at once (the Phi stack of every start and outcome). Above
    KERNEL_BYTE_BUDGET bytes the error names the field to lower: restarts
    when one restart would fit, outcomes when a given outcome count is the
    cause, dim otherwise. Nothing is allocated.
    """
    outcomes = config.n_outcomes(dim)

    def size(starts: int, k: int) -> int:
        return starts * k * dim * dim * np.dtype(complex).itemsize

    needed = size(n_bases + config.restarts, outcomes)
    if needed <= KERNEL_BYTE_BUDGET:
        return
    if size(n_bases + 1, outcomes) <= KERNEL_BYTE_BUDGET:
        field, value = "restarts", config.restarts
    elif config.outcomes is not None and size(n_bases + 1, dim) <= KERNEL_BYTE_BUDGET:
        field, value = "outcomes", config.outcomes
    else:
        field, value = "dim", dim
    raise ValueError(
        f"{field} {value} is too large: the see-saw would hold {n_bases + config.restarts} x {outcomes}"
        f" x {dim} x {dim} complex entries ({needed} bytes), above its {KERNEL_BYTE_BUDGET}-byte budget"
    )


@dataclass(frozen=True)
class FidelitySearch:
    """Best strategy over all see-saw starts, with the per-start record.

    ``restart_trace`` lists, in run order, each start's best fidelity when
    the batch stopped (at its own convergence, at ``max_iters``, or when
    the best start met the cap): the N projective eigenbasis seeds first,
    then the random restarts. ``start_sweeps`` lists the sweeps of every
    start in the same order (a start at ``max_iters`` stopped at the sweep
    limit, not by converging), and ``iterations`` is their sum. ``best_start``
    indexes the start whose strategy is reported: the earliest whose value
    is within TIE_TOL of the best. ``traces[s]`` holds the accepted fidelity
    of start s after each of its sweeps. ``fidelity_upper`` is the cap the
    search stopped against, inf when it was given none.
    """

    fidelity: float
    povm: Povm
    reconstruction: ReconstructionMap
    restart_trace: tuple[float, ...]
    iterations: int
    start_sweeps: tuple[int, ...]
    best_start: int
    traces: tuple[np.ndarray, ...]
    fidelity_upper: float


@dataclass(frozen=True)
class IncompatibilityReport:
    """Full output of the incompatibility computation with bound certificates.

    ``incompatibility`` is exactly 1 - optimal_fidelity. ``fidelity_floor``
    is the projective-strategy guarantee (N + d - 1)/(N d); the two
    ``q_upper_*`` fields are the closed-form caps described in the module
    docstring (the small-N form is tight for N <= d + 1, the large-N form
    for N >= d + 1, equal at N = d + 1); ``fuchs_floor`` is 2/(d + 1).
    ``fidelity_upper`` is the spectral cap on the true supremum and
    ``optimality_gap`` is fidelity_upper - optimal_fidelity.
    ``search_status`` is ``certified-within-gap`` when that gap is at most
    GAP_TOL (1e-12), so the reported fidelity is optimal to within it, and
    ``best-found-lower-bound`` otherwise: the fidelity is then a certified
    lower bound on the supremum, not a proof of optimality.
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
    fidelity_upper: float
    optimality_gap: float
    iterations_used: int
    restart_trace: tuple[float, ...]
    start_sweeps: tuple[int, ...]
    minimal_subset_labels: tuple[str, ...]
    search_status: str


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


def spectral_cap(ens: SignalEnsemble) -> float:
    """Upper bound lambda_max(sum_k P_k (x) P_k)/N on the fidelity of every strategy.

    Every strategy is matched or beaten by one with rank-1 elements
    m_a chi_a chi_a^dagger and pure resend states eta_a, for which
    F = (1/Nd) sum_a m_a sum_k |<v_k|chi_a>|^2 |<v_k|eta_a>|^2, and each
    inner sum is the expectation of sum_k P_k (x) P_k in chi_a (x) eta_a;
    since sum_a m_a = d, F <= lambda_max/N. The bound is exact on complete
    sets of unbiased bases, where it is 2/(d + 1), and loose elsewhere. One
    eigvalsh of the d^2 x d^2 matrix D^T D^*, where the rows of D are the
    signal kets v_k (x) v_k, gives lambda_max; it is padded by
    SPECTRAL_CAP_SLACK * d^2 of itself for rounding, so the cap stays a
    valid bound.
    """
    dim = ens.dim
    doubled = (ens.kets[:, :, None] * ens.kets[:, None, :]).reshape(ens.n_states, dim * dim)
    top = float(np.linalg.eigvalsh(doubled.T @ doubled.conj())[-1])
    return top * (1.0 + SPECTRAL_CAP_SLACK * dim * dim) / ens.n_bases


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


def _rescaled(weights: np.ndarray, moved: np.ndarray, fallback: np.ndarray):
    """Elements ``weights_a * |moved_a><moved_a|`` as unit directions and weights, pruned and checked.

    An outcome whose new weight falls below WEIGHT_PRUNE_EPS gets weight 0
    and its ``fallback`` direction. Returns (weights, directions, factors,
    empty, lost): ``factors`` holds |moved_a|^2, ``empty`` marks the starts
    with no outcome left and ``lost`` those whose elements miss the identity
    by more than COMPLETENESS_TOL.
    """
    norms = np.linalg.norm(moved, axis=2)
    factors = norms**2
    weights = weights * factors
    keep = weights >= WEIGHT_PRUNE_EPS
    empty = ~keep.any(axis=1)
    weights = np.where(keep, weights, 0.0)
    directions = np.where(keep[..., None], moved / np.where(keep, norms, 1.0)[..., None], fallback)
    resolution = (directions.swapaxes(1, 2) * weights[:, None, :]) @ directions.conj()
    lost = np.linalg.norm(resolution - np.eye(moved.shape[2]), axis=(1, 2)) > COMPLETENESS_TOL
    return weights, directions, factors, empty, lost


def _stretched(pulled: np.ndarray, directions: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Pulled vectors G_a chi_a of each start with their part off chi_a stretched by its omega.

    Written as G_a chi_a + (omega - 1) * (off part), so that a start with
    omega 1 keeps its vectors bit for bit.
    """
    off = pulled - np.einsum("sai,sai->sa", directions.conj(), pulled)[..., None] * directions
    return pulled + (omega - 1.0)[:, None, None] * off


def _completed(
    weights: np.ndarray,
    vectors: np.ndarray,
    fallback: np.ndarray,
    where: Callable[[int], str] | None = None,
):
    """Elements ``weights_a * |v_a><v_a|`` made complete by S^(-1/2), S = sum_a weights_a v_a v_a^dagger.

    S^(-1/2) is taken on the support of S, ``where`` naming a singular S as
    in :func:`_pinv_sqrt`. The result is pruned and checked by
    :func:`_rescaled`, whose tuple it returns.
    """
    frame = (vectors.swapaxes(1, 2) * weights[:, None, :]) @ vectors.conj()
    return _rescaled(weights, vectors @ _pinv_sqrt(frame, where).swapaxes(1, 2), fallback)


def _plain_step(
    ens: SignalEnsemble,
    weights: np.ndarray,
    directions: np.ndarray,
    eta: np.ndarray,
    where: Callable[[int], str],
    stretch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The fixed-point measurement update of each start for its resend directions ``eta``.

    M_a <- L^(-1/2) G_a M_a G_a L^(-1/2) with G_a = Phi(eta_a) and
    L = sum_a G_a M_a G_a: the weight m_a becomes m_a s_a with
    s_a = |L^(-1/2) G_a chi_a|^2. A start whose ``stretch`` entry omega is
    above 1 is a basis and takes the stretched step instead: each pulled
    vector G_a chi_a keeps its part along chi_a and has its part off chi_a
    stretched by omega before the same L^(-1/2) and checks. Returns the new
    weights, directions, the factors s_a and the starts whose stretched step
    failed its checks and gave way to the plain step. A start whose plain
    step loses every outcome or completeness raises SingularUpdateError,
    ``where(i)`` naming start i.
    """
    live = weights > 0.0
    if ens.dim >= GATHER_MIN_DIM and not live.all():
        pulled = np.zeros_like(directions)
        pulled[live] = (_phi_batch(ens, _signal_overlaps(ens, eta[live])) @ directions[live][..., None])[..., 0]
    else:
        pulled = (_phi_batch(ens, _signal_overlaps(ens, eta)) @ directions[..., None])[..., 0]

    vectors = pulled if stretch is None else _stretched(pulled, directions, stretch)
    new_weights, new_directions, factors, empty, lost = _completed(weights, vectors, directions, where)
    fell = np.zeros(0, dtype=int)
    if stretch is not None:
        fell = np.flatnonzero((empty | lost) & (stretch > 1.0))
    if fell.size:
        # a stretch that is not a measurement gives way to the plain step, from the same pulled vectors
        redone = _completed(weights[fell], pulled[fell], directions[fell], lambda i: where(fell[i]))
        for array, new in zip((new_weights, new_directions, factors, empty, lost), redone):
            array[fell] = new
    if empty.any():
        raise SingularUpdateError(
            f"all outcomes pruned during measurement update ({where(np.flatnonzero(empty)[0])})"
        )
    if lost.any():
        raise SingularUpdateError(f"measurement update lost completeness ({where(np.flatnonzero(lost)[0])})")
    return new_weights, new_directions, factors, fell


def _over_relaxed(
    plain_weights: np.ndarray,
    plain_directions: np.ndarray,
    factors: np.ndarray,
    omega: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The over-relaxed candidate of each start: the plain step's factors s_a raised to omega.

    The candidate has weights m_a s_a^omega = m'_a s_a^(omega - 1) on the
    plain step's directions chi'_a, made complete again by W^(-1/2) with
    W = sum_a m_a s_a^omega chi'_a chi'_a^dagger, then pruned and checked as
    the plain step is. Returns (weights, directions, ok); ``ok`` is False
    for a start whose candidate lost every outcome or completeness.
    """
    factors = np.where(plain_weights > 0.0, factors, 0.0)
    # W^(-1/2) undoes a common scale, so s_a / max_b s_b keeps s_a^omega finite
    tilted = plain_weights * (factors / factors.max(axis=1, keepdims=True)) ** (omega - 1.0)[:, None]
    weights, directions, _, empty, lost = _completed(tilted, plain_directions, plain_directions)
    return weights, directions, ~(empty | lost)


def _see_saw_batch(
    ens: SignalEnsemble,
    weights: np.ndarray,
    directions: np.ndarray,
    config: OptimizerConfig,
    upper: float = math.inf,
) -> _Runs:
    """Monotone alternating maximization of the average fidelity from B starts at once, in lock step.

    Each sweep scores one measurement per start: it takes the exact best
    reconstruction for it (top eigenvector of d * Phi(chi_a) per outcome)
    and its fidelity, and accepts or rejects it. Then every start takes the
    plain step from its accepted measurement: the fixed-point update
    M_a <- L^(-1/2) G_a M_a G_a L^(-1/2), where G_a = Phi(sigma_a) and
    L = sum_a G_a M_a G_a, taken on the support of L: direction
    chi'_a ~ L^(-1/2) G_a chi_a and weight m_a s_a with
    s_a = |L^(-1/2) G_a chi_a|^2. Rank-1 elements stay rank-1; outcomes
    whose weight falls below WEIGHT_PRUNE_EPS are dropped and completeness
    is re-verified to 1e-9.

    The step is over-relaxed adaptively with a factor omega per start. The
    first step is plain. After a plain step that gains at least
    SLOW_GAIN_RATIO (0.9) times the last accepted gain, omega becomes 1.5
    and the next sweep scores a candidate built on the plain step instead.
    A start with more than d outcomes takes the weights m_a s_a^omega on the
    directions chi'_a, made complete again by W^(-1/2) with
    W = sum_a m_a s_a^omega chi'_a chi'_a^dagger, then pruned and checked
    as the plain step is. A basis (d outcomes, each of weight 1) keeps
    weight 1 under any tilt, so its candidate stretches the directions
    instead: each pulled vector G_a chi_a keeps its part along chi_a, has
    its part off chi_a stretched by omega, and goes through the same
    L^(-1/2) and checks as the plain step. A candidate of either kind whose
    fidelity is at least the accepted one is accepted and omega grows
    1.5-fold, up to 50; one that gains less than ``convergence_eps`` resets
    omega to 1. A rejected candidate of either kind gives way to the plain
    step from the accepted measurement, with omega at 1 and the accepted
    resend directions as warm-start guesses. A candidate that is not a
    measurement gives way to the plain step unscored.

    A start stops when a plain step gains less than ``convergence_eps`` or
    after ``max_iters`` sweeps. Every sweep counts, rejected candidates
    included, so a start's sweeps count its top-eigenpair evaluations. Its
    trace holds the accepted fidelity after each sweep and is
    non-decreasing to 1e-12 per sweep: a plain step that lowers the
    fidelity by more raises NonMonotoneError, since the update guarantees
    monotone ascent and any violation signals a numerical bug.

    ``weights`` is (B, K) and ``directions`` (B, K, d). An outcome of weight
    0 is padding or pruned: it adds nothing to the fidelity, the update
    operator or completeness, and keeps its last direction so that no 0/0
    enters Phi. A start leaves the active set at its own stopping rule, and
    every operation acts on each start's rows alone, so each start follows
    the trajectory and sweep count it would follow on its own. Every check
    is made per start, and its error names the start and the sweep. The
    weight candidate is built only on sweeps where a start with more than d
    outcomes has omega > 1.

    Top eigenpairs and resend maps are computed for the live (weight > 0)
    rows only; a dead row keeps its last, finite, resend direction. At
    sweep 1 each row's own measurement direction is the guess of its top
    eigenpair, which is exact on a 2-design such as a complete set of
    unbiased bases, where Phi(chi) = (chi chi^dagger + I)/(N d). From sweep
    2 on, at d >= linalg.WARM_MIN_DIM, each live row's resend direction at
    the accepted point is the guess.

    ``upper`` is a cap on the fidelity of every strategy. The whole batch
    stops after the first sweep whose best value is within GAP_TOL of it:
    nothing is left to find. Every start has then run at least one sweep.
    """
    n_starts, dim = weights.shape[0], ens.dim
    ids = np.arange(n_starts)
    best_value = np.full(n_starts, -math.inf)
    best_weights = weights.copy()
    best_directions = directions.copy()
    best_eta = np.empty_like(directions)
    sweeps = np.zeros(n_starts, dtype=int)
    history: list[tuple[np.ndarray, np.ndarray]] = []
    kept_weights, kept_directions, kept_eta, kept_value = weights, directions, directions.copy(), None
    # per start: omega > 1 when the next sweep scores a candidate, and the last accepted gain
    omega = [1.0] * n_starts
    last_gain = [math.inf] * n_starts

    def where(i: int) -> str:
        return f"start {ids[i]}, sweep {sweep}"

    for sweep in range(1, config.max_iters + 1):
        live = weights > 0.0
        if kept_value is None:
            guess = directions
        else:
            guess = kept_eta if dim >= linalg.WARM_MIN_DIM else None
        if dim >= GATHER_MIN_DIM and not live.all():
            phi = _phi_batch(ens, _signal_overlaps(ens, directions[live]))
            lam, eta = np.zeros(weights.shape), kept_eta.copy()
            lam[live], eta[live] = linalg.batched_top_eig(phi, None if guess is None else guess[live])
        else:
            phi = _phi_batch(ens, _signal_overlaps(ens, directions))
            lam, eta = linalg.batched_top_eig(phi, guess)
        value = np.einsum("sa,sa->s", weights, lam)

        # the starting point is taken as it is; later, a plain step always, a candidate if F did not fall
        take, done = [True] * len(ids), [False] * len(ids)
        if kept_value is not None:
            for i, gain in enumerate((value - kept_value).tolist()):
                if omega[i] > 1.0:
                    take[i] = gain >= 0.0
                    grows = take[i] and gain >= config.convergence_eps
                    omega[i] = min(OMEGA_GROWTH * omega[i], OMEGA_MAX) if grows else 1.0
                    last_gain[i] = gain if take[i] else 0.0
                    continue
                if gain < -MONOTONE_TOL:
                    raise NonMonotoneError(
                        f"fidelity fell from {float(kept_value[i])!r} to {float(value[i])!r} ({where(i)})"
                    )
                done[i] = gain < config.convergence_eps
                if gain >= SLOW_GAIN_RATIO * last_gain[i]:
                    omega[i] = min(OMEGA_GROWTH, OMEGA_MAX)
                last_gain[i] = gain
        better = value > best_value[ids]
        if better.any():
            at = ids[better]
            best_value[at] = value[better]
            best_weights[at] = weights[better]
            best_directions[at] = directions[better]
            best_eta[at] = eta[better]
        if all(take):
            kept_weights, kept_directions, kept_eta, kept_value = weights, directions, eta, value
        else:
            mask = np.array(take)
            kept_weights = np.where(mask[:, None], weights, kept_weights)
            kept_directions = np.where(mask[:, None, None], directions, kept_directions)
            kept_eta = np.where(mask[:, None, None], eta, kept_eta)
            kept_value = np.where(mask, value, kept_value)
        history.append((ids, kept_value))
        if sweep == config.max_iters or best_value.max() >= upper - GAP_TOL:
            sweeps[ids] = sweep
            break
        if any(done):
            going = ~np.array(done)
            sweeps[ids[~going]] = sweep
            if not going.any():
                break
            ids, kept_weights, kept_directions, kept_eta, kept_value = (
                ids[going], kept_weights[going], kept_directions[going], kept_eta[going], kept_value[going]
            )
            omega, last_gain = (list(itertools.compress(x, going)) for x in (omega, last_gain))

        # d live outcomes that resolve the identity are a basis of weight 1, whose weight candidate
        # would be the plain step: its omega stretches its directions inside the plain step instead
        relaxed = stretch = None
        if max(omega) > 1.0:
            omegas = np.array(omega)
            relaxed = omegas > 1.0
            bases = [i for i, w in enumerate(omega) if w > 1.0 and np.count_nonzero(kept_weights[i]) == dim]
            if bases:
                stretch = np.ones(len(omega))
                stretch[bases] = omegas[bases]
                relaxed[bases] = False
        weights, directions, factors, fell = _plain_step(ens, kept_weights, kept_directions, kept_eta, where, stretch)
        if relaxed is not None:
            # the other relaxed starts take a weight candidate, unless their plain step pruned them to a basis
            if relaxed.any():
                relaxed &= np.count_nonzero(weights, axis=1) > dim
                candidate_weights, candidate_directions, ok = _over_relaxed(weights, directions, factors, omegas)
                relaxed &= ok
                weights = np.where(relaxed[:, None], candidate_weights, weights)
                directions = np.where(relaxed[:, None, None], candidate_directions, directions)
            if stretch is not None:
                relaxed[bases] = True
                relaxed[fell] = False
            # a candidate or a stretch that is not a measurement gave way to the plain step, unscored
            omega = [w if r else 1.0 for w, r in zip(omega, relaxed.tolist())]

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


def _search(
    ens: SignalEnsemble,
    weights: np.ndarray,
    directions: np.ndarray,
    config: OptimizerConfig,
    upper: float = math.inf,
) -> FidelitySearch:
    """Run :func:`_see_saw_batch` from the given starts, stopping at ``upper``, and report the best one.

    The reported start is the earliest whose fidelity is within TIE_TOL of
    the best: values that close are a tie, and float noise must not pick a
    later start. The reported strategy is that start's best sweep with its
    weight-0 outcomes dropped and phases fixed.
    """
    runs = _see_saw_batch(ens, weights, directions, config, upper)
    # the difference itself, not fidelity >= max - tol: it is exact for close values
    best = int(np.flatnonzero(runs.fidelity.max() - runs.fidelity <= TIE_TOL)[0])
    kept = runs.weights[best] > 0.0
    eta = linalg.fix_phases(runs.eta[best][kept])
    return FidelitySearch(
        fidelity=float(runs.fidelity[best]),
        povm=Povm(ens.dim, runs.weights[best][kept], linalg.fix_phases(runs.directions[best][kept])),
        reconstruction=ReconstructionMap(states=eta[:, :, None] * eta.conj()[:, None, :]),
        restart_trace=tuple(float(f) for f in runs.fidelity),
        iterations=int(np.sum(runs.sweeps)),
        start_sweeps=tuple(int(n) for n in runs.sweeps),
        best_start=best,
        traces=tuple(runs.traces),
        fidelity_upper=upper,
    )


def see_saw(
    ens: SignalEnsemble,
    initial: Povm,
    config: OptimizerConfig | None = None,
) -> FidelitySearch:
    """The see-saw of :func:`_see_saw_batch` on one start, without a cap.

    This is the search of :func:`optimal_fidelity` run on a batch of one
    start: ``fidelity_upper`` is inf, ``iterations`` counts the start's
    sweeps and ``traces[0]`` holds its accepted fidelity after each sweep.
    The returned measurement, reconstruction, and fidelity come from the
    best evaluated sweep and are mutually consistent.
    """
    if ens.dim != initial.dim:
        raise DimensionMismatchError(f"ensemble dim {ens.dim} vs POVM dim {initial.dim}")
    return _search(ens, initial.weights[None], initial.directions[None], config or OptimizerConfig())


def optimal_fidelity(ens: SignalEnsemble, config: OptimizerConfig | None = None) -> FidelitySearch:
    """Best intercept-resend fidelity found over all see-saw starts.

    Starts from each of the N projective eigenbasis measurements, which
    guarantees the (N + d - 1)/(N d) floor, then from ``config.restarts``
    random POVMs with ``config.n_outcomes(d)`` outcomes. All starts run in
    one lock-step batch; the projective ones are padded to that outcome
    count with weight-0 outcomes. The batch stops once its best start is
    within GAP_TOL of :func:`spectral_cap`, which the result carries as
    ``fidelity_upper``. The reported value is a lower bound on the true
    supremum; ties within TIE_TOL resolve to the earliest start.
    """
    config = config or OptimizerConfig()
    dim, n_bases = ens.dim, ens.n_bases
    check_kernel_size(config, dim, n_bases)
    n_outcomes = config.n_outcomes(dim)

    weights = np.zeros((n_bases + config.restarts, n_outcomes))
    directions = np.empty((n_bases + config.restarts, n_outcomes, dim), dtype=complex)
    weights[:n_bases, :dim] = 1.0
    directions[:n_bases, :dim] = ens.vectors
    directions[:n_bases, dim:] = ens.vectors[:, :1]
    rngs = [np.random.default_rng((config.seed, restart)) for restart in range(config.restarts)]
    weights[n_bases:], directions[n_bases:] = random_povm(dim, n_outcomes, rngs)

    return _search(ens, weights, directions, config, spectral_cap(ens))


def incompatibility(obs: ObservableSet, config: OptimizerConfig | None = None) -> IncompatibilityReport:
    """Incompatibility of an observable set, with bound certificates.

    Reduces the set to a minimal noncommuting subset, builds its signal
    ensemble, maximizes the intercept-resend fidelity, and checks the
    result against every applicable closed-form bound and the spectral cap.
    A bound violation means a numerical bug and raises BoundViolationError
    rather than being reported as data.
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

    context = f"(seed {config.seed}, start {search.best_start})"
    if search.fidelity < floor - BOUND_SLACK:
        raise BoundViolationError(
            f"fidelity {search.fidelity!r} below projective floor {floor!r} {context}"
        )
    if search.fidelity < fuchs - BOUND_SLACK:
        raise BoundViolationError(
            f"fidelity {search.fidelity!r} below accessible-fidelity floor {fuchs!r} {context}"
        )
    if n <= d + 1 and q > q_small + BOUND_SLACK:
        raise BoundViolationError(f"incompatibility {q!r} above cap {q_small!r} {context}")
    if q > q_large + BOUND_SLACK:
        raise BoundViolationError(f"incompatibility {q!r} above cap {q_large!r} {context}")
    upper = search.fidelity_upper
    if search.fidelity > upper + BOUND_SLACK:
        raise BoundViolationError(f"fidelity {search.fidelity!r} above spectral cap {upper!r} {context}")
    gap = upper - search.fidelity

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
        fidelity_upper=upper,
        optimality_gap=gap,
        iterations_used=search.iterations,
        restart_trace=search.restart_trace,
        start_sweeps=search.start_sweeps,
        minimal_subset_labels=subset.labels,
        search_status="certified-within-gap" if gap <= GAP_TOL else "best-found-lower-bound",
    )
