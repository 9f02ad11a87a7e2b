"""Fidelity maximization over measurements and the incompatibility measure.

The incompatibility of a set of observables is one minus the best average
fidelity any intercept-resend strategy can achieve against the set's signal
ensemble. The supremum over measurements has no closed form in general, so
:func:`optimal_fidelity` runs a monotone see-saw from every projective
eigenbasis measurement plus a configurable number of random starts, and
reports the best value found. That value is always a certified lower bound
on the true supremum (every iterate is an actual strategy). Every set also
gets a rigorous upper bound: the collision-sum cap of :func:`collision_cap`,
which is exact on every set of unbiased bases, every qubit set and every
shared-eigenvector pair, or the spectral cap of :func:`spectral_cap` where
that is lower. The search stops as soon as its best start comes within
GAP_TOL of the bound, and the report then reads ``certified-within-gap``.
Starts whose values differ by at most TIE_TOL are tied, and the earliest of
them is reported, so float noise does not pick the strategy. Closed-form
bounds are checked as well:

* achievable fidelity is at least (N + d - 1)/(N d), the projective
  baseline, so incompatibility is at most (1 - 1/N)(1 - 1/d),
* incompatibility is at most (d - 1)/(d + 1) in any case, via the
  accessible-fidelity floor 2/(d + 1) (Fuchs) for pure-state ensembles,
* for mutually unbiased bases both the fidelity and the measure are known
  exactly, and the projective baseline attains them,
* fidelity is at most the collision-sum cap and the spectral cap.

All starts run in lock step (:func:`_see_saw_batch`). Their state is one
record, :class:`_Batch`, with a row per active start: the kept point,
omega, the last gain, a ring of its recent gains, the merge flag and the
best point so far. Each sweep runs four phases on it: score (Phi build, top
eigenpairs, value), accept, retire and step. The step is the fixed-point
iteration of Jezek, Rehacek and Fiurasek (PRA 65, 060301(R), 2002),
over-relaxed adaptively (Salakhutdinov and Roweis, ICML 2003): once the
plain step's gains shrink slowly, a start tries a candidate with a factor
omega > 1 and keeps it only if the fidelity did not fall. A start with more than d outcomes raises the
step's weight factors to the power omega; a basis (d outcomes of weight 1,
as every projective start is) stretches its change of direction by omega
instead. A start converges only on a plain step that gains less than
``convergence_eps``.

A start that cannot catch up is retired: when the best value any start has
reached leads its kept value by more than RETIRE_MARGIN plus its largest
gain of the last MERGE_EVERY sweeps, gained again at every sweep left to
``max_iters``. Every other start keeps its own trajectory, so the winner's
fidelity is the one it reaches alone, up to the rounding of the Phi build,
whose gathered rows shrink with the batch. Each start records why it
stopped: ``converged``, ``max_iters``, ``cap`` (the batch met its bound) or
``retired``.

Random starts carry min(d^2, 4d) outcomes (:meth:`OptimizerConfig.n_outcomes`).
d^2 is enough for any extremal rank-1 POVM, but the optima use far fewer
distinct directions. The see-saw only drops outcomes, so a start that begins
too narrow can miss the optimum. A search that began narrower than d^2 and
did not meet its bound is therefore priced (:func:`_price`): where a product
vector chi (x) eta beats the reported strategy's dual point by more than
PRICE_TOL, the whole search is rerun with d^2 outcomes, and that run is
reported. An explicit ``outcomes`` is never priced or rerun.

At every d, every MERGE_EVERY (5) sweeps a start with more than d live
outcomes scores a candidate with its nearly coincident outcomes merged, kept
only if the fidelity did not fall; the merged-away outcomes cost no further
eigenpairs. The start still stops where its own last gain falls below
``convergence_eps``, which can lie below where the unmerged start would have
stopped. Reported strategies shrink with their start.

Reports are deterministic: restart r draws from a stream seeded by
(config.seed, r), so identical configurations give identical output. The
random starts depend on nothing but (d, outcomes, seed, restarts), so
:func:`_random_starts` builds and checks them once per configuration and
holds them read-only for later searches in the same process, at most 16 MiB
of them; every search copies them into its own batch, so a held start gives
the bits of a fresh one.
"""

from __future__ import annotations

import functools
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
    BLOCK_SPLIT_TOL,
    BOUND_SLACK,
    COLLISION_CAP_SLACK,
    COMPLETENESS_TOL,
    CONVERGENCE_EPS,
    GAP_TOL,
    MONOTONE_TOL,
    PINV_CUTOFF,
    PRICE_TOL,
    RETIRE_MARGIN,
    SPECTRAL_CAP_SLACK,
    TIE_TOL,
    WEIGHT_PRUNE_EPS,
)

# Below this dimension an eigensolve of a weight-0 outcome costs less than
# gathering the live outcomes around it.
GATHER_MIN_DIM = 3

# Adaptive over-relaxation of the measurement step (see _accept and _step). Omega leaves 1 after a plain
# step that gains at least SLOW_GAIN_RATIO times the start's last accepted gain: on starts whose gains
# shrink faster, a candidate costs a sweep's update twice over and saves no sweeps.
OMEGA_GROWTH = 1.5
OMEGA_MAX = 50.0
SLOW_GAIN_RATIO = 0.9

# Outcome merging (see _merged), at every d. Merging every 5 sweeps at 1 - 1e-4 cut the top-eigenpair rows of
# the d = 6-8 random sets of the seed-1 benchmark corpus from 114,284 to 38,024, and lowered no set's fidelity.
# On its d = 3 and 4 sets it cut them from 248,800 to 119,330 and the lock-step sweeps from 5,657 to 5,047; there
# F fell on 5 of 66 sets by at most 2.8e-11, stop noise, while the median shortfall against a tightly converged
# search fell from 7.6e-12 to 8.3e-13 over the whole d <= 4 corpus.
MERGE_EVERY = 5
MERGE_OVERLAP = 0.9999

# Random starts carry NARROW_OUTCOMES_PER_DIM * d outcomes where that is below d^2 (see OptimizerConfig.n_outcomes).
# On 32 Haar sets with d = 6-12 and N = 2-3 and Haar pairs at d = 12, 16 and 24, 4d lost 4.0e-5 to 1.7e-4 of F
# on five sets, each of which pricing flags and reruns with d^2; 3d lost 1.2e-4 on the pair at d = 16, and would
# narrow the starts at d = 4.
NARROW_OUTCOMES_PER_DIM = 4

# Largest Phi stack, in bytes, that the see-saw may hold for one set.
KERNEL_BYTE_BUDGET = 2**28

# Random starts held for later searches (see _random_starts): the START_HELD_COUNT most recently used
# configurations whose arrays take at most START_HELD_BYTES each, so at most 16 MiB of arrays in all.
START_HELD_BYTES = 2**19
START_HELD_COUNT = 32


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters for the see-saw fidelity maximization.

    ``outcomes`` is the number of rank-1 elements in random starting POVMs;
    None means min(d^2, 4d), and d^2, enough for any extremal rank-1 POVM
    in dimension d, where pricing finds an outcome the search missed (see
    :func:`optimal_fidelity`).
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
        """Outcomes of each random start: ``outcomes``, or min(d^2, 4d) when it is None.

        A default search at d > 4 that pricing widens reruns with d^2; a
        given ``outcomes`` is used as it is.
        """
        k = self.outcomes if self.outcomes is not None else min(dim * dim, NARROW_OUTCOMES_PER_DIM * dim)
        if k < dim:
            raise ValueError(f"outcomes {k} is too small: completeness needs at least d = {dim}")
        return k


def check_kernel_size(config: OptimizerConfig, dim: int, n_bases: int) -> None:
    """Raise ValueError when the see-saw of ``n_bases`` bases in dimension ``dim`` would not fit.

    The kernel holds (n_bases + restarts) x outcomes x d x d complex
    entries at once (the Phi stack of every start and outcome), with d^2
    outcomes when ``outcomes`` is None, the width a widened search reruns
    at (see :func:`optimal_fidelity`). Above
    KERNEL_BYTE_BUDGET bytes the error names the field to lower: restarts
    when one restart would fit, outcomes when a given outcome count is the
    cause, dim otherwise. Nothing is allocated.
    """
    outcomes = dim * dim if config.outcomes is None else config.n_outcomes(dim)

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
    it stopped: the N projective eigenbasis seeds first, then the random
    restarts. ``start_sweeps`` lists the sweeps of every start in the same
    order, and ``iterations`` is their sum. ``start_stops`` says why each
    start stopped: ``converged`` (a plain step gained less than
    ``convergence_eps``), ``max_iters`` (the sweep limit), ``cap`` (the best
    start met ``fidelity_upper``) or ``retired`` (it trailed the best by more
    than it could still gain). ``best_start`` indexes the start whose
    strategy is reported: the earliest whose value is within TIE_TOL of the
    best. ``traces[s]`` holds the accepted fidelity of start s after each of
    its sweeps. ``fidelity_upper`` is the upper bound the search stopped
    against: the collision-sum cap, or the spectral cap when that is lower;
    inf when it was given none.
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
    start_stops: tuple[str, ...]


@dataclass(frozen=True)
class IncompatibilityReport:
    """Full output of the incompatibility computation with bound certificates.

    ``incompatibility`` is exactly 1 - optimal_fidelity. ``fidelity_floor``
    is the projective-strategy guarantee (N + d - 1)/(N d); the two
    ``q_upper_*`` fields are the closed-form caps described in the module
    docstring (the small-N form is tight for N <= d + 1, the large-N form
    for N >= d + 1, equal at N = d + 1); ``fuchs_floor`` is 2/(d + 1).
    ``fidelity_upper`` is the upper bound on the true supremum that the
    search stopped against: the collision-sum cap, or the spectral cap where
    that is lower, both padded for rounding.
    ``optimality_gap`` is fidelity_upper - optimal_fidelity.
    ``search_status`` is ``certified-within-gap`` when that gap is at most
    GAP_TOL (1e-12), so the reported fidelity is optimal to within it, and
    ``best-found-lower-bound`` otherwise: the fidelity is then a certified
    lower bound on the supremum, not a proof of optimality.
    ``start_stops`` is the search's stop reason per start, parallel to
    ``restart_trace`` and ``start_sweeps``.
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
    start_stops: tuple[str, ...]
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


def collision_cap(ens: SignalEnsemble) -> tuple[float, bool]:
    """Upper bound on the fidelity of every strategy from the collision sums, and whether the bases attain it.

    Write Q_k = P_k - I/d for the traceless parts of the N d signal
    projectors, G_kl = Tr(Q_k Q_l) = |<v_k|v_l>|^2 - 1/d for their
    Hilbert-Schmidt Gram matrix and mu = lambda_max(G). Each basis resolves
    the identity (the assumption of every closed form here), so
    sum_k Tr(rho Q_k) = 0, and a pure state rho, with ||rho - I/d||^2 =
    1 - 1/d, has sum_k Tr(rho P_k)^2 = N/d + sum_k Tr((rho - I/d) Q_k)^2
    <= N/d + mu (1 - 1/d). A strategy of rank-1 elements m_a chi_a
    chi_a^dagger resending eta_a scores F = (1/Nd) sum_a m_a sum_k
    p_k(chi_a) p_k(eta_a), p_k = |<v_k|.>|^2; Cauchy-Schwarz on each inner
    sum and sum_a m_a = d give F <= (N + mu (d - 1))/(N d).

    When the kets split into mutually orthogonal blocks, each taking the same
    count d_b from every basis (a shared eigenvector, a direct sum), the
    same argument runs on each block's span with Gram matrix
    |<v_k|v_l>|^2 - 1/d_b: the part of chi_a in block b, of squared norm
    t_ab with sum_a m_a t_ab = d_b, gives F <= sum_b (d_b/d) cap_b, cap_b =
    (N + mu_b (d_b - 1))/(N d_b). Kets join a block when they overlap by
    more than BLOCK_SPLIT_TOL; a split in which some basis gives a block
    another count is dropped for one block.

    The cap is exact on every set of unbiased bases (mu = 1, the projective
    floor), on every qubit set (mu = lambda_max(K)/2 over the Bloch axes,
    giving 1/2 + lambda_max(K)/(2S)) and on shared-eigenvector pairs
    (1/2 + 1/d). Each mu_b is padded by COLLISION_CAP_SLACK * n_b of itself
    for rounding, n_b the block's ket count. Where a block's Gram matrix is
    within that pad, in Frobenius norm, of the one of unbiased bases (I -
    J/d_b within each basis, 0 across bases, top eigenvalue 1), Weyl's
    inequality puts mu_b within it of 1, and no eigenvalue is computed.

    A split adds 8 d a for the largest overlap a across blocks. Within basis
    j the block spans S_jb are orthogonal, and the part of a ket of S_jb off
    S_1b has squared norm at most (d - d_b) a^2, so W_j = sum_b Pi_1b Pi_jb
    has ||W_j - I||_F^2 <= a^2 sum_b d_b (d - d_b) <= (d a)^2 and singular
    values in [1 - (d a)^2, 1], and its polar factor U_j, a unitary that takes
    every S_jb onto S_1b, has ||U_j - I|| <= eps = d a (1 + d a). The kets
    v'_k = U_j v_k keep each basis orthonormal and lie in exactly orthogonal
    blocks, so the argument above holds for them. Each of a strategy's N d
    probabilities moves by at most eps, and each basis's sum to 1, so F
    moves by at most 2 eps. Each basis's columns vec(P_k) are orthonormal
    and turn by ||conj(U_j) (x) U_j - I|| <= 2 eps, so the Gram matrix
    moves by at most 4 N eps in norm, mu_b as much, and the cap by at most
    4 eps (d - B)/d over B blocks. Then 6 eps <= 8 d a while d a <= 1/3,
    which a <= BLOCK_SPLIT_TOL keeps for any d below 3e5.

    The flag is True when every mu_b is at most 1 up to its pad: each basis
    vector, resent as measured, then scores its block's cap, so the
    projective starts attain the cap at sweep 1 and no bound can be lower.
    """
    dim, n_bases = ens.dim, ens.n_bases
    overlaps = np.abs(ens.kets.conj() @ ens.kets.T) ** 2
    blocks = _blocks(overlaps > BLOCK_SPLIT_TOL**2, dim)
    split = blocks.any()
    cross = 8.0 * dim * math.sqrt(float(overlaps[blocks[:, None] != blocks].max())) if split else 0.0
    total, attained = 0.0, True
    for block in range(blocks.max() + 1):
        members = np.flatnonzero(blocks == block)
        size = len(members) // n_bases
        gram = (overlaps[np.ix_(members, members)] if split else overlaps) - 1.0 / size
        pad = 1.0 + COLLISION_CAP_SLACK * len(members)
        basis = members // dim
        unbiased = np.where(basis[:, None] == basis, linalg.identity(len(members)) - 1.0 / size, 0.0)
        if np.linalg.norm(gram - unbiased) <= pad - 1.0:
            top = 1.0
        else:
            # solved as a complex Hermitian matrix: the real symmetric solver is a second LAPACK path, whose
            # first call adds 0.25 MB to the process, while the Hermitian one is the see-saw's own
            top = float(np.linalg.eigvalsh(gram.astype(complex))[-1])
            attained &= size == 1 or top <= pad
        total += n_bases + top * pad * (size - 1)
    return total / (n_bases * dim) + cross, attained


def _blocks(joined: np.ndarray, dim: int) -> np.ndarray:
    """Each ket's connected component of ``joined``, numbered from 0; all 0 if some basis gives one another count.

    ``joined`` holds its diagonal, so each product with it can only widen a component.
    """
    n = len(joined)
    blocks = np.full(n, -1)
    for first in range(n):
        if blocks[first] >= 0:
            continue
        reach = joined[first]
        while np.count_nonzero(wider := reach @ joined) > np.count_nonzero(reach):
            reach = wider
        size = np.count_nonzero(reach)
        if size == n or np.any(np.bincount(np.flatnonzero(reach) // dim, minlength=n // dim) * (n // dim) != size):
            return np.zeros(n, dtype=int)
        blocks[reach] = blocks.max() + 1
    return blocks


def _norms(x: np.ndarray, axis: int | tuple[int, int]) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` by numpy's own formula, without its argument handling: the same bits."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _pinv_sqrt(matrices: np.ndarray, where: Callable[[int], str] | None = None) -> np.ndarray:
    """Pseudo-inverse square root of PSD matrices (..., d, d) on their numerical support.

    Raises SingularUpdateError when a matrix has numerical rank 0; for a
    batch, ``where(i)`` names entry i in the message.
    """
    vals, vecs = np.linalg.eigh(matrices)
    top = vals[..., -1:]
    mask = vals > PINV_CUTOFF * top
    if mask.all():  # no eigenvalue is cut, so no matrix is singular: every full-rank frame
        inv = 1.0 / np.sqrt(vals)
    else:
        if (top <= 0.0).any():
            context = f" ({where(int(np.flatnonzero(top <= 0.0)[0]))})" if where else ""
            raise SingularUpdateError(f"measurement update operator has numerical rank 0{context}")
        inv = np.where(mask, 1.0 / np.sqrt(np.where(mask, vals, 1.0)), 0.0)
    return (vecs * inv[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


class _Runs(NamedTuple):
    """Per-start outcome of a lock-step see-saw batch; strategy arrays hold each start's best sweep.

    ``stops`` holds each start's stop reason: converged, max_iters, cap or retired.
    """

    fidelity: np.ndarray
    sweeps: np.ndarray
    weights: np.ndarray
    directions: np.ndarray
    eta: np.ndarray
    stops: np.ndarray
    traces: list[np.ndarray]


def _rescaled(weights: np.ndarray, moved: np.ndarray, fallback: np.ndarray):
    """Elements ``weights_a * |moved_a><moved_a|`` as unit directions and weights, pruned and checked.

    An outcome whose new weight falls below WEIGHT_PRUNE_EPS gets weight 0 and its ``fallback``
    direction. Returns (weights, directions, factors, empty, lost): ``factors`` holds |moved_a|^2,
    ``empty`` marks the starts with no outcome left and ``lost`` those whose elements miss the
    identity by more than COMPLETENESS_TOL.
    """
    norms = _norms(moved, 2)
    factors = norms**2
    weights = weights * factors
    keep = weights >= WEIGHT_PRUNE_EPS
    empty = ~keep.any(axis=1)
    weights = np.where(keep, weights, 0.0)
    directions = np.where(keep[..., None], moved / np.where(keep, norms, 1.0)[..., None], fallback)
    resolution = (directions.swapaxes(1, 2) * weights[:, None, :]) @ directions.conj()
    lost = _norms(resolution - linalg.identity(moved.shape[2]), (1, 2)) > COMPLETENESS_TOL
    return weights, directions, factors, empty, lost


def _stretched(pulled: np.ndarray, directions: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Pulled vectors G_a chi_a with their part off chi_a stretched by each start's omega.

    Written as G_a chi_a + (omega - 1) * (off part): at omega 1 the vectors keep their bits.
    """
    off = pulled - np.einsum("sai,sai->sa", directions.conj(), pulled)[..., None] * directions
    return pulled + (omega - 1.0)[:, None, None] * off


def _completed(
    weights: np.ndarray, vectors: np.ndarray, fallback: np.ndarray, where: Callable[[int], str] | None = None
):
    """Elements ``weights_a * |v_a><v_a|`` made complete by S^(-1/2), S = sum_a weights_a v_a v_a^dagger.

    S^(-1/2) is taken on the support of S, ``where`` naming a singular S as
    in :func:`_pinv_sqrt`; the result is pruned and checked by :func:`_rescaled`.
    """
    frame = (vectors.swapaxes(1, 2) * weights[:, None, :]) @ vectors.conj()
    return _rescaled(weights, vectors @ _pinv_sqrt(frame, where).swapaxes(1, 2), fallback)


def _plain_step(
    ens: SignalEnsemble, weights: np.ndarray, directions: np.ndarray, eta: np.ndarray, where: Callable[[int], str],
    stretch: np.ndarray | None = None, rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The fixed-point measurement update of each start for its resend directions ``eta``.

    M_a <- L^(-1/2) G_a M_a G_a L^(-1/2) with G_a = Phi(eta_a) and
    L = sum_a G_a M_a G_a: the weight m_a becomes m_a s_a with
    s_a = |L^(-1/2) G_a chi_a|^2. A start whose ``stretch`` entry omega is
    above 1 is a basis: its pulled vectors G_a chi_a have their part off
    chi_a stretched by omega first. ``rows`` is this point's live-row gather
    (mask, directions, eta), if built. Returns the new weights, directions,
    the factors s_a and the starts whose stretch was not a measurement and
    gave way to the plain step. A start whose plain step loses every
    outcome or completeness raises SingularUpdateError, ``where(i)``
    naming start i.
    """
    if rows is None and ens.dim >= GATHER_MIN_DIM:
        live = weights > 0.0
        if not live.all():
            rows = live, directions[live], eta[live]
    if rows is not None:
        live, live_directions, live_eta = rows
        pulled = np.zeros_like(directions)
        pulled[live] = (_phi_batch(ens, _signal_overlaps(ens, live_eta)) @ live_directions[..., None])[..., 0]
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
    plain_weights: np.ndarray, plain_directions: np.ndarray, factors: np.ndarray, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The over-relaxed candidate of each given start: the plain step's factors s_a raised to omega.

    Weights m_a s_a^omega = m'_a s_a^(omega - 1) on the plain step's
    directions chi'_a, completed by W^(-1/2) with W = sum_a m_a s_a^omega
    chi'_a chi'_a^dagger, and pruned and checked as the plain step is.
    Returns (weights, directions, ok); ``ok`` is False where the candidate
    lost every outcome or completeness.
    """
    factors = np.where(plain_weights > 0.0, factors, 0.0)
    # W^(-1/2) undoes a common scale, so s_a / max_b s_b keeps s_a^omega finite. The exponent is spelled out
    # per entry: numpy takes a row's constant exponent of 0.5 as a square root, with other bits than power's
    ratio = factors / factors.max(axis=1, keepdims=True)
    tilted = plain_weights * ratio ** (omega - 1.0)[:, None].repeat(ratio.shape[1], axis=1)
    weights, directions, _, empty, lost = _completed(tilted, plain_directions, plain_directions)
    return weights, directions, ~(empty | lost)


def _merged(
    weights: np.ndarray, directions: np.ndarray, where: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merge candidate of each start with more than d live outcomes.

    A live outcome's leader is the first live outcome b of its start with
    |<chi_a|chi_b>|^2 > MERGE_OVERLAP; an outcome that leads itself heads a
    group of the outcomes it leads. The group's summed element is replaced
    by its top eigenpair on the head's row, its other outcomes get weight 0
    and keep their directions, and :func:`_completed` makes the start
    complete again. Returns (weights, directions, merged): a start that
    merged nothing, or whose candidate is not a measurement, is unchanged
    and has ``merged`` False.
    """
    dim = directions.shape[2]
    merged = np.zeros(len(weights), dtype=bool)
    wide = np.flatnonzero(np.count_nonzero(weights, axis=1) > dim)
    if not wide.size:
        return weights, directions, merged
    live = weights[wide] > 0.0
    vectors = directions[wide]
    near = np.abs(vectors.conj() @ vectors.swapaxes(1, 2)) ** 2 > MERGE_OVERLAP
    leader = (near & live[:, :, None] & live[:, None, :]).argmax(axis=2)
    joins = live & (leader != np.arange(live.shape[1])) & (np.take_along_axis(leader, leader, axis=1) == leader)
    some = joins.any(axis=1)
    if not some.any():
        return weights, directions, merged
    at, live, vectors, leader, joins = wide[some], live[some], vectors[some], leader[some], joins[some]

    head = np.zeros_like(joins)
    start, row = np.nonzero(joins)
    head[start, leader[start, row]] = True
    start, row = np.nonzero(head)
    group = live[start] & (leader[start] == row[:, None])
    summed = (vectors[start].swapaxes(1, 2) * (weights[at][start] * group)[:, None, :]) @ vectors[start].conj()
    vals, vecs = np.linalg.eigh(summed)
    new_weights = np.where(joins, 0.0, weights[at])
    new_weights[start, row] = vals[:, -1]
    new_vectors = vectors.copy()
    new_vectors[start, row] = vecs[:, :, -1]
    new_weights, new_vectors, _, empty, lost = _completed(new_weights, new_vectors, vectors, lambda i: where(at[i]))

    ok = ~(empty | lost)
    merged[at[ok]] = True
    weights, directions = weights.copy(), directions.copy()
    weights[at[ok]], directions[at[ok]] = new_weights[ok], new_vectors[ok]
    return weights, directions, merged


class _Batch:
    """The state of a lock-step batch's active starts, one row per start, so that one mask retires a start.

    ``ids`` is each row's start; ``weights``, ``directions``, ``eta`` and
    ``value`` (None before sweep 1) are its kept point; ``omega``,
    ``last_gain`` and ``merging`` steer its next candidate; ``gains`` rings,
    as a list per row, the gain it booked at each of its last MERGE_EVERY
    sweeps (inf before it booked one); ``best`` is its best value.
    ``best_point``, unless None, is the scored point at which every start
    last improved, held by reference until :meth:`write_out`.
    """

    ROWS = "ids", "weights", "directions", "eta", "value", "omega", "last_gain", "merging", "best"

    def __init__(self, weights: np.ndarray, directions: np.ndarray):
        n = len(weights)
        self.ids, self.value = np.arange(n), None
        self.weights, self.directions, self.eta = weights, directions, directions
        self.omega, self.last_gain, self.merging = np.ones(n), np.full(n, math.inf), np.zeros(n, dtype=bool)
        self.gains = [[math.inf] * MERGE_EVERY for _ in range(n)]
        self.best, self.best_point = np.full(n, -math.inf), None

    def keep_rows(self, rows: np.ndarray) -> None:
        for name in self.ROWS:
            setattr(self, name, getattr(self, name)[rows])
        self.gains = [ring for ring, keep in zip(self.gains, rows.tolist()) if keep]

    def trailing(self, best: float, sweep: int, sweeps_left: int) -> list[bool]:
        """Book each row's last gain at ``sweep``; mark the rows that cannot reach ``best`` in ``sweeps_left`` sweeps.

        A row cannot when ``best`` leads its kept value by more than
        RETIRE_MARGIN plus its largest gain of the last MERGE_EVERY sweeps,
        gained again at every sweep left. A row younger than MERGE_EVERY + 1
        sweeps holds an inf gain, so it is never marked. A Python loop, as
        in :func:`_accept`: on a few rows it costs less than the array calls.
        """
        at, marks = sweep % MERGE_EVERY, []
        for ring, gain, value in zip(self.gains, self.last_gain.tolist(), self.value.tolist()):
            ring[at] = gain
            marks.append(best - value > RETIRE_MARGIN + max(ring) * sweeps_left)
        return marks

    def take(self, taken: list[bool], weights, directions, eta, value) -> None:
        """Make the scored point the kept one of every start that takes it."""
        if all(taken):
            self.weights, self.directions, self.eta, self.value = weights, directions, eta, value
            return
        take = np.array(taken)
        self.weights = np.where(take[:, None], weights, self.weights)
        self.directions = np.where(take[:, None, None], directions, self.directions)
        self.eta = np.where(take[:, None, None], eta, self.eta)
        self.value = np.where(take, value, self.value)

    def hold_best(self, runs: _Runs, point: tuple[np.ndarray, np.ndarray, np.ndarray], value: np.ndarray) -> None:
        """Hold ``point`` if it beats every start's best; else write out the held point and the rows that do."""
        better = value > self.best
        if better.all():
            self.best, self.best_point = value, point
        elif better.any():
            self.write_out(runs)
            _write(runs, self.ids[better], point, better)
            self.best = np.where(better, value, self.best)

    def write_out(self, runs: _Runs) -> None:
        """Copy the held best point into the strategy arrays of ``runs``, and hold none."""
        if self.best_point is not None:
            _write(runs, self.ids, self.best_point, slice(None))
            self.best_point = None


def _write(runs: _Runs, ids: np.ndarray, point: tuple[np.ndarray, np.ndarray, np.ndarray], rows) -> None:
    """Copy the ``rows`` of a point (weights, directions, eta) into the strategy arrays of starts ``ids``."""
    weights, directions, eta = point
    width = weights.shape[1]
    runs.weights[ids] = 0.0
    runs.weights[ids, :width] = weights[rows]
    runs.directions[ids, :width] = directions[rows]
    runs.eta[ids, :width] = eta[rows]


def _score(ens: SignalEnsemble, weights: np.ndarray, directions: np.ndarray, batch: _Batch):
    """Score phase: Phi(chi_a) of each live outcome, its top eigenpair, and each start's value.

    The top eigenvector of d * Phi(chi_a) is the best resend direction eta_a, and the value is
    sum_a m_a lambda_max. Returns (value, eta, rows). At d >= GATHER_MIN_DIM only live rows are
    solved, a dead row keeps its kept resend direction, and ``rows`` is the live-row gather (mask,
    directions, eta) for the plain step; otherwise None. At sweep 1 a row's guess is its own
    direction, exact on a 2-design and far off on a random start (see linalg.batched_top_eig);
    from sweep 2 on every row goes to eigh, since the kept resend direction is seldom close
    enough to be certified.
    """
    guess = directions if batch.value is None else None
    live = weights > 0.0
    if ens.dim < GATHER_MIN_DIM or live.all():
        lam, eta = linalg.batched_top_eig(_phi_batch(ens, _signal_overlaps(ens, directions)), guess)
        return np.einsum("sa,sa->s", weights, lam), eta, None
    gathered = directions[live]
    phi = _phi_batch(ens, _signal_overlaps(ens, gathered))
    top, top_eta = linalg.batched_top_eig(phi, None if guess is None else gathered)
    lam, eta = np.zeros(weights.shape), batch.eta.copy()
    lam[live], eta[live] = top, top_eta
    # a contiguous copy, as eta[live] is, so that the plain step's matmul does not depend on eigh's strides
    return np.einsum("sa,sa->s", weights, lam), eta, (live, gathered, np.ascontiguousarray(top_eta))


def _accept(batch: _Batch, value: np.ndarray, eps: float, where: Callable[[int], str]):
    """Accept phase: whether each start takes its scored point and is done, as lists (take, done).

    A candidate (omega > 1) or a merge is taken if the fidelity did not fall. A candidate then grows
    omega OMEGA_GROWTH-fold, up to OMEGA_MAX, if it gained at least ``eps``, and resets it to 1
    otherwise; rejected, it books a gain of 0. A rejected merge changes nothing. A plain step is
    always taken, is done below a gain of ``eps``, and raises NonMonotoneError below -MONOTONE_TOL.
    A taken plain step or merge that gains at least SLOW_GAIN_RATIO times the last gain sets omega
    to OMEGA_GROWTH. A Python loop: on a few starts, a third of the array cost.
    """
    omega, last_gain, merging = batch.omega.tolist(), batch.last_gain.tolist(), batch.merging.tolist()
    take, done = [True] * len(omega), [False] * len(omega)
    for i, gain in enumerate((value - batch.value).tolist()):
        if omega[i] > 1.0:
            take[i] = gain >= 0.0
            grows = take[i] and gain >= eps
            omega[i] = min(OMEGA_GROWTH * omega[i], OMEGA_MAX) if grows else 1.0
            last_gain[i] = gain if take[i] else 0.0
            continue
        if merging[i]:
            take[i] = gain >= 0.0
            if not take[i]:
                continue
        elif gain < -MONOTONE_TOL:
            raise NonMonotoneError(
                f"fidelity fell from {float(batch.value[i])!r} to {float(value[i])!r} ({where(i)})"
            )
        else:
            done[i] = gain < eps
        if gain >= SLOW_GAIN_RATIO * last_gain[i]:
            omega[i] = min(OMEGA_GROWTH, OMEGA_MAX)
        last_gain[i] = gain
    batch.omega, batch.last_gain = np.array(omega), np.array(last_gain)
    return take, done


def _step(ens: SignalEnsemble, batch: _Batch, sweep: int, where: Callable[[int], str], rows):
    """Step phase: the next point of each active start from its kept point, as (weights, directions).

    The plain step of :func:`_plain_step`, or for a start with omega > 1 a candidate: a basis (d
    outcomes, each of weight 1 under any tilt) stretches its change of direction by omega, any other
    start takes the weights of :func:`_over_relaxed`. A candidate that is not a measurement gives way
    to the plain step, unscored, and resets omega. ``rows`` is the score's live-row gather when it is
    the kept point's. Every MERGE_EVERY sweeps, :func:`_merged` follows and the outcome axis is
    compacted: each start keeps, in order, its rows live at its kept or next point.
    A held best point keeps its own, older width.
    """
    dim, omega = ens.dim, batch.omega
    relaxed = omega > 1.0
    bases = stretch = None
    if relaxed.any():
        bases = relaxed & (np.count_nonzero(batch.weights, axis=1) == dim)
        relaxed &= ~bases
        stretch = np.where(bases, omega, 1.0) if bases.any() else None
    weights, directions, factors, fell = _plain_step(
        ens, batch.weights, batch.directions, batch.eta, where, stretch, rows
    )
    if bases is not None:
        # the other relaxed starts take a weight candidate, unless their plain step pruned them to a basis
        relaxed &= np.count_nonzero(weights, axis=1) > dim
        if relaxed.any():
            # built for those rows alone: a row's eigh, matmuls, row max and powers have the same bits in any stack
            at = slice(None) if relaxed.all() else relaxed.nonzero()[0]
            candidate_weights, candidate_directions, ok = _over_relaxed(
                weights[at], directions[at], factors[at], omega[at]
            )
            relaxed[at] = ok
            if relaxed.all():
                weights, directions = candidate_weights, candidate_directions
            else:
                weights[relaxed], directions[relaxed] = candidate_weights[ok], candidate_directions[ok]
        relaxed |= bases
        relaxed[fell] = False
        batch.omega = np.where(relaxed, omega, 1.0)
    if sweep % MERGE_EVERY:
        batch.merging = np.zeros(len(weights), dtype=bool)
        return weights, directions
    weights, directions, batch.merging = _merged(weights, directions, where)
    used = (weights > 0.0) | (batch.weights > 0.0)
    width = int(np.count_nonzero(used, axis=1).max())
    if width < weights.shape[1]:
        order = np.argsort(~used, axis=1, kind="stable")[:, :width]
        weights, batch.weights = (np.take_along_axis(a, order, axis=1) for a in (weights, batch.weights))
        directions, batch.directions, batch.eta = (
            np.take_along_axis(a, order[..., None], axis=1) for a in (directions, batch.directions, batch.eta)
        )
    return weights, directions


def _retire(batch: _Batch, runs: _Runs, rows: np.ndarray | slice, sweep: int, stops: list[str]) -> None:
    """Retire phase: write out the held best point, and book the sweeps, best value and stop reason of ``rows``."""
    batch.write_out(runs)
    at = batch.ids[rows]
    runs.sweeps[at] = sweep
    runs.fidelity[at] = batch.best[rows]
    runs.stops[at] = stops


def _see_saw_batch(
    ens: SignalEnsemble, weights: np.ndarray, directions: np.ndarray, config: OptimizerConfig, upper: float = math.inf
) -> _Runs:
    """Monotone alternating maximization of the average fidelity from B starts at once, in lock step.

    The active starts share one :class:`_Batch` record, and each sweep runs four phases on it: score
    (:func:`_score`) values each start's point under its best reconstruction, accept
    (:func:`_accept`) takes or rejects it, retire (:func:`_retire`) writes out the starts that
    stopped, and step (:func:`_step`) moves the others on. A start stops when a plain step gains
    less than ``convergence_eps``, after ``max_iters`` sweeps, or when :meth:`_Batch.trailing` finds
    that it cannot catch up with the best value of any start. Every sweep counts, rejected
    candidates included. Its trace holds the accepted fidelity after each sweep. The whole batch
    stops after the first sweep whose best value is within GAP_TOL of ``upper``, a cap on every
    strategy. A start's best point is copied out only when it retires, the batch stops, or a sweep
    improves some starts but not all.

    ``weights`` is (B, K) and ``directions`` (B, K, d). An outcome of weight 0 is padding, pruned or
    merged away: it adds nothing to the fidelity, the update operator or completeness, and keeps its
    last direction and resend direction, so that no 0/0 enters Phi. Every operation acts on each
    start's rows alone, so each start follows the trajectory it would follow on its own, up to the
    last bits of the gathered Phi build (one matmul over the live rows of all active starts), and
    stops where it would alone unless it is retired or the batch meets its cap. Every check is made
    per start, and its error names the start and the sweep.
    """
    n_starts = weights.shape[0]
    batch = _Batch(weights, directions)
    strategy = weights.copy(), directions.copy(), np.empty_like(directions)
    runs = _Runs(np.full(n_starts, -math.inf), np.zeros(n_starts, dtype=int), *strategy, np.empty(n_starts, object), [])
    history: list[tuple[np.ndarray, np.ndarray]] = []
    retired = -math.inf

    def where(i: int) -> str:
        return f"start {batch.ids[i]}, sweep {sweep}"

    for sweep in range(1, config.max_iters + 1):
        value, eta, rows = _score(ens, weights, directions, batch)
        # the starting point is taken as it is
        take, done = [True] * len(value), [False] * len(value)
        if batch.value is not None:
            take, done = _accept(batch, value, config.convergence_eps, where)
        batch.hold_best(runs, (weights, directions, eta), value)
        batch.take(take, weights, directions, eta, value)
        history.append((batch.ids, batch.value))
        # a best value is never NaN, so this compares the best of all starts with the cap
        best = max(batch.best.max(), retired)
        capped = best >= upper - GAP_TOL
        if capped or sweep == config.max_iters:
            stop = "cap" if capped else "max_iters"
            _retire(batch, runs, slice(None), sweep, ["converged" if d else stop for d in done])
            break
        trailing = batch.trailing(best, sweep, config.max_iters - sweep)
        if any(done) or any(trailing):
            leaving = np.logical_or(done, trailing)
            stops = ["converged" if d else "retired" for d, t in zip(done, trailing) if d or t]
            _retire(batch, runs, leaving, sweep, stops)
            batch.keep_rows(~leaving)
            if not len(batch.ids):
                break
            retired = runs.fidelity.max()
            rows = None
        # the score's live-row gather is the kept point's while every active start took its scored point
        weights, directions = _step(ens, batch, sweep, where, rows if all(take) else None)

    trace = np.full((len(history), n_starts), np.nan)
    for row, (active, values) in zip(trace, history):
        row[active] = values
    runs.traces.extend(trace[: runs.sweeps[s], s].copy() for s in range(n_starts))
    return runs


def _search(
    ens: SignalEnsemble, weights: np.ndarray, directions: np.ndarray, config: OptimizerConfig, upper: float = math.inf
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
    return FidelitySearch(
        fidelity=float(runs.fidelity[best]),
        povm=Povm(ens.dim, runs.weights[best][kept], linalg.fix_phases(runs.directions[best][kept])),
        reconstruction=ReconstructionMap(linalg.fix_phases(runs.eta[best][kept])),
        restart_trace=tuple(float(f) for f in runs.fidelity),
        iterations=int(np.sum(runs.sweeps)),
        start_sweeps=tuple(int(n) for n in runs.sweeps),
        best_start=best,
        traces=tuple(runs.traces),
        fidelity_upper=upper,
        start_stops=tuple(runs.stops.tolist()),
    )


def see_saw(ens: SignalEnsemble, initial: Povm, config: OptimizerConfig | None = None) -> FidelitySearch:
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


def _random_starts(dim: int, n_outcomes: int, seed: int, restarts: int) -> tuple[np.ndarray, np.ndarray]:
    """The random starts of a search, read-only: :func:`random_povm` on the generators seeded (seed, r), r < restarts.

    They depend on nothing else, so a configuration whose (R, K) weights and (R, K, d) directions take
    at most START_HELD_BYTES is built and checked once and held; least recently used first, all but
    START_HELD_COUNT held configurations are dropped. A build that raises holds nothing.
    """
    if restarts * n_outcomes * (1 + 2 * dim) * np.dtype(float).itemsize > START_HELD_BYTES:
        return _built_starts(dim, n_outcomes, seed, restarts)
    return _held_starts(dim, n_outcomes, seed, restarts)


def _built_starts(dim: int, n_outcomes: int, seed: int, restarts: int) -> tuple[np.ndarray, np.ndarray]:
    starts = random_povm(dim, n_outcomes, [np.random.default_rng((seed, restart)) for restart in range(restarts)])
    for array in starts:
        array.setflags(write=False)
    return starts


_held_starts = functools.lru_cache(maxsize=START_HELD_COUNT)(_built_starts)


def _starts(ens: SignalEnsemble, config: OptimizerConfig, n_outcomes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (N + R, K) weights and (N + R, K, d) directions of a search: projective starts padded to K, then random."""
    dim, n_bases = ens.dim, ens.n_bases
    weights = np.zeros((n_bases + config.restarts, n_outcomes))
    directions = np.empty((n_bases + config.restarts, n_outcomes, dim), dtype=complex)
    weights[:n_bases, :dim] = 1.0
    directions[:n_bases, :dim] = ens.vectors
    directions[:n_bases, dim:] = ens.vectors[:, :1]
    weights[n_bases:], directions[n_bases:] = _random_starts(dim, n_outcomes, config.seed, config.restarts)
    return weights, directions


def _price(ens: SignalEnsemble, search: FidelitySearch) -> float:
    """The largest reduced cost found at the dual point of a search's strategy; a search, not a bound.

    Write W = (1/Nd) sum_k P_k (x) P_k, so that <chi (x) eta|W|chi (x) eta> =
    chi^dagger Phi(eta) chi. The reported strategy gives the dual point Y =
    herm(sum_a m_a Phi(eta_a) chi_a chi_a^dagger), whose trace is F. An
    outcome (chi, eta) with <chi (x) eta|W - Y (x) I|chi (x) eta> > 0 would
    raise F if the strategy could take it on: that is the reduced cost of
    column generation over the semi-infinite LP (Hettich and Kortanek, SIAM
    Rev. 35, 380, 1993). It is sought from the N d signal states (v_k, v_k)
    and the reported outcomes (chi_a, eta_a) by two rounds of alternating
    top eigenvectors, chi <- top of Phi(eta) - Y, then eta <- top of
    Phi(chi); the largest value at the pairs they end at is returned.
    """
    chi, eta = search.povm.directions, search.reconstruction.directions
    pulled = (_phi_batch(ens, _signal_overlaps(ens, eta)) @ chi[..., None])[..., 0]
    half = (pulled.T * search.povm.weights) @ chi.conj()
    dual = (half + half.conj().T) / 2
    resend = np.concatenate([ens.kets, eta])
    for _ in range(2):
        _, measured = linalg.batched_top_eig(_phi_batch(ens, _signal_overlaps(ens, resend)) - dual)
        _, resend = linalg.batched_top_eig(_phi_batch(ens, _signal_overlaps(ens, measured)))
    scored = np.sum(_signal_overlaps(ens, measured) * _signal_overlaps(ens, resend), axis=1) / ens.n_states
    return float(np.max(scored - np.einsum("si,ij,sj->s", measured.conj(), dual, measured).real))


def optimal_fidelity(ens: SignalEnsemble, config: OptimizerConfig | None = None) -> FidelitySearch:
    """Best intercept-resend fidelity found over all see-saw starts.

    Starts from each of the N projective eigenbasis measurements, which
    guarantees the (N + d - 1)/(N d) floor, then from ``config.restarts``
    random POVMs with ``config.n_outcomes(d)`` outcomes, held from an
    earlier search of the same configuration if there was one
    (:func:`_random_starts`). All starts are copied into one lock-step
    batch; the projective ones are padded to that outcome count with
    weight-0 outcomes. The batch stops once its best start is within
    GAP_TOL of :func:`collision_cap`, or of :func:`spectral_cap` where that
    is lower, which the result carries as ``fidelity_upper``. The spectral
    cap is computed only where the projective starts do not attain the
    collision-sum cap, since no bound is lower than what they attain.
    The reported value is a lower bound on the true supremum; ties within
    TIE_TOL resolve to the earliest start.

    With ``config.outcomes`` None and d > 4, the random starts carry 4d
    outcomes, fewer than d^2. Unless the batch met its bound, the reported
    strategy is then priced (:func:`_price`), and where the largest reduced
    cost found exceeds PRICE_TOL the whole search is rerun with d^2
    outcomes, the search of ``outcomes=d^2``, and that run alone is
    returned: its ``iterations`` and per-start record do not count the
    narrow run.
    """
    config = config or OptimizerConfig()
    dim = ens.dim
    check_kernel_size(config, dim, ens.n_bases)
    n_outcomes = config.n_outcomes(dim)
    weights, directions = _starts(ens, config, n_outcomes)

    upper, attained = collision_cap(ens)
    if not attained:
        upper = min(upper, spectral_cap(ens))
    search = _search(ens, weights, directions, config, upper)
    narrow = config.outcomes is None and n_outcomes < dim * dim
    if narrow and max(search.restart_trace) < upper - GAP_TOL and _price(ens, search) > PRICE_TOL:
        search = _search(ens, *_starts(ens, config, dim * dim), config, upper)
    return search


def incompatibility(obs: ObservableSet, config: OptimizerConfig | None = None) -> IncompatibilityReport:
    """Incompatibility of an observable set, with bound certificates.

    Reduces the set to a minimal noncommuting subset, builds its signal
    ensemble, maximizes the intercept-resend fidelity, and checks the
    result against every applicable closed-form bound and its upper bound.
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
        raise BoundViolationError(f"fidelity {search.fidelity!r} above its upper bound {upper!r} {context}")
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
        start_stops=search.start_stops,
        minimal_subset_labels=subset.labels,
        search_status="certified-within-gap" if gap <= GAP_TOL else "best-found-lower-bound",
    )
