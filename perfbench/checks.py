"""Independent checks of one incompatibility report, numpy only.

A report is judged from what it claims (the optimal fidelity, the best
POVM and reconstruction, the minimal subset, the per-start record) against
the benchmark's own copy of the input. Where no closed form is known, F is
held against the best value of the benchmark's own see-saw, so that a
search that stops early or drops starts shows. None of these functions
touches the program's fidelity or optimizer code, and none compares against
stored output. Each check returns a list of failure messages; an empty list
means the report passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STRATEGY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-6
# Slack below the benchmark's own see-saw value. On the reference corpora
# the program's F ends at most 2e-9 below it; dropping the random starts
# leaves F 1.3e-6 to 8.1e-3 below it on 26 of the 69 sets without a closed form.
SEARCH_TOL = 1e-6
OWN_SEARCH_STARTS = 6
OWN_SEARCH_SWEEPS = 150
OWN_SEARCH_SEED = 12345


@dataclass
class ReportView:
    """The parts of a report the checks read, as plain numpy arrays."""

    optimal_fidelity: float
    incompatibility: float
    dim: int
    n_observables: int
    labels: list
    weights: np.ndarray
    directions: np.ndarray
    states: np.ndarray
    sweeps: int
    restart_trace: np.ndarray


def view_of_report(report) -> ReportView:
    """View of an ``IncompatibilityReport`` returned by ``incompatibility()``."""
    return ReportView(
        optimal_fidelity=float(report.optimal_fidelity),
        incompatibility=float(report.incompatibility),
        dim=int(report.dim),
        n_observables=int(report.n_observables),
        labels=list(report.minimal_subset_labels),
        weights=np.array(report.best_povm.weights, dtype=float),
        directions=np.array(report.best_povm.directions, dtype=complex),
        states=np.array(report.best_reconstruction.states, dtype=complex),
        sweeps=int(report.iterations_used),
        restart_trace=np.array(report.restart_trace, dtype=float),
    )


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def view_of_document(doc: dict) -> ReportView:
    """View of the JSON report that ``qincompat measure`` writes."""
    return ReportView(
        optimal_fidelity=float(doc["optimal_fidelity"]),
        incompatibility=float(doc["incompatibility"]),
        dim=int(doc["dim"]),
        n_observables=int(doc["n_observables"]),
        labels=list(doc["minimal_subset_labels"]),
        weights=np.asarray(doc["best_povm"]["weights"], dtype=float),
        directions=_complex(doc["best_povm"]["directions"]),
        states=_complex(doc["best_reconstruction"]["states"]),
        sweeps=int(doc["iterations_used"]),
        restart_trace=np.asarray(doc["restart_trace"], dtype=float),
    )


def strategy_fidelity(kets: np.ndarray, weights, directions, states) -> float:
    """(1/S) sum_k sum_a m_a |<chi_a|v_k>|^2 <v_k|sigma_a|v_k> over S signal states."""
    p_outcome = weights[None, :] * np.abs(kets.conj() @ directions.T) ** 2
    p_resend = np.einsum("ki,aij,kj->ka", kets.conj(), states, kets).real
    return float(np.sum(p_outcome * p_resend)) / kets.shape[0]


def fidelity_bracket(kets: np.ndarray, n: int, dim: int) -> tuple[float, float]:
    """((N + d - 1)/(N d), d * lambda_max((1/S) sum_k P_k (x) P_k))."""
    doubled = np.einsum("ki,kj->kij", kets, kets).reshape(kets.shape[0], dim * dim)
    top = float(np.linalg.eigvalsh(doubled.T @ doubled.conj())[-1]) / kets.shape[0]
    return (n + dim - 1.0) / (n * dim), dim * top


def _inv_sqrt(mats: np.ndarray) -> np.ndarray:
    """Batched pseudo-inverse square root of PSD matrices on their support."""
    vals, vecs = np.linalg.eigh(mats)
    keep = vals > 1e-13 * vals[..., -1:]
    inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
    return (vecs * inv[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _see_saw_batch(kets: np.ndarray, weights: np.ndarray, directions: np.ndarray, sweeps: int) -> float:
    """Best F over ``sweeps`` see-saw sweeps of a batch of rank-1 POVMs.

    ``weights`` is (starts, outcomes) and ``directions`` (starts, outcomes,
    d). Each sweep resends the top eigenvector of Phi_a = (1/S) sum_k
    |<chi_a|v_k>|^2 P_k for every outcome, scores F = sum_a m_a
    lambda_max(Phi_a), then moves the POVM to L^(-1/2) G_a M_a G_a L^(-1/2)
    with G_a = Phi(sigma_a). Every score is attained by an explicit
    strategy, so the result is a lower bound on the optimum.
    """
    n_states, d = kets.shape
    projectors = np.einsum("ki,kj->kij", kets, kets.conj()).reshape(n_states, d * d) / n_states
    best = -np.inf
    for _ in range(sweeps):
        phi = ((np.abs(directions.conj() @ kets.T) ** 2) @ projectors).reshape(*weights.shape, d, d)
        lam, vecs = np.linalg.eigh(phi)
        best = max(best, float(np.max(np.sum(weights * lam[..., -1], axis=1))))
        gain = ((np.abs(vecs[..., -1].conj() @ kets.T) ** 2) @ projectors).reshape(phi.shape)
        pulled = (gain @ directions[..., None])[..., 0]
        update = (pulled.swapaxes(1, 2) * weights[:, None, :]) @ pulled.conj()
        moved = pulled @ _inv_sqrt(update).swapaxes(1, 2)
        scale = np.linalg.norm(moved, axis=2)
        weights = weights * scale**2
        directions = np.where(scale[..., None] > 0, moved / np.where(scale > 0, scale, 1.0)[..., None], directions)
    return best


def own_search_fidelity(kets: np.ndarray, n: int) -> float:
    """Best F of the benchmark's own see-saw: the N projective starts and random rank-1 POVMs.

    The random starts have d^2 outcomes, Haar directions symmetrized to
    completeness, drawn from a fixed seed of this module's own.
    """
    d = kets.shape[1]
    projective = _see_saw_batch(kets, np.ones((n, d)), kets.reshape(n, d, d), OWN_SEARCH_SWEEPS)
    rng = np.random.default_rng(OWN_SEARCH_SEED)
    shape = (OWN_SEARCH_STARTS, d * d, d)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = z @ _inv_sqrt(z.swapaxes(1, 2) @ z.conj()).swapaxes(1, 2)
    norms = np.linalg.norm(y, axis=2)
    random = _see_saw_batch(kets, norms**2, y / norms[..., None], OWN_SEARCH_SWEEPS)
    return max(projective, random)


def check_subset(case, view: ReportView) -> list[str]:
    """The minimal subset keeps exactly one member of every commuting class."""
    unknown = [label for label in view.labels if label not in case.classes]
    if unknown:
        return [f"minimal subset names unknown members {unknown}"]
    kept = [case.classes[label] for label in view.labels]
    expected = sorted(set(case.classes.values()))
    errors = []
    if sorted(kept) != expected:
        errors.append(f"minimal subset covers classes {sorted(kept)}, expected each of {expected} once")
    if view.n_observables != len(view.labels):
        errors.append(f"n_observables {view.n_observables} but {len(view.labels)} subset labels")
    if view.dim != case.dim:
        errors.append(f"dim {view.dim}, expected {case.dim}")
    return errors


def check_strategy(kets: np.ndarray, view: ReportView) -> list[str]:
    """The reported strategy is a valid POVM and resend map attaining the reported F."""
    d = kets.shape[1]
    w, x, s = view.weights, view.directions, view.states
    if w.ndim != 1 or x.shape != (w.shape[0], d) or s.shape != (w.shape[0], d, d):
        return [f"strategy shapes {w.shape}, {x.shape}, {s.shape} do not fit d={d}"]
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
        return ["strategy holds non-finite numbers"]
    errors = []
    if np.any(w <= 0):
        errors.append("POVM weights must be positive")
    if np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) > STRATEGY_TOL:
        errors.append("POVM directions are not unit vectors")
    completeness = np.linalg.norm(np.einsum("a,ai,aj->ij", w, x, x.conj()) - np.eye(d))
    if completeness > STRATEGY_TOL:
        errors.append(f"POVM misses completeness by {completeness:.3e}")
    if np.max(np.abs(s - s.conj().transpose(0, 2, 1))) > STRATEGY_TOL:
        errors.append("resend states are not Hermitian")
    traces = np.einsum("aii->a", s).real
    if np.max(np.abs(traces - 1.0)) > STRATEGY_TOL:
        errors.append(f"resend state traces off by {np.max(np.abs(traces - 1.0)):.3e}")
    smallest = float(np.min(np.linalg.eigvalsh((s + s.conj().transpose(0, 2, 1)) / 2)))
    if smallest < -STRATEGY_TOL:
        errors.append(f"resend state not PSD, eigenvalue {smallest:.3e}")
    recomputed = strategy_fidelity(kets, w, x, s)
    if abs(recomputed - view.optimal_fidelity) > STRATEGY_TOL:
        errors.append(f"strategy attains {recomputed!r}, report claims {view.optimal_fidelity!r}")
    if abs(view.incompatibility - (1.0 - view.optimal_fidelity)) > 1e-12:
        errors.append("incompatibility is not 1 - optimal_fidelity")
    return errors


def check_bracket(kets: np.ndarray, n: int, fidelity: float) -> list[str]:
    """(N + d - 1)/(N d) <= F <= d * lambda_max((1/S) sum_k P_k (x) P_k)."""
    lower, upper = fidelity_bracket(kets, n, kets.shape[1])
    errors = []
    if fidelity < lower - STRATEGY_TOL:
        errors.append(f"F {fidelity!r} below the projective floor {lower!r}")
    if fidelity > upper + STRATEGY_TOL:
        errors.append(f"F {fidelity!r} above the spectral cap {upper!r}")
    return errors


def check_closed_form(case, fidelity: float) -> list[str]:
    """F matches the case's exact optimum to 1e-6, when it has one."""
    if case.closed_form is None or abs(fidelity - case.closed_form) <= CLOSED_FORM_TOL:
        return []
    return [f"F {fidelity!r} differs from the {case.closed_form_name} closed form {case.closed_form!r}"]


def check_search(view: ReportView, restarts: int, max_iters: int) -> list[str]:
    """The per-start record fits the configuration the set was sent with.

    One start per member of the minimal subset plus ``restarts`` random
    ones, F the best of them, and each start at least one and at most
    ``max_iters`` sweeps.
    """
    starts = len(view.labels) + restarts
    trace = view.restart_trace
    errors = []
    if trace.shape != (starts,):
        errors.append(f"{trace.size} starts recorded, expected {len(view.labels)} projective + {restarts} random")
    elif abs(float(np.max(trace)) - view.optimal_fidelity) > 1e-12:
        errors.append(f"F {view.optimal_fidelity!r} is not the best start, {float(np.max(trace))!r}")
    if not starts <= view.sweeps <= starts * max_iters:
        errors.append(f"{view.sweeps} sweeps over {starts} starts of at most {max_iters}")
    return errors


def check_own_search(fidelity: float, own: float) -> list[str]:
    """F is at least the benchmark's own see-saw value, less SEARCH_TOL."""
    if fidelity >= own - SEARCH_TOL:
        return []
    return [f"F {fidelity!r} falls {own - fidelity:.3e} short of the benchmark's own see-saw, {own!r}"]


def check_report(case, view: ReportView, restarts: int, max_iters: int, own_search=None) -> list[str]:
    """Every check that applies to the case; an empty list means the report passed.

    ``own_search`` maps the subset's kets and size to the benchmark's own
    see-saw value; it is asked only for cases without a closed form.
    """
    errors = check_subset(case, view)
    if errors:
        return errors
    kets = np.concatenate([case.vectors[label] for label in view.labels])
    n = len(view.labels)
    errors = (
        check_strategy(kets, view)
        + check_search(view, restarts, max_iters)
        + check_bracket(kets, n, view.optimal_fidelity)
        + check_closed_form(case, view.optimal_fidelity)
    )
    if case.closed_form is None and own_search is not None:
        errors += check_own_search(view.optimal_fidelity, own_search(kets, n))
    return errors
