"""Randomized self-verification suites behind the ``verify`` CLI command.

Each suite re-checks one family of identities or bounds on seeded random
inputs and reports check/failure counts. They are deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .entropic import shared_eigenvector_pair
from .errors import BoundViolationError, DegenerateSpectrumError
from .fidelity import (
    Povm,
    achievable_fidelity,
    average_fidelity,
    ensemble_map,
    optimal_reconstruction,
    random_povm,
)
from .observables import (
    Eigenbasis,
    ObservableSet,
    SignalEnsemble,
    eigenbasis_of,
    mub_bases,
    signal_ensemble,
)
from .optimizer import OptimizerConfig, incompatibility
from .tolerances import BOUND_SLACK


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def random_eigenbasis(dim: int, rng: np.random.Generator, label: str = "") -> Eigenbasis:
    """Eigenbasis of a random nondegenerate Hermitian observable."""
    for _ in range(64):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        try:
            return eigenbasis_of((z + z.conj().T) / 2, label=label)
        except DegenerateSpectrumError:
            continue
    raise DegenerateSpectrumError("could not draw a nondegenerate observable")


def random_observable_set(dim: int, count: int, rng: np.random.Generator) -> ObservableSet:
    return ObservableSet(
        tuple(random_eigenbasis(dim, rng, label=f"random-{i}") for i in range(count))
    )


def _random_ensemble(dim: int, count: int, rng: np.random.Generator) -> SignalEnsemble:
    return signal_ensemble(random_observable_set(dim, count, rng))


def collision_sum_suite(samples: int = 2000, seed: int = 0) -> SuiteResult:
    """Collision-probability cap over unbiased bases, sampled on Haar states.

    For every prime dimension in {2, 3, 5} and every basis count up to
    d + 1: no sampled state may exceed the (N + d - 1)/d cap beyond 1e-10;
    each basis vector must saturate it to 1e-12; and for the complete qubit
    set the sum must equal 2 to 1e-10 on every sample.
    """
    rng = np.random.default_rng((seed, 101))
    checks = 0
    failures = 0
    worst = 0.0
    for dim in (2, 3, 5):
        for count in range(1, dim + 2):
            bases = mub_bases(dim, count)
            stacked = np.concatenate([b.vectors for b in bases.members])
            cap = (count + dim - 1.0) / dim

            z = rng.standard_normal((dim, samples)) + 1j * rng.standard_normal((dim, samples))
            states = z / np.linalg.norm(z, axis=0)
            sums = np.sum(np.abs(stacked.conj() @ states) ** 4, axis=0)
            checks += samples
            failures += int(np.sum(sums > cap + 1e-10))
            worst = max(worst, float(np.max(sums - cap)))
            if dim == 2 and count == 3:
                checks += samples
                failures += int(np.sum(np.abs(sums - 2.0) > 1e-10))

            for vec in stacked:
                sums_vec = float(np.sum(np.abs(stacked.conj() @ vec) ** 4))
                checks += 1
                failures += int(abs(sums_vec - cap) > 1e-12)
    return SuiteResult("collision-sum", checks, failures, f"worst slack {worst:.3e}")


def fidelity_consistency_suite(samples: int = 200, seed: int = 0) -> SuiteResult:
    """The eigenvalue form and the explicit strategy must agree to 1e-10 on the achievable fidelity."""
    rng = np.random.default_rng((seed, 202))
    failures = 0
    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 4))
        count = int(rng.integers(2, 4))
        ens = _random_ensemble(dim, count, rng)
        weights, directions = random_povm(dim, int(rng.integers(dim, dim * dim + 1)), [rng])
        povm = Povm(dim, weights[0], directions[0])

        eig_form = achievable_fidelity(ens, povm)
        explicit = average_fidelity(ens, povm, optimal_reconstruction(ens, povm))
        gap = abs(eig_form - explicit)
        worst = max(worst, gap)
        failures += int(gap > 1e-10)
    return SuiteResult("fidelity-consistency", samples, failures, f"worst gap {worst:.3e}")


def map_contract_suite(samples: int = 100, seed: int = 0) -> SuiteResult:
    """Trace and positivity contracts of the ensemble-averaged map."""
    rng = np.random.default_rng((seed, 303))
    checks = 0
    failures = 0
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(1, 4))
        ens = _random_ensemble(dim, count, rng)

        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        out = ensemble_map(ens, rho)
        checks += 1
        failures += int(abs(np.trace(out).real - 1.0 / dim) > 1e-10)

        chi = linalg.random_unit_vector(dim, rng)
        scaled = dim * ensemble_map(ens, np.outer(chi, chi.conj()))
        spectrum = np.linalg.eigvalsh(scaled)
        checks += 2
        failures += int(spectrum[0] < -1e-10)
        failures += int(abs(np.trace(scaled).real - 1.0) > 1e-10)
    return SuiteResult("map-contracts", checks, failures)


def bound_certificate_suite(samples: int = 8, seed: int = 0) -> SuiteResult:
    """Run the full measure on random sets and three exactly capped sets; every certificate must hold.

    Certificates are enforced inside :func:`incompatibility` itself, so a
    BoundViolationError escaping on some input counts as a failure, and so
    does a fidelity above the report's upper bound ``fidelity_upper`` (the
    collision-sum cap, or the spectral cap where it is lower). Three sets,
    each under a random global unitary, must also come back
    ``certified-within-gap``, since the collision-sum cap is exact on them:
    the complete set of d + 1 unbiased bases (d drawn from 2, 3 and 5), a
    partial set of 2 to d unbiased bases (d drawn from 3, 5 and 7) and the
    shared-eigenvector pair (d drawn from 3 to 6).
    """
    rng = np.random.default_rng((seed, 404))
    config = OptimizerConfig(restarts=4, seed=seed)
    sets = []
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(2, 4))
        sets.append((random_observable_set(dim, count, rng), ""))
    dim = int(rng.choice([2, 3, 5]))
    sets.append((_turned(mub_bases(dim, dim + 1).members, rng), f"complete unbiased set in d={dim}"))
    dim = int(rng.choice([3, 5, 7]))
    count = int(rng.integers(2, dim + 1))
    sets.append((_turned(mub_bases(dim, count).members, rng), f"{count} unbiased bases in d={dim}"))
    dim = int(rng.integers(3, 7))
    sets.append((_turned(shared_eigenvector_pair(dim), rng), f"shared-eigenvector pair in d={dim}"))

    checks = 0
    failures = 0
    detail = ""
    for obs, must_certify in sets:
        checks += 1
        try:
            report = incompatibility(obs, config)
        except BoundViolationError as exc:
            failures += 1
            detail = str(exc)
            continue
        if not 0.0 <= report.incompatibility <= report.q_upper_large_n + BOUND_SLACK:
            failures += 1
            detail = f"incompatibility {report.incompatibility!r} out of range"
        elif report.optimal_fidelity > report.fidelity_upper + BOUND_SLACK:
            failures += 1
            detail = f"fidelity {report.optimal_fidelity!r} above its upper bound {report.fidelity_upper!r}"
        elif must_certify and report.search_status != "certified-within-gap":
            failures += 1
            detail = f"{must_certify} left at {report.search_status}"
    return SuiteResult("bound-certificates", checks, failures, detail)


def _turned(members, rng: np.random.Generator) -> ObservableSet:
    """The bases ``members`` under one random global unitary."""
    turn = random_eigenbasis(members[0].dim, rng).vectors
    return ObservableSet(tuple(Eigenbasis(b.vectors @ turn, label=b.label) for b in members))


ALL_SUITES = {
    "collision-sum": collision_sum_suite,
    "fidelity-consistency": fidelity_consistency_suite,
    "map-contracts": map_contract_suite,
    "bound-certificates": bound_certificate_suite,
}


def run_suites(
    names: list[str] | None = None,
    samples: int | None = None,
    seed: int = 0,
) -> list[SuiteResult]:
    """Run the selected suites (all by default) with a shared seed."""
    if samples is not None and samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    selected = names or list(ALL_SUITES)
    results = []
    for name in selected:
        if name not in ALL_SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(ALL_SUITES)}")
        suite = ALL_SUITES[name]
        results.append(suite(samples, seed) if samples is not None else suite(seed=seed))
    return results
