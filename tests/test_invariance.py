"""Invariances of the measure, property-tested against exact values.

Q depends on a set of bases only through the rank-1 projectors of each
basis, so a global unitary applied to every basis, the order of the bases,
the order and phases of each basis's vectors, and an appended commuting
duplicate must all leave it unchanged. Two families have exact values: N
unbiased bases in prime dimension d, where Q = (1 - 1/N)(1 - 1/d), and
random qubit sets, where Q = 1 - qubit_fidelity_optimum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincompat import Eigenbasis, ObservableSet, OptimizerConfig, incompatibility, mub_bases
from qincompat.observables import signal_ensemble
from conftest import qubit_fidelity_optimum, random_basis

CONFIG = OptimizerConfig(restarts=2, max_iters=300)
MUB_CASES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]
DUPLICATE = "duplicate"
EXAMPLES = settings(max_examples=8, deadline=None, derandomize=True)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def relabeled(basis: Eigenbasis, rng: np.random.Generator, label: str) -> Eigenbasis:
    """The same projectors: vectors in a random order, each with a random phase."""
    phases = np.exp(2j * np.pi * rng.random(basis.dim))
    return Eigenbasis(phases[:, None] * basis.vectors[rng.permutation(basis.dim)], label=label)


def global_unitary(obs: ObservableSet, rng: np.random.Generator) -> ObservableSet:
    u = haar_unitary(obs.dim, rng)
    return ObservableSet(tuple(Eigenbasis(b.vectors @ u.T, label=b.label) for b in obs.members))


def reversed_order(obs: ObservableSet, rng: np.random.Generator) -> ObservableSet:
    return ObservableSet(obs.members[::-1])


def permuted_phased(obs: ObservableSet, rng: np.random.Generator) -> ObservableSet:
    return ObservableSet(tuple(relabeled(b, rng, b.label) for b in obs.members))


def with_duplicate(obs: ObservableSet, rng: np.random.Generator) -> ObservableSet:
    original = obs.members[int(rng.integers(obs.count))]
    return ObservableSet(obs.members + (relabeled(original, rng, DUPLICATE),))


TRANSFORMS = [global_unitary, reversed_order, permuted_phased, with_duplicate]


def check(obs: ObservableSet, exact: float) -> None:
    report = incompatibility(obs, CONFIG)
    assert abs(report.incompatibility - exact) <= 1e-6
    assert DUPLICATE not in report.minimal_subset_labels


@pytest.mark.parametrize("transform", TRANSFORMS)
@EXAMPLES
@given(case=st.sampled_from(MUB_CASES), seed=st.integers(0, 2**32 - 1))
def test_unbiased_sets(transform, case, seed):
    dim, count = case
    obs = transform(mub_bases(dim, count), np.random.default_rng(seed))
    check(obs, (1.0 - 1.0 / count) * (1.0 - 1.0 / dim))


@pytest.mark.parametrize("transform", TRANSFORMS)
@EXAMPLES
@given(count=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_random_qubit_sets(transform, count, seed):
    rng = np.random.default_rng(seed)
    obs = ObservableSet(tuple(random_basis(2, rng, f"q{i}") for i in range(count)))
    exact = 1.0 - qubit_fidelity_optimum(signal_ensemble(obs))
    check(transform(obs, rng), exact)
