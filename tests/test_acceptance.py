"""Acceptance suite: every release criterion pinned at its stated tolerance.

Each test prints one PASS line once its criterion holds, so a verbose run
reads as a checklist. Tolerances are fixed here, not configurable.
"""

import json

import numpy as np
import pytest

from qincompat import (
    Eigenbasis,
    ObservableSet,
    OptimizerConfig,
    Verdict,
    entropic_failure_demo,
    incompatibility,
    mub_bases,
    shared_eigenvector_pair,
)
from qincompat.cli import main
from qincompat.documents import basis_document
from qincompat.fidelity import (
    achievable_fidelity,
    achievable_fidelity_overlap_form,
    average_fidelity,
    ensemble_map,
    optimal_reconstruction,
    projective_povm,
    projective_strategy_fidelity,
    random_povm,
)
from qincompat.linalg import random_unit_vector
from qincompat.observables import commutes, minimal_noncommuting_subset, signal_ensemble
from qincompat.optimizer import collision_probability_sum
from conftest import (
    qubit_fidelity_optimum,
    random_basis,
    random_density,
    random_ensemble,
    rotated_qubit_basis,
)

DEFAULT = OptimizerConfig(seed=0)

MUB_CASES = [
    (2, 2, 0.25),
    (2, 3, 1.0 / 3.0),
    (3, 2, 1.0 / 3.0),
    (3, 4, 0.5),
    (5, 6, 2.0 / 3.0),
]


@pytest.fixture(scope="module")
def mub_reports():
    return {(d, n): incompatibility(mub_bases(d, n), DEFAULT) for d, n, _ in MUB_CASES}


def relabeled(basis: Eigenbasis, order, label: str) -> Eigenbasis:
    return Eigenbasis(basis.vectors[list(order)].copy(), label=label)


def commuting_corpus() -> list[ObservableSet]:
    z = Eigenbasis(np.eye(2, dtype=complex), label="Z")
    c3 = Eigenbasis(np.eye(3, dtype=complex), label="C3")
    c5 = Eigenbasis(np.eye(5, dtype=complex), label="C5")
    r4 = random_basis(4, np.random.default_rng(100), "R4")
    return [
        ObservableSet((z, relabeled(z, (1, 0), "Z-sw"))),
        ObservableSet((c3, relabeled(c3, (1, 2, 0), "C3-perm"))),
        ObservableSet((r4, relabeled(r4, (2, 0, 3, 1), "R4-perm"))),
        ObservableSet((c5, relabeled(c5, (4, 3, 2, 1, 0), "C5-rev"))),
        ObservableSet((random_basis(3, np.random.default_rng(101), "single"),)),
    ]


def noncommuting_corpus() -> list[ObservableSet]:
    rng42 = np.random.default_rng(42)
    rng11 = np.random.default_rng(11)
    z = Eigenbasis(np.eye(2, dtype=complex), label="Z")
    return [
        mub_bases(2, 2),
        mub_bases(2, 3),
        ObservableSet((z, rotated_qubit_basis(0.3, "rot-0.3"))),
        mub_bases(3, 2),
        mub_bases(3, 4),
        ObservableSet(shared_eigenvector_pair(3)),
        ObservableSet(shared_eigenvector_pair(4)),
        mub_bases(5, 2),
        ObservableSet(tuple(random_basis(2, rng42, f"q{i}") for i in range(4))),
        ObservableSet(tuple(random_basis(3, rng11, f"t{i}") for i in range(2))),
    ]


@pytest.fixture(scope="module")
def noncommuting_reports():
    return [(obs, incompatibility(obs, DEFAULT)) for obs in noncommuting_corpus()]


def test_mub_incompatibility_closed_form(mub_reports):
    # exact value (1 - 1/N)(1 - 1/d) for N <= d + 1 unbiased bases
    for dim, count, expected in MUB_CASES:
        got = mub_reports[(dim, count)].incompatibility
        assert abs(got - expected) <= 1e-6, (dim, count, got)
    print("PASS: unbiased-bases incompatibility matches the closed form to 1e-6")


def test_mub_fidelity_and_projective_baseline(mub_reports):
    for dim, count, _ in MUB_CASES:
        target = (count + dim - 1.0) / (count * dim)
        assert abs(mub_reports[(dim, count)].optimal_fidelity - target) <= 1e-6
        ens = signal_ensemble(mub_bases(dim, count))
        for k in range(count):
            assert abs(projective_strategy_fidelity(ens, k) - target) <= 1e-12
        baseline = achievable_fidelity(ens, projective_povm(mub_bases(dim, count).members[0]))
        assert abs(baseline - target) <= 1e-12
    print("PASS: optimal fidelity matches (N+d-1)/(Nd) to 1e-6; projective baseline attains it to 1e-12")


def test_commuting_noncommuting_dichotomy(noncommuting_reports):
    commuting = commuting_corpus()
    assert len(commuting) == 5
    for obs in commuting:
        report = incompatibility(obs, DEFAULT)
        assert report.incompatibility <= 1e-8, obs.labels

    assert len(noncommuting_reports) == 10
    for obs, report in noncommuting_reports:
        assert report.incompatibility >= 1e-3, obs.labels
        subset = minimal_noncommuting_subset(obs)
        for i, a in enumerate(subset.members):
            for b in subset.members[i + 1 :]:
                assert commutes(a, b).commutator_norm >= 0.1
    print("PASS: 5 commuting sets give q <= 1e-8 and 10 noncommuting sets give q >= 1e-3")


def test_bound_certificates_on_random_sets():
    rng = np.random.default_rng(7)
    dims, counts = [2, 3, 4], [2, 3]
    for index in range(50):
        dim = dims[index % 3]
        count = counts[(index // 3) % 2]
        obs = ObservableSet(
            tuple(random_basis(dim, rng, f"s{index}-{i}") for i in range(count))
        )
        report = incompatibility(obs, OptimizerConfig(seed=index))
        n, d = report.n_observables, report.dim
        assert report.optimal_fidelity >= (n + d - 1.0) / (n * d) - 1e-9
        if n <= d + 1:
            assert report.incompatibility <= report.q_upper_small_n + 1e-9
        assert report.incompatibility <= report.q_upper_large_n + 1e-9
    print("PASS: 50 random observable sets satisfy every closed-form certificate")


def test_achievable_fidelity_route_consistency():
    rng = np.random.default_rng(13)
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        count = int(rng.integers(1, 4))
        ens = random_ensemble(dim, count, rng)
        povm = random_povm(dim, int(rng.integers(dim, dim * dim + 1)), rng)
        eig_form = achievable_fidelity(ens, povm)
        assert abs(eig_form - achievable_fidelity_overlap_form(ens, povm)) <= 1e-10
        explicit = average_fidelity(ens, povm, optimal_reconstruction(ens, povm))
        assert abs(eig_form - explicit) <= 1e-10
    print("PASS: 200 random measurement evaluations agree across all three routes to 1e-10")


def test_collision_sum_cap_monte_carlo():
    rng = np.random.default_rng(17)
    samples = 100_000
    for dim in (2, 3, 5):
        for count in range(1, dim + 2):
            bases = mub_bases(dim, count)
            stacked = np.concatenate([b.vectors for b in bases.members])
            cap = (count + dim - 1.0) / dim

            z = rng.standard_normal((dim, samples)) + 1j * rng.standard_normal((dim, samples))
            states = z / np.linalg.norm(z, axis=0)
            sums = np.sum(np.abs(stacked.conj() @ states) ** 4, axis=0)
            assert int(np.sum(sums > cap + 1e-10)) == 0, (dim, count)
            if dim == 2 and count == 3:
                assert float(np.max(np.abs(sums - 2.0))) <= 1e-10

            # the library op matches the vectorized bulk formula
            for column in range(0, samples, samples // 10):
                total, reported_cap, holds = collision_probability_sum(states[:, column], bases)
                assert holds and reported_cap == cap
                assert abs(total - float(sums[column])) <= 1e-12

            for vector in stacked:
                total, _, _ = collision_probability_sum(vector, bases)
                assert abs(total - cap) <= 1e-12
    print("PASS: 1e5 Haar states per unbiased set never exceed the collision cap; basis vectors saturate it")


def test_entropic_failure_demonstration():
    for dim in (3, 4):
        report = entropic_failure_demo(dim, DEFAULT)
        assert report.entropy_bound <= 1e-12
        assert report.entropy_sum_at_witness <= 1e-12
        assert report.incompatibility >= 1e-3
        assert report.verdict is Verdict.BOUND_VACUOUS_BUT_INCOMPATIBLE
    print("PASS: shared-eigenvector pairs give a vacuous entropy bound yet q >= 1e-3")


def test_qubit_oracle_agreement(mub_reports, noncommuting_reports):
    # the oracle is the exact qubit optimum 1/2 + lambda_max(K)/(2 n_states)
    checked = 0
    pool = [(mub_bases(2, n), mub_reports[(2, n)]) for n in (2, 3)]
    pool += [(obs, report) for obs, report in noncommuting_reports if obs.dim == 2]
    for obs, report in pool:
        ens = signal_ensemble(minimal_noncommuting_subset(obs))
        assert abs(report.optimal_fidelity - qubit_fidelity_optimum(ens)) <= 1e-9, obs.labels
        checked += 1
    for obs in commuting_corpus():
        if obs.dim != 2:
            continue
        ens = signal_ensemble(minimal_noncommuting_subset(obs))
        report = incompatibility(obs, DEFAULT)
        assert abs(report.optimal_fidelity - qubit_fidelity_optimum(ens)) <= 1e-9
        checked += 1
    assert checked >= 5
    print(f"PASS: see-saw fidelity matches the exact qubit optimum to 1e-9 on {checked} qubit ensembles")


def test_ensemble_map_contracts():
    rng = np.random.default_rng(23)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(1, 4))
        ens = random_ensemble(dim, count, rng)

        rho = random_density(dim, rng)
        out = ensemble_map(ens, rho)
        assert abs(np.trace(out).real - 1.0 / dim) <= 1e-10

        chi = random_unit_vector(dim, rng)
        scaled = dim * ensemble_map(ens, np.outer(chi, chi.conj()))
        assert float(np.min(np.linalg.eigvalsh(scaled))) >= -1e-10
        assert abs(np.trace(scaled).real - 1.0) <= 1e-10
    print("PASS: 100 random map evaluations keep trace 1/d and positivity")


def test_cli_determinism(tmp_path, capsys):
    path = tmp_path / "zx.json"
    path.write_text(json.dumps(basis_document(mub_bases(2, 2))))
    docs = []
    for _ in range(2):
        code = main(["measure", str(path), "--seed", "5", "--restarts", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("wall_time_s")
        docs.append(doc)
    assert docs[0] == docs[1]
    print("PASS: repeated CLI runs with one seed emit identical reports")
