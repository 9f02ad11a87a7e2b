"""Tests of the benchmark itself: every workload runs at a tiny size, and
every check rejects a report perturbed past its tolerance.

    python3 -m pytest perfbench
"""

import copy
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from tracer import SELF_LAYERS, Tracer  # noqa: E402

QC = run.load_program()


def _check(case, view):
    return checks.check_report(case, view, run.RESTARTS, run.MAX_ITERS, checks.own_search_fidelity)


@pytest.fixture(scope="module", params=run.WORKLOADS)
def tiny(request, tmp_path_factory):
    workload = run.Workload(QC, request.param, 7, str(tmp_path_factory.mktemp(request.param)), small=True)
    workload.warm_up()
    return workload


def test_workload_runs_and_passes_every_check(tiny):
    rnd = run.run_round(tiny)
    assert rnd.failed == 0
    assert rnd.attempted == len(rnd.latencies) == len(tiny.cases)
    metrics = run.end_to_end([rnd], 0.5)
    assert set(metrics) == {"setup_s", "sets_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_round_accounts_for_wall_time(tiny):
    tracer = Tracer(QC, tiny.config.max_iters)
    untraced = run.run_round(tiny)
    with tracer:
        traced = run.run_round(tiny, tracer)
    assert QC.optimizer.see_saw.__name__ == "see_saw"  # originals restored
    assert traced.failed == 0
    metrics = run.per_layer(tracer, [traced], [untraced])
    layers = sum(metrics[name]["value"] for name in set(SELF_LAYERS.values()))
    assert layers + metrics["trace.remainder_ms"]["value"] == pytest.approx(metrics["trace.set_ms"]["value"])
    assert metrics["trace.remainder_ms"]["value"] >= 0
    assert metrics["linalg.top_eig_calls"]["value"] == metrics["optimizer.sweeps"]["value"]
    assert metrics["optimizer.starts"]["value"] > 0
    assert {s[0] for s in tracer.spans} == set(range(len(tiny.cases)))


def test_failed_sets_are_counted_and_left_out_of_the_timings(tiny, monkeypatch):
    call, check = tiny.call, tiny.check

    def failing_call(index, tracer=None):
        if index == 0:
            raise RuntimeError("no answer")
        return call(index, tracer)

    def failing_check(index, result):
        if index == 1:
            raise KeyError("optimal_fidelity")
        return check(index, result)

    monkeypatch.setattr(tiny, "call", failing_call)
    monkeypatch.setattr(tiny, "check", failing_check)
    rnd = run.run_round(tiny)
    assert (rnd.attempted, rnd.failed, len(rnd.latencies)) == (len(tiny.cases), 2, len(tiny.cases) - 2)
    assert rnd.busy > sum(rnd.latencies)
    assert len(rnd.scaled_latencies) == len(rnd.latencies)
    assert rnd.scaled_busy > sum(rnd.scaled_latencies)


def test_each_call_is_scaled_by_the_probes_around_it():
    nominal = probe.NOMINAL_S
    assert probe.scale_factors([nominal] * 4) == pytest.approx([1.0] * 3)
    # Host at half speed around the middle calls: calls 1 and 4 see two
    # slow gaps of four, whose median is 1.5 nominal; call 2 sees three.
    probes = [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal, nominal, nominal]
    factors = probe.scale_factors(probes)
    assert len(factors) == len(probes) - 1
    assert factors[0] == pytest.approx(1.0)
    assert factors[1] == pytest.approx(1 / 1.5)
    assert factors[2] == pytest.approx(0.5)
    assert factors[4] == pytest.approx(1 / 1.5)
    assert factors[5] == pytest.approx(1.0)


def test_long_calls_take_more_probes_at_the_gap_after_them(monkeypatch):
    calls = []
    monkeypatch.setattr(probe, "probe_s", lambda: calls.append(1) or probe.NOMINAL_S)
    probe.gap_probe_s(0.0)
    assert len(calls) == 1
    probe.gap_probe_s(100.0)
    assert len(calls) == 1 + probe.MAX_PER_GAP


def test_a_report_left_by_an_earlier_round_is_removed_before_the_call(tiny):
    if tiny.name != "cli-mub-duplicates":
        pytest.skip("only the CLI workload writes report files")
    out = tiny.inputs[0][-1]
    tiny.prepare(0)
    tiny.call(0)
    assert os.path.exists(out)
    tiny.prepare(0)
    assert not os.path.exists(out)


def _view(workload, index):
    workload.prepare(index)
    result = workload.call(index)
    errors, view = workload.check(index, result)
    assert errors == []
    return workload.cases[index], view


def _perturbed(view, **changes):
    out = copy.deepcopy(view)
    for key, value in changes.items():
        setattr(out, key, value)
    return out


@pytest.fixture(scope="module")
def reports(tiny):
    return [_view(tiny, i) for i in range(len(tiny.cases))]


def test_unperturbed_reports_pass(reports):
    for case, view in reports:
        assert _check(case, view) == []


def test_fidelity_claim_past_tolerance_is_rejected(reports):
    for case, view in reports:
        f = view.optimal_fidelity - 3e-9
        assert _check(case, _perturbed(view, optimal_fidelity=f, incompatibility=1.0 - f))
        assert _check(case, _perturbed(view, incompatibility=view.incompatibility + 1e-10))


def test_povm_perturbations_are_rejected(reports):
    for case, view in reports:
        a = int(np.argmax(view.weights))
        weights = view.weights.copy()
        weights[a] *= 1.0 + 1e-7
        assert _check(case, _perturbed(view, weights=weights))
        directions = view.directions.copy()
        directions[a] *= 1.0 + 1e-8
        assert _check(case, _perturbed(view, directions=directions))
        flipped = view.weights.copy()
        flipped[a] = -flipped[a]
        assert _check(case, _perturbed(view, weights=flipped))


def test_resend_state_perturbations_are_rejected(reports):
    for case, view in reports:
        d, a = view.dim, int(np.argmax(view.weights))
        states = view.states.copy()
        states[a] = states[a] * (1.0 + 1e-8)
        assert _check(case, _perturbed(view, states=states))
        # unit trace and PSD kept, fidelity lowered: only the recomputation sees it
        mixed = view.states.copy()
        mixed[a] = 0.999 * mixed[a] + 0.001 * np.eye(d) / d
        assert _check(case, _perturbed(view, states=mixed))
        negative = view.states.copy()
        negative[a] = 1.5 * negative[a] - 0.5 * np.eye(d) / d
        assert _check(case, _perturbed(view, states=negative))


def test_bracket_rejects_values_outside_it(reports):
    for case, view in reports:
        kets = np.concatenate([case.vectors[label] for label in view.labels])
        n = len(view.labels)
        lower, upper = checks.fidelity_bracket(kets, n, case.dim)
        assert lower <= view.optimal_fidelity + 1e-9 <= upper + 2e-9
        assert checks.check_bracket(kets, n, lower) == []
        assert checks.check_bracket(kets, n, upper) == []
        assert checks.check_bracket(kets, n, lower - 2e-9)
        assert checks.check_bracket(kets, n, upper + 2e-9)


def test_closed_forms_reject_values_off_by_more_than_tolerance(reports):
    closed = [(case, view) for case, view in reports if case.closed_form is not None]
    assert closed
    for case, view in closed:
        assert checks.check_closed_form(case, case.closed_form + 5e-7) == []
        assert checks.check_closed_form(case, case.closed_form + 2e-6)
        assert checks.check_closed_form(case, case.closed_form - 2e-6)


def test_subset_must_hold_one_member_per_class(reports):
    for case, view in reports:
        dropped = _perturbed(view, labels=view.labels[1:], n_observables=view.n_observables - 1)
        assert _check(case, dropped)
        same_class = [lab for lab in case.classes if case.classes[lab] == case.classes[view.labels[0]]]
        doubled = view.labels + same_class[:1]
        assert _check(case, _perturbed(view, labels=doubled, n_observables=len(doubled)))
        assert _check(case, _perturbed(view, labels=view.labels[:-1] + ["nobody"]))


def test_search_record_must_fit_the_configuration(reports):
    for case, view in reports:
        assert _check(case, _perturbed(view, restart_trace=view.restart_trace[:-1]))
        assert _check(case, _perturbed(view, restart_trace=view.restart_trace - 1e-9))
        assert _check(case, _perturbed(view, sweeps=len(view.restart_trace) - 1))
        assert _check(case, _perturbed(view, sweeps=len(view.restart_trace) * run.MAX_ITERS + 1))


def test_own_search_rejects_values_below_it():
    assert checks.check_own_search(0.7 - 5e-7, 0.7) == []
    assert checks.check_own_search(0.7 + 1e-3, 0.7) == []
    assert checks.check_own_search(0.7 - 2e-6, 0.7)


def test_a_search_cut_short_is_rejected():
    """The program itself, with fewer starts or fewer sweeps, on sets without a closed form."""
    import corpus

    cases = [c for c in corpus.small_d_cases(7, per_cell=1) if c.closed_form is None]
    caught = {"fewer starts": 0, "fewer sweeps": 0}
    for case in cases:
        obs = QC.ObservableSet(tuple(QC.Eigenbasis(vectors=v, label=label) for label, v in case.members))
        for kind, config in (
            ("fewer starts", QC.OptimizerConfig(restarts=run.RESTARTS - 1, seed=run.OPTIMIZER_SEED)),
            ("fewer sweeps", QC.OptimizerConfig(restarts=run.RESTARTS, seed=run.OPTIMIZER_SEED, max_iters=3)),
        ):
            view = checks.view_of_report(QC.incompatibility(obs, config))
            caught[kind] += bool(_check(case, view))
    assert caught == {"fewer starts": len(cases), "fewer sweeps": len(cases)}


def test_closed_forms_agree_with_direct_optimisation():
    """Closed forms against a brute-force scan, a strategy and the spectral cap, no program code."""
    import corpus

    rng = np.random.default_rng(3)
    kets = np.concatenate([corpus.haar_unitary(2, rng) for _ in range(3)])
    # every projective qubit measurement on a grid, each outcome resending its best state
    thetas, phis = np.meshgrid(np.linspace(0, np.pi, 91), np.linspace(0, 2 * np.pi, 180), indexing="ij")
    up = np.stack([np.cos(thetas / 2), np.sin(thetas / 2) * np.exp(1j * phis)], -1).reshape(-1, 2)
    down = np.stack([-np.conj(up[:, 1]), np.conj(up[:, 0])], -1)
    projectors = np.einsum("ki,kj->kij", kets, kets.conj())
    best = 0.0
    for chi in (up, down):
        phi = np.einsum("mk,kij->mij", np.abs(chi.conj() @ kets.T) ** 2, projectors) / len(kets)
        best = best + np.linalg.eigvalsh(phi)[:, -1]
    assert corpus.qubit_fidelity(kets) == pytest.approx(np.max(best), abs=1e-3)
    assert corpus.qubit_fidelity(kets) >= np.max(best) - 1e-12
    for dim in (5, 6, 7):
        # measuring the shared-eigenvector pair in its computational basis attains (d+2)/(2d)
        a = np.eye(dim, dtype=complex)
        j, k = np.meshgrid(np.arange(dim - 1), np.arange(dim - 1), indexing="ij")
        b = np.zeros((dim, dim), dtype=complex)
        b[0, 0] = 1.0
        b[1:, 1:] = np.exp(2j * np.pi * j * k / (dim - 1)) / np.sqrt(dim - 1)
        attained = checks.strategy_fidelity(np.concatenate([a, b]), np.ones(dim), a, np.einsum("ai,aj->aij", a, a))
        assert attained == pytest.approx(corpus.shared_pair_fidelity(dim), abs=1e-12)
    for dim in (2, 3, 5):
        mubs = corpus.mub_vectors(dim)
        full = np.concatenate(mubs)
        lower, upper = checks.fidelity_bracket(full, dim + 1, dim)
        assert lower == pytest.approx(corpus.mub_fidelity(dim + 1, dim))
        assert upper == pytest.approx(corpus.mub_fidelity(dim + 1, dim))
