"""Benchmark of qincompat through its public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. One caller in one process sends the corpus's sets one
after another (a closed loop), in whole rounds over the corpus until the
program has been busy for ``--seconds``. Every report is checked by
``checks.py``; a set that raises, exits non-zero, leaves no readable report
or fails a check counts as failed, is left out of the throughput and
latency figures, and makes ``correct`` false. Each call's time, and each
set-up's, is scaled by the host's speed around it as a probe measures it
(probe.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for the workloads, metrics and reference figures.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# Fixed before numpy loads: one BLAS thread, at most nproc, and steadier
# than two on the small matrices the see-saw works on.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("seesaw-small-d", "seesaw-large-d", "cli-mub-duplicates")
# One optimizer configuration for every workload, set in full so that a
# change of the program's defaults does not change the work measured.
RESTARTS = 4
OPTIMIZER_SEED = 0
MAX_ITERS = 2000
CONVERGENCE_EPS = 1e-10
SETUP_REPEATS = 15
SETUP_PROBES = 9
WARMUP_CASE = {"seesaw-small-d": "mub-d2-n3", "seesaw-large-d": "shared-d5", "cli-mub-duplicates": None}


def load_program():
    """Import qincompat from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qincompat", "__init__.py")):
        sys.stderr.write(f"error: no qincompat package under {SRC}; run from a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import qincompat
    import qincompat.cli

    if not os.path.abspath(qincompat.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: qincompat was imported from {qincompat.__file__}, not {SRC}\n")
        sys.exit(2)
    return qincompat


class Workload:
    """A corpus plus the call that sends one of its sets to the program."""

    def __init__(self, qc, name: str, seed: int, work_dir: str, small: bool = False):
        import corpus

        self.qc = qc
        self.name = name
        self.config = qc.OptimizerConfig(
            restarts=RESTARTS, seed=OPTIMIZER_SEED, max_iters=MAX_ITERS, convergence_eps=CONVERGENCE_EPS
        )
        self.report_dir = os.path.join(work_dir, "reports")
        if name == "seesaw-small-d":
            self.cases = corpus.small_d_cases(seed, per_cell=1 if small else corpus.SMALL_D_PER_CELL)
        elif name == "seesaw-large-d":
            random_sets = ((6, 2),) if small else corpus.LARGE_D_RANDOM
            shared = (5,) if small else corpus.LARGE_D_SHARED
            self.cases = corpus.large_d_cases(seed, qc.shared_eigenvector_pair, random_sets, shared)
        elif name == "cli-mub-duplicates":
            docs = os.path.join(work_dir, "docs")
            self.cases = corpus.cli_cases(seed, docs, docs_per_dim=1 if small else corpus.CLI_DOCS_PER_DIM)
            os.makedirs(self.report_dir, exist_ok=True)
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.inputs = [self._input(case) for case in self.cases]
        self.own_search: dict[int, float] = {}

    def _input(self, case):
        if case.doc_path is not None:
            out = os.path.join(self.report_dir, os.path.basename(case.doc_path))
            return [
                "measure", case.doc_path, "--restarts", str(RESTARTS), "--seed", str(OPTIMIZER_SEED),
                "--max-iters", str(MAX_ITERS), "--tol", str(CONVERGENCE_EPS), "--out", out,
            ]
        members = tuple(self.qc.Eigenbasis(vectors=v, label=label) for label, v in case.members)
        return self.qc.ObservableSet(members)

    def prepare(self, index: int) -> None:
        """Untimed, before each call: remove the report an earlier round left."""
        if self.name == "cli-mub-duplicates" and os.path.exists(self.inputs[index][-1]):
            os.remove(self.inputs[index][-1])

    def call(self, index: int, tracer=None):
        """Send set ``index`` to the program; returns what the checks read."""
        item = self.inputs[index]
        if self.name == "cli-mub-duplicates":
            main = self.qc.cli.main
            if tracer is not None:
                main = tracer.span("cli.main", main)
            code = main(item)
            if code != 0:
                raise RuntimeError(f"qincompat measure exited {code}")
            return item[-1]
        incompatibility = self.qc.incompatibility
        if tracer is not None:
            incompatibility = tracer.span("optimizer.incompatibility", incompatibility)
        return incompatibility(item, self.config)

    def check(self, index: int, result):
        """Failure messages for the set's result (empty when it passed), and its view.

        The benchmark's own see-saw value of a set is worked out at its first
        check and kept for later rounds: the set does not change between them.
        """
        import checks

        if self.name == "cli-mub-duplicates":
            with open(result, "r", encoding="utf-8") as handle:
                view = checks.view_of_document(json.load(handle))
        else:
            view = checks.view_of_report(result)

        def own_search(kets, n):
            if index not in self.own_search:
                self.own_search[index] = checks.own_search_fidelity(kets, n)
            return self.own_search[index]

        errors = checks.check_report(self.cases[index], view, RESTARTS, MAX_ITERS, own_search)
        return errors, view

    def warm_up(self) -> None:
        wanted = WARMUP_CASE[self.name]
        index = next((i for i, c in enumerate(self.cases) if c.name == wanted), 0)
        self.prepare(index)
        errors, _ = self.check(index, self.call(index))
        if errors:
            raise RuntimeError(f"warm-up set {self.cases[index].name} failed its checks: {errors}")


class Round:
    """What one pass over the corpus measured.

    ``busy`` is the time spent inside every call, failed ones too;
    ``latencies`` holds only the calls whose set passed its checks. The
    ``scaled_`` figures are the same times scaled to the probe's nominal
    host speed (see probe.py); the end-to-end metrics are made from them.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.scaled_busy = 0.0
        self.scaled_latencies: list[float] = []
        self.probes: list[float] = []
        self.sweeps = 0
        self.starts = 0


def run_round(workload: Workload, tracer=None, set_base: int = 0) -> Round:
    import probe

    rnd = Round()
    calls = []
    elapsed = 0.0
    for index, case in enumerate(workload.cases):
        if tracer is not None:
            tracer.set_id = set_base + index
        workload.prepare(index)
        rnd.probes.append(probe.gap_probe_s(elapsed))
        rnd.attempted += 1
        start = time.perf_counter()
        try:
            result, raised = workload.call(index, tracer), None
        except Exception as exc:  # a failing set is counted, and the run goes on
            result, raised = None, exc
        elapsed = time.perf_counter() - start
        rnd.busy += elapsed
        try:
            if raised is not None:
                raise raised
            errors, view = workload.check(index, result)
        except Exception as exc:  # so is a report the checks cannot read
            errors = [f"{type(exc).__name__}: {exc}"]
        calls.append((elapsed, not errors))
        if errors:
            rnd.failed += 1
            sys.stderr.write(f"failed {case.name}: {'; '.join(errors)}\n")
            continue
        rnd.latencies.append(elapsed)
        rnd.sweeps += view.sweeps
        rnd.starts += len(view.restart_trace)
    rnd.probes.append(probe.gap_probe_s(elapsed))
    for (elapsed, passed), factor in zip(calls, probe.scale_factors(rnd.probes)):
        rnd.scaled_busy += elapsed * factor
        if passed:
            rnd.scaled_latencies.append(elapsed * factor)
    return rnd


def setup(qc, name: str, seed: int, work_dir: str) -> Workload:
    workload = Workload(qc, name, seed, work_dir)
    workload.warm_up()
    return workload


def scaled_setup_s() -> float:
    """This process's set-up time so far, scaled by probes made right after it."""
    import probe

    elapsed = time.perf_counter() - T0
    return elapsed * probe.NOMINAL_S / statistics.median(probe.probe_s() for _ in range(SETUP_PROBES))


def setup_samples(name: str, seed: int, repeats: int) -> list[float]:
    """Scaled set-up times of fresh processes, measured inside each from its first line."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: every order statistic, Beta-weighted.

    The i-th smallest of n values gets the Beta((n+1)p, (n+1)(1-p))
    probability of ((i-1)/n, i/n]. Where the slow sets are few and far
    apart, a single order statistic jumps between them from run to run;
    this weighted mean moves far less.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = (np.arange(20_000) + 0.5) / 20_000
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, len(cdf)), cdf)
    return float(np.diff(edges) @ x)


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [t for r in rounds for t in r.scaled_latencies]
    busy = sum(r.scaled_busy for r in rounds)

    def quantile_ms(p):  # over the sets that passed; 0 when none did
        return 1e3 * harrell_davis(latencies, p) if latencies else 0.0

    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "sets_per_s": {"value": len(latencies) / busy, "unit": "1/s"},
        "latency_p50_ms": {"value": quantile_ms(0.5), "unit": "ms"},
        "latency_p90_ms": {"value": quantile_ms(0.9), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(tracer, traced: list[Round], untraced: list[Round]) -> dict:
    from tracer import SELF_LAYERS

    totals = tracer.layer_totals()
    n_sets = sum(r.attempted for r in traced)
    wall_ms = 1e3 * sum(r.busy for r in traced) / n_sets
    self_ms = {layer: 1e3 * totals["self_s"].get(layer, 0.0) / n_sets for layer in dict.fromkeys(SELF_LAYERS.values())}
    search_ms = 1e3 * totals["total_s"].get("optimizer.optimal_fidelity", 0.0) / n_sets
    sweeps = sum(r.sweeps for r in traced) / n_sets
    metrics = {
        **{name: (value, "ms") for name, value in self_ms.items()},
        "optimizer.search_ms": (search_ms, "ms"),
        "observables.commutes_calls": (tracer.commutes_calls / n_sets, "count"),
        "optimizer.sweeps": (sweeps, "count"),
        "optimizer.starts": (sum(r.starts for r in traced) / n_sets, "count"),
        "optimizer.capped_starts": (tracer.capped_starts / len(traced), "count"),
        "optimizer.us_per_sweep": (1e3 * search_ms / sweeps if sweeps else 0.0, "us"),
        "linalg.top_eig_calls": (totals["calls"].get("linalg.batched_top_eig", 0) / n_sets, "count"),
        "trace.set_ms": (wall_ms, "ms"),
        "trace.remainder_ms": (wall_ms - sum(self_ms.values()), "ms"),
        "trace.overhead_s": (
            statistics.mean(t.busy - u.busy for t, u in zip(traced, untraced)),
            "s",
        ),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    qc = load_program()
    work_dir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = setup(qc, args.workload, args.seed, work_dir)
        own_setup = scaled_setup_s()
        if args.setup_only:
            print(own_setup)
            return 0
        samples = [own_setup]
        if not args.trace:  # only the untraced run reports setup_s
            samples += setup_samples(args.workload, args.seed, SETUP_REPEATS - 1)

        rounds, untraced = [], []
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(qc, workload.config.max_iters)
        while not rounds or sum(r.busy for r in rounds + untraced) < args.seconds:
            if tracer is None:
                rounds.append(run_round(workload))
            else:
                untraced.append(run_round(workload))
                with tracer:
                    rounds.append(run_round(workload, tracer, set_base=len(rounds) * len(workload.cases)))
            sys.stderr.write(f"round {len(rounds)}: {len(workload.cases)} sets, busy {rounds[-1].busy:.3f} s\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = rounds + untraced
    failed = sum(r.failed for r in every)
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = per_layer(tracer, rounds, untraced)
    else:
        metrics = end_to_end(rounds, statistics.median(samples))
    print(
        f"# workload={args.workload} seed={args.seed} sets={len(workload.cases)} rounds={len(rounds)}"
        f" blas_threads={BLAS_THREADS} nproc={os.cpu_count()} restarts={RESTARTS}"
        f" optimizer_seed={OPTIMIZER_SEED} max_iters={workload.config.max_iters}"
        f" setup_samples_s={[round(s, 4) for s in samples]}"
    )
    if tracer is None:
        import probe

        probes = [p for r in rounds for p in r.probes]
        print(
            f"# unscaled: sets_per_s={sum(len(r.latencies) for r in rounds) / sum(r.busy for r in rounds):.4f}"
            f" latency_p50_ms={1e3 * statistics.median(t for r in rounds for t in r.latencies):.4f}"
            f" probe_median_ms={1e3 * statistics.median(probes):.4f} (nominal {1e3 * probe.NOMINAL_S})"
        )
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in every),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
