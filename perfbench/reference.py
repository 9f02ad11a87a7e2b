"""Reference figures for README.md: repeated runs of every workload, then one traced run.

    python3 perfbench/reference.py --first-seed 100

Runs ``run.py`` once per seed (seeds first-seed .. first-seed + 9) and
workload, one process at a time, with the run length and command from
BENCHMARK.json. Prints, per workload, the median and quartiles of every
end-to-end metric with the interquartile range as a share of the median,
the same for the unscaled throughput, median latency and probe time (see
probe.py), then the per-layer figures of a traced run with each layer's
share of the traced time per set. Raw results go to perfbench/out/.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not trace:  # the unscaled figures, from the comment line before the result
        result["unscaled"] = {k: float(v) for k, v in re.findall(r"(\w+)=([\d.]+)", lines[-2].split("unscaled:")[1])}
    return result


def summarize(results, spec):
    lines = [f"| metric | median | q1 | q3 | (q3-q1)/median | bound |", "|---|---|---|---|---|---|"]
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        lines.append(
            f"| {metric['name']} ({metric['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} |"
            f" {(q3 - q1) / med:.3f} | {metric['bound']} |"
        )
    for name in results[0]["unscaled"]:
        values = [r["unscaled"][name] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        lines.append(f"| unscaled {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} | |")
    attempted = [r["attempted"] for r in results]
    failed = [r["failed"] for r in results]
    lines.append(f"\nattempted per run {attempted}, failed {failed}, all correct: {all(r['correct'] for r in results)}")
    return "\n".join(lines)


def layer_table(result, spec):
    metrics = result["metrics"]
    wall = metrics["trace.set_ms"]["value"]
    lines = ["| metric | value | share of traced time per set |", "|---|---|---|"]
    for metric in spec["per_layer"]:
        m = metrics[metric["name"]]
        share = f"{m['value'] / wall:.1%}" if m["unit"] == "ms" and metric["name"] != "trace.set_ms" else ""
        lines.append(f"| {metric['name']} | {m['value']:.4g} {m['unit']} | {share} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(args.first_seed, args.first_seed + RUNS)
        results = []
        for seed in seeds:
            results.append(run_once(spec["command"], workload, seed, spec["run_seconds"], 0))
            sys.stderr.write(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}\n")
        traced = run_once(spec["command"], workload, args.first_seed, spec["run_seconds"], 1)
        raw = {"workload": workload, "seeds": list(seeds), "runs": results, "traced": traced}
        path = os.path.join(HERE, "out", f"reference-{workload}-{args.first_seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle, indent=1)
        print(f"\n### {workload}, seeds {seeds.start}-{seeds.stop - 1}\n")
        print(summarize(results, spec))
        print(f"\nTraced run, seed {args.first_seed}:\n")
        print(layer_table(traced, spec))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
