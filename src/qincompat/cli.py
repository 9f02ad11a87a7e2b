"""Command-line front end.

Subcommands::

    qincompat measure INPUT      incompatibility of the observables in INPUT
    qincompat mub D N --out F    write N mutually unbiased bases for prime D
    qincompat bounds N D         closed-form bounds for N observables in dim D
    qincompat entropic INPUT     entropic bound vs. the measure for a pair
    qincompat verify             run the randomized self-check suites

Reports go to standard output (or ``--out``) as JSON by default; ``--format
csv`` emits the scalar fields only. Diagnostics go to standard error. Exit
codes: 0 success, 2 input or validation error, 3 violated bound certificate.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
import time

from . import __version__, documents, verify
from .entropic import entropic_report
from .errors import BoundViolationError, InputFormatError, QincompatError
from .observables import is_mutually_unbiased, mub_bases
from .optimizer import OptimizerConfig, fuchs_lower_bound, incompatibility, q_upper_bounds
from .tolerances import WEIGHT_PRUNE_EPS

VALIDATION_EXIT = 2
BOUND_EXIT = 3


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="optimizer seed (default 0)")
    parser.add_argument("--restarts", type=int, default=OptimizerConfig.restarts, help="random see-saw restarts")
    parser.add_argument("--outcomes", type=int, default=None, help="outcomes of random starting POVMs (default d^2)")
    parser.add_argument(
        "--tol", type=float, default=OptimizerConfig.convergence_eps, help="see-saw convergence threshold"
    )
    parser.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters, help="see-saw sweep cap")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def _config(args: argparse.Namespace) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        outcomes=args.outcomes,
        max_iters=args.max_iters,
        convergence_eps=args.tol,
        seed=args.seed,
    )


def _config_echo(config: OptimizerConfig) -> dict:
    return {
        "seed": config.seed,
        "restarts": config.restarts,
        "outcomes": config.outcomes,
        "max_iters": config.max_iters,
        "convergence_eps": config.convergence_eps,
        "weight_prune_eps": WEIGHT_PRUNE_EPS,
    }


def _flatten_scalars(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_scalars(value, f"{path}."))
        elif isinstance(value, (int, float, str, bool)) or value is None:
            flat[path] = value
    return flat


def _emit(doc: dict, args: argparse.Namespace, out: str | None = None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        flat = _flatten_scalars(doc)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(flat)
        writer.writerow(repr(v) if isinstance(v, float) else str(v) for v in flat.values())
        text = buffer.getvalue()
    else:
        text = documents.dumps(doc) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _run_measure(args: argparse.Namespace) -> int:
    started = time.monotonic()
    config = _config(args)
    obs = documents.parse_observable_set(documents.load_document(args.input), config)
    report = incompatibility(obs, config)
    capped = report.start_stops.count("max_iters")
    if capped:
        sys.stderr.write(
            f"note: {capped} of {len(report.start_sweeps)} see-saw starts stopped at"
            f" --max-iters {config.max_iters} before converging\n"
        )
    doc = {
        "command": "measure",
        "input": args.input,
        "config": _config_echo(config),
        **documents.incompatibility_report_to_dict(report),
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _emit(doc, args, out=args.out)
    return 0


def _run_mub(args: argparse.Namespace) -> int:
    started = time.monotonic()
    obs = mub_bases(args.dim, args.n_bases)
    if not is_mutually_unbiased(obs):
        raise QincompatError("constructed bases failed the unbiasedness self-check")
    basis_doc = documents.basis_document(obs)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(documents.dumps(basis_doc) + "\n")
    doc = {
        "command": "mub",
        "dim": args.dim,
        "n_bases": args.n_bases,
        "out": args.out,
        "unbiased": True,
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _emit(doc, args)
    return 0


def _run_bounds(args: argparse.Namespace) -> int:
    started = time.monotonic()
    q_small, q_large = q_upper_bounds(args.n_observables, args.dim)
    n, d = args.n_observables, args.dim
    doc = {
        "command": "bounds",
        "n_observables": n,
        "dim": d,
        "q_upper_small_n": q_small,
        "q_upper_large_n": q_large,
        "fidelity_floor": (n + d - 1.0) / (n * d),
        "fuchs_floor": fuchs_lower_bound(d),
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _emit(doc, args, out=args.out)
    return 0


def _run_entropic(args: argparse.Namespace) -> int:
    started = time.monotonic()
    config = _config(args)
    obs = documents.parse_observable_set(documents.load_document(args.input), config)
    if obs.count != 2:
        raise InputFormatError(f"the entropic command needs exactly two items, got {obs.count}")
    report = entropic_report(obs.members[0], obs.members[1], config)
    doc = {
        "command": "entropic",
        "input": args.input,
        "config": _config_echo(config),
        "max_overlap": report.max_overlap,
        "entropy_bound": report.entropy_bound,
        "entropy_sum_at_witness": report.entropy_sum_at_witness,
        "witness_state": documents.to_pairs(report.witness_state),
        "incompatibility": report.incompatibility,
        "verdict": report.verdict.value,
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _emit(doc, args, out=args.out)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    results = verify.run_suites(args.suite, args.samples, args.seed)
    for result in results:
        status = "pass" if result.passed else "FAIL"
        sys.stderr.write(
            f"{status} {result.name}: {result.checks - result.failures}/{result.checks} checks"
            + (f" ({result.detail})" if result.detail else "")
            + "\n"
        )
    doc = {
        "command": "verify",
        "seed": args.seed,
        "suites": [
            {
                "name": r.name,
                "checks": r.checks,
                "failures": r.failures,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _emit(doc, args, out=args.out)
    return 0 if doc["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qincompat",
        description="Operational incompatibility of quantum observables.",
    )
    parser.add_argument("--version", action="version", version=f"qincompat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="incompatibility of an observable set")
    p_measure.add_argument("input", help="input document (JSON)")
    _add_common_flags(p_measure)
    _add_output_flags(p_measure)
    p_measure.set_defaults(func=_run_measure)

    p_mub = sub.add_parser("mub", help="generate mutually unbiased bases")
    p_mub.add_argument("dim", type=int, help="prime dimension")
    p_mub.add_argument("n_bases", type=int, help="number of bases, at most dim + 1")
    p_mub.add_argument("--out", required=True, help="where to write the basis document")
    p_mub.add_argument("--format", choices=("json", "csv"), default="json")
    p_mub.set_defaults(func=_run_mub)

    p_bounds = sub.add_parser("bounds", help="closed-form bound certificates")
    p_bounds.add_argument("n_observables", type=int)
    p_bounds.add_argument("dim", type=int)
    _add_output_flags(p_bounds)
    p_bounds.set_defaults(func=_run_bounds)

    p_entropic = sub.add_parser("entropic", help="entropic bound vs. the measure")
    p_entropic.add_argument("input", help="input document with exactly two items")
    _add_common_flags(p_entropic)
    _add_output_flags(p_entropic)
    p_entropic.set_defaults(func=_run_entropic)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("--suite", action="append", choices=sorted(verify.ALL_SUITES), default=None)
    p_verify.add_argument("--samples", type=int, default=None, help="override per-suite sample count")
    p_verify.add_argument("--seed", type=int, default=0)
    _add_output_flags(p_verify)
    p_verify.set_defaults(func=_run_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and kept: parsing leaves it unchanged."""
    return build_parser()


def _out_error(out: str) -> str | None:
    """Why ``--out`` cannot be written, found without opening it (so nothing is created or truncated)."""
    if os.path.isdir(out):
        return f"--out {out} is a directory"
    parent = os.path.dirname(out) or os.curdir
    if not os.path.isdir(parent):
        return f"--out {out}: no directory {parent}"
    return None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # checked before the command runs, so a search is not thrown away for want of a place to write it
    problem = _out_error(args.out) if getattr(args, "out", None) else None
    if problem:
        sys.stderr.write(f"error: {problem}\n")
        return VALIDATION_EXIT
    try:
        return args.func(args)
    except BoundViolationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BOUND_EXIT
    except (QincompatError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
