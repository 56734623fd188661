"""Wall-clock benchmark of ingest → crash → recover, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gs-msr-ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced
rounds and prints the per-layer metrics, the tracing overhead and the
two-clock cross-check.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when a
check failed and 2 when the system could not be set up.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

EXIT_OK, EXIT_CHECK_FAILED, EXIT_SETUP = 0, 1, 2


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def run_one(args, loop) -> int:
    result = loop.run(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = loop.provenance(args.workload, args.seed, bool(args.trace))
    print(f"provenance {json.dumps(prov)}")
    print(
        f"rounds={result.rounds} epochs={result.notes['epochs_timed']} "
        f"crashes={result.notes['crashes']} "
        f"measured_s={result.notes['measured_s']}"
    )
    rows = {**result.metrics, **result.extra}
    width = max(len(name) for name in rows)
    for name, (value, unit) in rows.items():
        print(f"  {name:<{width}}  {value:>16.6f}  {unit}")
    if result.xcheck:
        print("two-clock cross-check (recovery, per round)")
        print(f"  {'bucket':<10}  {'virtual_s':>12}  {'wall_self_s':>12}")
        for bucket, virt, wall in result.xcheck:
            print(f"  {bucket:<10}  {virt:>12.6f}  {wall:>12.6f}")
        verdict = (
            "AGREE"
            if loop.rank_inversions(result.xcheck) == 0
            else "DISAGREE (the cost model ranks these buckets differently)"
        )
        print(f"  rank order: {verdict}")
    for error in result.errors:
        print(f"CHECK FAILED: {error}")
    print(_result_line(result.correct, result.attempted, result.failed, result.metrics))
    return EXIT_OK if result.correct else EXIT_CHECK_FAILED


def run_all(args, names) -> int:
    """Run every workload in its own process (peak RSS is per workload)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode == EXIT_SETUP or not lines:
            return EXIT_SETUP
        last = json.loads(lines[-1])
        correct = correct and last["correct"] and proc.returncode == EXIT_OK
        attempted += last["attempted"]
        failed += last["failed"]
        for metric, entry in last["metrics"].items():
            metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return EXIT_OK if correct else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import loop
    except ImportError as exc:
        print(f"perfbench: cannot set up the system under test: {exc}", file=sys.stderr)
        return EXIT_SETUP
    names = list(loop.WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in loop.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    return run_one(args, loop)


if __name__ == "__main__":
    sys.exit(main())
