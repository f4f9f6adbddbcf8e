#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine-hot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs the
same workload untraced in a fresh interpreter (for ``trace.overhead_frac``)
and then a traced run that prints the per-layer metrics.  Report lines
come first, as ``<workload>/<metric> <value> <unit> n=<samples>``; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload in its own
interpreter and prints their reports one after another.  Exit status: 0
on a correct run, 1 when an answer was wrong, 2 when the run could not
be made (missing sources, bad arguments, a failed self-check).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = ROOT / "BENCHMARK.json"


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_fresh(arguments, workload: str, trace: int) -> subprocess.CompletedProcess:
    """The same command for ``workload`` in a fresh interpreter."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(arguments.seed), "--seconds", str(arguments.seconds), "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=170)


def untraced_ops_per_s(arguments) -> float:
    """``ops_per_s`` of the same workload and seed, untraced, in a fresh interpreter."""
    finished = run_fresh(arguments, arguments.workload, 0)
    sys.stderr.write(finished.stdout)
    sys.stderr.write(finished.stderr)
    if finished.returncode != 0:
        raise SystemExit(finished.returncode)
    prefix = f"{arguments.workload}/ops_per_s "
    line = next(line for line in finished.stdout.splitlines() if line.startswith(prefix))
    return float(line[len(prefix):].split()[0])


def run_all(arguments, names) -> int:
    status = 0
    for workload in names:
        finished = run_fresh(arguments, workload, arguments.trace)
        sys.stdout.write(finished.stdout)
        sys.stderr.write(finished.stderr)
        status = max(status, finished.returncode)
    return status


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    sys.path.insert(0, str(HERE))
    from harness import BenchmarkError, render

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not CONTRACT.is_file():
        print("perfbench: run from a checkout holding src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT.read_text())
    names = [workload["name"] for workload in contract["workloads"]]
    if arguments.workload not in names + ["all"]:
        print(f"perfbench: unknown workload {arguments.workload!r}; expected one of {names} or all",
              file=sys.stderr)
        return 2
    if arguments.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if arguments.workload == "all":
        return run_all(arguments, names)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    try:
        baseline = untraced_ops_per_s(arguments) if arguments.trace else None
        outcome, recorder = workloads.run(
            arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace)
        )
        if recorder is not None:
            traced = next(m.value for m in outcome.end_to_end if m.name == "ops_per_s")
            outcome.layer("trace.overhead_frac", 1 - traced / baseline, "ratio", 2)
            recorder.dump(workloads.WORK / f"spans-{arguments.workload}-seed{arguments.seed}.json")
        section = "per_layer" if arguments.trace else "end_to_end"
        keys = [(metric["name"], metric["unit"]) for metric in contract[section]]
        print(render(outcome, keys, traced=bool(arguments.trace)))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
