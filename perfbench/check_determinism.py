"""The benchmark's own test: every workload is deterministic for one seed.

Runs each workload small (``--seconds 1``) twice with one seed and asserts
that both runs check their outputs as correct (which includes sampled HTTP
answers equal to an in-process ``MatchIndex.query`` on the same artifact),
and that ``quality``, the op counts, the per-endpoint request counts and the
resolution counters are identical.  A third, traced run must print every
per-layer metric of ``BENCHMARK.json``.

Usage, from the repository root (about three minutes)::

    python3 perfbench/check_determinism.py [--seed 7] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its JSON result and its ``counts`` line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise AssertionError(f"{workload} exited {completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    counts = next(
        json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("counts ")
    )
    return json.loads(lines[-1]), counts


def check(workload: str, seed: int, per_layer: list[str]) -> list[str]:
    failures = []
    first, first_counts = run_once(workload, seed, trace=0)
    second, second_counts = run_once(workload, seed, trace=0)
    for label, result in (("first", first), ("second", second)):
        if not result["correct"]:
            failures.append(f"{workload}: {label} run checked its outputs as incorrect")
    for key in ("attempted", "failed"):
        if first[key] != second[key]:
            failures.append(f"{workload}: {key} {first[key]} != {second[key]}")
    quality = (first["metrics"]["quality"]["value"], second["metrics"]["quality"]["value"])
    if quality[0] != quality[1]:
        failures.append(f"{workload}: quality {quality[0]!r} != {quality[1]!r}")
    if first_counts != second_counts:
        failures.append(f"{workload}: counts {first_counts} != {second_counts}")
    traced, _ = run_once(workload, seed, trace=1)
    if not traced["correct"]:
        failures.append(f"{workload}: traced run checked its outputs as incorrect")
    if sorted(traced["metrics"]) != sorted(per_layer):
        failures.append(f"{workload}: traced run did not print every per-layer metric")
    return failures


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    failures = []
    for workload in args.workload or names:
        found = check(workload, args.seed, per_layer)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        failures += found
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
