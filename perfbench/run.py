"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-unique --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (the run then repeats its stream phase traced).  The metric names,
units and directions are those of ``BENCHMARK.json``.  Human-readable lines
(host fingerprint, p99s, sample counts, server-side means) come first; the
last line of standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import benchutil  # noqa: E402
from benchutil import ROOT, SRC, Context, Outcome  # noqa: E402

#: How many fresh interpreters time ``import repro`` for ``setup_s``.
IMPORT_SAMPLES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(outcome: Outcome, latency: dict) -> dict:
    succeeded = outcome.attempted - outcome.failed
    return {
        "setup_s": outcome.setup_s,
        "latency_p50_ms": latency["p50"],
        "latency_p90_ms": latency["p90"],
        "ops_per_s": succeeded / outcome.stream_s,
        "success_frac": succeeded / outcome.attempted,
        "rss_mb": outcome.rss_mb,
        "quality": outcome.quality,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    # A terminated run unwinds normally, so every daemon it started is
    # stopped and reaped and its temp dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.pop("REPRO_PREP_CACHE", None)
    os.environ.pop("REPRO_TELEMETRY", None)
    sys.path.insert(0, str(SRC))
    # Fails early without the package, and writes its bytecode before the
    # fresh-interpreter import timings that setup_s counts instead.
    import repro  # noqa: F401

    from serving import index_churn, serve_repeat, serve_unique

    workloads = {
        "serve-unique": serve_unique,
        "serve-repeat": serve_repeat,
        "index-churn": index_churn,
    }
    run_dir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ref_before = benchutil.reference_kernel_ms()
        context = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                          run_dir=run_dir)
        context.import_s = statistics.median(
            benchutil.fresh_import_s(run_dir) for _ in range(IMPORT_SAMPLES)
        )
        context.setup_started = time.perf_counter()
        outcome = workloads[args.workload](context)
        ref_after = benchutil.reference_kernel_ms()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    latency = outcome.notes["latency_ms"] = benchutil.summarize_ms(outcome.latencies_s)
    metrics = end_to_end(outcome, latency)
    if args.trace:
        metrics = dict(outcome.layers)
        metrics["host.ref_ms"] = statistics.median([ref_before, ref_after])
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
    unknown = sorted(set(metrics) - {entry["name"] for entry in declared})
    if unknown:
        raise RuntimeError(f"workload produced undeclared metrics {unknown}")

    host = benchutil.fingerprint()
    host.update(ref_ms_before=round(ref_before, 3), ref_ms_after=round(ref_after, 3),
                process_s=round(time.perf_counter() - PROCESS_START, 3))
    print("host " + json.dumps(host, sort_keys=True))
    for key, value in sorted(outcome.notes.items()):
        print(f"{key} " + json.dumps(value, sort_keys=True))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            # Metrics a workload does not exercise read 0 (e.g. the index
            # write path on serve-unique); see perfbench/README.md.
            entry["name"]: {"value": float(metrics.get(entry["name"], 0.0)),
                            "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
