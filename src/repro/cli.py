"""Command-line interface for the benchmark framework.

Examples
--------
List the datasets and learner/selector combinations::

    python -m repro list

Reproduce Table 1 on small stand-ins::

    python -m repro table1 --scale 0.3

Run one active-learning combination end to end::

    python -m repro run --dataset abt_buy --combination "Trees(20)" --scale 0.3

Run a combination against a noisy Oracle::

    python -m repro run --dataset walmart_amazon --combination "Trees(20)" --noise 0.2

Compare blocking strategies (recall / reduction ratio / wall-clock)::

    python -m repro block --dataset dblp_acm --scale 2.0

Run with a sub-quadratic blocker instead of exhaustive Jaccard::

    python -m repro run --dataset dblp_acm --combination "Trees(20)" \
        --blocker minhash_lsh --blocking-threshold 0.2

Sweep a whole experiment family across 4 worker processes, persisting every
completed trial so the sweep can be killed and resumed::

    python -m repro sweep --family classifier_comparison --scale 0.3 \
        --jobs 4 --store runs.jsonl
    python -m repro resume --family classifier_comparison --scale 0.3 \
        --jobs 4 --store runs.jsonl
    python -m repro report --store runs.jsonl

Train a matching pipeline, persist it, and score record pairs with it later
(chunked, optionally across worker processes)::

    python -m repro train --dataset abt_buy --combination "Trees(20)" \
        --scale 0.3 --model models/abt_buy
    python -m repro match --model models/abt_buy --dataset abt_buy \
        --scale 0.3 --jobs 4 --json

Index a corpus for low-latency single-record queries and dedup (incremental:
``index add`` / ``index upsert`` / ``index remove`` update the persisted
artifact in place)::

    python -m repro index build --model models/abt_buy --dataset abt_buy \
        --scale 0.3 --out models/abt_buy_index
    python -m repro index query --index models/abt_buy_index \
        --record '{"record_id": "q1", "name": "sony bravia 40in lcd tv"}'
    python -m repro index dedup --index models/abt_buy_index --json

Serve an index as a long-lived concurrent HTTP daemon (query batching,
periodic snapshots, atomic hot-reload; see docs/server.md)::

    python -m repro serve --index models/abt_buy_index --port 8080 \
        --batch-window 0.002 --snapshot-interval 300
    curl -X POST http://127.0.0.1:8080/query \
        -d '{"record": {"record_id": "q1", "name": "sony bravia 40in lcd tv"}}'
"""

from __future__ import annotations

import argparse
import json
import sys

from .blocking import get_blocker_spec, list_blockers
from .core import (
    ActiveLearningConfig,
    ActiveLearningRun,
    BlockingConfig,
    CascadeConfig,
    PipelineConfig,
)
from .datasets import dataset_names, get_dataset_spec, load_dataset
from .exceptions import ReproError
from .harness import experiments, reporting
from .harness.builders import (
    build_combination,
    combination_names,
    prepare_for_combination,
    run_active_learning,
)
from .runner import FitSpec, RunStore, TrialSpec, execute_fit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Active learning benchmark framework for entity matching (SIGMOD 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list datasets and learner/selector combinations")

    table1 = subparsers.add_parser("table1", help="reproduce Table 1 (dataset statistics)")
    table1.add_argument("--scale", type=float, default=0.3, help="dataset size multiplier")

    run = subparsers.add_parser("run", help="run one combination on one dataset")
    run.add_argument("--dataset", required=True, choices=dataset_names())
    run.add_argument("--combination", required=True, help="e.g. 'Trees(20)', 'Linear-Margin'")
    run.add_argument("--scale", type=float, default=0.3)
    run.add_argument("--seed-size", type=int, default=30)
    run.add_argument("--batch-size", type=int, default=10)
    run.add_argument("--max-iterations", type=int, default=20)
    run.add_argument("--target-f1", type=float, default=0.98)
    run.add_argument("--noise", type=float, default=0.0, help="Oracle label-flip probability")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--warm-start",
        action="store_true",
        help="resume each iteration's fit from the previous model (warm-start-capable learners)",
    )
    run.add_argument(
        "--evaluation-interval",
        type=int,
        default=1,
        help="evaluate every N iterations (the final iteration is always evaluated)",
    )
    run.add_argument(
        "--committee-jobs",
        type=int,
        default=1,
        help="worker threads for committee training (QBC bootstrap members, forest trees)",
    )
    run.add_argument(
        "--blocker",
        choices=list_blockers(),
        default="jaccard",
        help="blocking strategy used before feature extraction",
    )
    run.add_argument(
        "--blocking-threshold",
        type=float,
        default=None,
        help="similarity cutoff for the blocker (default: the dataset spec threshold)",
    )

    train = subparsers.add_parser(
        "train", help="train a matching pipeline by active learning and persist it"
    )
    train.add_argument("--dataset", required=True, choices=dataset_names())
    train.add_argument("--combination", default="Trees(20)", help="e.g. 'Trees(20)', 'Linear-Margin'")
    train.add_argument("--model", required=True, help="output artifact directory")
    train.add_argument("--scale", type=float, default=0.3)
    train.add_argument("--seed-size", type=int, default=30)
    train.add_argument("--batch-size", type=int, default=10)
    train.add_argument("--max-iterations", type=int, default=20)
    train.add_argument("--target-f1", type=float, default=0.98)
    train.add_argument("--noise", type=float, default=0.0, help="Oracle label-flip probability")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--blocker",
        choices=list_blockers(),
        default=None,
        help="blocking strategy (default: the paper's Jaccard at the dataset spec threshold)",
    )
    train.add_argument("--blocking-threshold", type=float, default=None)
    train.add_argument("--json", action="store_true", help="print the artifact manifest as JSON")

    match = subparsers.add_parser(
        "match", help="score record pairs with a persisted matching pipeline"
    )
    match.add_argument("--model", required=True, help="artifact directory written by 'train'")
    match.add_argument(
        "--dataset",
        choices=dataset_names(),
        default=None,
        help="score a catalog dataset's two tables (alternative to --left/--right)",
    )
    match.add_argument("--scale", type=float, default=0.3, help="dataset size multiplier")
    match.add_argument("--seed", type=int, default=None, help="dataset generation seed")
    match.add_argument("--left", default=None, help="JSON file with the left records")
    match.add_argument("--right", default=None, help="JSON file with the right records")
    match.add_argument("--jobs", type=int, default=1, help="scoring worker processes")
    match.add_argument(
        "--chunk-size", type=int, default=None, help="candidate pairs per scoring chunk"
    )
    match.add_argument(
        "--min-score", type=float, default=None, help="only report pairs scoring at least this"
    )
    match.add_argument(
        "--cascade",
        choices=["off", "on", "auto"],
        default=None,
        help="override the artifact's score-cascade mode (see docs/scoring.md)",
    )
    match.add_argument(
        "--limit", type=int, default=20, help="rows shown in the text table (JSON is never truncated)"
    )
    match.add_argument("--json", action="store_true", help="print all scored pairs as JSON")

    index = subparsers.add_parser(
        "index", help="build, update and query an incremental match index"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    index_build = index_sub.add_parser(
        "build", help="index a record corpus with a trained pipeline and persist it"
    )
    index_build.add_argument("--model", required=True, help="pipeline artifact written by 'train'")
    index_build.add_argument("--out", required=True, help="output index artifact directory")
    index_build.add_argument("--records", default=None, help="JSON file with the corpus records")
    index_build.add_argument(
        "--dataset",
        choices=dataset_names(),
        default=None,
        help="index a catalog dataset table instead of --records",
    )
    index_build.add_argument(
        "--side",
        choices=["left", "right"],
        default="right",
        help="which table of --dataset to index (default: right)",
    )
    index_build.add_argument("--scale", type=float, default=0.3, help="dataset size multiplier")
    index_build.add_argument("--seed", type=int, default=None, help="dataset generation seed")
    index_build.add_argument(
        "--stream",
        action="store_true",
        help="bulk-build in batches without materializing the corpus "
        "(--records may be JSON Lines, one record object per line)",
    )
    index_build.add_argument(
        "--batch-size",
        type=int,
        default=4096,
        help="records per streaming batch (with --stream)",
    )
    index_build.add_argument(
        "--shards",
        type=int,
        default=None,
        help="hash-partitioned posting shards (query results are identical "
        "for every value; raise for million-record corpora)",
    )
    index_build.add_argument("--num-perm", type=int, default=None, help="MinHash signature length")
    index_build.add_argument("--bands", type=int, default=None, help="LSH band count")
    index_build.add_argument("--shingle-size", type=int, default=None, help="character shingle length")
    index_build.add_argument(
        "--verify-threshold",
        type=float,
        default=None,
        help="estimated-Jaccard verification cutoff for collisions",
    )
    index_build.add_argument("--json", action="store_true", help="print the artifact manifest as JSON")

    index_add = index_sub.add_parser(
        "add", help="add records to a persisted index (saved back in place)"
    )
    index_add.add_argument("--index", required=True, help="index artifact directory")
    index_add.add_argument("--records", required=True, help="JSON file with the records to add")
    index_add.add_argument("--json", action="store_true", help="print the updated stats as JSON")

    index_upsert = index_sub.add_parser(
        "upsert", help="atomically replace-or-insert records in a persisted index"
    )
    index_upsert.add_argument("--index", required=True, help="index artifact directory")
    index_upsert.add_argument("--records", required=True, help="JSON file with the records to upsert")
    index_upsert.add_argument(
        "--no-insert",
        action="store_true",
        help="reject record ids not already in the index instead of inserting them",
    )
    index_upsert.add_argument("--json", action="store_true", help="print the updated stats as JSON")

    index_remove = index_sub.add_parser(
        "remove", help="remove records by id from a persisted index (saved back in place)"
    )
    index_remove.add_argument("--index", required=True, help="index artifact directory")
    index_remove.add_argument("--ids", required=True, help="comma-separated record ids")
    index_remove.add_argument("--json", action="store_true", help="print the updated stats as JSON")

    index_query = index_sub.add_parser(
        "query", help="match one record against a persisted index"
    )
    index_query.add_argument("--index", required=True, help="index artifact directory")
    index_query.add_argument("--record", default=None, help="the record as an inline JSON object")
    index_query.add_argument("--record-file", default=None, help="JSON file holding the record object")
    index_query.add_argument("--top-k", type=int, default=None, help="return only the k highest scores")
    index_query.add_argument(
        "--cascade",
        choices=["off", "on", "auto"],
        default=None,
        help="override the pipeline's score-cascade mode (see docs/scoring.md)",
    )
    index_query.add_argument(
        "--min-score", type=float, default=None, help="only report pairs scoring at least this"
    )
    index_query.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree for the query (timings per stage; see docs/observability.md)",
    )
    index_query.add_argument("--json", action="store_true", help="print the scored pairs as JSON")

    index_dedup = index_sub.add_parser(
        "dedup", help="resolve the indexed corpus into entity clusters"
    )
    index_dedup.add_argument("--index", required=True, help="index artifact directory")
    index_dedup.add_argument(
        "--min-score", type=float, default=None, help="minimum score for a pair to merge entities"
    )
    index_dedup.add_argument(
        "--limit", type=int, default=20, help="clusters shown in text output (JSON is never truncated)"
    )
    index_dedup.add_argument("--json", action="store_true", help="print all clusters as JSON")

    serve = subparsers.add_parser(
        "serve", help="serve a match index over HTTP (long-lived concurrent daemon)"
    )
    serve.add_argument("--index", required=True, help="index artifact directory to serve")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="seconds concurrent queries wait to coalesce into one scoring call (0 disables)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, help="queries per coalesced scoring call"
    )
    serve.add_argument(
        "--snapshot-interval",
        type=float,
        default=0.0,
        help="seconds between background index snapshots (0 disables)",
    )
    serve.add_argument(
        "--snapshot-path",
        default=None,
        help="artifact directory snapshots write to (default: --index, updated in place)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    serve.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="structured log output format (json emits one object per line)",
    )

    block = subparsers.add_parser(
        "block", help="compare blocking strategies on one dataset (no learning)"
    )
    block.add_argument("--dataset", required=True, choices=dataset_names())
    block.add_argument("--scale", type=float, default=1.0)
    block.add_argument(
        "--blocker",
        choices=list_blockers(),
        default=None,
        help="run a single strategy instead of all registered ones",
    )
    block.add_argument("--blocking-threshold", type=float, default=None)

    def add_sweep_arguments(subparser: argparse.ArgumentParser, store_required: bool) -> None:
        subparser.add_argument(
            "--family",
            required=True,
            choices=sorted(experiments.SWEEP_FAMILIES),
            help="experiment family to expand into trials",
        )
        subparser.add_argument(
            "--datasets",
            default=None,
            help="comma-separated dataset names (default: the family's paper datasets)",
        )
        subparser.add_argument("--scale", type=float, default=0.3)
        subparser.add_argument("--max-iterations", type=int, default=12)
        subparser.add_argument("--seed", type=int, default=0)
        subparser.add_argument(
            "--jobs", type=int, default=1, help="worker processes (1 = serial)"
        )
        subparser.add_argument(
            "--store",
            required=store_required,
            default=None,
            help="JSONL run store; completed trials are skipped on re-run",
        )
        subparser.add_argument(
            "--json", action="store_true", help="print the full result as JSON"
        )

    sweep = subparsers.add_parser(
        "sweep", help="run an experiment family (parallel with --jobs, resumable with --store)"
    )
    add_sweep_arguments(sweep, store_required=False)

    resume = subparsers.add_parser(
        "resume", help="re-run a sweep against an existing store, executing only missing trials"
    )
    add_sweep_arguments(resume, store_required=True)

    report = subparsers.add_parser(
        "report", help="summarize the completed trials persisted in a run store"
    )
    report.add_argument("--store", required=True)
    return parser


def _command_list() -> int:
    print("datasets:")
    for name in dataset_names():
        spec = get_dataset_spec(name)
        print(f"  {name:16s} skew={spec.paper.class_skew:<6} oracle={spec.oracle_kind:7s} {spec.description}")
    print("\ncombinations:")
    for name in combination_names():
        combination = build_combination(name)
        print(f"  {name:28s} features={combination.feature_kind}")
    print("\nblockers:")
    for name in list_blockers():
        spec = get_blocker_spec(name)
        print(f"  {name:20s} {spec.description}")
    return 0


def _command_table1(scale: float) -> int:
    rows = experiments.table1_dataset_statistics(scale=scale)
    print(
        reporting.format_table(
            rows,
            columns=[
                "dataset", "total_pairs", "post_blocking_pairs", "class_skew",
                "paper_post_blocking_pairs", "paper_class_skew",
            ],
            title=f"Table 1 (synthetic stand-ins, scale={scale})",
        )
    )
    return 0


def _command_block(args: argparse.Namespace) -> int:
    selected = [args.blocker] if args.blocker is not None else list_blockers()
    methods = {
        name: BlockingConfig(method=name, threshold=args.blocking_threshold)
        for name in selected
    }
    rows = experiments.blocking_method_comparison(
        dataset=args.dataset, scale=args.scale, methods=methods
    )
    print(
        reporting.format_table(
            rows,
            columns=[
                "method", "total_pairs", "candidates", "reduction_ratio",
                "match_recall", "class_skew", "blocking_seconds",
            ],
            title=f"blocking comparison — {args.dataset} (scale={args.scale})",
        )
    )
    return 0


def _command_run(args: argparse.Namespace) -> int:
    combination = build_combination(args.combination)
    blocking = BlockingConfig(method=args.blocker, threshold=args.blocking_threshold)
    prepared = prepare_for_combination(
        args.dataset, combination, scale=args.scale, blocking=blocking
    )
    print(
        f"{args.dataset}: {prepared.n_pairs} post-blocking pairs, "
        f"class skew {prepared.class_skew:.3f}, feature dim {prepared.pool.dim}"
    )
    config = ActiveLearningConfig(
        seed_size=args.seed_size,
        batch_size=args.batch_size,
        max_iterations=args.max_iterations,
        target_f1=args.target_f1 if args.target_f1 > 0 else None,
        random_state=args.seed,
        warm_start=args.warm_start,
        evaluation_interval=args.evaluation_interval,
        committee_jobs=args.committee_jobs,
    )
    run = run_active_learning(
        prepared, combination, config=config, noise=args.noise, oracle_seed=args.seed
    )
    print(reporting.format_series(run.labels_curve(), run.f1_curve(), "progressive F1"))
    summary = run.summary()
    print(
        reporting.format_table(
            [summary],
            columns=["learner", "selector", "iterations", "labels", "best_f1",
                     "labels_to_convergence", "total_user_wait_time", "terminated_because"],
            title="run summary",
        )
    )
    return 0


def _command_train(args: argparse.Namespace) -> int:
    blocking = None
    if args.blocker is not None or args.blocking_threshold is not None:
        blocking = BlockingConfig(
            method=args.blocker or "jaccard", threshold=args.blocking_threshold
        )
    spec = FitSpec(
        dataset=args.dataset,
        pipeline=PipelineConfig(
            combination=args.combination,
            config=ActiveLearningConfig(
                seed_size=args.seed_size,
                batch_size=args.batch_size,
                max_iterations=args.max_iterations,
                target_f1=args.target_f1 if args.target_f1 > 0 else None,
                random_state=args.seed,
            ),
            blocking=blocking,
            scale=args.scale,
            noise=args.noise,
            oracle_seed=args.seed,
        ),
        artifact=args.model,
    )
    try:
        pipeline, run = execute_fit(spec)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from .pipeline import read_manifest

    manifest = read_manifest(args.model)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    training = pipeline.training
    print(
        f"trained {args.combination!r} on {args.dataset} "
        f"({training['n_pairs']} post-blocking pairs, skew {training['class_skew']:.3f})"
    )
    print(
        reporting.format_table(
            [run.summary()],
            columns=["learner", "selector", "iterations", "labels", "best_f1",
                     "final_f1", "terminated_because"],
            title="training summary",
        )
    )
    print(f"model saved to {args.model} (config hash {manifest['config_hash']})")
    return 0


def _load_records_file(path: str) -> list[dict]:
    """Validate a records file: a JSON list of objects.

    Interpreting each object (``record_id``/``id``/``attributes`` resolution,
    value stringification) is the pipeline's job — ``match`` accepts plain
    mappings — so the CLI and the Python API can never drift apart.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        raise ValueError(f"{path!r} must hold a JSON list of record objects")
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise ValueError(f"{path!r}[{index}] is not a JSON object")
    return payload


def _command_match(args: argparse.Namespace) -> int:
    from .pipeline import MatchingPipeline

    has_files = args.left is not None or args.right is not None
    if (args.dataset is not None) == has_files or (
        has_files and (args.left is None or args.right is None)
    ):
        print("error: pass either --dataset or both --left and --right", file=sys.stderr)
        return 1
    try:
        pipeline = MatchingPipeline.load(args.model)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.dataset is not None:
            dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
            records_a, records_b = dataset.left, dataset.right
        else:
            records_a = _load_records_file(args.left)
            records_b = _load_records_file(args.right)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.cascade is not None:
        import dataclasses

        pipeline.config = dataclasses.replace(
            pipeline.config, cascade=CascadeConfig(mode=args.cascade)
        )
    try:
        # min_score goes into match() so the cascade can prune on it; the
        # post-filter below is a no-op safety net (match already applies it).
        scores = pipeline.match(
            records_a,
            records_b,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            min_score=args.min_score,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.min_score is not None:
        scores = [s for s in scores if s.score >= args.min_score]

    if args.json:
        payload = {
            "model": args.model,
            "combination": pipeline.config.combination,
            "candidates": len(scores),
            "matches": sum(1 for s in scores if s.is_match),
            "cascade": pipeline.last_match_stats,
            "pairs": [s.to_dict() for s in scores],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    matches = sum(1 for s in scores if s.is_match)
    print(
        f"{len(scores)} candidate pair(s) scored with {pipeline.config.combination!r}, "
        f"{matches} predicted match(es)"
    )
    shown = sorted(scores, key=lambda s: (-s.score, s.left_id, s.right_id))[: args.limit]
    if shown:
        print(
            reporting.format_table(
                [s.to_dict() for s in shown],
                columns=["left_id", "right_id", "score", "is_match"],
                title=f"top {len(shown)} pairs by score",
            )
        )
    return 0


def _load_index(path: str):
    from .index import MatchIndex

    return MatchIndex.load(path)


def _stream_jsonl_batches(path: str, batch_size: int):
    """Lazily read a JSON Lines records file as batches of mappings."""
    batch: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if not isinstance(entry, dict):
                raise ValueError(f"{path!r} line {line_number} is not a JSON object")
            batch.append(entry)
            if len(batch) >= batch_size:
                yield batch
                batch = []
    if batch:
        yield batch


def _chunk_batches(records, batch_size: int):
    for start in range(0, len(records), batch_size):
        yield records[start : start + batch_size]


def _print_index_stats(index, path: str, as_json: bool) -> None:
    stats = index.stats()
    if as_json:
        print(json.dumps({"index": path, "stats": stats}, indent=2, sort_keys=True))
    else:
        print(
            f"index {path}: {stats['records']} record(s) "
            f"({stats['tombstones']} tombstoned of {stats['rows']} rows), "
            f"{stats['posting_lists']} posting lists across {stats['bands']} bands"
        )


def _command_index_build(args: argparse.Namespace) -> int:
    from .core import IndexConfig
    from .index import MatchIndex
    from .pipeline import MatchingPipeline

    has_records = args.records is not None
    if (args.dataset is not None) == has_records:
        print("error: pass either --records or --dataset", file=sys.stderr)
        return 1
    pipeline = MatchingPipeline.load(args.model)
    overrides = {
        name: value
        for name, value in (
            ("num_perm", args.num_perm),
            ("bands", args.bands),
            ("shingle_size", args.shingle_size),
            ("verify_threshold", args.verify_threshold),
            ("shards", args.shards),
        )
        if value is not None
    }
    config = None
    if overrides:
        resolved = pipeline.resolved_blocking
        if resolved is not None and resolved.method == "minhash_lsh":
            config = IndexConfig.from_blocking(resolved, **overrides)
        else:
            config = IndexConfig(**overrides)
    index = MatchIndex(pipeline, config)
    if args.stream and has_records and args.records.endswith(".jsonl"):
        # True streaming: the corpus file is read lazily, one batch at a
        # time, so peak memory is the columns plus one batch.
        index.build_stream(_stream_jsonl_batches(args.records, args.batch_size))
    else:
        if has_records:
            if args.stream:
                # Only JSON Lines can be read lazily; anything else is one
                # JSON document that must be parsed whole.  Say so instead of
                # silently voiding the peak-memory guarantee --stream implies.
                print(
                    f"warning: --stream reads lazily only from .jsonl files; "
                    f"{args.records!r} will be loaded into memory in full "
                    f"(batched appends only)",
                    file=sys.stderr,
                )
            records = _load_records_file(args.records)
        else:
            dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
            records = getattr(dataset, args.side).records
        if args.stream:
            index.build_stream(_chunk_batches(records, args.batch_size))
        else:
            index.add(records)
    manifest = index.save(args.out)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        print(f"indexed {len(index)} record(s) with model {args.model}")
        _print_index_stats(index, args.out, as_json=False)
    return 0


def _command_index_add(args: argparse.Namespace) -> int:
    index = _load_index(args.index)
    added = index.add(_load_records_file(args.records))
    index.save(args.index)
    if not args.json:
        print(f"added {len(added)} record(s)")
    _print_index_stats(index, args.index, args.json)
    return 0


def _command_index_upsert(args: argparse.Namespace) -> int:
    index = _load_index(args.index)
    outcome = index.upsert(
        _load_records_file(args.records), insert_missing=not args.no_insert
    )
    index.save(args.index)
    if args.json:
        payload = {
            "index": args.index,
            "updated": outcome["updated"],
            "inserted": outcome["inserted"],
            "stats": index.stats(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"upserted {len(outcome['updated']) + len(outcome['inserted'])} record(s) "
        f"({len(outcome['updated'])} updated, {len(outcome['inserted'])} inserted)"
    )
    _print_index_stats(index, args.index, as_json=False)
    return 0


def _command_index_remove(args: argparse.Namespace) -> int:
    index = _load_index(args.index)
    ids = [record_id.strip() for record_id in args.ids.split(",") if record_id.strip()]
    removed = index.remove(ids)
    index.save(args.index)
    if not args.json:
        print(f"removed {removed} record(s)")
    _print_index_stats(index, args.index, args.json)
    return 0


def _command_index_query(args: argparse.Namespace) -> int:
    has_inline = args.record is not None
    if has_inline == (args.record_file is not None):
        print("error: pass either --record or --record-file", file=sys.stderr)
        return 1
    try:
        if has_inline:
            record = json.loads(args.record)
        else:
            with open(args.record_file, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        if not isinstance(record, dict):
            raise ValueError("the record must be a JSON object")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    index = _load_index(args.index)
    if args.cascade is not None:
        index.set_cascade_mode(args.cascade)
    trace_tree = None
    if args.trace:
        from .telemetry import start_trace

        with start_trace("cli.query") as root:
            scores = index.query(record, top_k=args.top_k, min_score=args.min_score)
        trace_tree = root.to_dict()
    else:
        scores = index.query(record, top_k=args.top_k, min_score=args.min_score)
    if args.json:
        payload = {
            "index": args.index,
            "candidates": len(scores),
            "matches": sum(1 for score in scores if score.is_match),
            "cascade": index.stats()["cascade"],
            "pairs": [score.to_dict() for score in scores],
        }
        if trace_tree is not None:
            payload["trace"] = trace_tree
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    matches = sum(1 for score in scores if score.is_match)
    print(f"{len(scores)} candidate(s) scored, {matches} predicted match(es)")
    if scores:
        print(
            reporting.format_table(
                [score.to_dict() for score in scores],
                columns=["left_id", "right_id", "score", "is_match"],
                title="scored candidates",
            )
        )
    if trace_tree is not None:
        print("trace:")
        _print_span_tree(trace_tree)
    return 0


def _print_span_tree(node: dict, depth: int = 1) -> None:
    """Indented one-line-per-span view of a trace tree (``--trace``)."""
    meta = node.get("meta") or {}
    extra = "".join(f" {key}={value}" for key, value in sorted(meta.items()))
    print(
        f"{'  ' * depth}{node['name']}  "
        f"wall={node['wall_ms']:.3f}ms cpu={node['cpu_ms']:.3f}ms{extra}"
    )
    for child in node.get("children", ()):
        _print_span_tree(child, depth + 1)


def _command_index_dedup(args: argparse.Namespace) -> int:
    index = _load_index(args.index)
    clusters = index.resolve(min_score=args.min_score)
    entities = [cluster for cluster in clusters if len(cluster) > 1]
    if args.json:
        payload = {
            "index": args.index,
            "records": len(index),
            "entities": len(clusters),
            "merged_entities": len(entities),
            "clusters": clusters,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{len(index)} record(s) resolved into {len(clusters)} entities "
        f"({len(entities)} with more than one record)"
    )
    for cluster in entities[: args.limit]:
        print(f"  {len(cluster)} records: {', '.join(cluster)}")
    if len(entities) > args.limit:
        print(f"  ... {len(entities) - args.limit} more (use --json for all)")
    return 0


def _command_index(args: argparse.Namespace) -> int:
    handlers = {
        "build": _command_index_build,
        "add": _command_index_add,
        "upsert": _command_index_upsert,
        "remove": _command_index_remove,
        "query": _command_index_query,
        "dedup": _command_index_dedup,
    }
    try:
        return handlers[args.index_command](args)
    except (ReproError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from . import telemetry
    from .server import MatchServer, ServerConfig

    # Route every server log record (request access lines, snapshot
    # failures, protocol notices) through the structured logger.
    telemetry.configure(log_format=args.log_format)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        snapshot_interval=args.snapshot_interval,
        snapshot_path=args.snapshot_path,
        quiet=not args.verbose,
    )
    try:
        server = MatchServer.from_artifact(args.index, config)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def _on_signal(signum, frame) -> None:
        server.request_shutdown()

    # Signal handlers only exist on the main thread (tests drive this
    # command from a worker thread and stop it via POST /admin/shutdown).
    previous = {}
    if threading.current_thread() is threading.main_thread():
        previous = {
            signum: signal.signal(signum, _on_signal)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
    try:
        server.start()
        stats = server.healthz()
        print(
            f"serving index {args.index} ({stats['records']} records) "
            f"on http://{server.host}:{server.port} — "
            f"batching {'off' if config.batch_window == 0 else f'{config.batch_window * 1000:g}ms window'}, "
            f"snapshots {'off' if config.snapshot_interval == 0 else f'every {config.snapshot_interval:g}s'}; "
            f"POST /admin/shutdown (or SIGTERM) to stop",
            flush=True,
        )
        server.wait_for_shutdown()
        server.stop()
        print("server stopped", flush=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _command_sweep(args: argparse.Namespace, resume: bool = False) -> int:
    datasets = (
        [name.strip() for name in args.datasets.split(",") if name.strip()]
        if args.datasets
        else None
    )
    store = RunStore(args.store) if args.store else None
    if resume and (store is None or not store.path.exists()):
        print(f"error: store {args.store!r} does not exist; run 'sweep --store' first")
        return 1
    completed_before = store.completed_hashes() if store is not None else set()

    result = experiments.run_sweep_family(
        args.family,
        datasets=datasets,
        scale=args.scale,
        max_iterations=args.max_iterations,
        seed=args.seed,
        jobs=args.jobs,
        store=store,
    )

    if store is not None:
        completed_after = store.completed_hashes()
        executed = len(completed_after - completed_before)
        print(
            f"sweep {args.family!r}: {executed} trial(s) executed, "
            f"{len(completed_before)} already in store -> {store.path}"
        )
    else:
        print(f"sweep {args.family!r}: complete (jobs={args.jobs})")
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _command_report(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    if not store.path.exists():
        print(f"error: store {args.store!r} does not exist")
        return 1
    rows = []
    for trial_hash, entry in sorted(store.load().items()):
        trial = TrialSpec.from_dict(entry["trial"])
        run = ActiveLearningRun.from_dict(entry["run"])
        rows.append(
            {
                "trial": trial_hash,
                "dataset": trial.dataset,
                "combination": trial.combination,
                "noise": trial.noise,
                "seed": trial.config.random_state,
                "iterations": len(run),
                "labels": run.total_labels,
                "best_f1": round(run.best_f1, 4),
                "terminated_because": run.terminated_because,
            }
        )
    if not rows:
        print(f"store {args.store!r} holds no completed trials")
        return 0
    print(
        reporting.format_table(
            rows,
            columns=[
                "trial", "dataset", "combination", "noise", "seed",
                "iterations", "labels", "best_f1", "terminated_because",
            ],
            title=f"run store — {args.store} ({len(rows)} trials)",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "table1":
        return _command_table1(args.scale)
    if args.command == "run":
        return _command_run(args)
    if args.command == "train":
        return _command_train(args)
    if args.command == "match":
        return _command_match(args)
    if args.command == "index":
        return _command_index(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "block":
        return _command_block(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "resume":
        return _command_sweep(args, resume=True)
    if args.command == "report":
        return _command_report(args)
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
