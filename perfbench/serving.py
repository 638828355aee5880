"""serve-unique, serve-repeat and index-churn: the daemon under HTTP load.

Each run fits a ``Trees(2)`` pipeline, builds a :class:`~repro.index.MatchIndex`
over a generated ``dblp_acm`` corpus, saves the artifact and serves it with
``python -m repro serve`` at the CLI defaults (2 ms batch window).  Set-up is
identical on every run: the corpus and the model use the catalog's fixed
generation seed, and ``--seed`` only picks the probes and the churn writes.
Clients are closed loops, one persistent HTTP/1.1 connection per thread, at
most two threads (the host's core count).
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from benchutil import (
    Daemon,
    HttpError,
    Outcome,
    histogram_mean_ms,
    mean,
    pairwise_f1,
    proc_status_mb,
    scrape,
    summarize_ms,
)
from layers import LayerTimer, span_metrics, training_metrics, training_targets

DATASET = "dblp_acm"
TRAIN_SCALE = 0.15
SERVE_SCALE = 50.0  # 10,000 right-table records in the corpus
CHURN_SCALE = 6.0  # 1,200 entities; both tables make a 2,400-record corpus
INDEX_OPTIONS = {"verify_threshold": 0.5, "exact_verify": True}
#: Daemon starts per run; ``setup_s`` counts the median one.
DAEMON_STARTS = 3
#: Ops per requested second; the work is fixed by --seconds alone.
UNIQUE_OPS_PER_SECOND = 10
REPEAT_OPS_PER_SECOND = 28
REPEAT_PROBES = 16
CHURN_WRITES_PER_SECOND = 12
CHURN_READS_PER_SECOND = 14
#: An incremental ``/resolve`` follows every this many churn writes.
RESOLVE_EVERY = 10
#: HTTP answers compared with an in-process ``MatchIndex.query``.
SAMPLE_CHECKS = 5


@dataclass
class Op:
    endpoint: str
    start: float
    end: float
    status: int | None
    body: bytes

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.status == 200

    def payload(self) -> dict:
        return json.loads(self.body)


def _record_json(record) -> dict:
    return {"record_id": record.record_id, "attributes": dict(record.attributes)}


def _query(record, trace: bool = False) -> tuple[str, dict]:
    payload = {"record": _record_json(record)}
    if trace:
        payload["trace"] = True
    return "/query", payload


def _rows(scores) -> list:
    return [[s.left_id, s.right_id, s.score, s.is_match] for s in scores]


def _payload_rows(payload: dict) -> list:
    return [[p["left_id"], p["right_id"], p["score"], p["is_match"]] for p in payload["pairs"]]


# ---------------------------------------------------------------- set-up
def _fit_pipeline(timer: LayerTimer, trace: bool):
    from repro.core import ActiveLearningConfig, BlockingConfig, PipelineConfig
    from repro.datasets import get_dataset_spec, load_dataset
    from repro.pipeline import MatchingPipeline

    with timer.section("datasets.generate"):
        train = load_dataset(DATASET, scale=TRAIN_SCALE)
    pipeline = MatchingPipeline(
        PipelineConfig(
            combination="Trees(2)",
            config=ActiveLearningConfig(
                seed_size=20, batch_size=10, max_iterations=3, target_f1=None, random_state=0
            ),
            blocking=BlockingConfig(threshold=get_dataset_spec(DATASET).blocking_threshold),
        )
    )
    with timer.section("setup.fit"):
        with timer.wrapping(training_targets()) if trace else ExitStack():
            pipeline.fit(train)
    return pipeline


def _new_index(pipeline):
    from repro.core import IndexConfig
    from repro.index import MatchIndex

    return MatchIndex(pipeline, IndexConfig(**INDEX_OPTIONS))


def _start_daemon(ctx, index_dir, stack: ExitStack) -> tuple[Daemon, list[float]]:
    """Start the daemon DAEMON_STARTS times; keep the last one serving."""
    starts = []
    for _ in range(DAEMON_STARTS - 1):
        with Daemon(index_dir, ctx.run_dir) as daemon:
            starts.append(daemon.start_s)
    daemon = stack.enter_context(Daemon(index_dir, ctx.run_dir))
    starts.append(daemon.start_s)
    return daemon, starts


# ---------------------------------------------------------------- load
def _run_clients(connections, scripts) -> tuple[float, float, list[list[Op]]]:
    """Each connection sends its script closed-loop from its own thread.

    Returns the stream's start clock, its wall time and every thread's ops.
    """
    barrier = threading.Barrier(len(scripts) + 1)
    logs: list[list[Op]] = [[] for _ in scripts]
    errors: list[BaseException] = []

    def client(connection, script, log) -> None:
        try:
            encoded = [(endpoint, json.dumps(payload).encode()) for endpoint, payload in script]
            barrier.wait()
            for endpoint, payload in encoded:
                start = perf_counter()
                try:
                    status, body = connection.request("POST", endpoint, payload)
                except (OSError, HttpError, ValueError):
                    status, body = None, b""
                log.append(Op(endpoint, start, perf_counter(), status, body))
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(connection, script, log), daemon=True)
        for connection, script, log in zip(connections, scripts, logs)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    wall = perf_counter() - start
    if errors:
        raise errors[0]
    return start, wall, logs


def _serving_layers(untraced: dict, traced: dict, query_ops: list[Op], traced_ops: list[Op]) -> dict:
    """Per-layer metrics of the query path from the untraced and the traced
    daemon's ``/metrics`` and the traced span trees."""
    layers = span_metrics([op.payload()["trace"] for op in traced_ops if op.ok])
    handler_ms = histogram_mean_ms(untraced, "repro_request_latency_seconds", 'endpoint="query"')
    batches = untraced.get(("repro_batch_batches_total", ""), 0.0)
    batched = untraced.get(("repro_batch_requests_total", ""), 0.0)
    seen = traced.get(("repro_cascade_candidates_total", ""), 0.0)
    pruned = traced.get(("repro_cascade_pruned_total", ""), 0.0)
    query_ms = summarize_ms([op.seconds for op in query_ops])["p50"]
    layers.update({
        "server.handler_ms": handler_ms,
        "server.transport_ms": mean(op.seconds * 1000.0 for op in query_ops) - handler_ms,
        "batching.batches": batches,
        "batching.mean_batch": batched / batches if batches else 0.0,
        "index.lookup_ms": histogram_mean_ms(traced, "repro_index_lookup_seconds"),
        "scoring.prune_ratio": pruned / seen if seen else 0.0,
        "index.query_ms": query_ms,
    })
    return layers


def _setup_parts(timer: LayerTimer, starts: list[float]) -> dict:
    return {
        "generate": timer.seconds["datasets.generate"],
        "fit": timer.seconds["setup.fit"],
        "build": timer.seconds["index.build"],
        "save": timer.seconds["setup.save"],
        "daemon_starts": starts,
        "resolve_full": timer.seconds["index.resolve_full"],
    }


def _index_counts(stats: dict) -> dict:
    index = stats["index"]
    return {
        "index.resolution_repairs": index["resolution_repairs"],
        "index.resolution_recomputes": index["resolution_recomputes"],
        "index.tombstones": index["tombstones"],
    }


def _check_sample(problems: list, index, probes, answers) -> None:
    """Sampled HTTP answers must equal in-process ``MatchIndex.query``."""
    for probe, payload in itertools.islice(zip(probes, answers), SAMPLE_CHECKS):
        if _payload_rows(payload) != _rows(index.query(probe)):
            problems.append(f"HTTP answer for {probe.record_id} differs from MatchIndex.query")


def _query_f1(answers: dict, truth: set) -> float:
    """F1 of the returned ``is_match`` pairs against the generator's truth,
    over the distinct probes sent."""
    predicted = {
        (pair["left_id"], pair["right_id"])
        for payload in answers.values()
        for pair in payload["pairs"]
        if pair["is_match"]
    }
    wanted = {match for match in truth if match[0] in answers}
    return pairwise_f1(predicted, wanted)


# ------------------------------------------------------------ serve-*
def _serve(ctx, repeat: bool) -> Outcome:
    from repro.datasets import load_dataset
    from repro.index import MatchIndex

    timer = LayerTimer()
    with timer.section("datasets.generate"):
        corpus = load_dataset(DATASET, scale=SERVE_SCALE)
    pipeline = _fit_pipeline(timer, ctx.trace)
    index = _new_index(pipeline)
    with timer.section("index.build"):
        index.add(corpus.right.records)
    index_dir = ctx.run_dir / "index"
    with timer.section("setup.save"):
        index.save(index_dir)
    del index

    left = corpus.left.records
    rng = np.random.default_rng([ctx.seed, 0])
    if repeat:
        # A fixed probe set, the same for every seed; the seed only orders
        # each connection's cycle through it.
        probes = left[:: len(left) // REPEAT_PROBES][:REPEAT_PROBES]
        per_client = REPEAT_OPS_PER_SECOND * ctx.seconds // 2
        plans = []
        for _ in range(2):
            cycle = [probes[i] for i in rng.permutation(REPEAT_PROBES)]
            plans.append([cycle[i % REPEAT_PROBES] for i in range(per_client)])
    else:
        order = rng.permutation(len(left))[: UNIQUE_OPS_PER_SECOND * ctx.seconds]
        plans = [[left[i] for i in order]]

    def scripts(trace: bool):
        return [[_query(record, trace) for record in plan] for plan in plans]

    with ExitStack() as stack:
        daemon, starts = _start_daemon(ctx, index_dir, stack)
        connections = [stack.enter_context(daemon.connect()) for _ in plans]
        control = stack.enter_context(daemon.connect())
        pid = daemon.process.pid
        rss_start = proc_status_mb(pid, "VmRSS")
        first_op_at, wall, logs = _run_clients(connections, scripts(False))
        rss_end = proc_status_mb(pid, "VmRSS")
        rss_peak = proc_status_mb(pid, "VmHWM")
        untraced_metrics = scrape(control)
        stats = control.json("GET", "/stats")
    setup_s = ctx.setup_s(first_op_at, starts)

    ops = [op for log in logs for op in log]
    problems = []
    answers: dict[str, dict] = {}
    sent = [record for plan in plans for record in plan]
    for record, op in zip(sent, ops):
        if not op.ok:
            continue
        payload = op.payload()
        first = answers.setdefault(record.record_id, payload)
        if first["pairs"] != payload["pairs"]:
            problems.append(f"two answers for {record.record_id} differ")
    served = stats["server"]["requests"].get("query", 0)
    if served != sum(op.ok for op in ops):
        problems.append(f"daemon counted {served} queries, client {sum(op.ok for op in ops)}")
    distinct = list({record.record_id: record for record in sent if record.record_id in answers}.values())
    _check_sample(problems, MatchIndex.load(index_dir), distinct,
                  [answers[record.record_id] for record in distinct])

    outcome = Outcome(
        setup_s=setup_s,
        latencies_s=[op.seconds for op in ops],
        stream_s=wall,
        attempted=len(ops),
        failed=sum(not op.ok for op in ops),
        rss_mb=rss_peak,
        quality=_query_f1(answers, corpus.matches),
        problems=problems,
        notes={
            "corpus": {"records": len(corpus.right), "distinct_probes": len(answers),
                       "clients": len(plans)},
            "setup_parts_s": _setup_parts(timer, starts),
            "counts": {"requests": stats["server"]["requests"], **_index_counts(stats)},
        },
    )
    if ctx.trace:
        with ExitStack() as stack:
            daemon = stack.enter_context(Daemon(index_dir, ctx.run_dir))
            connections = [stack.enter_context(daemon.connect()) for _ in plans]
            _, traced_wall, traced_logs = _run_clients(connections, scripts(True))
            traced_metrics = scrape(stack.enter_context(daemon.connect()))
        traced_ops = [op for log in traced_logs for op in log]
        for op, traced in zip(ops, traced_ops):
            if op.ok and traced.ok and op.payload()["pairs"] != traced.payload()["pairs"]:
                problems.append("a traced answer differs from the untraced one")
                break
        layers = training_metrics(timer)
        layers.update(_serving_layers(untraced_metrics, traced_metrics, ops, traced_ops))
        layers.update(_index_counts(stats))
        layers["datasets.generate_s"] = timer.seconds["datasets.generate"]
        layers["index.build_s"] = timer.seconds["index.build"]
        layers["server.read_alone_ms"] = layers["index.query_ms"]
        layers["server.rss_growth_mb"] = rss_end - rss_start
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0
        outcome.layers = layers
    return outcome


def serve_unique(ctx) -> Outcome:
    return _serve(ctx, repeat=False)


def serve_repeat(ctx) -> Outcome:
    return _serve(ctx, repeat=True)


# ------------------------------------------------------------ index-churn
@dataclass
class ChurnPlan:
    writes: list  # (endpoint, payload), ending with a /resolve
    reads: list  # probe records
    entity: dict  # record id -> entity (the id of the entity's first record)
    live: list  # record ids alive after the writes


def _churn_plan(dataset, seed: int, n_writes: int, n_reads: int) -> ChurnPlan:
    """A seeded write sequence over the corpus and the reader's probes.

    Every upsert and add carries a fresh mention of an existing entity (a
    corrupted copy of the entity's first record), so the truth stays defined.
    """
    from repro.datasets import Record
    from repro.datasets.corruption import CorruptionConfig, Corruptor

    rng = np.random.default_rng([seed, 1])
    corruptor = Corruptor(CorruptionConfig())
    # An entity is named by its first record: the left-table one when the
    # generator's truth pairs a right-table record with it.
    records = dataset.left.records + dataset.right.records
    entity = {record.record_id: record.record_id for record in records}
    entity.update({right: left for left, right in dataset.matches})
    base = {r.record_id: r.attributes for r in records if entity[r.record_id] == r.record_id}
    entities = sorted(base)
    live = [record.record_id for record in records]

    def mention(record_id: str, of: str) -> dict:
        return _record_json(Record(record_id, corruptor.corrupt_record(base[of], rng)))

    writes = []
    for step in range(n_writes):
        draw = rng.random()
        if draw < 0.5:
            record_id = live[int(rng.integers(len(live)))]
            writes.append(("/upsert", {"records": [mention(record_id, entity[record_id])]}))
        elif draw < 0.75:
            record_id = live.pop(int(rng.integers(len(live))))
            writes.append(("/remove", {"ids": [record_id]}))
        else:
            record_id = f"A{step}"
            entity[record_id] = entities[int(rng.integers(len(entities)))]
            live.append(record_id)
            writes.append(("/add", {"records": [mention(record_id, entity[record_id])]}))
        if (step + 1) % RESOLVE_EVERY == 0 or step == n_writes - 1:
            writes.append(("/resolve", {}))
    reads = [
        Record(f"Q{n}", corruptor.corrupt_record(base[entities[int(rng.integers(len(entities)))]], rng))
        for n in range(n_reads)
    ]
    return ChurnPlan(writes=writes, reads=reads, entity=entity, live=live)


def _cluster_f1(clusters: list, entity: dict) -> float:
    """Pairwise F1 of the clusters against the generator's entity ids."""
    predicted = {
        pair for cluster in clusters for pair in itertools.combinations(sorted(cluster), 2)
    }
    by_entity: dict[str, list] = {}
    for cluster in clusters:
        for record_id in cluster:
            by_entity.setdefault(entity[record_id], []).append(record_id)
    truth = {
        pair for members in by_entity.values() for pair in itertools.combinations(sorted(members), 2)
    }
    return pairwise_f1(predicted, truth)


def _overlaps(op: Op, writes: list[Op]) -> bool:
    return any(write.start < op.end and op.start < write.end for write in writes)


def _replay(index, writes) -> None:
    """Apply the churn writes to an in-process index (resolution aside)."""
    for endpoint, payload in writes:
        if endpoint == "/upsert":
            index.upsert(payload["records"])
        elif endpoint == "/add":
            index.add(payload["records"])
        elif endpoint == "/remove":
            index.remove(payload["ids"])


def _churn_stream(daemon, plan: ChurnPlan, trace: bool, timer: LayerTimer):
    """Full ``/resolve``, a ``/metrics`` scrape, then writer and reader side
    by side."""
    with daemon.connect() as writer, daemon.connect() as reader:
        with timer.section("index.resolve_full"):
            writer.json("POST", "/resolve", {})
        before = scrape(writer)
        pid = daemon.process.pid
        rss_start = proc_status_mb(pid, "VmRSS")
        first_op_at, wall, (write_ops, read_ops) = _run_clients(
            [writer, reader], [plan.writes, [_query(record, trace) for record in plan.reads]]
        )
        rss_end = proc_status_mb(pid, "VmRSS")
    return before, first_op_at, wall, write_ops, read_ops, rss_end - rss_start


def index_churn(ctx) -> Outcome:
    from repro.datasets import load_dataset
    from repro.index import MatchIndex

    timer = LayerTimer()
    with timer.section("datasets.generate"):
        dataset = load_dataset(DATASET, scale=CHURN_SCALE)
    pipeline = _fit_pipeline(timer, ctx.trace)
    index = _new_index(pipeline)
    with timer.section("index.build"):
        index.add(dataset.left.records + dataset.right.records)
    index_dir = ctx.run_dir / "index"
    with timer.section("setup.save"):
        index.save(index_dir)
    del index
    plan = _churn_plan(
        dataset, ctx.seed, CHURN_WRITES_PER_SECOND * ctx.seconds, CHURN_READS_PER_SECOND * ctx.seconds
    )

    with ExitStack() as stack:
        daemon, starts = _start_daemon(ctx, index_dir, stack)
        before, first_op_at, wall, write_ops, read_ops, rss_growth = _churn_stream(
            daemon, plan, False, timer
        )
        control = stack.enter_context(daemon.connect())
        untraced_metrics = scrape(control)
        stats = control.json("GET", "/stats")
        sample = [control.json("POST", *_query(record)) for record in plan.reads[:SAMPLE_CHECKS]]
        rss_peak = proc_status_mb(daemon.process.pid, "VmHWM")
    setup_s = ctx.setup_s(first_op_at, starts)

    ops = write_ops + read_ops
    problems = []
    if not all(op.ok for op in ops):
        problems.append(f"{sum(not op.ok for op in ops)} requests failed")
    final = write_ops[-1].payload() if write_ops[-1].ok else {"clusters": []}
    clusters = final["clusters"]
    members = [record_id for cluster in clusters for record_id in cluster]
    if sorted(members) != sorted(plan.live):
        problems.append("final clusters do not partition the live records")
    if stats["index"]["records"] != len(plan.live):
        problems.append(f"daemon holds {stats['index']['records']} records, expected {len(plan.live)}")
    if stats["index"]["resolution_recomputes"] != 1:
        problems.append("churn fell back to a full resolution recompute")
    replayed = MatchIndex.load(index_dir)
    _replay(replayed, plan.writes)
    _check_sample(problems, replayed, plan.reads, sample)

    by_endpoint = {}
    for op in ops:
        by_endpoint.setdefault(op.endpoint.strip("/"), []).append(op.seconds)
    server_ms = {
        endpoint: histogram_mean_ms(
            untraced_metrics, "repro_request_latency_seconds", f'endpoint="{endpoint}"', before
        )
        for endpoint in sorted(by_endpoint)
    }
    outcome = Outcome(
        setup_s=setup_s,
        latencies_s=[op.seconds for op in ops],
        stream_s=wall,
        attempted=len(ops),
        failed=sum(not op.ok for op in ops),
        rss_mb=rss_peak,
        quality=_cluster_f1(clusters, plan.entity),
        problems=problems,
        notes={
            "corpus": {"records": len(dataset.left) + len(dataset.right),
                       "writes": len(write_ops), "reads": len(read_ops),
                       "final_records": len(plan.live)},
            "client_p50_ms": {k: summarize_ms(v)["p50"] for k, v in sorted(by_endpoint.items())},
            "server_mean_ms": server_ms,
            "setup_parts_s": _setup_parts(timer, starts),
            "counts": {"requests": stats["server"]["requests"], **_index_counts(stats),
                       "records": stats["index"]["records"]},
        },
    )
    if ctx.trace:
        with Daemon(index_dir, ctx.run_dir) as daemon, daemon.connect() as control:
            _, _, traced_wall, _, traced_reads, _ = _churn_stream(
                daemon, plan, True, LayerTimer()
            )
            traced_metrics = scrape(control)
        layers = training_metrics(timer)
        layers.update(_serving_layers(untraced_metrics, traced_metrics, read_ops, traced_reads))
        layers.update(_index_counts(stats))
        during = [op.seconds for op in read_ops if _overlaps(op, write_ops)]
        alone = [op.seconds for op in read_ops if not _overlaps(op, write_ops)]
        layers.update({
            "datasets.generate_s": timer.seconds["datasets.generate"],
            "index.build_s": timer.seconds["index.build"],
            "index.resolve_full_s": timer.seconds["index.resolve_full"],
            "index.upsert_ms": summarize_ms(by_endpoint.get("upsert", []))["p50"],
            "index.remove_ms": summarize_ms(by_endpoint.get("remove", []))["p50"],
            "index.add_ms": summarize_ms(by_endpoint.get("add", []))["p50"],
            "index.resolve_repair_ms": summarize_ms(by_endpoint.get("resolve", []))["p50"],
            "server.read_during_write_ms": summarize_ms(during)["p50"],
            "server.read_alone_ms": summarize_ms(alone)["p50"],
            "server.rss_growth_mb": rss_growth,
            "trace.overhead_frac": traced_wall / wall - 1.0,
        })
        outcome.layers = layers
    return outcome
