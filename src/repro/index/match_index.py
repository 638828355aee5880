"""Incrementally maintained match index over a trained pipeline.

A :class:`MatchIndex` answers the serving-side question the batch
:meth:`~repro.pipeline.MatchingPipeline.match` cannot: *given one new record,
which of the N indexed records match it* — without re-blocking the whole
corpus per call.  It maintains, under :meth:`add` / :meth:`remove`:

* a MinHash-LSH band index (band-hash → posting rows) partitioned into
  ``IndexConfig.shards`` hash-partitioned shards
  (:mod:`repro.index.shards`), built with the same
  :class:`~repro.blocking.signatures.SignatureComputer` the batch blocker
  uses,
* columnar per-record state (:mod:`repro.index.storage`): 16-bit signature
  matrix, band keys, shingle-hash arena, and the records themselves as
  UTF-8/JSON arenas — numpy columns, not per-record Python objects, and
* a persistent feature extractor whose normalization / value-pair caches warm
  up as the corpus is indexed.

:meth:`query` unions the posting hits across shards (partition-invariant, so
results are bit-identical for every shard count) and scores one small
candidate batch — **bit-identical** to a batch ``match([record], corpus)``
under the equivalent ``minhash_lsh`` blocking config (golden + property
tested), at a small fraction of the cost.

Deletes are *tombstones*: the row is masked out of every query and
:meth:`compact` (triggered automatically past
``IndexConfig.compaction_threshold``) rebuilds columns and postings without
the dead rows, reclaiming all over-allocated tail capacity.  Row order is
insertion order and compaction preserves it, which is what keeps incremental
results aligned with the batch reference.

Persistence is columnar too: :meth:`save` writes each column and each
posting shard as its own content-addressed ``.npy`` payload, so an in-place
re-save only writes the files whose bytes actually changed (a remove touches
one file, an add leaves clean shards alone), and :meth:`load` memory-maps
the payloads read-only — O(1) startup with demand paging instead of
unpickling the corpus.  Streaming bulk builds (:meth:`build_stream`) append
record batches to the columns without ever materializing the full corpus.

In-place updates are first-class: :meth:`upsert` atomically replaces (or
inserts) records — validation is all-or-nothing, the old row is tombstoned
and the new one appended in one logical step, and an in-place save stays
dirty-only (live mask plus touched shards).

On top of the pairwise layer, :meth:`resolve` runs union-find over accepted
match pairs (prediction = match, optionally ``score >= min_score``) and emits
stable entity clusters.  Cluster state is maintained incrementally across
every mutation: :meth:`add` extends it with the new rows, and
:meth:`remove` / :meth:`upsert` run a *scoped repair* — union-find cannot
split, but the state keeps a log of every accepted pair, and dropping a row
only removes pairs incident to it, so replaying the surviving log rebuilds
the clustering without re-scoring a single candidate (provably equal to a
from-scratch :meth:`resolve`; property-tested).
"""

from __future__ import annotations

import io
import pickle
from pathlib import Path

import numpy as np

from ..blocking.signatures import SignatureComputer
from ..core.config import CascadeConfig, IndexConfig
from ..datasets.base import CandidatePair, Record, Table
from ..exceptions import ArtifactError, ConfigurationError, DatasetError
from ..harness.preparation import make_extractor
from ..pipeline.artifact import (
    PayloadRef,
    read_manifest,
    read_payload,
    read_payload_path,
    write_artifact,
)
from ..pipeline.matching import MatchingPipeline, MatchScore, coerce_record
from ..scoring import CascadeScorer
from ..telemetry import MetricsRegistry, span
from .resolution import UnionFind, stable_clusters
from .shards import ShardPostings, ShardedPostings, shard_of
from .storage import (
    Arena,
    GrowableMatrix,
    GrowableVector,
    IndexStorage,
    encode_attributes,
)

__all__ = [
    "INDEX_FORMAT_VERSION",
    "INDEX_SIG16_PAYLOAD",
    "INDEX_STATE_PAYLOAD",
    "INDEX_SUPPORTED_VERSIONS",
    "MatchIndex",
    "shard_payload_names",
]

#: Current index payload version; bump on any reader-incompatible change to
#: the persisted layout.  Gated independently of the enclosing pipeline
#: artifact's ``format_version`` — a version-1 pipeline reader can always
#: load the wrapped pipeline and ignore the index payloads.
INDEX_FORMAT_VERSION = 2

#: Index payload versions this reader can load.  Version 1 (one pickled
#: state blob) loads through a legacy path and upgrades to the columnar
#: layout on the next save.
INDEX_SUPPORTED_VERSIONS = frozenset({1, 2})

#: Artifact-relative file holding the *legacy* (version-1) pickled state.
INDEX_STATE_PAYLOAD = "index/state.pkl"

#: Version-2 columnar payloads: one ``.npy`` file per column, so an in-place
#: save rewrites only the columns that changed.
INDEX_SIG16_PAYLOAD = "index/sig16.npy"
INDEX_BAND_KEYS_PAYLOAD = "index/band_keys.npy"
INDEX_LIVE_PAYLOAD = "index/live.npy"
INDEX_SHARD_IDS_PAYLOAD = "index/shard_ids.npy"
INDEX_SHINGLES_PAYLOAD = "index/shingles.npy"
INDEX_SHINGLE_OFFSETS_PAYLOAD = "index/shingle_offsets.npy"
INDEX_IDS_PAYLOAD = "index/ids.npy"
INDEX_ID_OFFSETS_PAYLOAD = "index/id_offsets.npy"
INDEX_ATTRS_PAYLOAD = "index/attrs.npy"
INDEX_ATTR_OFFSETS_PAYLOAD = "index/attr_offsets.npy"

#: Every column payload an :meth:`MatchIndex.add` dirties (postings shards
#: are tracked separately, per touched shard).
_COLUMN_PAYLOAD_NAMES = (
    INDEX_SIG16_PAYLOAD,
    INDEX_BAND_KEYS_PAYLOAD,
    INDEX_LIVE_PAYLOAD,
    INDEX_SHARD_IDS_PAYLOAD,
    INDEX_SHINGLES_PAYLOAD,
    INDEX_SHINGLE_OFFSETS_PAYLOAD,
    INDEX_IDS_PAYLOAD,
    INDEX_ID_OFFSETS_PAYLOAD,
    INDEX_ATTRS_PAYLOAD,
    INDEX_ATTR_OFFSETS_PAYLOAD,
)


def shard_payload_names(shard: int) -> tuple[str, str, str]:
    """The three CSR payload names of one posting shard."""
    prefix = f"index/postings/{shard:04d}"
    return (f"{prefix}.keys.npy", f"{prefix}.rows.npy", f"{prefix}.offsets.npy")


def _npy_bytes(array: np.ndarray) -> bytes:
    """Canonical ``.npy`` encoding (contiguous, fixed header) of an array."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array))
    return buffer.getvalue()


#: Ceiling on the persistent extractor's cache entries (value-pair,
#: normalization and bound caches together).  Probe-side entries can never
#: hit again (the cache key includes the probe's value), so a long-lived
#: serving index would otherwise grow without bound; when the ceiling is
#: crossed the caches are dropped and rebuilt lazily.  Caches never affect
#: scores, only speed.
EXTRACTOR_CACHE_LIMIT = 1 << 20

#: Ceiling on the row → :class:`Record` decode cache.  Records decoded from
#: the attribute arena (or kept from :meth:`add`) are memoized so scoring a
#: hot corpus row never re-parses JSON; past the ceiling the cache resets.
RECORD_CACHE_LIMIT = 1 << 16


class MatchIndex:
    """Low-latency single-record matching against an indexed corpus.

    Parameters
    ----------
    pipeline:
        A fitted (or loaded) :class:`~repro.pipeline.MatchingPipeline`; its
        predictor and feature extraction are reused unchanged, so index
        scores are exactly the pipeline's scores.
    config:
        LSH / maintenance parameters.  ``None`` inherits the pipeline's
        resolved blocking when it is ``minhash_lsh`` (so indexed queries
        block exactly as the pipeline's own ``match`` would), else the
        :class:`~repro.core.config.IndexConfig` defaults.
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry` receiving the
        index's metrics (mutation counters, corpus gauges, lookup timings,
        cascade counters).  Default is a fresh per-index registry — two
        indexes (and thus two in-process servers) never mix metrics — held
        as :attr:`metrics`; :meth:`stats` is a read-only view over it.

    The equivalence contract — for any add/remove history, ``query(r)``
    returns exactly what ``match([r], live_corpus)`` returns under
    ``config.blocking_config()`` — is asserted by the golden and hypothesis
    suites in ``tests/test_index.py`` / ``tests/test_index_golden.py``, and
    holds for every ``config.shards`` value
    (``tests/test_index_stream_shards.py``).
    """

    def __init__(
        self,
        pipeline: MatchingPipeline,
        config: IndexConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        pipeline._require_fitted()
        if config is None:
            resolved = pipeline.resolved_blocking
            if resolved is not None and resolved.method == "minhash_lsh":
                config = IndexConfig.from_blocking(resolved)
            else:
                config = IndexConfig()
        self.pipeline = pipeline
        self.config = config
        #: The index's metric namespace.  The cascade scorer shares it (its
        #: ``repro_cascade_*`` counters accumulate for the index's lifetime)
        #: and the serving daemon adopts it wholesale, so ``GET /metrics``
        #: exports exactly what :meth:`stats` summarizes.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._metric_upserts = self.metrics.counter(
            "repro_index_upserts_total", "Records upserted (updates + inserts)"
        )
        self._metric_added = self.metrics.counter(
            "repro_index_added_total", "Records appended (adds, upserts, bulk builds)"
        )
        self._metric_removed = self.metrics.counter(
            "repro_index_removed_total", "Records tombstoned by remove()"
        )
        self._metric_repairs = self.metrics.counter(
            "repro_index_resolution_repairs_total",
            "Scoped resolution repairs (pair-log replays)",
        )
        self._metric_recomputes = self.metrics.counter(
            "repro_index_resolution_recomputes_total",
            "Full resolution recomputes (first resolve / changed floor)",
        )
        self._metric_records = self.metrics.gauge(
            "repro_index_records", "Live (queryable) records"
        )
        self._metric_tombstones = self.metrics.gauge(
            "repro_index_tombstones", "Tombstoned rows awaiting compaction"
        )
        self._metric_lookup = self.metrics.histogram(
            "repro_index_lookup_seconds",
            "Posting lookup latency per probe (union across shards)",
        )
        self._computer = SignatureComputer(
            num_perm=config.num_perm,
            bands=config.bands,
            shingle_size=config.shingle_size,
            seed=config.seed,
        )
        #: Persistent extractor: normalization and value-pair caches warm up
        #: as records are indexed/queried instead of being rebuilt per call.
        self._extractor = make_extractor(pipeline.matched_columns, pipeline.feature_kind)
        #: Shared cascade scorer: one set of prune counters for the index's
        #: lifetime, surfaced through :meth:`stats` (and from there the
        #: serving daemon's ``/stats``).
        self._cascade = CascadeScorer(
            pipeline._predictor,
            self._extractor,
            pipeline.config.cascade,
            registry=self.metrics,
        )
        self._storage = IndexStorage(config.num_perm, config.bands)
        self._postings = ShardedPostings(config.bands, config.shards)
        self._postings.lookup_timer = self._metric_lookup
        #: record id → row for live rows; ``None`` means "not built yet" —
        #: a freshly loaded index defers the O(n) id decode until the first
        #: mutation or membership check, keeping :meth:`load` O(1).
        self._id_map: dict[str, int] | None = {}
        self._record_cache: dict[int, Record] = {}
        self._n_live = 0
        self._n_tombstones = 0
        #: Logical insertion count — *state*, not telemetry: it numbers
        #: auto-generated record ids and persists in the artifact manifest,
        #: so it stays an attribute (mirrored into ``repro_index_added_total``).
        self._added_total = 0
        self._shingle_sets: dict[int, set[int]] = {}
        #: Cached resolution state: ``{"min_score", "uf", "pairs"}`` where
        #: ``pairs`` logs every accepted (left id, right id) pair the
        #: union-find was built from — the structure scoped repair replays.
        self._resolution: dict | None = None
        #: payload name → ref into the artifact this state was loaded from /
        #: saved to; a clean payload's bytes are provably unchanged, so an
        #: in-place save skips re-serializing (and rewriting) it entirely.
        self._clean: dict[str, PayloadRef] = {}

    # ------------------------------------------------------------- storage
    @property
    def _live(self) -> np.ndarray:
        """Writable live mask over all physical rows."""
        return self._storage.live.array

    def _ensure_id_map(self) -> dict[str, int]:
        if self._id_map is None:
            self._id_map = {
                self._storage.record_id(row): row
                for row in np.flatnonzero(self._live).tolist()
            }
        return self._id_map

    def _record_at(self, row: int) -> Record:
        """The record at a physical row, decoded from the arenas (memoized).

        Eviction is FIFO (oldest insertion first, one entry per miss): a
        corpus slightly over ``RECORD_CACHE_LIMIT`` degrades gracefully
        instead of wiping every hot entry the moment the ceiling is hit.
        """
        cache = self._record_cache
        record = cache.get(row)
        if record is None:
            record_id, attributes = self._storage.record_parts(row)
            record = Record(record_id=record_id, attributes=attributes)
            while len(cache) >= RECORD_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
            cache[row] = record
        return record

    def _mark_dirty(self, names, shards=()) -> None:
        """Drop clean-payload refs for mutated columns / posting shards."""
        for name in names:
            self._clean.pop(name, None)
        for shard in shards:
            for name in shard_payload_names(shard):
                self._clean.pop(name, None)

    def _sync_gauges(self) -> None:
        """Refresh the corpus gauges after any live/tombstone change."""
        self._metric_records.set(self._n_live)
        self._metric_tombstones.set(self._n_tombstones)

    # -------------------------------------------------------------- corpus
    def __len__(self) -> int:
        """Number of live (queryable) records."""
        return self._n_live

    def __contains__(self, record_id: str) -> bool:
        return str(record_id) in self._ensure_id_map()

    @property
    def n_rows(self) -> int:
        """Physical rows, live plus tombstoned (shrinks on compaction)."""
        return self._storage.n_rows

    @property
    def n_tombstones(self) -> int:
        return self._n_tombstones

    def records(self) -> list[Record]:
        """Live records in insertion order — the batch-equivalent corpus."""
        return [self._record_at(row) for row in np.flatnonzero(self._live).tolist()]

    def record_ids(self) -> list[str]:
        return [
            self._storage.record_id(row) for row in np.flatnonzero(self._live).tolist()
        ]

    def stats(self) -> dict:
        """Deterministic (timestamp-free) corpus and structure counters.

        Adds per-shard posting/tombstone counts and a resident/mapped byte
        split: ``resident_bytes`` estimates RAM actually owned by the index
        (columns, tails, posting deltas), ``mapped_bytes`` counts read-only
        memory-mapped artifact payloads served from the page cache.

        The mutation and resolution counters are a *view over the metrics
        registry* (:attr:`metrics`) — the same series a serving daemon
        exports on ``GET /metrics`` as ``repro_index_*`` — so this dict and
        a Prometheus scrape can never disagree.
        """
        live = self._live
        dead_shards = (
            self._storage.shard_ids.array[~live]
            if self._n_tombstones
            else np.empty(0, dtype=np.uint32)
        )
        dead_counts = np.bincount(dead_shards, minlength=self._postings.n_shards)
        shard_stats = []
        for shard_index, shard in enumerate(self._postings.shards):
            shard_stats.append(
                {
                    "shard": shard_index,
                    "entries": int(shard.n_entries),
                    "posting_lists": shard.posting_lists(),
                    "tombstones": int(dead_counts[shard_index]),
                }
            )
        return {
            "records": len(self),
            "rows": self.n_rows,
            "tombstones": self._n_tombstones,
            "upserts_total": self._metric_upserts.value,
            "resolution_repairs": self._metric_repairs.value,
            "resolution_recomputes": self._metric_recomputes.value,
            "bands": self.config.bands,
            "num_perm": self.config.num_perm,
            "posting_lists": sum(entry["posting_lists"] for entry in shard_stats),
            "shards": shard_stats,
            "resident_bytes": int(
                self._storage.resident_bytes + self._postings.resident_bytes
            ),
            "mapped_bytes": int(
                self._storage.mapped_bytes + self._postings.mapped_bytes
            ),
            "cascade": self._cascade.stats(),
        }

    def set_cascade_mode(self, mode: str) -> None:
        """Override the pipeline's cascade mode for this index (CLI hook).

        Rebuilds the scorer under the new :class:`CascadeConfig`.  The new
        scorer shares the index's registry, so the accumulated prune
        counters carry over automatically and ``stats()`` stays monotone.
        """
        self._cascade = CascadeScorer(
            self.pipeline._predictor,
            self._extractor,
            CascadeConfig(mode=mode),
            registry=self.metrics,
        )

    # ----------------------------------------------------------------- add
    def _coerce_batch(self, records) -> list[Record]:
        if isinstance(records, Table):
            records = records.records
        return [
            coerce_record(obj, self._added_total + offset)
            for offset, obj in enumerate(records)
        ]

    def add(self, records) -> list[str]:
        """Index a batch of records; returns their ids in insertion order.

        Each record is shingled, signed and banded exactly once; signatures
        for the whole batch are computed with the same vectorized kernel the
        batch blocker uses.  Records whose normalized text is empty are kept
        (they belong to the corpus and to entity resolution as singletons)
        but never enter a posting list — they cannot collide with anything,
        matching batch blocking semantics.

        Raises :class:`~repro.exceptions.DatasetError` when an id is already
        live in the index or duplicated within the batch.
        """
        return self._add_batch(self._coerce_batch(records), warm=True)

    def build_stream(self, batches, warm: bool = False) -> int:
        """Bulk-build from an iterable of record batches; returns rows added.

        The streaming complement of :meth:`add`: batches are signed with the
        vectorized kernel and appended to the columnar arenas one at a time,
        so the full corpus is never materialized in memory — peak RSS is the
        columns plus one batch.  Any partitioning of the same records into
        batches produces **byte-identical** artifacts and query results
        (equivalence-tested); cache warming is off by default since a bulk
        build usually saves the artifact rather than serving queries.
        """
        total = 0
        for batch in batches:
            total += len(self._add_batch(self._coerce_batch(batch), warm=warm))
        return total

    @staticmethod
    def _batch_duplicates(batch: list[Record]) -> list[str]:
        """Record ids mentioned more than once within one batch, sorted."""
        seen: set[str] = set()
        duplicates: set[str] = set()
        for record in batch:
            if record.record_id in seen:
                duplicates.add(record.record_id)
            seen.add(record.record_id)
        return sorted(duplicates)

    def _add_batch(self, batch: list[Record], warm: bool) -> list[str]:
        id_map = self._ensure_id_map()
        duplicates = set(self._batch_duplicates(batch))
        duplicates.update(r.record_id for r in batch if r.record_id in id_map)
        if duplicates:
            raise DatasetError(f"record id(s) already indexed: {sorted(duplicates)}")
        if not batch:
            return []
        new_rows = self._append_rows(batch, warm)
        if self._resolution is not None:
            self._extend_resolution(new_rows)
        return [record.record_id for record in batch]

    def _append_rows(self, batch: list[Record], warm: bool) -> list[int]:
        """Sign, encode and append validated records; returns their new rows.

        All throwing work (shingling, the signature kernel, attribute
        encoding) happens before the first mutation, so a failure leaves the
        index untouched — the exception-safety building block :meth:`add`
        and :meth:`upsert` both build their all-or-nothing contract on.
        Resolution maintenance is the *caller's* job: :meth:`upsert` must
        repair the state for replaced rows before extending it with new ones.
        """
        id_map = self._ensure_id_map()
        hashes = [self._computer.shingle_hashes(record) for record in batch]
        nonempty = [h for h in hashes if h is not None]
        signatures = self._computer.signature_matrix(nonempty)

        base = self.n_rows
        full = np.zeros((len(batch), self.config.num_perm), dtype=np.uint64)
        keys = np.zeros((len(batch), self.config.bands), dtype=np.uint64)
        nonempty_offsets = np.fromiter(
            (i for i, h in enumerate(hashes) if h is not None), dtype=np.intp
        )
        if len(nonempty_offsets):
            full[nonempty_offsets] = signatures
            keys[nonempty_offsets] = self._computer.band_hashes(signatures)

        record_ids = [record.record_id for record in batch]
        shard_ids = shard_of(record_ids, self.config.shards)
        self._storage.append(
            record_ids,
            [encode_attributes(record.attributes) for record in batch],
            hashes,
            full.astype(np.uint16),
            keys,
            shard_ids,
        )
        if len(self._record_cache) + len(batch) <= RECORD_CACHE_LIMIT:
            for offset, record in enumerate(batch):
                self._record_cache[base + offset] = record
        for offset, record_id in enumerate(record_ids):
            id_map[record_id] = base + offset
        self._n_live += len(batch)
        self._added_total += len(batch)
        self._metric_added.inc(len(batch))
        self._sync_gauges()

        touched: set[int] = set()
        if len(nonempty_offsets):
            rows = (base + nonempty_offsets).astype(np.int64)
            touched = self._postings.add(
                rows, keys[nonempty_offsets], shard_ids[nonempty_offsets]
            )
        self._mark_dirty(_COLUMN_PAYLOAD_NAMES, touched)
        if warm:
            self._warm_normalization(batch)
        return list(range(base, base + len(batch)))

    def _warm_normalization(self, batch: list[Record]) -> None:
        """Pre-normalize indexed attribute values into the extractor cache.

        Queries then only pay normalization for the probe record's values;
        the corpus side is already cached.  The Boolean extractor keeps no
        normalization cache, so this is a no-op for rule pipelines.
        """
        normalize_cached = getattr(self._extractor, "_normalize_cached", None)
        if normalize_cached is None:
            return
        for record in batch:
            for column in self._extractor.matched_columns:
                normalize_cached(record.value(column))

    # ------------------------------------------------------------- upsert
    def upsert(self, records, insert_missing: bool = True) -> dict:
        """Atomically replace — or insert — records; one logical step each.

        For every record whose id is already live, the old row is
        tombstoned and the new one appended (the record moves to the *end*
        of insertion order, exactly as a ``remove`` + ``add`` would place
        it); ids not yet indexed are plain inserts, unless
        ``insert_missing=False`` turns them into a
        :class:`~repro.exceptions.DatasetError` (strict update mode).
        Returns ``{"updated": [ids], "inserted": [ids]}`` in batch order.

        The operation is **all-or-nothing**: coercion, duplicate-in-batch
        detection, the strict-mode membership check and every throwing
        computation (shingling, the signature kernel, attribute encoding)
        run before the first mutation, so a failed upsert leaves the index —
        and its cached resolution state — exactly as it was.  Saves stay
        dirty-only: an upsert dirties the columns, the touched posting
        shards and the live mask, never clean shards.

        The cached resolution state survives: replaced rows are repaired out
        via the accepted-pair log (:meth:`_repair_resolution` — no
        re-scoring) and the new rows are folded in incrementally, provably
        equal to a from-scratch :meth:`resolve` over the resulting corpus.
        """
        batch = self._coerce_batch(records)
        id_map = self._ensure_id_map()
        duplicates = self._batch_duplicates(batch)
        if duplicates:
            raise DatasetError(
                f"record id(s) repeated in upsert batch: {duplicates}"
            )
        updated = [r.record_id for r in batch if r.record_id in id_map]
        inserted = [r.record_id for r in batch if r.record_id not in id_map]
        if not insert_missing and inserted:
            raise DatasetError(f"record id(s) not in index: {sorted(inserted)}")
        if not batch:
            return {"updated": [], "inserted": []}
        old_rows = [id_map[record_id] for record_id in updated]
        # -- mutation starts here; nothing below raises on valid input ----
        new_rows = self._append_rows(batch, warm=True)
        live = self._live
        for row in old_rows:
            live[row] = False
            self._record_cache.pop(row, None)
            self._shingle_sets.pop(row, None)
        self._n_tombstones += len(old_rows)
        self._n_live -= len(old_rows)
        self._metric_upserts.inc(len(batch))
        self._sync_gauges()
        if old_rows:
            self._mark_dirty((INDEX_LIVE_PAYLOAD,))
        if self._resolution is not None:
            if updated:
                self._repair_resolution(set(updated))
            self._extend_resolution(new_rows)
        self._maybe_compact()
        return {"updated": updated, "inserted": inserted}

    # -------------------------------------------------------------- remove
    def remove(self, record_ids) -> int:
        """Tombstone records by id; returns the number removed.

        Unknown (or already removed) ids raise
        :class:`~repro.exceptions.DatasetError` before any state changes.
        Tombstoned rows stay in the columns and posting shards — masked out
        of every query — until compaction; only the live-mask payload is
        dirtied, so an in-place save after removes rewrites one small file.
        The rows' record-cache and shingle-set entries are evicted with
        them, so tombstones never pin payloads in RAM.  Cached resolution
        state is *repaired in place* (accepted pairs incident to the dead
        rows are dropped and the log replayed — :meth:`_repair_resolution`),
        so the next :meth:`resolve` costs union ops, not a corpus rescore.
        """
        if isinstance(record_ids, str):
            record_ids = [record_ids]
        # Order-preserving dedup: mentioning an id twice in one call is one
        # removal, keeping the loop below exception-safe after the precheck.
        ids = list(dict.fromkeys(str(record_id) for record_id in record_ids))
        id_map = self._ensure_id_map()
        missing = sorted({record_id for record_id in ids if record_id not in id_map})
        if missing:
            raise DatasetError(f"record id(s) not in index: {missing}")
        live = self._live
        for record_id in ids:
            row = id_map.pop(record_id)
            live[row] = False
            self._record_cache.pop(row, None)
            self._shingle_sets.pop(row, None)
        self._n_tombstones += len(ids)
        self._n_live -= len(ids)
        self._metric_removed.inc(len(ids))
        self._sync_gauges()
        self._repair_resolution(set(ids))
        self._mark_dirty((INDEX_LIVE_PAYLOAD,))
        self._maybe_compact()
        return len(ids)

    def _maybe_compact(self) -> None:
        """Compact when tombstones cross ``config.compaction_threshold``."""
        if (
            self.n_rows
            and self.config.compaction_threshold < 1.0
            and self._n_tombstones / self.n_rows > self.config.compaction_threshold
        ):
            self.compact()

    def compact(self) -> int:
        """Physically drop tombstoned rows; returns the number reclaimed.

        Survivor order (and therefore query output order) is unchanged:
        compaction renumbers rows but preserves insertion order, so the index
        stays aligned with its batch-equivalent corpus.  All over-allocated
        tail capacity is reclaimed — the post-compaction resident footprint
        is exactly the surviving rows (columns gathered off any memory-mapped
        bases become resident).  With zero tombstones this degenerates to a
        pure capacity shrink that leaves payload bytes (and clean-payload
        bookkeeping) untouched.
        """
        reclaimed = self._n_tombstones
        if reclaimed == 0:
            self._storage.shrink()
            return 0
        keep = np.flatnonzero(self._live)
        self._storage.compact(keep)
        rows = np.fromiter(
            (
                row
                for row in range(len(keep))
                if self._storage.shingles.row_length(row)
            ),
            dtype=np.int64,
        )
        self._postings = ShardedPostings.rebuild(
            self.config.bands,
            self.config.shards,
            rows,
            self._storage.band_keys.take(rows),
            self._storage.shard_ids.array[rows],
        )
        self._postings.lookup_timer = self._metric_lookup
        self._n_tombstones = 0
        self._sync_gauges()
        self._id_map = None
        self._record_cache.clear()
        self._shingle_sets.clear()
        self._clean = {}
        return int(reclaimed)

    # --------------------------------------------------------------- query
    def _collision_rows(self, keys: np.ndarray) -> np.ndarray:
        """Live rows colliding with the given band keys, ascending and unique.

        Looks up every posting shard and merges with a union, which is
        shard-partition invariant.
        """
        rows = self._postings.collision_rows(keys)
        if not len(rows):
            return rows
        return rows[self._live[rows]]

    def _shingle_set(self, row: int) -> set[int]:
        cached = self._shingle_sets.get(row)
        if cached is None:
            cached = self._shingle_sets[row] = set(
                self._storage.shingles.row(row).tolist()
            )
        return cached

    def _verify_rows(
        self, probe16: np.ndarray, hashes: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Apply the configured verification pass to candidate rows.

        Identical decisions to the batch blocker: signature-agreement
        estimate with a 2σ recall slack, optionally re-scored by exact
        shingle-set Jaccard (both sides' shingles are cached).  ``probe16``
        is the probe's 16-bit signature — the only resolution verification
        ever uses, which is why the full 64-bit signatures are not stored.
        """
        verify = self.config.verify_threshold
        if verify is None or not len(rows):
            return rows
        estimates = SignatureComputer.estimate_agreement(
            probe16,
            self._storage.sig16.take(rows),
            np.zeros(len(rows), dtype=np.intp),
            np.arange(len(rows), dtype=np.intp),
        )
        rows = rows[SignatureComputer.verification_mask(estimates, verify, self.config.num_perm)]
        if not self.config.exact_verify or not len(rows):
            return rows
        query_set = set(hashes.tolist())
        survivors = [
            row
            for row in rows.tolist()
            if SignatureComputer.exact_jaccard(query_set, self._shingle_set(row)) >= verify
        ]
        return np.asarray(survivors, dtype=np.int64)

    def _trim_extractor_cache(self) -> None:
        """Bound the persistent extractor's memoization against probe churn."""
        if self._extractor.cache_size() > EXTRACTOR_CACHE_LIMIT:
            self._extractor.clear_cache()

    @staticmethod
    def _filter_scores(
        results: list[MatchScore], top_k: int | None, min_score: float | None
    ) -> list[MatchScore]:
        """Apply the ``min_score`` / ``top_k`` post-filter of :meth:`query`.

        One shared filter for the single and batched query paths, so the two
        can never disagree on ordering or truncation semantics.
        """
        if min_score is not None:
            results = [result for result in results if result.score >= min_score]
        if top_k is not None:
            # Always sorted, not just when truncating: the ordering contract
            # must not flip based on how many candidates survived.
            results = sorted(results, key=lambda result: -result.score)[:top_k]
        return results

    def query(
        self,
        record,
        top_k: int | None = None,
        min_score: float | None = None,
    ) -> list[MatchScore]:
        """Match one record against the indexed corpus.

        Returns scored pairs bit-identical to a batch
        ``pipeline.match([record], corpus)`` under the index's blocking
        config — same candidate set, same score floats, same order — filtered
        to ``score >= min_score`` when given.  With ``top_k`` set, results
        are instead returned highest-score first (ties broken by corpus
        order), truncated to ``top_k``.

        A record with no usable text (all attributes missing/empty) collides
        with nothing and returns ``[]``.  This is :meth:`query_batch` over a
        one-record batch.
        """
        with span("index.query") as query_span:
            results = self.query_batch([record], top_k, min_score)[0]
            query_span.annotate(results=len(results))
            return results

    @staticmethod
    def _broadcast_option(name: str, value, count: int) -> list:
        """Expand a scalar-or-sequence query option to one value per probe."""
        if isinstance(value, (list, tuple)):
            if len(value) != count:
                raise ConfigurationError(
                    f"{name} sequence has {len(value)} entries for {count} records"
                )
            return list(value)
        return [value] * count

    def query_batch(
        self,
        records,
        top_k=None,
        min_score=None,
    ) -> list[list[MatchScore]]:
        """Match several records in one coalesced pass over the index.

        Semantically ``[query(r, top_k, min_score) for r in records]`` —
        bit-identical results, probe order preserved — but the work is
        batched: probe signatures are computed with one vectorized MinHash
        kernel and all surviving (probe, candidate) pairs are concatenated
        into shared scoring chunks, so N concurrent probes cost one
        vectorized scoring call instead of N (the serving daemon's request
        coalescing builds on exactly this method).  Chunk composition never
        changes scores — the same guarantee batch ``match`` makes for its
        ``chunk_size`` — which is what keeps the batched path bit-identical
        to the one-at-a-time path.

        ``top_k`` and ``min_score`` accept a scalar (applied to every probe)
        or a sequence aligned with ``records`` (per-probe settings, as when
        coalescing independent callers).
        """
        probes = [coerce_record(obj) for obj in records]
        top_ks = self._broadcast_option("top_k", top_k, len(probes))
        min_scores = self._broadcast_option("min_score", min_score, len(probes))
        for k in top_ks:
            if k is not None and k < 1:
                raise ConfigurationError("top_k must be at least 1 or None")
        results: list[list[MatchScore]] = [[] for _ in probes]
        if not probes:
            return results

        hashes_list = [self._computer.shingle_hashes(probe) for probe in probes]
        usable = (
            [i for i, hashes in enumerate(hashes_list) if hashes is not None]
            if self._n_live
            else []
        )
        with span("query.block") as block_span:
            signatures = None
            collided: list[np.ndarray] = []
            if usable:
                signatures = self._computer.signature_matrix(
                    [hashes_list[i] for i in usable]
                )
                collided = [
                    self._collision_rows(keys)
                    for keys in self._computer.band_hashes(signatures)
                ]
            block_span.annotate(
                probes=len(probes), collisions=sum(len(rows) for rows in collided)
            )
        pairs: list[CandidatePair] = []
        owners: list[int] = []
        with span("query.verify") as verify_span:
            for offset, (i, rows) in enumerate(zip(usable, collided)):
                rows = self._verify_rows(
                    signatures[offset : offset + 1].astype(np.uint16),
                    hashes_list[i],
                    rows,
                )
                for row in rows.tolist():
                    pairs.append(CandidatePair(probes[i], self._record_at(row)))
                    owners.append(i)
            verify_span.annotate(candidates=len(pairs))

        chunk_size = self.pipeline.config.chunk_size
        with span("query.score"):
            for start in range(0, len(pairs), chunk_size):
                chunk = pairs[start : start + chunk_size]
                # Per-pair floors: each pair inherits its owning probe's
                # min_score, so coalesced chunks prune exactly as the
                # equivalent one-at-a-time queries would.
                floors = [
                    min_scores[owners[start + offset]] for offset in range(len(chunk))
                ]
                kept, scores, predictions = self._cascade.score_chunk(
                    chunk, floors=floors
                )
                for offset, score, prediction in zip(kept.tolist(), scores, predictions):
                    pair = chunk[offset]
                    results[owners[start + offset]].append(
                        MatchScore(
                            left_id=pair.left.record_id,
                            right_id=pair.right.record_id,
                            score=float(score),
                            is_match=bool(prediction),
                        )
                    )
        if pairs:
            self._trim_extractor_cache()
        return [
            self._filter_scores(result, k, floor)
            for result, k, floor in zip(results, top_ks, min_scores)
        ]

    # ------------------------------------------------------------- resolve
    def _candidate_rows_below(self, row: int) -> np.ndarray:
        """Verified live candidate rows ``c < row`` colliding with ``row``.

        The self-join building block of :meth:`resolve`: restricting to
        earlier rows counts each unordered pair exactly once, and makes the
        incremental path (new rows against everything before them) provably
        equal to a full recompute.
        """
        hashes = self._storage.shingle_row(row)
        if hashes is None:
            return np.empty(0, dtype=np.int64)
        rows = self._collision_rows(np.asarray(self._storage.band_keys.row(row)))
        rows = rows[rows < row]
        return self._verify_rows(
            self._storage.sig16.take(np.asarray([row], dtype=np.int64)), hashes, rows
        )

    def _union_accepted(self, state: dict, pairs: list[tuple[int, int]]) -> None:
        """Score row pairs in chunks and union the accepted ones.

        A pair is accepted when the predictor calls it a match and (when
        ``min_score`` is set) its score reaches the floor — the same
        acceptance rule however the pairs were discovered, which is what
        makes incremental and full resolution agree.  Every accepted pair
        is also appended to the state's pair log, the structure
        :meth:`_repair_resolution` replays after removals.
        """
        min_score = state["min_score"]
        uf: UnionFind = state["uf"]
        log: list[tuple[str, str]] = state["pairs"]
        chunk_size = self.pipeline.config.chunk_size
        for start in range(0, len(pairs), chunk_size):
            chunk = pairs[start : start + chunk_size]
            candidates = [
                CandidatePair(self._record_at(first), self._record_at(second))
                for first, second in chunk
            ]
            # accept_only: resolution only ever unions accepted pairs, so
            # candidates provably below the acceptance threshold (or the
            # score floor) can be pruned without changing the clustering.
            kept, scores, predictions = self._cascade.score_chunk(
                candidates, floors=min_score, accept_only=True
            )
            for offset, score, prediction in zip(kept.tolist(), scores, predictions):
                if prediction and (min_score is None or float(score) >= min_score):
                    pair = candidates[offset]
                    uf.union(pair.left.record_id, pair.right.record_id)
                    log.append((pair.left.record_id, pair.right.record_id))
        self._trim_extractor_cache()

    def _extend_resolution(self, new_rows: list[int]) -> None:
        """Incrementally fold newly added rows into the resolution state."""
        state = self._resolution
        pairs = []
        for row in new_rows:
            state["uf"].add(self._storage.record_id(row))
            for other in self._candidate_rows_below(row).tolist():
                pairs.append((other, row))
        self._union_accepted(state, pairs)

    def _repair_resolution(self, dead_ids: set[str]) -> None:
        """Scoped repair of the cached resolution state after rows died.

        Union-find cannot split, but it never has to: a pair's candidacy
        (band collision + verification) and acceptance (its score) are both
        functions of the two records alone, so removing a row deletes
        exactly the accepted pairs *incident to it* — every pair among the
        survivors stays accepted and no new pair can appear.  Replaying the
        surviving entries of the accepted-pair log therefore rebuilds the
        union-find exactly as a from-scratch :meth:`resolve` over the live
        corpus would (property-tested): components untouched by the dead
        rows replay unchanged, touched components fall apart into whatever
        the remaining edges still connect.  Cost is O(log) union-find
        operations and **zero candidate scoring** — the difference the
        churn benchmark (``benchmarks/test_index_churn.py``) gates at ≥10×.
        """
        state = self._resolution
        if state is None:
            return
        survivors = [
            pair
            for pair in state["pairs"]
            if pair[0] not in dead_ids and pair[1] not in dead_ids
        ]
        uf = UnionFind()
        for left_id, right_id in survivors:
            uf.union(left_id, right_id)
        state["pairs"] = survivors
        state["uf"] = uf
        self._metric_repairs.inc()

    def resolve(self, min_score: float | None = None) -> list[list[str]]:
        """Cluster the live corpus into entities; returns stable clusters.

        Runs union-find over all accepted match pairs among live records
        (candidates from the band index, verified and scored exactly like
        :meth:`query`).  Output is a partition of the live record ids:
        lexicographically sorted clusters, ordered by first member,
        singletons included — identical whether the state was built
        incrementally by :meth:`add` / :meth:`upsert` / :meth:`remove` or
        recomputed from scratch.

        ``min_score`` defaults to ``config.resolve_min_score``.  The computed
        state is cached and maintained incrementally across every mutation
        (adds extend it, removals and upserts repair it via the accepted-pair
        log); only the first call — or a call with a different ``min_score``
        — pays a full recompute (counted in ``stats()``).
        """
        if min_score is None:
            min_score = self.config.resolve_min_score
        state = self._resolution
        if state is None or state["min_score"] != min_score:
            state = {
                "min_score": min_score,
                "uf": UnionFind(self.record_ids()),
                "pairs": [],
            }
            pairs = []
            for row in np.flatnonzero(self._live).tolist():
                for other in self._candidate_rows_below(row).tolist():
                    pairs.append((other, row))
            self._union_accepted(state, pairs)
            self._resolution = state
            self._metric_recomputes.inc()
        return stable_clusters(state["uf"], self.record_ids())

    # --------------------------------------------------------- persistence
    def save(self, path) -> dict:
        """Persist pipeline and index as one artifact; returns the manifest.

        The directory is a superset of a pipeline artifact — a plain
        :meth:`MatchingPipeline.load` on it ignores the index payloads — with
        every column and posting shard in its own content-addressed ``.npy``
        payload (resolved and verified via the manifest's ``payloads``
        section, so in-place updates are crash-safe) and an ``index``
        manifest section carrying its own format version and config.

        Payload bytes are a pure function of the logical add/upsert/remove
        history — never of batching, compaction timing or reloads — so
        saving the same history twice is byte-identical (an upsert saves
        exactly as the equivalent remove + add would), and an in-place
        re-save writes only the payloads whose columns actually changed: a
        remove rewrites the small live mask, an add leaves untouched posting
        shards' files alone (dirty-only writes, asserted by the stream/shard
        tests).
        """
        self._postings.freeze()
        body = self.pipeline._manifest_body()
        body["index"] = {
            "format_version": INDEX_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "shards": self.config.shards,
            "stats": {
                "records": len(self),
                "rows": self.n_rows,
                "tombstones": self._n_tombstones,
            },
            "state": {"added_total": self._added_total},
        }
        storage = self._storage
        payloads: dict[str, bytes | PayloadRef] = {}

        def put(name: str, make) -> None:
            ref = self._clean.get(name)
            payloads[name] = ref if ref is not None else make()

        put(INDEX_SIG16_PAYLOAD, lambda: _npy_bytes(storage.sig16.to_array()))
        put(INDEX_BAND_KEYS_PAYLOAD, lambda: _npy_bytes(storage.band_keys.to_array()))
        put(INDEX_LIVE_PAYLOAD, lambda: _npy_bytes(storage.live.to_array()))
        put(INDEX_SHARD_IDS_PAYLOAD, lambda: _npy_bytes(storage.shard_ids.to_array()))
        for arena, data_name, offsets_name in (
            (storage.shingles, INDEX_SHINGLES_PAYLOAD, INDEX_SHINGLE_OFFSETS_PAYLOAD),
            (storage.ids, INDEX_IDS_PAYLOAD, INDEX_ID_OFFSETS_PAYLOAD),
            (storage.attrs, INDEX_ATTRS_PAYLOAD, INDEX_ATTR_OFFSETS_PAYLOAD),
        ):
            if data_name in self._clean and offsets_name in self._clean:
                payloads[data_name] = self._clean[data_name]
                payloads[offsets_name] = self._clean[offsets_name]
            else:
                data, offsets = arena.to_parts()
                payloads[data_name] = _npy_bytes(data)
                payloads[offsets_name] = _npy_bytes(offsets)
        for shard_index, shard in enumerate(self._postings.shards):
            names = shard_payload_names(shard_index)
            if all(name in self._clean for name in names):
                for name in names:
                    payloads[name] = self._clean[name]
            else:
                for name, part in zip(names, shard.to_parts()):
                    payloads[name] = _npy_bytes(part)
        manifest = write_artifact(
            path, body, self.pipeline._inference_state(), payloads=payloads
        )
        self._adopt_payloads(Path(path), manifest)
        return manifest

    def _adopt_payloads(self, directory: Path, manifest: dict) -> None:
        """Mark every index payload clean, ref'd into the given artifact."""
        clean: dict[str, PayloadRef] = {}
        for name, entry in (manifest.get("payloads") or {}).items():
            if name == INDEX_STATE_PAYLOAD or not name.startswith("index/"):
                continue
            clean[name] = PayloadRef(
                directory / entry["file"], entry["sha256"], int(entry["bytes"])
            )
        self._clean = clean

    @classmethod
    def load(
        cls,
        path,
        mmap: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> "MatchIndex":
        """Reload a persisted index (pipeline included) from an artifact.

        Columnar (version-2) payloads are **memory-mapped read-only** when
        ``mmap`` is true: startup is O(1) — manifest, headers and the small
        always-resident vectors — and column bytes page in on demand, so a
        million-record index serves its first query milliseconds after
        ``load`` returns.  Version-1 artifacts load through the legacy
        pickled-state path and upgrade to the columnar layout on the next
        :meth:`save`.

        Raises :class:`~repro.exceptions.ArtifactError` when the artifact
        carries no index payloads, the payload version is unsupported, or
        any file fails its manifest check.  A reloaded index answers queries
        bit-identically to the one that was saved.
        """
        directory = Path(path)
        manifest = read_manifest(directory)
        section = manifest.get("index")
        if section is None:
            raise ArtifactError(
                f"artifact {str(path)!r} holds no match index "
                f"(a plain pipeline artifact? use MatchingPipeline.load)"
            )
        version = section.get("format_version")
        if version not in INDEX_SUPPORTED_VERSIONS:
            raise ArtifactError(
                f"index payload version {version!r} is not supported "
                f"(supported: {sorted(INDEX_SUPPORTED_VERSIONS)}); "
                f"rebuild the index or upgrade repro"
            )
        pipeline = MatchingPipeline.load(directory)
        # An explicit registry (the serving daemon's hot-reload path passes
        # its own) keeps metric series monotone across index swaps.
        index = cls(
            pipeline,
            IndexConfig.from_dict(section.get("config", {})),
            registry=registry,
        )
        if version == 1:
            state = pickle.loads(read_payload(directory, INDEX_STATE_PAYLOAD))
            index._install_legacy_state(state)
            return index
        index._install_payloads(directory, manifest, section, mmap=mmap)
        return index

    def _install_payloads(
        self, directory: Path, manifest: dict, section: dict, mmap: bool
    ) -> None:
        """Adopt version-2 columnar payloads (memory-mapped when possible)."""
        config = self.config

        def load_array(name: str, mapped: bool = True) -> np.ndarray:
            payload_path, _ = read_payload_path(directory, name, manifest)
            if mmap and mapped:
                try:
                    return np.load(payload_path, mmap_mode="r")
                except (OSError, ValueError):
                    pass  # zero-length arrays cannot be mapped on every platform
            return np.load(payload_path)

        storage = self._storage
        storage.sig16 = GrowableMatrix(
            np.uint16, config.num_perm, base=load_array(INDEX_SIG16_PAYLOAD)
        )
        storage.band_keys = GrowableMatrix(
            np.uint64, config.bands, base=load_array(INDEX_BAND_KEYS_PAYLOAD)
        )
        storage.shingles = Arena(
            np.uint64,
            load_array(INDEX_SHINGLES_PAYLOAD),
            load_array(INDEX_SHINGLE_OFFSETS_PAYLOAD),
        )
        storage.ids = Arena(
            np.uint8, load_array(INDEX_IDS_PAYLOAD), load_array(INDEX_ID_OFFSETS_PAYLOAD)
        )
        storage.attrs = Arena(
            np.uint8,
            load_array(INDEX_ATTRS_PAYLOAD),
            load_array(INDEX_ATTR_OFFSETS_PAYLOAD),
        )
        # The live mask mutates in place and shard ids are consulted per
        # mutation — both stay resident (they are tiny: 5 bytes/row).
        storage.live = GrowableVector(bool, load_array(INDEX_LIVE_PAYLOAD, mapped=False))
        storage.shard_ids = GrowableVector(
            np.uint32, load_array(INDEX_SHARD_IDS_PAYLOAD, mapped=False)
        )
        n = storage.n_rows
        if not (
            len(storage.sig16)
            == len(storage.band_keys)
            == len(storage.shingles)
            == len(storage.ids)
            == len(storage.attrs)
            == len(storage.shard_ids)
            == n
        ):
            raise ArtifactError(
                f"artifact {str(directory)!r}: index columns disagree on row count"
            )
        shards = []
        for shard_index in range(config.shards):
            keys_name, rows_name, offsets_name = shard_payload_names(shard_index)
            shards.append(
                ShardPostings(
                    config.bands,
                    keys=load_array(keys_name),
                    rows=load_array(rows_name),
                    offsets=np.asarray(load_array(offsets_name, mapped=False)),
                )
            )
        self._postings = ShardedPostings(config.bands, config.shards, shards)
        self._postings.lookup_timer = self._metric_lookup
        self._n_live = int(np.count_nonzero(storage.live.array))
        self._n_tombstones = n - self._n_live
        self._sync_gauges()
        state = section.get("state") or {}
        self._added_total = int(state.get("added_total", n))
        # Deferred until the first mutation / membership check: building the
        # id map is the one O(n) decode a cold start must not pay.
        self._id_map = None
        self._adopt_payloads(directory, manifest)

    def _install_legacy_state(self, state: dict) -> None:
        """Rebuild columnar state from a version-1 pickled payload.

        Everything is marked dirty, so the next :meth:`save` upgrades the
        artifact to the columnar layout (and drops the pickle payload).
        """
        records = [
            Record(record_id=record_id, attributes=attributes)
            for record_id, attributes in state["records"]
        ]
        shingles = [
            None if hashes is None else np.array(hashes, dtype=np.uint64)
            for hashes in state["shingles"]
        ]
        signatures = np.array(state["signatures"], dtype=np.uint64)
        band_keys = np.zeros((len(records), self.config.bands), dtype=np.uint64)
        rows = np.fromiter(
            (row for row, hashes in enumerate(shingles) if hashes is not None),
            dtype=np.int64,
        )
        if len(rows):
            band_keys[rows] = self._computer.band_hashes(signatures[rows])
        record_ids = [record.record_id for record in records]
        shard_ids = shard_of(record_ids, self.config.shards)
        self._storage.append(
            record_ids,
            [encode_attributes(record.attributes) for record in records],
            shingles,
            signatures.astype(np.uint16),
            band_keys,
            shard_ids,
        )
        live = np.array(state["live"], dtype=bool)
        self._live[:] = live
        self._postings = ShardedPostings.rebuild(
            self.config.bands, self.config.shards, rows, band_keys[rows], shard_ids[rows]
        )
        self._postings.lookup_timer = self._metric_lookup
        self._n_tombstones = int(state["n_tombstones"])
        self._n_live = int(np.count_nonzero(live))
        self._sync_gauges()
        self._added_total = int(state["added_total"])
        self._id_map = {
            record_ids[row]: row for row in np.flatnonzero(live).tolist()
        }
        if len(records) <= RECORD_CACHE_LIMIT:
            self._record_cache = dict(enumerate(records))
