"""Hash-partitioned MinHash band postings: frozen CSR shards + RAM deltas.

The band index (band hash → rows whose signatures collide there) is
partitioned into ``IndexConfig.shards`` shards by a stable hash of the
record id, so every record's postings — across all bands — live in exactly
one shard.  Candidate generation takes the union of posting hits over all
shards and deduplicates with ``np.unique``; a union is partition-invariant,
which is why query results are **bit-identical for every shard count**
(property-tested in ``tests/test_index_stream_shards.py``).

Each shard stores its postings in two tiers:

* a **frozen CSR block** — three arrays ``(keys, rows, band_offsets)`` where
  band ``b``'s entries occupy ``keys[offsets[b]:offsets[b+1]]`` sorted by
  ``(key, row)``, so a lookup is one ``np.searchsorted`` per band.  The
  block is exactly what the artifact persists, may be a read-only
  ``np.memmap``, and its sort order is *canonical*: rebuilt from any
  add/batch/freeze history it comes out byte-identical.
* a **delta** — per-batch ``(rows, keys-matrix)`` chunks appended by
  ``add()``, looked up by vectorized equality scan.  When the delta
  outgrows the frozen block geometrically it is merged in (one
  ``np.lexsort``), keeping amortized build cost O(n log n).

Freezing publishes the merged CSR *before* clearing the delta, and
``lookup`` snapshots the delta *before* reading the frozen block — the
matching order, so a concurrent reader (the serving daemon snapshots under a
read lock while queries keep flowing) sees at worst duplicated hits —
removed again by the caller's ``np.unique`` — never missing ones.  Freezes
themselves serialize on a per-shard mutex, so two read-locked freeze paths
(a snapshot's save racing ``/stats``) cannot both merge the same delta.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import nullcontext

import numpy as np

__all__ = ["ShardPostings", "ShardedPostings", "shard_of"]

#: Reusable stand-in for an un-attached lookup timer (see ``lookup_timer``).
_NO_TIMER = nullcontext()

#: A shard's delta is merged into its frozen CSR once it holds more than
#: ``max(_FREEZE_MIN_ROWS, frozen_rows)`` rows — geometric growth, so a
#: streaming build pays O(n log n) total merge cost.
_FREEZE_MIN_ROWS = 8192


def shard_of(record_ids: list[str], shards: int) -> np.ndarray:
    """Stable shard assignment: CRC32 of the record id, mod ``shards``.

    Content-derived (not row-derived), so a record keeps its shard across
    compaction, save/load and re-adds — the property that lets an in-place
    save skip rewriting untouched shards.
    """
    if shards == 1:
        return np.zeros(len(record_ids), dtype=np.uint32)
    return np.fromiter(
        (zlib.crc32(record_id.encode("utf-8")) % shards for record_id in record_ids),
        dtype=np.uint32,
        count=len(record_ids),
    )


class ShardPostings:
    """One shard's band postings: frozen CSR + delta chunks."""

    def __init__(
        self,
        bands: int,
        keys: np.ndarray | None = None,
        rows: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
    ):
        self.bands = bands
        fresh = keys is None
        if fresh:
            keys = np.empty(0, dtype=np.uint64)
            rows = np.empty(0, dtype=np.int64)
            offsets = np.zeros(bands + 1, dtype=np.int64)
        # One tuple so readers grab a consistent (keys, rows, offsets) set
        # even while a freeze swaps the block underneath them.
        self._frozen = (keys, rows, offsets)
        self._delta: list[tuple[np.ndarray, np.ndarray]] = []
        self._delta_rows = 0
        self.dirty = fresh
        # Serializes freeze(): mutation is single-writer by contract, but
        # freezes are also reached from *read-locked* paths (save/to_parts),
        # so two may race — the mutex makes the second a no-op instead of a
        # double merge that would duplicate every delta entry.
        self._freeze_lock = threading.Lock()

    # ------------------------------------------------------------- mutation
    def append(self, rows: np.ndarray, keys: np.ndarray) -> None:
        """Add records (their rows + full band-key matrix) to this shard."""
        if not len(rows):
            return
        self._delta.append(
            (
                np.asarray(rows, dtype=np.int64),
                np.ascontiguousarray(keys, dtype=np.uint64),
            )
        )
        self._delta_rows += len(rows)
        self.dirty = True
        frozen_rows = len(self._frozen[0]) // self.bands
        if self._delta_rows > max(_FREEZE_MIN_ROWS, frozen_rows):
            self.freeze()

    def freeze(self) -> None:
        """Merge the delta into the frozen CSR (canonical (key, row) order).

        Serialized on the per-shard mutex: concurrent freeze attempts (e.g.
        two read-locked saves) are idempotent — the loser observes the
        already-merged block and an empty delta, instead of merging the same
        delta twice and permanently duplicating its entries.
        """
        with self._freeze_lock:
            if not self._delta:
                return
            keys, rows, offsets = self._frozen
            bands = self.bands
            band_parts = [np.repeat(np.arange(bands, dtype=np.uint32), np.diff(offsets))]
            key_parts = [keys]
            row_parts = [rows]
            for chunk_rows, chunk_keys in self._delta:
                band_parts.append(np.tile(np.arange(bands, dtype=np.uint32), len(chunk_rows)))
                key_parts.append(chunk_keys.ravel())
                row_parts.append(np.repeat(chunk_rows, bands))
            all_bands = np.concatenate(band_parts)
            all_keys = np.concatenate(key_parts).astype(np.uint64, copy=False)
            all_rows = np.concatenate(row_parts).astype(np.int64, copy=False)
            # (band, row) pairs are unique, so this total order is unambiguous —
            # the frozen block is a pure function of the entry *set*, never of
            # the append/freeze history.
            order = np.lexsort((all_rows, all_keys, all_bands))
            sorted_bands = all_bands[order]
            merged = (
                np.ascontiguousarray(all_keys[order]),
                np.ascontiguousarray(all_rows[order]),
                np.searchsorted(sorted_bands, np.arange(bands + 1)).astype(np.int64),
            )
            # Publish the merged block first, then drop the delta: a concurrent
            # reader (which snapshots the delta before the frozen block) sees
            # duplicates at worst (deduplicated by np.unique), never a gap.
            self._frozen = merged
            self._delta = []
            self._delta_rows = 0

    @classmethod
    def build(cls, bands: int, rows: np.ndarray, keys: np.ndarray) -> "ShardPostings":
        """Fresh shard from scratch (compaction rebuild)."""
        shard = cls(bands)
        shard._delta = (
            [(np.asarray(rows, dtype=np.int64), np.ascontiguousarray(keys, dtype=np.uint64))]
            if len(rows)
            else []
        )
        shard._delta_rows = len(rows)
        shard.freeze()
        shard.dirty = True
        return shard

    # --------------------------------------------------------------- lookup
    def lookup(self, probe_keys: np.ndarray) -> list[np.ndarray]:
        """Posting hits (row arrays) for one probe's band keys, all bands.

        Lock-free: the delta is snapshotted *before* the frozen block is
        read.  Freeze publishes in the opposite order (merged block first,
        then clears the delta), so a freeze racing this read can only make
        delta rows show up twice — once from the snapshot, once from the
        merged block — never vanish; the caller's ``np.unique`` drops the
        duplicates.  (Reading the frozen block first would open a window
        where a completed freeze empties the delta while the reader still
        holds the *old* block, silently losing every delta row.)
        """
        delta = list(self._delta)
        keys, rows, offsets = self._frozen
        hits: list[np.ndarray] = []
        for band in range(self.bands):
            lo, hi = int(offsets[band]), int(offsets[band + 1])
            if hi > lo:
                segment = keys[lo:hi]
                left = int(np.searchsorted(segment, probe_keys[band], side="left"))
                right = int(np.searchsorted(segment, probe_keys[band], side="right"))
                if right > left:
                    hits.append(rows[lo + left : lo + right])
        for chunk_rows, chunk_keys in delta:
            mask = (chunk_keys == probe_keys[None, :]).any(axis=1)
            if mask.any():
                hits.append(chunk_rows[mask])
        return hits

    # ---------------------------------------------------------------- state
    def to_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical persisted form; freezes any pending delta first."""
        self.freeze()
        keys, rows, offsets = self._frozen
        return (
            np.ascontiguousarray(keys, dtype=np.uint64),
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(offsets, dtype=np.int64),
        )

    @property
    def n_entries(self) -> int:
        # Delta first, frozen second — same snapshot order as lookup(), so a
        # racing freeze can transiently overcount but never undercount.
        delta = list(self._delta)
        frozen = len(self._frozen[0])
        return frozen + sum(len(chunk_rows) for chunk_rows, _ in delta) * self.bands

    def posting_lists(self) -> int:
        """Distinct non-empty (band, key) buckets, frozen and delta combined.

        Read-only: counts pending delta keys without merging them, so stats
        paths (``GET /stats`` runs under the server's *read* lock) never
        mutate shared postings state.
        """
        delta = list(self._delta)
        keys, _, offsets = self._frozen
        distinct = 0
        for band in range(self.bands):
            lo, hi = int(offsets[band]), int(offsets[band + 1])
            segment = keys[lo:hi]
            if delta:
                band_keys = np.concatenate(
                    [segment] + [chunk_keys[:, band] for _, chunk_keys in delta]
                )
                distinct += len(np.unique(band_keys))
            elif hi > lo:
                distinct += 1 + int(np.count_nonzero(segment[1:] != segment[:-1]))
        return distinct

    @property
    def resident_bytes(self) -> int:
        keys, rows, offsets = self._frozen
        resident = sum(
            chunk_rows.nbytes + chunk_keys.nbytes for chunk_rows, chunk_keys in self._delta
        )
        if not isinstance(keys, np.memmap):
            resident += keys.nbytes + rows.nbytes + offsets.nbytes
        return resident

    @property
    def mapped_bytes(self) -> int:
        keys, rows, offsets = self._frozen
        if isinstance(keys, np.memmap):
            return keys.nbytes + rows.nbytes + offsets.nbytes
        return 0


class ShardedPostings:
    """The full band index as ``n_shards`` independent :class:`ShardPostings`."""

    def __init__(self, bands: int, n_shards: int, shards: list[ShardPostings] | None = None):
        self.bands = bands
        self.n_shards = n_shards
        self.shards = shards or [ShardPostings(bands) for _ in range(n_shards)]
        #: Optional injected histogram series (``.time()`` context manager)
        #: observing whole-probe lookup latency.  :class:`MatchIndex` attaches
        #: its registry's ``repro_index_lookup_seconds`` here; standalone
        #: postings (tests, compaction rebuilds before adoption) stay untimed.
        self.lookup_timer = None

    def add(self, rows: np.ndarray, keys: np.ndarray, shard_ids: np.ndarray) -> set[int]:
        """Route a batch's postings to their shards; returns touched shards."""
        touched: set[int] = set()
        if not len(rows):
            return touched
        if self.n_shards == 1:
            self.shards[0].append(rows, keys)
            return {0}
        for shard in np.unique(shard_ids).tolist():
            members = shard_ids == shard
            self.shards[shard].append(rows[members], keys[members])
            touched.add(int(shard))
        return touched

    def collision_rows(self, probe_keys: np.ndarray) -> np.ndarray:
        """All rows colliding with the probe, ascending and unique.

        The union over shards/bands is order-free, so any partitioning of
        the same records yields the same candidate set — the shard-count
        invariance the equivalence suites pin down.
        """
        timer = self.lookup_timer
        with timer.time() if timer is not None else _NO_TIMER:
            hits: list[np.ndarray] = []
            for shard in self.shards:
                hits.extend(shard.lookup(probe_keys))
            if not hits:
                return np.empty(0, dtype=np.int64)
            return np.unique(np.concatenate(hits))

    @classmethod
    def rebuild(
        cls, bands: int, n_shards: int, rows: np.ndarray, keys: np.ndarray, shard_ids: np.ndarray
    ) -> "ShardedPostings":
        """From-scratch build over surviving rows (compaction)."""
        built = []
        for shard in range(n_shards):
            members = shard_ids == shard
            built.append(ShardPostings.build(bands, rows[members], keys[members]))
        return cls(bands, n_shards, built)

    def freeze(self) -> None:
        for shard in self.shards:
            shard.freeze()

    @property
    def resident_bytes(self) -> int:
        return sum(shard.resident_bytes for shard in self.shards)

    @property
    def mapped_bytes(self) -> int:
        return sum(shard.mapped_bytes for shard in self.shards)

