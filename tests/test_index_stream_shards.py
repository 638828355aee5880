"""Streaming builds, posting shards and columnar persistence of MatchIndex.

Three contracts from the million-record index core:

* **Partition invariance** — the same records, streamed in *any* batch
  partitioning, produce byte-identical artifacts and identical query
  results; query results are invariant across ``shards ∈ {1, 2, 8}`` under
  random add/remove interleavings (hypothesis).
* **Dirty-only persistence** — an in-place save rewrites only the payload
  files whose columns / posting shards actually changed (a remove touches
  the live mask, an add leaves clean shards' files alone).
* **Memory-mapped loads** — a version-2 artifact loads via read-only mmaps
  (mapped bytes visible in ``stats()``), answers bit-identically, and a
  legacy version-1 pickle artifact still loads through the upgrade path.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IndexConfig
from repro.datasets import Record
from repro.index import INDEX_STATE_PAYLOAD, MatchIndex, shard_payload_names
from repro.pipeline.artifact import MANIFEST_NAME, write_artifact

from .test_index import (  # reuse the equivalence harness
    batch_reference,
    corpus,
    dataset,
    fitted,
    probes,
    score_rows,
    small_config,
)

__all__ = ["corpus", "dataset", "fitted", "probes"]  # re-exported fixtures


def artifact_payload_files(path) -> set[str]:
    """All content-addressed payload file names recorded in the manifest."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    return {entry["file"] for entry in manifest.get("payloads", {}).values()}


def assert_identical_trees(left, right) -> None:
    left_files = sorted(p.relative_to(left) for p in left.rglob("*") if p.is_file())
    right_files = sorted(p.relative_to(right) for p in right.rglob("*") if p.is_file())
    assert left_files == right_files
    for relative in left_files:
        assert (left / relative).read_bytes() == (right / relative).read_bytes(), relative


class TestStreamingBuild:
    def test_streaming_equals_batch_build(self, fitted, corpus, probes, tmp_path):
        batch = MatchIndex(fitted, IndexConfig(shards=2))
        batch.add(corpus)
        stream = MatchIndex(fitted, IndexConfig(shards=2))
        # Deliberately ragged partitioning: 1, 7, 64, remainder.
        cuts = [0, 1, 8, 72, len(corpus)]
        added = stream.build_stream(
            corpus[start:end] for start, end in zip(cuts, cuts[1:])
        )
        assert added == len(corpus)
        assert stream.record_ids() == batch.record_ids()
        for probe in probes[:10]:
            assert score_rows(stream.query(probe)) == score_rows(batch.query(probe))

        batch_path, stream_path = tmp_path / "batch", tmp_path / "stream"
        batch.save(batch_path)
        stream.save(stream_path)
        assert_identical_trees(batch_path, stream_path)

    def test_all_partitionings_write_identical_bytes(self, fitted, corpus, tmp_path):
        subset = corpus[:40]
        trees = []
        for name, size in (("one", len(subset)), ("four", 4), ("single", 1)):
            index = MatchIndex(fitted, IndexConfig(shards=4))
            index.build_stream(
                subset[start : start + size] for start in range(0, len(subset), size)
            )
            path = tmp_path / name
            index.save(path)
            trees.append(path)
        assert_identical_trees(trees[0], trees[1])
        assert_identical_trees(trees[0], trees[2])

    def test_streaming_accepts_mappings_and_counts_empty_batches(self, fitted):
        index = MatchIndex(fitted)
        total = index.build_stream(
            [
                [{"record_id": "a", "title": "deep entity matching"}],
                [],
                [{"record_id": "b", "title": "active learning benchmarks"}],
            ]
        )
        assert total == 2
        assert sorted(index.record_ids()) == ["a", "b"]


class TestShardInvariance:
    def test_sharded_queries_match_single_shard(self, fitted, corpus, probes):
        single = MatchIndex(fitted, IndexConfig(shards=1))
        single.add(corpus)
        sharded = MatchIndex(fitted, IndexConfig(shards=8))
        sharded.add(corpus)
        for probe in probes[:15]:
            assert score_rows(sharded.query(probe)) == score_rows(single.query(probe))
        assert sharded.resolve() == single.resolve()

    @given(data=st.data())
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_shard_count_never_changes_results(self, data, fitted, corpus, probes):
        """Random add/remove interleavings: shards ∈ {1, 2, 8} agree."""
        pool = corpus[:30]
        threshold = data.draw(st.sampled_from([0.4, 1.0]), label="compaction")
        indexes = [
            MatchIndex(
                fitted, IndexConfig(shards=shards, compaction_threshold=threshold)
            )
            for shards in (1, 2, 8)
        ]
        live: list[Record] = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="steps")):
            live_ids = [record.record_id for record in live]
            absent = [r for r in pool if r.record_id not in set(live_ids)]
            if live_ids and data.draw(st.booleans(), label="remove?"):
                victims = data.draw(
                    st.lists(st.sampled_from(live_ids), min_size=1, unique=True),
                    label="victims",
                )
                for index in indexes:
                    index.remove(victims)
                live = [r for r in live if r.record_id not in set(victims)]
            elif absent:
                count = data.draw(
                    st.integers(min_value=1, max_value=min(6, len(absent))), label="count"
                )
                for index in indexes:
                    index.add(absent[:count])
                live = live + absent[:count]
        reference, *others = indexes
        assert all(o.record_ids() == reference.record_ids() for o in others)
        for probe in probes[:3]:
            expected = score_rows(reference.query(probe))
            for other in others:
                assert score_rows(other.query(probe)) == expected

    def test_config_shards_round_trips_and_default_is_absent(self):
        assert "shards" not in IndexConfig().to_dict()  # pre-sharding hash stability
        config = IndexConfig(shards=8)
        assert IndexConfig.from_dict(config.to_dict()).shards == 8
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="shards"):
            IndexConfig(shards=0)


class TestMmapPersistence:
    @pytest.fixture(scope="class")
    def saved(self, fitted, corpus, tmp_path_factory):
        index = MatchIndex(fitted, IndexConfig(shards=8, compaction_threshold=1.0))
        index.add(corpus)
        path = tmp_path_factory.mktemp("sharded-artifact") / "index"
        index.save(path)
        return index, path

    def test_mmap_load_answers_identically(self, saved, probes):
        index, path = saved
        loaded = MatchIndex.load(path)
        stats = loaded.stats()
        assert stats["mapped_bytes"] > 0  # columns actually memory-mapped
        assert len(stats["shards"]) == 8
        for probe in probes[:10]:
            assert score_rows(loaded.query(probe)) == score_rows(index.query(probe))

    def test_unmapped_load_answers_identically(self, saved, probes):
        index, path = saved
        loaded = MatchIndex.load(path, mmap=False)
        assert loaded.stats()["mapped_bytes"] == 0
        for probe in probes[:5]:
            assert score_rows(loaded.query(probe)) == score_rows(index.query(probe))

    def test_loaded_index_stays_updatable(self, saved, probes):
        _, path = saved
        loaded = MatchIndex.load(path)
        removed = loaded.record_ids()[0]
        loaded.remove([removed])
        loaded.add([{"record_id": "post-load", "title": "streaming index update"}])
        assert removed not in loaded
        assert "post-load" in loaded
        reference = batch_reference(loaded.pipeline, loaded)
        for probe in probes[:3]:
            expected = score_rows(reference.match([probe], loaded.records()))
            assert score_rows(loaded.query(probe)) == expected


class TestDirtyOnlySaves:
    def test_remove_rewrites_only_the_live_mask(self, fitted, corpus, tmp_path):
        index = MatchIndex(fitted, IndexConfig(shards=4, compaction_threshold=1.0))
        index.add(corpus)
        path = tmp_path / "inplace"
        index.save(path)
        before = artifact_payload_files(path)
        index.remove([corpus[3].record_id])
        index.save(path)
        after = artifact_payload_files(path)
        # Content-addressed names: exactly one payload (the live mask) got a
        # new file; every other column and shard kept its bytes on disk.
        assert len(before - after) == 1
        assert len(after - before) == 1
        assert next(iter(after - before)).startswith("index/live-")

    def test_add_leaves_untouched_shards_alone(self, fitted, corpus, tmp_path):
        index = MatchIndex(fitted, IndexConfig(shards=8, compaction_threshold=1.0))
        index.add(corpus)
        path = tmp_path / "inplace"
        index.save(path)
        manifest_before = json.loads((path / MANIFEST_NAME).read_text())
        added = index.add([{"record_id": "one-more", "title": "sharded posting lists"}])
        index.save(path)
        manifest_after = json.loads((path / MANIFEST_NAME).read_text())
        from repro.index.shards import shard_of

        touched = int(shard_of(added, 8)[0])
        changed_shards, unchanged_shards = set(), set()
        for shard in range(8):
            names = shard_payload_names(shard)
            same = all(
                manifest_before["payloads"][name]["file"]
                == manifest_after["payloads"][name]["file"]
                for name in names
            )
            (unchanged_shards if same else changed_shards).add(shard)
        assert changed_shards == {touched}
        assert len(unchanged_shards) == 7

    def test_in_place_resave_writes_nothing_new(self, fitted, corpus, tmp_path):
        index = MatchIndex(fitted, IndexConfig(shards=2))
        index.add(corpus[:20])
        path = tmp_path / "idempotent"
        index.save(path)
        mtimes = {
            p: p.stat().st_mtime_ns for p in path.rglob("*.npy") if p.is_file()
        }
        index.save(path)
        for payload, mtime in mtimes.items():
            assert payload.stat().st_mtime_ns == mtime, payload


class TestCompaction:
    def test_compact_drops_resident_estimate(self, fitted, corpus):
        index = MatchIndex(fitted, IndexConfig(compaction_threshold=1.0))
        for record in corpus[:60]:  # trickle adds over-allocate tails
            index.add([record])
        index.remove([record.record_id for record in corpus[:30]])
        before = index.stats()["resident_bytes"]
        reclaimed = index.compact()
        assert reclaimed == 30
        after = index.stats()["resident_bytes"]
        assert after < before

    def test_zero_tombstone_compact_keeps_payloads_clean(self, fitted, corpus, tmp_path):
        index = MatchIndex(fitted, IndexConfig(shards=2))
        index.add(corpus[:20])
        path = tmp_path / "clean"
        index.save(path)
        before = artifact_payload_files(path)
        assert index.compact() == 0  # pure capacity shrink
        index.save(path)
        assert artifact_payload_files(path) == before


class TestLegacyArtifacts:
    def test_version_1_pickle_artifact_loads_and_upgrades(
        self, fitted, corpus, probes, tmp_path
    ):
        index = MatchIndex(fitted)
        index.add(corpus[:25])
        # Write the artifact exactly as the version-1 writer did: one pickled
        # state blob plus a format_version-1 index section.
        state = {
            "records": [
                (record.record_id, dict(record.attributes)) for record in index.records()
            ],
            "live": np.ones(25, dtype=bool),
            "signatures": self._full_signatures(index),
            "shingles": [
                index._storage.shingle_row(row) for row in range(25)
            ],
            "n_tombstones": 0,
            "added_total": 25,
        }
        body = fitted._manifest_body()
        body["index"] = {
            "format_version": 1,
            "config": index.config.to_dict(),
            "stats": {"records": 25, "rows": 25, "tombstones": 0},
        }
        path = tmp_path / "v1"
        write_artifact(
            path,
            body,
            fitted._inference_state(),
            payloads={
                INDEX_STATE_PAYLOAD: pickle.dumps(
                    state, protocol=pickle.HIGHEST_PROTOCOL
                )
            },
        )
        loaded = MatchIndex.load(path)
        assert loaded.record_ids() == index.record_ids()
        for probe in probes[:5]:
            assert score_rows(loaded.query(probe)) == score_rows(index.query(probe))
        # Re-saving upgrades to the columnar layout and drops the pickle.
        manifest = loaded.save(path)
        assert manifest["index"]["format_version"] == 2
        assert INDEX_STATE_PAYLOAD not in manifest["payloads"]
        assert not list((path / "index").glob("state-*.pkl"))

    @staticmethod
    def _full_signatures(index: MatchIndex) -> np.ndarray:
        """Recompute the uint64 signature matrix a v1 artifact persisted."""
        computer = index._computer
        hashes = [index._storage.shingle_row(row) for row in range(index.n_rows)]
        full = np.zeros((len(hashes), index.config.num_perm), dtype=np.uint64)
        rows = [row for row, h in enumerate(hashes) if h is not None]
        if rows:
            full[rows] = computer.signature_matrix([hashes[row] for row in rows])
        return full


# ---------------------------------------------------------------- races
def _shard_with_frozen_and_delta():
    """Two frozen rows, one delta row — the smallest two-tier shard.

    Probe ``[10, 40]`` must hit row 0 (band-0 key 10, frozen), row 1
    (band-1 key 40, frozen) and row 2 (band-0 key 10, delta).
    """
    from repro.index.shards import ShardPostings

    shard = ShardPostings(bands=2)
    shard.append(
        np.array([0, 1], dtype=np.int64),
        np.array([[10, 20], [30, 40]], dtype=np.uint64),
    )
    shard.freeze()
    shard.append(np.array([2], dtype=np.int64), np.array([[10, 99]], dtype=np.uint64))
    assert shard._delta  # still pending — below the freeze threshold
    return shard


class _FreezeTrippingDelta:
    """Stands in for ``ShardPostings._delta`` to pin one exact interleaving
    of a concurrent freeze against a lock-free ``lookup``.

    ``before=True`` completes a full freeze the moment the delta is first
    iterated and then yields nothing — the state a reader sees when a freeze
    lands *between* its two reads.  ``before=False`` yields the chunks and
    freezes *afterwards* — the reader holds a pre-freeze delta snapshot and
    then reads the merged frozen block (the duplicates-at-worst case).
    """

    def __init__(self, shard, chunks, before):
        self._shard = shard
        self._chunks = list(chunks)
        self._before = before
        self._fired = False

    def __len__(self):
        return len(self._chunks)

    def __iter__(self):
        if self._before:
            self._trip()
            return
        yield from self._chunks
        self._trip()

    def _trip(self):
        if not self._fired:
            self._fired = True
            self._shard._delta = list(self._chunks)  # hand freeze the real list
            self._shard.freeze()


class TestLookupFreezeRace:
    PROBE = np.array([10, 40], dtype=np.uint64)

    def _race(self, before):
        shard = _shard_with_frozen_and_delta()
        shard._delta = _FreezeTrippingDelta(shard, shard._delta, before=before)
        hits = shard.lookup(self.PROBE)
        return np.unique(np.concatenate(hits)).tolist()

    def test_freeze_completing_mid_lookup_loses_no_rows(self):
        # Regression: lookup() must snapshot the delta BEFORE reading the
        # frozen block.  The old frozen-first order made this interleaving
        # return the pre-merge block plus an empty delta — row 2 vanished.
        assert self._race(before=True) == [0, 1, 2]

    def test_freeze_after_delta_snapshot_yields_duplicates_at_worst(self):
        assert self._race(before=False) == [0, 1, 2]

    def test_concurrent_freezes_never_duplicate_entries(self):
        import threading

        from repro.index.shards import ShardPostings

        rows = np.arange(64, dtype=np.int64)
        keys = np.arange(128, dtype=np.uint64).reshape(64, 2)
        for _ in range(20):
            shard = ShardPostings(bands=2)
            shard.append(rows, keys)
            barrier = threading.Barrier(4)

            def hammer():
                barrier.wait()
                shard.freeze()

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # A double merge would duplicate every delta entry permanently.
            assert shard.n_entries == 64 * 2
            merged_keys, merged_rows, _ = shard.to_parts()
            assert len(merged_keys) == len(merged_rows) == 64 * 2


class TestReadOnlyStats:
    def test_posting_lists_does_not_merge_the_delta(self):
        shard = _shard_with_frozen_and_delta()
        frozen_before = shard._frozen
        first_chunk = shard._delta[0]
        # band 0 keys {10, 30} + delta {10} -> 2; band 1 {20, 40} + {99} -> 3
        assert shard.posting_lists() == 5
        assert shard._frozen is frozen_before  # nothing merged
        assert shard._delta and shard._delta[0] is first_chunk
        shard.freeze()
        assert shard.posting_lists() == 5  # same count once merged

    def test_index_stats_does_not_freeze_postings(self, fitted, corpus):
        index = MatchIndex(fitted, IndexConfig(shards=2))
        index.add(corpus[:10])
        assert any(shard._delta for shard in index._postings.shards)
        before = index.stats()
        assert any(shard._delta for shard in index._postings.shards)
        index._postings.freeze()
        after = index.stats()
        assert after["posting_lists"] == before["posting_lists"]
        assert [s["entries"] for s in after["shards"]] == [
            s["entries"] for s in before["shards"]
        ]


class TestArtifactGarbageCollection:
    def test_crashed_save_leftovers_are_collected(self, fitted, corpus, tmp_path):
        index = MatchIndex(fitted, IndexConfig(shards=2, compaction_threshold=1.0))
        index.add(corpus[:20])
        path = tmp_path / "gc"
        index.save(path)
        # Simulate a save that crashed after writing payload files but before
        # the manifest swap: content-addressed files no manifest references.
        orphans = [
            path / "index" / ("live-" + "0" * 12 + ".npy"),
            path / "index" / "postings" / ("0001.keys-" + "f" * 12 + ".npy"),
        ]
        for orphan in orphans:
            orphan.write_bytes(b"crashed-save leftover")
        keeper = path / "index" / "NOTES.txt"  # not content-addressed: kept
        keeper.write_text("user file")
        index.remove([corpus[0].record_id])
        index.save(path)
        for orphan in orphans:
            assert not orphan.exists(), orphan
        assert keeper.exists()
        loaded = MatchIndex.load(path)
        assert loaded.record_ids() == index.record_ids()

    def test_superseded_payloads_do_not_accumulate(self, fitted, corpus, tmp_path):
        index = MatchIndex(fitted, IndexConfig(shards=2, compaction_threshold=1.0))
        index.add(corpus[:20])
        path = tmp_path / "churn"
        index.save(path)
        initial = artifact_payload_files(path)
        # Snapshotting-daemon churn: every remove supersedes the live-mask
        # file, every re-add supersedes the columns and one shard's triple.
        for record in corpus[:6]:
            index.remove([record.record_id])
            index.save(path)
            index.add([record])
            index.save(path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        referenced = {entry["file"] for entry in manifest["payloads"].values()}
        assert referenced != initial  # the churn really superseded files
        on_disk = {
            str(p.relative_to(path))
            for p in path.rglob("*")
            if p.is_file() and p.name not in (MANIFEST_NAME, "model.pkl")
        }
        assert on_disk == referenced  # no orphans, nothing referenced missing
