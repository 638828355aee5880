"""The incremental MatchIndex: batch-match equivalence, maintenance, dedup,
persistence.

The load-bearing contract here is *equivalence*: for any add/remove history,
``index.query(r)`` must be bit-identical to ``pipeline.match([r], corpus)``
under the index's blocking config, where ``corpus`` is the live records in
insertion order.  ``batch_reference`` builds that reference pipeline.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ActiveLearningConfig, IndexConfig, PipelineConfig
from repro.datasets import Record, load_dataset
from repro.exceptions import ArtifactError, ConfigurationError, DatasetError
from repro.index import (
    INDEX_SIG16_PAYLOAD,
    MatchIndex,
    UnionFind,
    stable_clusters,
)
from repro.pipeline import MatchingPipeline
from repro.pipeline.artifact import MANIFEST_NAME


def small_config(**overrides) -> PipelineConfig:
    defaults = dict(
        combination="Trees(2)",
        config=ActiveLearningConfig(
            seed_size=20, batch_size=10, max_iterations=3, target_f1=None, random_state=0
        ),
        scale=0.15,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def fitted() -> MatchingPipeline:
    pipeline = MatchingPipeline(small_config())
    pipeline.fit("dblp_acm")
    return pipeline


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("dblp_acm", scale=0.15)


@pytest.fixture(scope="module")
def corpus(dataset) -> list[Record]:
    return dataset.right.records


@pytest.fixture(scope="module")
def probes(dataset) -> list[Record]:
    return dataset.left.records


def state_payload_path(path):
    """Resolve a representative content-addressed index payload file (the
    signature column) via the manifest."""
    import json

    manifest = json.loads((path / MANIFEST_NAME).read_text())
    return path / manifest["payloads"][INDEX_SIG16_PAYLOAD]["file"]


def batch_reference(pipeline: MatchingPipeline, index: MatchIndex) -> MatchingPipeline:
    """The equivalent batch pipeline: same predictor, the index's blocking."""
    reference = copy.copy(pipeline)
    reference.resolved_blocking = index.config.blocking_config()
    return reference


def score_rows(scores) -> list[list]:
    return [[s.left_id, s.right_id, s.score, s.is_match] for s in scores]


def assert_query_equivalent(index: MatchIndex, reference: MatchingPipeline, probes):
    corpus = index.records()
    for probe in probes:
        expected = score_rows(reference.match([probe], corpus)) if corpus else []
        assert score_rows(index.query(probe)) == expected, probe.record_id


class TestQueryEquivalence:
    def test_bit_identical_to_batch_match(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        assert_query_equivalent(index, batch_reference(fitted, index), probes)

    def test_with_verification_thresholds(self, fitted, corpus, probes):
        for config in (
            IndexConfig(verify_threshold=0.2),
            IndexConfig(verify_threshold=0.2, exact_verify=True),
            IndexConfig(num_perm=64, bands=32, shingle_size=4, seed=3),
        ):
            index = MatchIndex(fitted, config)
            index.add(corpus)
            assert_query_equivalent(index, batch_reference(fitted, index), probes[:10])

    def test_inherits_lsh_blocking_from_pipeline(self, fitted, corpus):
        from repro.core import BlockingConfig

        lsh_pipeline = copy.copy(fitted)
        lsh_pipeline.resolved_blocking = BlockingConfig.create(
            "minhash_lsh", threshold=0.25, num_perm=64, bands=32
        )
        index = MatchIndex(lsh_pipeline)
        assert index.config.num_perm == 64
        assert index.config.bands == 32
        assert index.config.verify_threshold == 0.25

    def test_jaccard_pipeline_falls_back_to_defaults(self, fitted):
        index = MatchIndex(fitted)
        assert index.config == IndexConfig()

    def test_min_score_filters_and_top_k_truncates(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        probe = probes[0]
        full = index.query(probe)
        assert len(full) > 1
        floor = sorted(s.score for s in full)[len(full) // 2]
        filtered = index.query(probe, min_score=floor)
        assert filtered == [s for s in full if s.score >= floor]
        top = index.query(probe, top_k=1)
        assert len(top) == 1
        assert top[0].score == max(s.score for s in full)
        # top_k sorts even when nothing is truncated: the ordering contract
        # must not depend on how many candidates survived.
        generous = index.query(probe, top_k=len(full) + 10)
        assert generous == sorted(full, key=lambda s: -s.score)
        with pytest.raises(ConfigurationError):
            index.query(probe, top_k=0)


class TestQueryBatch:
    """``query_batch`` is the serving daemon's coalescing primitive: for any
    probe set it must return exactly ``[query(p) for p in probes]`` — chunk
    invariance of the scorer makes cross-probe chunking safe."""

    def test_equals_sequential_queries(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        batch = index.query_batch(probes)
        assert [score_rows(r) for r in batch] == [
            score_rows(index.query(p)) for p in probes
        ]

    def test_scalar_options_broadcast(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        batch = index.query_batch(probes[:6], top_k=2, min_score=0.1)
        assert [score_rows(r) for r in batch] == [
            score_rows(index.query(p, top_k=2, min_score=0.1)) for p in probes[:6]
        ]

    def test_per_probe_option_lists(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        top_ks = [None, 1, 3, None]
        min_scores = [None, None, 0.2, 0.9]
        batch = index.query_batch(probes[:4], top_k=top_ks, min_score=min_scores)
        assert [score_rows(r) for r in batch] == [
            score_rows(index.query(p, top_k=k, min_score=f))
            for p, k, f in zip(probes[:4], top_ks, min_scores)
        ]

    def test_mixed_hit_and_miss_probes(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        mixed = [probes[0], Record("empty", {"title": ""}), probes[1]]
        batch = index.query_batch(mixed)
        assert batch[1] == []
        assert score_rows(batch[0]) == score_rows(index.query(probes[0]))
        assert score_rows(batch[2]) == score_rows(index.query(probes[1]))

    def test_empty_inputs(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        assert index.query_batch([]) == []
        assert index.query_batch(probes[:2]) == [[], []]  # empty index
        index.add(corpus)
        assert index.query_batch([]) == []

    def test_option_validation(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        with pytest.raises(ConfigurationError, match="top_k"):
            index.query_batch(probes[:2], top_k=0)
        with pytest.raises(ConfigurationError, match="top_k"):
            index.query_batch(probes[:2], top_k=[1, 0])
        with pytest.raises(ConfigurationError, match="entries"):
            index.query_batch(probes[:2], top_k=[1])
        with pytest.raises(ConfigurationError, match="entries"):
            index.query_batch(probes[:2], min_score=[0.5, 0.5, 0.5])


def cache_entries(extractor) -> int:
    """Entries across every memoization cache the extractor holds."""
    return sum(
        len(cache)
        for name, cache in vars(extractor).items()
        if name.endswith("_cache") and isinstance(cache, dict)
    )


class TestExtractorCacheBound:
    """A serving index sees an endless stream of unseen probe values; the
    persistent extractor's caches must stay under ``EXTRACTOR_CACHE_LIMIT``
    instead of growing with every distinct value ever queried."""

    def test_unique_probe_churn_levels_off(self, fitted, corpus, probes, monkeypatch):
        import repro.index.match_index as match_index

        limit = 500
        monkeypatch.setattr(match_index, "EXTRACTOR_CACHE_LIMIT", limit)
        index = MatchIndex(fitted)
        index.add(corpus)
        totals = []
        for i in range(300):
            base = probes[i % len(probes)]
            attributes = dict(base.attributes)
            attributes["title"] = f"{base.value('title')} churn{i}"
            index.query(Record(f"churn-{i}", attributes))
            totals.append(cache_entries(index._extractor))
        # The probes really fed the caches: without a bound they would hold
        # several times the limit, and the trim fired along the way.
        assert sum(max(b - a, 0) for a, b in zip(totals, totals[1:])) > 3 * limit
        assert any(b < a for a, b in zip(totals, totals[1:]))
        assert max(totals) <= limit
        assert index._extractor.cache_size() == totals[-1]


class TestEmptyInputs:
    def test_empty_index_returns_no_results(self, fitted, probes):
        index = MatchIndex(fitted)
        assert index.query(probes[0]) == []
        assert index.resolve() == []
        assert len(index) == 0

    def test_record_with_all_missing_attributes(self, fitted, corpus):
        index = MatchIndex(fitted)
        index.add(corpus)
        assert index.query({"record_id": "q"}) == []
        assert index.query(Record("q", {"title": "", "authors": None})) == []

    def test_empty_add_batch_is_a_noop(self, fitted):
        index = MatchIndex(fitted)
        assert index.add([]) == []
        assert len(index) == 0

    def test_indexed_empty_records_are_singleton_entities(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus[:5])
        index.add([{"record_id": "ghost"}])
        assert len(index) == 6
        # Never a candidate...
        assert all(s.right_id != "ghost" for s in index.query(probes[0]))
        # ...but still a (singleton) entity.
        clusters = index.resolve()
        assert ["ghost"] in clusters


class TestMaintenance:
    def test_duplicate_ids_raise(self, fitted, corpus):
        index = MatchIndex(fitted)
        index.add(corpus[:3])
        with pytest.raises(DatasetError):
            index.add(corpus[:1])
        with pytest.raises(DatasetError):
            index.add([corpus[5], corpus[5]])

    def test_remove_unknown_id_raises_before_any_change(self, fitted, corpus):
        index = MatchIndex(fitted)
        index.add(corpus[:3])
        with pytest.raises(DatasetError):
            index.remove([corpus[0].record_id, "nope"])
        assert len(index) == 3 and index.n_tombstones == 0

    def test_remove_deduplicates_repeated_ids(self, fitted, corpus):
        index = MatchIndex(fitted)
        index.add(corpus[:3])
        assert index.remove([corpus[0].record_id, corpus[0].record_id]) == 1
        assert len(index) == 2 and index.n_tombstones == 1

    def test_remove_then_query_matches_surviving_corpus(self, fitted, corpus, probes):
        index = MatchIndex(fitted, IndexConfig(compaction_threshold=1.0))
        index.add(corpus)
        removed = {record.record_id for record in corpus[::3]}
        index.remove(sorted(removed))
        assert index.n_tombstones == len(removed)
        assert index.record_ids() == [
            r.record_id for r in corpus if r.record_id not in removed
        ]
        assert_query_equivalent(index, batch_reference(fitted, index), probes[:10])

    def test_re_add_after_remove(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        index.remove(corpus[0].record_id)
        assert corpus[0].record_id not in index
        index.add([corpus[0]])
        assert corpus[0].record_id in index
        # The re-added record sits at the *end* of insertion order.
        assert index.record_ids()[-1] == corpus[0].record_id
        assert_query_equivalent(index, batch_reference(fitted, index), probes[:10])

    def test_auto_compaction_past_threshold(self, fitted, corpus, probes):
        index = MatchIndex(fitted, IndexConfig(compaction_threshold=0.3))
        index.add(corpus)
        index.remove([record.record_id for record in corpus[: len(corpus) // 2]])
        assert index.n_tombstones == 0  # compacted
        assert index.n_rows == len(index)
        assert_query_equivalent(index, batch_reference(fitted, index), probes[:10])

    def test_trickle_adds_equal_one_batch_add(self, fitted, corpus, probes):
        """Single-record add() calls (the amortized-growth path) build the
        same index as one batch add."""
        trickle = MatchIndex(fitted)
        for record in corpus:
            trickle.add([record])
        batch = MatchIndex(fitted)
        batch.add(corpus)
        assert trickle.record_ids() == batch.record_ids()
        for probe in probes[:10]:
            assert score_rows(trickle.query(probe)) == score_rows(batch.query(probe))
        assert trickle.resolve() == batch.resolve()

    def test_explicit_compact_preserves_queries(self, fitted, corpus, probes):
        index = MatchIndex(fitted, IndexConfig(compaction_threshold=1.0))
        index.add(corpus)
        index.remove([record.record_id for record in corpus[1::2]])
        before = [score_rows(index.query(probe)) for probe in probes[:10]]
        reclaimed = index.compact()
        assert reclaimed == len(corpus[1::2])
        assert index.compact() == 0
        after = [score_rows(index.query(probe)) for probe in probes[:10]]
        assert before == after


class TestResolve:
    def test_clusters_partition_the_live_corpus(self, fitted, corpus):
        index = MatchIndex(fitted)
        index.add(corpus)
        clusters = index.resolve()
        flat = [record_id for cluster in clusters for record_id in cluster]
        assert sorted(flat) == sorted(index.record_ids())
        assert all(cluster == sorted(cluster) for cluster in clusters)
        assert clusters == sorted(clusters, key=lambda cluster: cluster[0])

    def test_incremental_resolve_equals_fresh_rebuild(self, fitted, corpus, probes):
        incremental = MatchIndex(fitted)
        incremental.add(corpus)
        incremental.resolve()  # prime the incremental state
        incremental.add(probes[:10])
        fresh = MatchIndex(fitted)
        fresh.add(corpus)
        fresh.add(probes[:10])
        assert incremental.resolve() == fresh.resolve()

    def test_resolve_after_remove_recomputes(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        index.add(probes[:10])
        index.resolve()
        index.remove([probes[0].record_id])
        fresh = MatchIndex(fitted)
        fresh.add(corpus)
        fresh.add(probes[1:10])
        assert index.resolve() == fresh.resolve()

    def test_resolve_after_bridge_removal_drops_stale_merges(
        self, fitted, corpus, probes
    ):
        """Removing any member of a merged cluster must invalidate the cached
        resolution: a removed bridge record may have been the only link
        holding a cluster together, so serving the pre-remove union-find
        would silently report merges that no longer exist.  Every member of
        every multi-record cluster is checked against a fresh rebuild."""
        trial = MatchIndex(fitted)
        trial.add(corpus)
        trial.add(probes[:10])
        merged = [c for c in trial.resolve() if len(c) > 1]
        assert merged, "need multi-record clusters to exercise bridge removal"
        # Every member of the largest cluster (the true bridge scenario) plus
        # one member of each other cluster, capped to keep the suite fast.
        largest = max(merged, key=len)
        candidates = list(largest) + [c[0] for c in merged if c is not largest]
        for record_id in candidates[:5]:
            trial.resolve()  # prime the cache that remove() must invalidate
            removed = next(r for r in trial.records() if r.record_id == record_id)
            trial.remove([record_id])
            fresh = MatchIndex(fitted)
            fresh.add(trial.records())
            assert trial.resolve() == fresh.resolve(), record_id
            trial.add([removed])  # restore for the next bridge candidate

    def test_min_score_only_merges_high_scoring_pairs(self, fitted, corpus, probes):
        index = MatchIndex(fitted)
        index.add(corpus)
        index.add(probes)
        lenient = index.resolve(min_score=0.0)
        strict = index.resolve(min_score=1.0)
        assert len(strict) >= len(lenient)
        merged = [cluster for cluster in lenient if len(cluster) > 1]
        assert merged, "expected some matches between left and right tables"


class TestUnionFind:
    def test_union_and_groups(self):
        uf = UnionFind(["a", "b", "c", "d"])
        assert uf.union("a", "b") is True
        assert uf.union("b", "a") is False
        uf.union("c", "d")
        groups = {frozenset(g) for g in uf.groups().values()}
        assert groups == {frozenset({"a", "b"}), frozenset({"c", "d"})}
        assert len(uf) == 4

    def test_stable_clusters_sorts_members_and_clusters(self):
        uf = UnionFind()
        uf.union("z", "m")
        uf.add("a")
        assert stable_clusters(uf, ["z", "m", "a"]) == [["a"], ["m", "z"]]

    def test_find_adds_lazily(self):
        uf = UnionFind()
        assert uf.find("x") == "x"
        assert "x" in uf


class TestPersistence:
    @pytest.fixture(scope="class")
    def saved(self, fitted, corpus, tmp_path_factory):
        index = MatchIndex(fitted, IndexConfig(compaction_threshold=1.0))
        index.add(corpus)
        index.remove([corpus[0].record_id, corpus[7].record_id])
        path = tmp_path_factory.mktemp("index-artifact") / "index"
        manifest = index.save(path)
        return index, path, manifest

    def test_manifest_carries_a_gated_index_section(self, saved):
        _, _, manifest = saved
        assert manifest["index"]["format_version"] == 2
        assert manifest["index"]["stats"]["tombstones"] == 2
        assert INDEX_SIG16_PAYLOAD in manifest["payloads"]

    def test_loaded_index_answers_identically(self, saved, probes):
        index, path, _ = saved
        loaded = MatchIndex.load(path)
        assert loaded.record_ids() == index.record_ids()
        assert loaded.n_tombstones == index.n_tombstones
        for probe in probes[:10]:
            assert score_rows(loaded.query(probe)) == score_rows(index.query(probe))
        assert loaded.resolve() == index.resolve()

    def test_freshly_built_index_answers_identically(self, saved, fitted, corpus, probes):
        index, _, _ = saved
        rebuilt = MatchIndex(fitted, index.config)
        rebuilt.add(corpus)
        rebuilt.remove([corpus[0].record_id, corpus[7].record_id])
        for probe in probes[:10]:
            assert score_rows(rebuilt.query(probe)) == score_rows(index.query(probe))
        assert rebuilt.resolve() == index.resolve()

    def test_re_saves_are_byte_identical(self, saved, tmp_path):
        index, path, _ = saved
        again = tmp_path / "again"
        index.save(again)
        reloaded_path = tmp_path / "reloaded"
        MatchIndex.load(path).save(reloaded_path)
        originals = sorted(p for p in path.rglob("*") if p.is_file())
        for original in originals:
            relative = original.relative_to(path)
            assert (again / relative).read_bytes() == original.read_bytes(), relative
            assert (reloaded_path / relative).read_bytes() == original.read_bytes(), relative

    def test_plain_pipeline_load_ignores_the_index_payload(self, saved, probes):
        index, path, _ = saved
        pipeline = MatchingPipeline.load(path)
        reference = batch_reference(pipeline, index)
        assert score_rows(reference.match([probes[0]], index.records())) == score_rows(
            index.query(probes[0])
        )

    def test_pipeline_artifact_without_index_payload_is_rejected(
        self, fitted, tmp_path
    ):
        fitted.save(tmp_path / "plain")
        with pytest.raises(ArtifactError, match="no match index"):
            MatchIndex.load(tmp_path / "plain")

    def test_unsupported_index_version_is_rejected(self, saved, tmp_path):
        import json
        import shutil

        _, path, _ = saved
        copy_path = tmp_path / "future"
        shutil.copytree(path, copy_path)
        manifest = json.loads((copy_path / MANIFEST_NAME).read_text())
        manifest["index"]["format_version"] = 999
        (copy_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="not supported"):
            MatchIndex.load(copy_path)

    def test_corrupt_index_payload_is_rejected(self, saved, tmp_path):
        import shutil

        _, path, _ = saved
        copy_path = tmp_path / "corrupt"
        shutil.copytree(path, copy_path)
        payload = state_payload_path(copy_path)
        payload.write_bytes(payload.read_bytes()[:-7])
        with pytest.raises(ArtifactError, match="does not match its"):
            MatchIndex.load(copy_path)

    def test_missing_index_payload_file_is_rejected(self, saved, tmp_path):
        import shutil

        _, path, _ = saved
        copy_path = tmp_path / "missing"
        shutil.copytree(path, copy_path)
        state_payload_path(copy_path).unlink()
        with pytest.raises(ArtifactError, match="missing payload"):
            MatchIndex.load(copy_path)

    def test_plain_pipeline_overwrite_removes_stale_payload(
        self, saved, fitted, tmp_path
    ):
        import shutil

        _, path, _ = saved
        copy_path = tmp_path / "overwritten"
        shutil.copytree(path, copy_path)
        payload = state_payload_path(copy_path)
        assert payload.exists()
        fitted.save(copy_path)  # plain pipeline save over an index artifact
        assert not payload.exists()
        with pytest.raises(ArtifactError, match="no match index"):
            MatchIndex.load(copy_path)
        assert MatchingPipeline.load(copy_path).is_fitted


class TestPropertyEquivalence:
    """Random add/remove interleavings never break batch equivalence."""

    @given(data=st.data())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_add_remove_sequences(self, data, fitted, corpus, probes):
        pool = corpus + probes[:10]
        index = MatchIndex(
            fitted,
            IndexConfig(
                compaction_threshold=data.draw(
                    st.sampled_from([0.2, 0.5, 1.0]), label="compaction"
                )
            ),
        )
        live: list[Record] = []
        n_steps = data.draw(st.integers(min_value=1, max_value=5), label="steps")
        for _ in range(n_steps):
            live_ids = [record.record_id for record in live]
            absent = [r for r in pool if r.record_id not in set(live_ids)]
            if live_ids and data.draw(st.booleans(), label="remove?"):
                victims = data.draw(
                    st.lists(st.sampled_from(live_ids), min_size=1, unique=True),
                    label="victims",
                )
                index.remove(victims)
                live = [r for r in live if r.record_id not in set(victims)]
            elif absent:
                count = data.draw(
                    st.integers(min_value=1, max_value=min(8, len(absent))),
                    label="count",
                )
                index.add(absent[:count])
                live = live + absent[:count]
        assert index.record_ids() == [record.record_id for record in live]
        reference = batch_reference(fitted, index)
        for probe in probes[:3]:
            expected = score_rows(reference.match([probe], live)) if live else []
            assert score_rows(index.query(probe)) == expected
