"""The score cascade: bound soundness, staged extraction, bit-identity.

Four layers, mirroring the cascade's proof obligations (``docs/scoring.md``):

* **Bounds** — every expensive measure's upper-bound companion dominates the
  exact similarity on a seed matrix and under Hypothesis.
* **Partial extraction** — ``begin_partial`` + ``fill_all`` reproduces the
  scalar oracle (``tests/oracles.py``) bitwise, in any fill order, for any
  fill subset union.
* **Scorer equivalence** — for *every* registered learner and every mode,
  accepted pairs and survivor scores are bit-identical to the scalar
  oracle; linear learners exercise the bound-pruning path, everything else
  the exact full-extraction fallback.
* **End-to-end parity** — ``MatchingPipeline.match(min_score=...)`` and
  ``MatchIndex.query``/``query_batch``/``resolve`` agree across modes.
"""

from __future__ import annotations

import dataclasses
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ActiveLearningConfig, CascadeConfig, PipelineConfig
from repro.datasets import load_dataset
from repro.datasets.base import CandidatePair, Record
from repro.features.extractor import (
    EXPENSIVE_SIMILARITIES,
    FeatureExtractor,
    cost_tier,
)
from repro.index import MatchIndex
from repro.learners import (
    DecisionTree,
    DeepMatcherBaseline,
    GaussianNaiveBayes,
    LinearSVM,
    LogisticRegression,
    NeuralNetwork,
    RandomForest,
)
from repro.pipeline import MatchingPipeline
from repro.scoring import CascadeScorer, analyze_predictor
from repro.similarity import get_similarity_function
from repro.similarity.bounds import UPPER_BOUND_NAMES, upper_bound, upper_bound_matrix

from .oracles import scalar_features, scalar_scores

texts = st.text(alphabet=string.ascii_lowercase + " 0123456789", max_size=60)

#: Every registered learner that can serve as a pipeline predictor
#: (``predict`` + ``predict_proba``), with a deterministic factory.  Linear
#: entries take the provable-bound path; the rest must hit the exact
#: fallback.  RuleLearner is excluded here — it runs on the Boolean feature
#: kind, covered by the non-staged extractor path below.
LEARNER_FACTORIES = {
    "linear_svm": lambda: LinearSVM(random_state=0),
    "logistic_regression": lambda: LogisticRegression(random_state=0),
    "decision_tree": lambda: DecisionTree(random_state=0),
    "random_forest": lambda: RandomForest(n_trees=5, random_state=0),
    "neural_network": lambda: NeuralNetwork(epochs=10, random_state=0),
    "naive_bayes": lambda: GaussianNaiveBayes(),
    "deep_matcher": lambda: DeepMatcherBaseline(random_state=0),
}
LINEAR = {"linear_svm", "logistic_regression"}


def _string_pairs(seed: int = 20260808, count: int = 200) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    alphabet = "abcd abd1 $.,-x"
    pairs = [
        (
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, length))),
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, length))),
        )
        for length in (5, 12, 30, 47, 49, 70)
        for _ in range(count // 6)
    ]
    pairs += [("", ""), ("", "abc"), ("abc", ""), ("x" * 47 + " y", "x" * 47 + " z")]
    return pairs


# --------------------------------------------------------------------- bounds
class TestUpperBounds:
    def test_every_expensive_measure_has_a_bound(self):
        assert EXPENSIVE_SIMILARITIES <= UPPER_BOUND_NAMES

    @pytest.mark.parametrize("name", sorted(UPPER_BOUND_NAMES))
    def test_bound_dominates_on_seed_matrix(self, name):
        func = get_similarity_function(name).func
        for a, b in _string_pairs():
            assert func(a, b) <= upper_bound(name, a, b) + 1e-9, (name, a, b)

    @pytest.mark.parametrize("name", sorted(UPPER_BOUND_NAMES))
    @settings(max_examples=120, deadline=None)
    @given(a=texts, b=texts)
    def test_bound_dominates_property(self, name, a, b):
        func = get_similarity_function(name).func
        assert func(a, b) <= upper_bound(name, a, b) + 1e-9

    def test_bound_matrix_matches_scalar(self):
        names = sorted(UPPER_BOUND_NAMES)
        pairs = _string_pairs(count=60)
        matrix = upper_bound_matrix(names, [a for a, _ in pairs], [b for _, b in pairs])
        for row, (a, b) in enumerate(pairs):
            for col, name in enumerate(names):
                assert matrix[row, col] == upper_bound(name, a, b)

    def test_bounds_in_unit_interval(self):
        for name in sorted(UPPER_BOUND_NAMES):
            for a, b in _string_pairs(count=60):
                assert 0.0 <= upper_bound(name, a, b) <= 1.0


# ----------------------------------------------------------------- extraction
def _record(idx: int, name: str, description: str) -> Record:
    return Record(f"r{idx}", {"name": name, "description": description})


def _candidate_pairs(seed: int = 3, count: int = 40) -> list[CandidatePair]:
    strings = _string_pairs(seed=seed, count=count * 2)
    pairs = []
    for i in range(count):
        (a1, b1), (a2, b2) = strings[2 * i], strings[2 * i + 1]
        pairs.append(CandidatePair(_record(2 * i, a1, a2), _record(2 * i + 1, b1, b2)))
    return pairs


class TestPartialExtraction:
    def test_cost_tiers_partition_the_suite(self):
        extractor = FeatureExtractor(["name", "description"])
        cheap = set(extractor.cheap_suite_indices)
        expensive = set(extractor.expensive_suite_indices)
        assert cheap.isdisjoint(expensive)
        assert len(cheap) + len(expensive) == len(extractor.similarity_suite)
        for name in EXPENSIVE_SIMILARITIES:
            assert cost_tier(name) == "expensive"

    def test_fill_all_matches_extract_bitwise(self):
        pairs = _candidate_pairs()
        reference = scalar_features(pairs, ["name", "description"])
        assert np.array_equal(
            FeatureExtractor(["name", "description"]).extract(pairs).matrix, reference
        )
        extractor = FeatureExtractor(["name", "description"])
        plan = extractor.begin_partial(pairs)
        plan.fill_all()
        assert np.array_equal(plan.matrix, reference)

    def test_staged_fill_matches_extract_bitwise(self):
        pairs = _candidate_pairs(seed=9)
        reference = scalar_features(pairs, ["name", "description"])
        extractor = FeatureExtractor(["name", "description"])
        plan = extractor.begin_partial(pairs)
        plan.fill(extractor.cheap_suite_indices)
        # Expensive columns for a subset first, then the rest — order must
        # not matter.
        subset = np.arange(0, len(pairs), 2, dtype=np.int64)
        plan.fill(extractor.expensive_suite_indices, rows=subset)
        rest = np.arange(1, len(pairs), 2, dtype=np.int64)
        plan.fill(extractor.expensive_suite_indices, rows=rest)
        assert np.array_equal(plan.matrix, reference)

    def test_upper_bounds_dominate_expensive_columns(self):
        pairs = _candidate_pairs(seed=5)
        extractor = FeatureExtractor(["name", "description"])
        plan = extractor.begin_partial(pairs)
        plan.fill_all()
        bounds = plan.upper_bounds()
        exact = plan.matrix[:, extractor.expensive_column_indices]
        assert np.all(exact <= bounds + 1e-9)


# -------------------------------------------------------------------- scorers
def _training_matrix(extractor: FeatureExtractor, seed: int = 1):
    pairs = _candidate_pairs(seed=seed, count=60)
    matrix = extractor.extract(pairs).matrix
    rng = np.random.default_rng(0)
    # Label by a noisy threshold on the mean similarity so both classes occur.
    labels = (matrix.mean(axis=1) + rng.normal(0, 0.05, len(matrix)) > 0.45).astype(int)
    if labels.min() == labels.max():  # degenerate draw guard
        labels[0] = 1 - labels[0]
    return matrix, labels


@pytest.fixture(scope="module")
def fitted_learners():
    extractor = FeatureExtractor(["name", "description"])
    matrix, labels = _training_matrix(extractor)
    fitted = {}
    for key, factory in LEARNER_FACTORIES.items():
        learner = factory()
        learner.fit(matrix, labels)
        fitted[key] = learner
    return fitted


@pytest.mark.parametrize("key", sorted(LEARNER_FACTORIES))
class TestScorerEquivalence:
    def test_cascade_matches_uncascaded_reference(self, fitted_learners, key):
        predictor = fitted_learners[key]
        extractor = FeatureExtractor(["name", "description"])
        chunk = _candidate_pairs(seed=11, count=50)
        ref_scores, ref_predictions = scalar_scores(
            predictor, ["name", "description"], chunk
        )
        for mode in ("off", "auto", "on"):
            for floors_chunk in (None, 0.5, ([None, 0.3, 0.9] * 17)[:50]):
                scorer = CascadeScorer(
                    predictor,
                    FeatureExtractor(["name", "description"]),
                    CascadeConfig(mode=mode),
                )
                kept, scores, predictions = scorer.score_chunk(
                    chunk, floors=floors_chunk
                )
                kept = kept.tolist()
                # Survivors: bit-identical scores and predictions.
                assert np.array_equal(scores, ref_scores[kept]), (key, mode)
                assert np.array_equal(predictions, ref_predictions[kept]), (key, mode)
                # Pruned rows: provably below the active floor / threshold.
                dropped = sorted(set(range(len(chunk))) - set(kept))
                for row in dropped:
                    if mode == "on":
                        below_floor = False
                        if floors_chunk is not None:
                            floor = (
                                floors_chunk
                                if not isinstance(floors_chunk, list)
                                else floors_chunk[row]
                            )
                            below_floor = floor is not None and ref_scores[row] < floor
                        assert below_floor or not ref_predictions[row], (key, row)
                    else:
                        floor = (
                            floors_chunk
                            if not isinstance(floors_chunk, list)
                            else floors_chunk[row]
                        )
                        assert floor is not None and ref_scores[row] < floor, (key, row)

    def test_fallback_vs_bound_path_selection(self, fitted_learners, key):
        predictor = fitted_learners[key]
        scorer = CascadeScorer(
            predictor, FeatureExtractor(["name", "description"]), CascadeConfig()
        )
        if key in LINEAR:
            assert scorer.analysis is not None
        else:
            assert scorer.analysis is None
            assert analyze_predictor(predictor) is None


class TestScorerMechanics:
    def test_counters_accumulate_and_merge(self, fitted_learners):
        scorer = CascadeScorer(
            fitted_learners["linear_svm"],
            FeatureExtractor(["name", "description"]),
            CascadeConfig(mode="on"),
        )
        chunk = _candidate_pairs(seed=13, count=30)
        kept, _, _ = scorer.score_chunk(chunk, floors=0.95)
        stats = scorer.stats()
        assert stats["mode"] == "on"
        assert stats["candidates_seen"] == 30
        assert stats["pruned_at_bound"] == 30 - len(kept)
        assert stats["fully_scored"] == len(kept)
        scorer.merge_counts(5, 2, 3)
        merged = scorer.stats()
        assert merged["candidates_seen"] == 35
        assert merged["pruned_at_bound"] == stats["pruned_at_bound"] + 2

    def test_mode_off_never_stages(self, fitted_learners):
        scorer = CascadeScorer(
            fitted_learners["linear_svm"],
            FeatureExtractor(["name", "description"]),
            CascadeConfig(mode="off"),
        )
        chunk = _candidate_pairs(seed=17, count=10)
        kept, _, _ = scorer.score_chunk(chunk, floors=0.99)
        assert kept.tolist() == list(range(10))  # off never drops rows
        assert scorer.stats()["pruned_at_bound"] == 0

    def test_empty_chunk(self, fitted_learners):
        scorer = CascadeScorer(
            fitted_learners["linear_svm"], FeatureExtractor(["name", "description"])
        )
        kept, scores, predictions = scorer.score_chunk([])
        assert len(kept) == len(scores) == len(predictions) == 0

    def test_cascade_config_validation(self):
        with pytest.raises(Exception):
            CascadeConfig(mode="sometimes")
        for mode in ("off", "on", "auto"):
            assert CascadeConfig(mode=mode).mode == mode

    def test_cascade_config_hash_stability(self):
        # The default cascade must not perturb persisted config dicts.
        assert "cascade" not in PipelineConfig().to_dict()
        explicit = dataclasses.replace(
            PipelineConfig(), cascade=CascadeConfig(mode="on")
        )
        assert explicit.to_dict()["cascade"] == {"mode": "on"}
        assert PipelineConfig.from_dict(explicit.to_dict()).cascade.mode == "on"
        assert PipelineConfig.from_dict(PipelineConfig().to_dict()).cascade.mode == "auto"


# --------------------------------------------------------------- end to end
def _small_config(mode: str, combination: str = "Linear-Margin") -> PipelineConfig:
    return PipelineConfig(
        combination=combination,
        config=ActiveLearningConfig(
            seed_size=20, batch_size=10, max_iterations=3, target_f1=None, random_state=0
        ),
        scale=0.12,
        cascade=CascadeConfig(mode=mode),
    )


@pytest.fixture(scope="module")
def e2e():
    dataset = load_dataset("dblp_acm", scale=0.12)
    pipelines = {}
    for mode in ("off", "auto", "on"):
        pipeline = MatchingPipeline(_small_config(mode))
        pipeline.fit("dblp_acm")
        pipelines[mode] = pipeline
    return dataset, pipelines


class TestEndToEndParity:
    def test_match_parity_across_modes(self, e2e):
        dataset, pipelines = e2e
        reference = pipelines["off"].match(dataset.left, dataset.right)
        assert pipelines["auto"].match(dataset.left, dataset.right) == reference
        on = pipelines["on"].match(dataset.left, dataset.right)
        ref_keyed = {(m.left_id, m.right_id): m for m in reference}
        # "on" output: subset of the reference, all accepted pairs retained.
        for match in on:
            assert ref_keyed[(match.left_id, match.right_id)] == match
        accepted = {(m.left_id, m.right_id) for m in reference if m.is_match}
        assert accepted <= {(m.left_id, m.right_id) for m in on}

    def test_match_min_score_parity(self, e2e):
        dataset, pipelines = e2e
        reference = pipelines["off"].match(dataset.left, dataset.right)
        for mode in ("off", "auto", "on"):
            floored = pipelines[mode].match(dataset.left, dataset.right, min_score=0.6)
            assert floored == [m for m in reference if m.score >= 0.6], mode
            stats = pipelines[mode].last_match_stats
            assert stats["candidates_seen"] == len(reference)
            if mode != "off":
                assert stats["pruned_at_bound"] > 0

    def test_index_query_parity(self, e2e):
        dataset, pipelines = e2e
        indexes = {}
        for mode, pipeline in pipelines.items():
            index = MatchIndex(pipeline)
            index.add(dataset.right.records)
            indexes[mode] = index
        probes = dataset.left.records[:25]
        floors = [None, 0.4, 0.9, 0.6, None] * 5
        for probe, floor in zip(probes, floors):
            reference = indexes["off"].query(probe, min_score=floor)
            assert indexes["auto"].query(probe, min_score=floor) == reference
            on = indexes["on"].query(probe, min_score=floor)
            ref_set = {(s.left_id, s.right_id, s.score, s.is_match) for s in reference}
            on_set = {(s.left_id, s.right_id, s.score, s.is_match) for s in on}
            assert on_set <= ref_set
            assert {entry for entry in ref_set if entry[3]} <= on_set
        assert indexes["off"].query_batch(probes, min_score=floors) == (
            indexes["auto"].query_batch(probes, min_score=floors)
        )
        assert indexes["off"].resolve() == indexes["auto"].resolve() == indexes["on"].resolve()
        assert indexes["off"].resolve(0.7) == indexes["on"].resolve(0.7)
        cascade_stats = indexes["on"].stats()["cascade"]
        assert cascade_stats["mode"] == "on"
        assert cascade_stats["pruned_at_bound"] > 0
        assert indexes["off"].stats()["cascade"]["pruned_at_bound"] == 0

    def test_set_cascade_mode_carries_counters(self, e2e):
        dataset, pipelines = e2e
        index = MatchIndex(pipelines["off"])
        index.add(dataset.right.records)
        index.query(dataset.left.records[0])
        before = index.stats()["cascade"]
        index.set_cascade_mode("on")
        after = index.stats()["cascade"]
        assert after["mode"] == "on"
        assert after["candidates_seen"] == before["candidates_seen"]

    def test_jobs_parity_with_min_score(self, e2e):
        dataset, pipelines = e2e
        lefts = dataset.left.records[:60]
        rights = dataset.right.records[:60]
        for mode in ("off", "on"):
            pipeline = pipelines[mode]
            serial = pipeline.match(lefts, rights, min_score=0.5)
            parallel = pipeline.match(lefts, rights, jobs=2, min_score=0.5)
            assert serial == parallel, mode
