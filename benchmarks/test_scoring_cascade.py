"""Scoring-cascade regression benchmark: per-query speedup and bit-identity.

Guards the :class:`~repro.scoring.CascadeScorer` hot-path contract:

* with a linear predictor and an explicit score floor, cascaded scoring of a
  serving-shaped candidate chunk must beat the uncascaded path (mode
  ``"off"``: the same batched extraction, every candidate scored) by at
  least :data:`REQUIRED_SPEEDUP`× (medians over per-query chunks),
* the bound pruning must actually engage (nonzero prune rate — a cascade
  that never prunes is just overhead), and
* survivors stay **bit-identical** to the uncascaded reference while the
  speedup is measured: same scores, same predictions, and every pruned row
  provably below the floor.

``REPRO_CASCADE_SPEEDUP_FLOOR`` overrides the required speedup for
constrained environments.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ActiveLearningConfig, CascadeConfig, PipelineConfig
from repro.datasets import load_dataset
from repro.datasets.base import CandidatePair
from repro.harness.preparation import make_extractor
from repro.pipeline import MatchingPipeline
from repro.scoring import CascadeScorer

REQUIRED_SPEEDUP = float(os.environ.get("REPRO_CASCADE_SPEEDUP_FLOOR", "5"))
N_QUERIES = 12
CANDIDATES_PER_QUERY = 150
SCORE_FLOOR = 0.9


@pytest.fixture(scope="module")
def pipeline() -> MatchingPipeline:
    fitted = MatchingPipeline(
        PipelineConfig(
            combination="Linear-Margin",
            config=ActiveLearningConfig(
                seed_size=20, batch_size=10, max_iterations=3,
                target_f1=None, random_state=0,
            ),
            scale=0.15,
        )
    )
    fitted.fit("dblp_acm")
    return fitted


@pytest.fixture(scope="module")
def query_chunks() -> list[list[CandidatePair]]:
    """Serving-shaped work: per query, one probe against many candidates."""
    dataset = load_dataset("dblp_acm", scale=1.0)
    probes = dataset.left.records[:N_QUERIES]
    rights = dataset.right.records
    chunks = []
    for i, probe in enumerate(probes):
        start = (i * CANDIDATES_PER_QUERY) % max(1, len(rights) - CANDIDATES_PER_QUERY)
        candidates = rights[start : start + CANDIDATES_PER_QUERY]
        chunks.append([CandidatePair(probe, candidate) for candidate in candidates])
    return chunks


def _scorer(pipeline: MatchingPipeline, mode: str) -> CascadeScorer:
    extractor = make_extractor(pipeline.matched_columns, pipeline.feature_kind)
    return CascadeScorer(pipeline._predictor, extractor, CascadeConfig(mode=mode))


def _time_chunks(scorer: CascadeScorer, chunks, floors) -> tuple[float, list]:
    latencies = []
    outputs = []
    for chunk in chunks:
        started = time.perf_counter()
        outputs.append(scorer.score_chunk(chunk, floors=floors))
        latencies.append(time.perf_counter() - started)
    return float(np.median(latencies)), outputs


def test_cascade_scoring_speedup(pipeline, query_chunks, emit):
    off = _scorer(pipeline, "off")
    auto = _scorer(pipeline, "auto")
    # One untimed warmup chunk per scorer: normalization caches and numpy
    # one-time costs fall outside the measurement, identically for both.
    warmup = query_chunks[0]
    off.score_chunk(warmup, floors=SCORE_FLOOR)
    auto.score_chunk(warmup, floors=SCORE_FLOOR)
    timed = query_chunks[1:]

    off_median, off_outputs = _time_chunks(off, timed, SCORE_FLOOR)
    auto_median, auto_outputs = _time_chunks(auto, timed, SCORE_FLOOR)

    # Bit-identity while the speedup is measured.
    for (_, ref_scores, ref_predictions), (kept, scores, predictions) in zip(
        off_outputs, auto_outputs
    ):
        kept = kept.tolist()
        assert np.array_equal(scores, ref_scores[kept]), "survivor scores drifted"
        assert np.array_equal(predictions, ref_predictions[kept])
        dropped = sorted(set(range(len(ref_scores))) - set(kept))
        assert all(ref_scores[row] < SCORE_FLOOR for row in dropped), (
            "cascade pruned a row at or above the floor"
        )

    stats = auto.stats()
    prune_rate = stats["pruned_at_bound"] / max(1, stats["candidates_seen"])
    speedup = off_median / auto_median

    emit(
        "scoring_cascade_speedup",
        "\n".join(
            [
                f"queries:          {len(timed)} × {CANDIDATES_PER_QUERY} candidates",
                f"score floor:      {SCORE_FLOOR}",
                f"uncascaded query: {off_median * 1000:.2f}ms (median)",
                f"cascaded query:   {auto_median * 1000:.2f}ms (median)",
                f"prune rate:       {prune_rate:.1%} "
                f"({stats['pruned_at_bound']}/{stats['candidates_seen']} at bound)",
                f"speedup:          {speedup:.1f}x (required ≥ {REQUIRED_SPEEDUP:.0f}x)",
            ]
        ),
    )
    assert stats["pruned_at_bound"] > 0, "bound pruning never engaged"
    assert speedup >= REQUIRED_SPEEDUP, (
        f"cascaded scoring is only {speedup:.2f}x faster than the uncascaded path "
        f"(required {REQUIRED_SPEEDUP:.0f}x at floor {SCORE_FLOOR})"
    )
