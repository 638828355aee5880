"""The score cascade: staged extraction + provable pruning per chunk.

:class:`CascadeScorer` is the chunk-scoring engine shared by
``MatchingPipeline.match`` and ``MatchIndex.query``/``query_batch``/
``resolve``.  Per chunk of candidate pairs it runs up to three stages:

* **Stage A** — cheap feature columns only (set/bag/counter measures),
  batched per unique value pair through the extractor's partial API.
* **Stage B** — for sign-analyzed linear predictors, an optimistic decision
  value per candidate: cheap columns at their exact values, expensive
  columns at per-pair upper bounds where the weight is positive and at 0
  (the universal lower bound of every measure) where it is negative.
  Candidates whose optimistic value cannot reach the active floor are
  pruned without ever computing an expensive column.
* **Stage C** — expensive columns for survivors only, through the batched
  DP kernels; the survivors' complete rows go to the real predictor, so
  survivor scores and predictions are bit-identical to the uncascaded path.

Pruning only engages when an explicit floor exists (a caller ``min_score``,
``accept_only=True`` from entity resolution, or mode ``"on"``'s implicit
acceptance threshold) *and* the predictor is provably linear, and never in
mode ``"off"``; otherwise the chunk's features come from one batched
``extract`` call and every candidate is scored.  See ``docs/scoring.md``
for the exact contract.
"""

from __future__ import annotations

import numpy as np

from ..core.config import CascadeConfig
from ..datasets.base import CandidatePair
from ..features.extractor import FeatureExtractor
from ..telemetry import MetricsRegistry, span
from .linear import analyze_predictor

__all__ = ["CascadeScorer"]


def _normalize_floors(floors, count: int) -> np.ndarray | None:
    """Per-pair score floors as a float array (NaN = no floor), or None."""
    if floors is None:
        return None
    if np.isscalar(floors):
        return np.full(count, float(floors))
    arr = np.array(
        [np.nan if floor is None else float(floor) for floor in floors]
    )
    if len(arr) != count:
        raise ValueError("floors must align with the chunk")
    if np.isnan(arr).all():
        return None
    return arr


class CascadeScorer:
    """Scores candidate chunks through the cascade; thread-safe counters.

    Parameters
    ----------
    predictor:
        The trained predictor (any learner or ensemble with
        ``predict`` / ``predict_proba``).
    extractor:
        The feature extractor.  Pruning requires the continuous
        :class:`FeatureExtractor`; any other kind (e.g. the Boolean rule
        extractor) always has every candidate scored.
    config:
        :class:`~repro.core.config.CascadeConfig`; ``None`` means defaults
        (mode ``"auto"``).
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry` backing the
        cascade counters.  Default is a fresh private registry, so a
        scorer built per ``match()`` call still reports per-call counts;
        :class:`~repro.index.MatchIndex` injects its own registry so the
        counters accumulate (and export) for the index's lifetime.
    """

    def __init__(
        self,
        predictor,
        extractor,
        config: CascadeConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.predictor = predictor
        self.extractor = extractor
        self.config = config or CascadeConfig()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._seen = self.metrics.counter(
            "repro_cascade_candidates_total", "Candidate pairs entering the cascade"
        )
        self._pruned = self.metrics.counter(
            "repro_cascade_pruned_total",
            "Candidates pruned at the optimistic bound (Stage B)",
        )
        self._scored = self.metrics.counter(
            "repro_cascade_fully_scored_total",
            "Candidates fully scored by the real predictor",
        )
        prunable = self.config.mode != "off" and isinstance(extractor, FeatureExtractor)
        self.analysis = analyze_predictor(predictor) if prunable else None
        if self.analysis is not None and len(self.analysis.weights) != extractor.dim:
            # Dimensionality mismatch (shouldn't happen for a consistent
            # pipeline) — never prune on weights we can't line up.
            self.analysis = None

    # ------------------------------------------------------------- counters
    # Counter state lives in the registry (each series has its own lock);
    # the attribute names survive as read-only views for callers and docs.
    @property
    def candidates_seen(self) -> int:
        return self._seen.value

    @property
    def pruned_at_bound(self) -> int:
        return self._pruned.value

    @property
    def fully_scored(self) -> int:
        return self._scored.value

    def _count(self, seen: int, pruned: int, scored: int) -> None:
        if seen:
            self._seen.inc(seen)
        if pruned:
            self._pruned.inc(pruned)
        if scored:
            self._scored.inc(scored)

    def merge_counts(self, seen: int, pruned: int, scored: int) -> None:
        """Fold counters produced elsewhere (worker processes) into this one."""
        self._count(seen, pruned, scored)

    def stats(self) -> dict:
        """Counter snapshot for observability surfaces (index stats, CLI).

        A view over the backing registry — the same numbers the daemon's
        ``GET /metrics`` exports as ``repro_cascade_*_total``.
        """
        return {
            "mode": self.config.mode,
            "candidates_seen": self._seen.value,
            "pruned_at_bound": self._pruned.value,
            "fully_scored": self._scored.value,
        }

    # -------------------------------------------------------------- scoring
    def score_chunk(
        self,
        chunk: list[CandidatePair],
        floors=None,
        accept_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score one chunk: ``(kept_rows, scores, predictions)``.

        ``kept_rows`` indexes into ``chunk``; ``scores``/``predictions``
        align with it.  Rows absent from ``kept_rows`` were *provably*
        below every active floor (a per-pair entry of ``floors``, and/or
        the acceptance threshold when ``accept_only`` is set or mode is
        ``"on"``).  Kept rows carry scores and predictions bit-identical
        to the uncascaded path, independent of chunking.
        """
        count = len(chunk)
        if count == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0),
                np.zeros(0, dtype=np.int64),
            )
        floor_values = _normalize_floors(floors, count)
        accept_prune = accept_only or self.config.mode == "on"
        if self.analysis is None or (not accept_prune and floor_values is None):
            # No pruning: every column through one batched extract call,
            # every row scored.
            with span("cascade.extract") as extract_span:
                features = self.extractor.extract(chunk)
                # The continuous extractor wraps its matrix, the Boolean
                # one returns it bare.
                matrix = getattr(features, "matrix", features)
                extract_span.annotate(candidates=count)
            with span("cascade.predict"):
                scores, predictions = self._predict(matrix)
            self._count(count, 0, count)
            return np.arange(count, dtype=np.int64), scores, predictions

        extractor = self.extractor
        analysis = self.analysis
        with span("cascade.stage_a") as stage_a:
            plan = extractor.begin_partial(chunk)
            plan.fill(extractor.cheap_suite_indices)
            stage_a.annotate(candidates=count)
        with span("cascade.stage_b") as stage_b:
            weights = analysis.weights
            cheap_part = (
                plan.matrix[:, extractor.cheap_column_indices]
                @ weights[extractor.cheap_column_indices]
            )
            gains = np.maximum(weights[extractor.expensive_column_indices], 0.0)
            optimistic = (
                cheap_part
                + plan.upper_bounds() @ gains
                + analysis.bias
                + analysis.slack
            )
            prune = np.zeros(count, dtype=bool)
            if accept_prune:
                prune |= optimistic <= 0.0
            if floor_values is not None:
                # Probability-space comparison: sigmoid∘clip is monotone, so
                # the optimistic probability dominates the true one.
                optimistic_proba = 1.0 / (
                    1.0 + np.exp(-np.clip(optimistic, -30.0, 30.0))
                )
                floored = ~np.isnan(floor_values)
                prune[floored] |= optimistic_proba[floored] < floor_values[floored]
            kept = np.flatnonzero(~prune).astype(np.int64)
            stage_b.annotate(pruned=count - len(kept))
        with span("cascade.stage_c") as stage_c:
            if len(kept):
                plan.fill(extractor.expensive_suite_indices, rows=kept)
                matrix = plan.matrix
                if len(kept) < count:
                    # Predict over the full-size matrix with pruned rows
                    # zero-filled and their outputs discarded.  BLAS
                    # matrix-vector kernels are row-independent but not
                    # row-count-independent (the <4-row tail uses a different
                    # accumulation order), so scoring a survivor *submatrix*
                    # could flip last-ulp bits vs the uncascaded path.
                    # Keeping the row count — the dot products are
                    # nanoseconds; the savings are in the skipped expensive
                    # feature columns — makes survivor scores structurally
                    # bit-identical.
                    matrix[np.isnan(matrix)] = 0.0
                scores_all, predictions_all = self._predict(matrix)
                scores = scores_all[kept]
                predictions = predictions_all[kept]
            else:
                scores = np.zeros(0)
                predictions = np.zeros(0, dtype=np.int64)
            stage_c.annotate(survivors=len(kept))
        self._count(count, count - len(kept), len(kept))
        return kept, scores, predictions

    def _predict(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scores = np.asarray(self.predictor.predict_proba(matrix), dtype=float)
        predictions = np.asarray(self.predictor.predict(matrix), dtype=np.int64)
        return scores, predictions
