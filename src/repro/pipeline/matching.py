"""End-to-end matching pipelines: train once, persist, score unseen pairs.

A :class:`MatchingPipeline` composes the three stages every experiment in
this repository already exercises — blocker → feature extractor → AL-trained
learner (or active ensemble) — behind a serving-shaped API:

* :meth:`MatchingPipeline.fit` trains the configured learner/selector
  combination by active learning on a catalog dataset (reusing the harness
  preparation cache) or on any ready-made :class:`~repro.datasets.EMDataset`.
* :meth:`MatchingPipeline.save` / :meth:`MatchingPipeline.load` persist the
  fitted pipeline as a versioned on-disk artifact (see
  :mod:`repro.pipeline.artifact`).
* :meth:`MatchingPipeline.match` blocks and scores two record collections in
  chunks, optionally across worker processes.  Scores are **bit-identical**
  for any ``jobs`` / ``chunk_size`` setting and across save/load cycles:
  blocking produces candidates in a deterministic order, feature extraction
  and prediction are row-wise deterministic, and chunking only partitions
  rows.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ..core import ActiveEnsemble, ActiveEnsembleLoop, ActiveLearningLoop, ActiveLearningRun
from ..core.base import Learner
from ..core.config import BlockingConfig, PipelineConfig
from ..datasets.base import CandidatePair, EMDataset, Record, Table
from ..exceptions import ConfigurationError, NotFittedError
from ..telemetry import span
from .artifact import read_artifact, write_artifact

#: Jaccard threshold used when a pipeline is fitted on a plain
#: :class:`EMDataset` (no catalog spec to consult) and the config does not
#: name one.  Catalog datasets resolve to their spec threshold instead.
FALLBACK_BLOCKING_THRESHOLD = 0.1


def coerce_record(obj, index: int = 0) -> Record:
    """Interpret a :class:`Record` or a plain mapping as a :class:`Record`.

    Mappings may carry ``record_id`` (or ``id``) and either an ``attributes``
    sub-mapping or attribute values inline; missing/None values become empty
    strings.  Shared by :meth:`MatchingPipeline.match` and
    :class:`repro.index.MatchIndex`, so the batch and incremental paths
    interpret user records identically.
    """
    if isinstance(obj, Record):
        return obj
    if isinstance(obj, Mapping):
        data = dict(obj)
        attributes = data.pop("attributes", None)
        record_id = data.pop("record_id", None)
        if record_id is None:
            record_id = data.pop("id", None)
        if attributes is None:
            attributes = data
        if record_id is None:
            record_id = index
        return Record(
            record_id=str(record_id),
            attributes={
                str(key): "" if value is None else str(value)
                for key, value in attributes.items()
            },
        )
    raise ConfigurationError(
        f"cannot interpret {type(obj).__name__} as a record; "
        f"pass Record objects or mappings"
    )


@dataclass(frozen=True)
class MatchScore:
    """One scored candidate pair produced by :meth:`MatchingPipeline.match`.

    ``score`` is the model's match probability (for ensembles: the member
    vote fraction) and ``is_match`` the hard prediction.  For active
    ensembles the prediction is the *union* of member votes, so ``is_match``
    can be True at low vote fractions — consumers thresholding on ``score``
    should document their own cutoff.
    """

    left_id: str
    right_id: str
    score: float
    is_match: bool

    def to_dict(self) -> dict:
        return {
            "left_id": self.left_id,
            "right_id": self.right_id,
            "score": float(self.score),
            "is_match": bool(self.is_match),
        }


class EnsemblePredictor:
    """Picklable final model of an active-ensemble run.

    Wraps the frozen :class:`ActiveEnsemble` members plus the candidate
    classifier at termination — exactly the model the loop's own evaluation
    used (``predict_with_candidate``).
    """

    name = "active_ensemble"

    def __init__(self, ensemble: ActiveEnsemble, candidate: Learner | None):
        self.ensemble = ensemble
        self.candidate = candidate

    @property
    def _voters(self) -> list[Learner]:
        voters = list(self.ensemble.members)
        # When the loop terminates on the iteration a candidate is accepted,
        # the terminal candidate *is* the last member — don't let it vote
        # twice (union predictions are idempotent, vote fractions are not).
        if (
            self.candidate is not None
            and self.candidate.is_fitted
            and all(self.candidate is not member for member in voters)
        ):
            voters.append(self.candidate)
        return voters

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.ensemble.predict_with_candidate(features, self.candidate)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        voters = self._voters
        if not voters:
            return np.zeros(len(features), dtype=float)
        votes = np.zeros(len(features), dtype=float)
        for voter in voters:
            votes += voter.predict(features).astype(float)
        return votes / len(voters)


class MatchingPipeline:
    """Blocker → feature extractor → AL-trained matcher, as one object.

    Parameters
    ----------
    config:
        Training and inference configuration; defaults to the paper's best
        combination (``Trees(20)``) with Section 6 loop defaults.
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self._predictor: Learner | EnsemblePredictor | None = None
        self.feature_kind: str | None = None
        self.matched_columns: list[str] | None = None
        #: Cascade counters of the most recent :meth:`match` call
        #: (``None`` before any call); see docs/scoring.md.
        self.last_match_stats: dict | None = None
        #: The blocking config actually applied (thresholds resolved against
        #: the training dataset's spec), persisted so inference blocks
        #: identically after reload.
        self.resolved_blocking: BlockingConfig | None = None
        #: Training provenance: dataset name, pool statistics and the
        #: timing-stripped run summary.
        self.training: dict | None = None

    # ------------------------------------------------------------------- fit
    @property
    def is_fitted(self) -> bool:
        return self._predictor is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("MatchingPipeline has not been fitted (or loaded) yet")

    def _resolve_blocking(self, default_threshold: float) -> BlockingConfig:
        blocking = self.config.blocking or BlockingConfig(method="jaccard")
        if blocking.method == "jaccard" and blocking.threshold is None:
            blocking = replace(blocking, threshold=default_threshold)
        return blocking

    def fit(self, dataset: str | EMDataset) -> ActiveLearningRun:
        """Train the pipeline by active learning and return the trajectory.

        ``dataset`` is either a catalog name (prepared through the harness'
        memoized — and optionally disk-backed — preparation cache, so
        repeated fits share blocking and feature-extraction work) or a
        ready-made :class:`EMDataset` with ground-truth matches for the
        training Oracle.
        """
        from ..datasets import get_dataset_spec
        from ..harness.builders import build_combination, make_oracle, prepare_for_combination
        from ..harness.preparation import prepare_pool_from_pairs
        from ..runner.runner import strip_timing

        combination = build_combination(self.config.combination)
        if isinstance(dataset, str):
            default_threshold = get_dataset_spec(dataset).blocking_threshold
            prepared = prepare_for_combination(
                dataset,
                combination,
                scale=self.config.scale,
                seed=self.config.dataset_seed,
                blocking=self.config.blocking,
            )
        else:
            from ..harness.preparation import build_blocker

            default_threshold = FALLBACK_BLOCKING_THRESHOLD
            blocker = build_blocker(self.config.blocking, default_threshold)
            blocking_result = blocker.block(dataset)
            prepared = prepare_pool_from_pairs(
                dataset, blocking_result.pairs, combination.feature_kind
            )

        oracle = make_oracle(
            prepared.pool, noise=self.config.noise, seed=self.config.oracle_seed
        )
        if combination.is_ensemble:
            loop = ActiveEnsembleLoop(
                learner_factory=combination.learner_factory,
                selector=combination.selector_factory(),
                pool=prepared.pool,
                oracle=oracle,
                config=self.config.config,
                dataset_name=prepared.name,
            )
            run = loop.run()
            predictor: Learner | EnsemblePredictor = EnsemblePredictor(
                loop.ensemble, loop.final_candidate
            )
        else:
            loop = ActiveLearningLoop(
                learner=combination.learner_factory(),
                selector=combination.selector_factory(),
                pool=prepared.pool,
                oracle=oracle,
                config=self.config.config,
                dataset_name=prepared.name,
            )
            run = loop.run()
            predictor = loop.learner
        run.metadata["combination"] = combination.name

        self._predictor = predictor
        self.feature_kind = combination.feature_kind
        self.matched_columns = list(prepared.dataset.matched_columns)
        self.resolved_blocking = self._resolve_blocking(default_threshold)
        self.training = {
            "dataset": prepared.name,
            "n_pairs": int(prepared.n_pairs),
            "class_skew": round(float(prepared.class_skew), 6),
            "summary": strip_timing(run.summary()),
        }
        return run

    # ----------------------------------------------------------------- match
    def _coerce_record(self, obj, index: int) -> Record:
        return coerce_record(obj, index)

    def _as_table(self, side: str, records) -> Table:
        if isinstance(records, Table):
            return records
        if isinstance(records, EMDataset):
            raise ConfigurationError(
                "pass the dataset's tables (dataset.left, dataset.right), not the dataset"
            )
        return Table(
            name=side,
            schema=self.matched_columns,
            records=[self._coerce_record(obj, i) for i, obj in enumerate(records)],
        )

    def candidates(self, records_a, records_b) -> list[CandidatePair]:
        """Blocked (unlabeled) candidate pairs for two record collections.

        Deterministic order — the contract the chunked/parallel scorer relies
        on for bit-identical output.
        """
        self._require_fitted()
        from ..harness.preparation import build_blocker

        with span("match.block") as block_span:
            left = self._as_table("left", records_a)
            right = self._as_table("right", records_b)
            blocker = build_blocker(self.resolved_blocking, FALLBACK_BLOCKING_THRESHOLD)
            triples = blocker.candidate_pairs(left, right)
            block_span.annotate(candidates=len(triples))
        return [CandidatePair(left_rec, right_rec) for left_rec, right_rec, _ in triples]

    def match(
        self,
        records_a,
        records_b,
        jobs: int = 1,
        chunk_size: int | None = None,
        min_score: float | None = None,
    ) -> list[MatchScore]:
        """Block and score two record collections, returning scored pairs.

        Parameters
        ----------
        records_a, records_b:
            The two sides to match: :class:`Table` objects, lists of
            :class:`Record`, or lists of plain mappings (``record_id``/``id``
            plus attribute values).
        jobs:
            Worker processes for scoring.  ``1`` scores in-process; any value
            yields bit-identical scores (chunks are scored independently and
            reassembled in candidate order).
        chunk_size:
            Candidate pairs per scoring chunk (default: the config's
            ``chunk_size``).  Bounds peak memory; never changes scores.
        min_score:
            When given, only pairs scoring at least this are returned —
            exactly ``[m for m in match(...) if m.score >= min_score]``, but
            the score cascade (``config.cascade``, see docs/scoring.md) may
            use the floor to prune candidates before their expensive feature
            columns are ever computed.  Cascade mode ``"on"`` additionally
            drops candidates the learner provably rejects even without a
            floor; accepted pairs and survivor scores are bit-identical to
            the uncascaded path in every mode.

        Per-candidate cascade counters for the call are available afterwards
        via :attr:`last_match_stats`.
        """
        self._require_fitted()
        if jobs < 1:
            raise ConfigurationError("jobs must be at least 1")
        chunk_size = self.config.chunk_size if chunk_size is None else chunk_size
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be at least 1")

        pairs = self.candidates(records_a, records_b)
        if not pairs:
            self.last_match_stats = {
                "mode": self.config.cascade.mode,
                "candidates_seen": 0,
                "pruned_at_bound": 0,
                "fully_scored": 0,
            }
            return []
        chunks = [pairs[start : start + chunk_size] for start in range(0, len(pairs), chunk_size)]

        with span("match.score") as score_span:
            if jobs == 1 or len(chunks) == 1:
                from ..harness.preparation import make_extractor
                from ..scoring import CascadeScorer

                extractor = make_extractor(self.matched_columns, self.feature_kind)
                scorer = CascadeScorer(self._predictor, extractor, self.config.cascade)
                scored = [
                    scorer.score_chunk(chunk, floors=min_score) for chunk in chunks
                ]
                self.last_match_stats = scorer.stats()
            else:
                state = pickle.dumps(
                    self._inference_state(min_score), protocol=pickle.HIGHEST_PROTOCOL
                )
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(chunks)),
                    initializer=_init_match_worker,
                    initargs=(state,),
                ) as pool:
                    scored = list(pool.map(_match_chunk_worker, chunks))
                self.last_match_stats = {
                    "mode": self.config.cascade.mode,
                    "candidates_seen": len(pairs),
                    "pruned_at_bound": len(pairs)
                    - sum(len(kept) for kept, _, _ in scored),
                    "fully_scored": sum(len(kept) for kept, _, _ in scored),
                }
            score_span.annotate(chunks=len(chunks), jobs=jobs)

        results: list[MatchScore] = []
        for chunk, (kept, scores, predictions) in zip(chunks, scored):
            for row, score, prediction in zip(kept, scores, predictions):
                if min_score is not None and score < min_score:
                    continue
                pair = chunk[int(row)]
                results.append(
                    MatchScore(
                        left_id=pair.left.record_id,
                        right_id=pair.right.record_id,
                        score=float(score),
                        is_match=bool(prediction),
                    )
                )
        return results

    def _inference_state(self, min_score: float | None = None) -> dict:
        """Everything a worker process needs to score chunks identically."""
        return {
            "predictor": self._predictor,
            "matched_columns": self.matched_columns,
            "feature_kind": self.feature_kind,
            "cascade": self.config.cascade,
            "min_score": min_score,
        }

    # ----------------------------------------------------------- persistence
    def _manifest_body(self) -> dict:
        """The artifact manifest body describing this fitted pipeline.

        Shared by :meth:`save` and by index artifacts
        (:meth:`repro.index.MatchIndex.save`), which persist the same
        pipeline description plus an ``index`` payload section.
        """
        self._require_fitted()
        from .. import __version__
        from ..harness.preparation import make_extractor
        from ..runner.spec import content_hash

        pipeline_section = {
            "combination": self.config.combination,
            "feature_kind": self.feature_kind,
            "matched_columns": list(self.matched_columns),
            "blocking": self.resolved_blocking.to_dict(),
            "config": self.config.to_dict(),
        }
        extractor = make_extractor(self.matched_columns, self.feature_kind)
        return {
            "repro_version": __version__,
            "pipeline": pipeline_section,
            "config_hash": content_hash(pipeline_section),
            "features": {
                "kind": self.feature_kind,
                "dim": extractor.dim,
                "names": extractor.feature_names(),
            },
            "training": self.training,
        }

    def save(self, path) -> dict:
        """Persist the fitted pipeline as a versioned artifact directory.

        Returns the completed manifest.  The manifest carries no timestamps
        or wall-clock fields, so saving the same fitted pipeline twice
        produces byte-identical manifests.
        """
        return write_artifact(path, self._manifest_body(), self._inference_state())

    @classmethod
    def load(cls, path) -> "MatchingPipeline":
        """Reload a persisted pipeline; raises :class:`ArtifactError` on
        missing/corrupt artifacts or unsupported format versions."""
        from ..exceptions import ArtifactError
        from ..runner.spec import content_hash

        manifest, state = read_artifact(path)
        section = manifest.get("pipeline") or {}
        expected = manifest.get("config_hash")
        if expected and content_hash(section) != expected:
            raise ArtifactError(
                f"artifact {str(path)!r}: pipeline section does not match its "
                f"config hash (manifest edited?)"
            )
        pipeline = cls(PipelineConfig.from_dict(section.get("config", {})))
        pipeline._predictor = state["predictor"]
        pipeline.feature_kind = section.get("feature_kind", state.get("feature_kind"))
        pipeline.matched_columns = list(section.get("matched_columns", state.get("matched_columns")))
        pipeline.resolved_blocking = BlockingConfig.from_dict(section["blocking"])
        pipeline.training = manifest.get("training")
        return pipeline


def load_pipeline(path) -> MatchingPipeline:
    """Convenience alias for :meth:`MatchingPipeline.load`."""
    return MatchingPipeline.load(path)


# --------------------------------------------------------- worker plumbing
#: Per-worker inference state, installed once by the pool initializer so the
#: (potentially large) predictor is deserialized once per process, not once
#: per chunk.
_WORKER: dict | None = None


def _init_match_worker(state_bytes: bytes) -> None:
    from ..harness.preparation import make_extractor
    from ..scoring import CascadeScorer

    global _WORKER
    state = pickle.loads(state_bytes)
    extractor = make_extractor(state["matched_columns"], state["feature_kind"])
    _WORKER = {
        "scorer": CascadeScorer(state["predictor"], extractor, state.get("cascade")),
        "min_score": state.get("min_score"),
    }


def _match_chunk_worker(
    chunk: list[CandidatePair],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _WORKER["scorer"].score_chunk(chunk, floors=_WORKER["min_score"])
