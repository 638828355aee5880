"""Configuration of an active-learning run and of the blocking step."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class BlockingConfig:
    """Which blocking strategy to run, and with which parameters.

    Hashable (usable in preparation cache keys) and decoupled from the
    blocker classes themselves: :func:`repro.harness.preparation.build_blocker`
    resolves it against :mod:`repro.blocking.registry` at preparation time.

    Attributes
    ----------
    method:
        Registry name of the strategy (``"jaccard"``, ``"minhash_lsh"``,
        ``"sorted_neighborhood"``).
    threshold:
        Similarity cutoff, with method-specific meaning: token-Jaccard
        threshold for ``jaccard``, verification threshold for
        ``minhash_lsh``; ignored by ``sorted_neighborhood``.  ``None`` falls
        back to the dataset spec's per-dataset blocking threshold (for
        ``jaccard``) or the strategy default.
    params:
        Extra keyword arguments for the blocker constructor as a sorted
        tuple of ``(name, value)`` items — use :meth:`create` to build from
        plain kwargs.
    """

    method: str = "jaccard"
    threshold: float | None = None
    params: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    @classmethod
    def create(
        cls, method: str = "jaccard", threshold: float | None = None, **params
    ) -> "BlockingConfig":
        """Build a config from plain keyword arguments.

        >>> BlockingConfig.create("minhash_lsh", threshold=0.2, bands=32)
        BlockingConfig(method='minhash_lsh', threshold=0.2, params=(('bands', 32),))

        Sequence-valued parameters (e.g. ``keys=[...]`` for the
        sorted-neighborhood blocker) are canonicalized to tuples so the
        config stays hashable for cache keys.
        """
        canonical = {
            name: tuple(value) if isinstance(value, (list, set)) else value
            for name, value in params.items()
        }
        return cls(method=method, threshold=threshold, params=tuple(sorted(canonical.items())))

    def __post_init__(self) -> None:
        if not self.method:
            raise ConfigurationError("blocking method must be a non-empty name")
        if self.threshold is not None and not 0.0 < self.threshold <= 1.0:
            raise ConfigurationError("blocking threshold must be in (0, 1] or None")

    def kwargs(self) -> dict:
        """The ``params`` tuple as a plain keyword dict."""
        return dict(self.params)

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips through :meth:`from_dict`)."""
        return {
            "method": self.method,
            "threshold": self.threshold,
            "params": [[name, list(value) if isinstance(value, tuple) else value]
                       for name, value in self.params],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BlockingConfig":
        params = tuple(
            (name, tuple(value) if isinstance(value, list) else value)
            for name, value in data.get("params", [])
        )
        return cls(method=data["method"], threshold=data.get("threshold"), params=params)


@dataclass(frozen=True)
class IndexConfig:
    """LSH and maintenance parameters of a :class:`~repro.index.MatchIndex`.

    The first four attributes mirror the
    :class:`~repro.blocking.minhash_lsh.MinHashLSHBlocker` parameters — an
    index built with an ``IndexConfig`` produces candidate sets bit-identical
    to a batch blocking pass with :meth:`blocking_config` (the shared
    :class:`~repro.blocking.signatures.SignatureComputer` guarantees the
    signatures agree).

    Attributes
    ----------
    num_perm / bands / shingle_size / seed:
        MinHash signature length, LSH band count, character shingle length
        and permutation seed (see the blocker docs for the S-curve trade-off).
    verify_threshold / exact_verify:
        Optional verification pass over bucket collisions, identical in
        semantics to the blocker's: estimated-Jaccard filtering with a 2σ
        recall slack, optionally upgraded to exact shingle-Jaccard.
    compaction_threshold:
        When the tombstoned fraction of index rows exceeds this value after a
        ``remove``, the index compacts automatically (rebuilding its arrays
        and posting lists without the dead rows).  1.0 disables
        auto-compaction; ``compact()`` can always be called explicitly.
    shards:
        Hash partitions of the band index.  Query results are bit-identical
        for every value (candidates are a shard-order-free union); raising it
        buys smaller per-shard posting files (in-place saves rewrite only
        dirty shards).  Keep the default of 1 until the corpus approaches
        millions of records.
    resolve_min_score:
        Default ``min_score`` of :meth:`~repro.index.MatchIndex.resolve`:
        pairs must be predicted matches scoring at least this to be merged
        into one entity.  ``None`` accepts every predicted match.
    """

    num_perm: int = 128
    bands: int = 64
    shingle_size: int = 3
    verify_threshold: float | None = None
    exact_verify: bool = False
    seed: int = 0
    compaction_threshold: float = 0.5
    resolve_min_score: float | None = None
    shards: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.shards <= 4096:
            raise ConfigurationError("shards must be between 1 and 4096")
        if self.num_perm < 2:
            raise ConfigurationError("num_perm must be at least 2")
        if self.bands < 1 or self.num_perm % self.bands != 0:
            raise ConfigurationError(
                f"bands must divide num_perm ({self.num_perm}); got bands={self.bands}"
            )
        if self.shingle_size < 1:
            raise ConfigurationError("shingle_size must be positive")
        if self.verify_threshold is not None and not 0.0 < self.verify_threshold <= 1.0:
            raise ConfigurationError("verify_threshold must be in (0, 1] or None")
        if not 0.0 < self.compaction_threshold <= 1.0:
            raise ConfigurationError("compaction_threshold must be in (0, 1]")
        if self.resolve_min_score is not None and not 0.0 <= self.resolve_min_score <= 1.0:
            raise ConfigurationError("resolve_min_score must be in [0, 1] or None")

    def blocking_config(self) -> BlockingConfig:
        """The equivalent batch :class:`BlockingConfig` (``minhash_lsh``).

        A :class:`~repro.pipeline.MatchingPipeline` whose resolved blocking is
        this config blocks exactly the candidate pairs the index retrieves —
        the equivalence contract the index test suite asserts.
        """
        return BlockingConfig.create(
            "minhash_lsh",
            num_perm=self.num_perm,
            bands=self.bands,
            shingle_size=self.shingle_size,
            seed=self.seed,
            verify_threshold=self.verify_threshold,
            exact_verify=self.exact_verify,
        )

    @classmethod
    def from_blocking(cls, blocking: BlockingConfig, **overrides) -> "IndexConfig":
        """Derive an index config from a ``minhash_lsh`` blocking config.

        Used when wrapping a pipeline that was trained with LSH blocking, so
        the index inherits the exact signature parameters the pipeline blocks
        with at inference time.
        """
        if blocking.method != "minhash_lsh":
            raise ConfigurationError(
                f"IndexConfig.from_blocking requires a 'minhash_lsh' blocking "
                f"config, got {blocking.method!r}"
            )
        params = blocking.kwargs()
        known = {
            name: params[name]
            for name in ("num_perm", "bands", "shingle_size", "seed", "exact_verify")
            if name in params
        }
        verify = params.get("verify_threshold", blocking.threshold)
        known.setdefault("verify_threshold", verify)
        known.update(overrides)
        return cls(**known)

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips through :meth:`from_dict`).

        ``shards`` is emitted only when non-default, so configs (and their
        hashes / golden pins) from before sharding are byte-stable.
        """
        body = {
            "num_perm": self.num_perm,
            "bands": self.bands,
            "shingle_size": self.shingle_size,
            "verify_threshold": self.verify_threshold,
            "exact_verify": self.exact_verify,
            "seed": self.seed,
            "compaction_threshold": self.compaction_threshold,
            "resolve_min_score": self.resolve_min_score,
        }
        if self.shards != 1:
            body["shards"] = self.shards
        return body

    @classmethod
    def from_dict(cls, data: dict) -> "IndexConfig":
        return cls(**data)


@dataclass(frozen=True)
class CascadeConfig:
    """Score-cascade behavior of the inference hot path (see docs/scoring.md).

    Attributes
    ----------
    mode:
        ``"auto"`` (default): features always come from the batched
        kernels; staging (cheap feature columns first, expensive ones only
        for survivors) and provable bound-pruning engage whenever the
        caller supplies an explicit score floor (``min_score``) and the
        trained predictor is a sign-analyzable linear model.  Output is
        always bit-identical to ``"off"`` for the same arguments.

        ``"on"``: like ``"auto"``, but the learner's own acceptance
        threshold also acts as an implicit floor — candidates the linear
        model provably cannot accept are dropped from the output entirely
        (match-only serving).  Accepted pairs and survivor scores remain
        bit-identical to the uncascaded path.

        ``"off"``: staged extraction, no pruning — every candidate's
        features come from one batched extraction and every candidate is
        scored, whatever the floor.
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in ("off", "on", "auto"):
            raise ConfigurationError(
                f"cascade mode must be 'off', 'on' or 'auto'; got {self.mode!r}"
            )

    def to_dict(self) -> dict:
        return {"mode": self.mode}

    @classmethod
    def from_dict(cls, data: dict) -> "CascadeConfig":
        return cls(**data)


@dataclass(frozen=True)
class ActiveLearningConfig:
    """Hyper-parameters of the active-learning loop (Section 6 defaults).

    Attributes
    ----------
    seed_size:
        Number of initially labeled examples (30 in the paper).
    batch_size:
        Examples selected and labeled per iteration (10 in the paper).
    max_iterations:
        Upper bound on labeling iterations; ``None`` runs until another
        termination criterion fires.
    target_f1:
        Stop as soon as the evaluation F1 reaches this value (the paper stops
        when an approach achieves a near-perfect progressive F1).  ``None``
        disables the criterion (used for noisy-Oracle experiments, which run
        until the unlabeled pool is exhausted).
    convergence_window / convergence_tolerance:
        A run is also considered converged when the F1 changed by less than
        ``convergence_tolerance`` over the last ``convergence_window``
        iterations; set the window to 0 to disable.
    random_state:
        Seed for the loop's own randomness (seed sampling, tie-breaking).
    warm_start:
        When True, learners that support it (``supports_warm_start``) resume
        each iteration's fit from the previous iteration's parameters instead
        of re-initializing from scratch.  Off by default: warm starting
        changes (typically shortens) the optimization path, so trajectories
        differ from the paper's cold-retrain protocol.
    evaluation_interval:
        Evaluate the model every this-many iterations (1 = every iteration,
        the paper's protocol).  Skipped iterations reuse the previous
        evaluation in their records (flagged with ``extras["evaluation_reused"]``);
        the terminating iteration is always freshly evaluated, and the
        ``target_f1`` / convergence criteria only fire on fresh evaluations.
    committee_jobs:
        Worker threads for committee training (QBC bootstrap committees and
        random-forest tree fitting).  1 = serial.  Bootstrap committees are
        bit-identical to serial for any value; see ``docs/engine.md`` for the
        random-forest determinism contract.
    """

    seed_size: int = 30
    batch_size: int = 10
    max_iterations: int | None = 100
    target_f1: float | None = 0.98
    convergence_window: int = 0
    convergence_tolerance: float = 0.002
    random_state: int | None = 0
    warm_start: bool = False
    evaluation_interval: int = 1
    committee_jobs: int = 1

    def __post_init__(self) -> None:
        if self.seed_size < 2:
            raise ConfigurationError("seed_size must be at least 2")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be positive or None")
        if self.target_f1 is not None and not 0.0 < self.target_f1 <= 1.0:
            raise ConfigurationError("target_f1 must be in (0, 1] or None")
        if self.convergence_window < 0:
            raise ConfigurationError("convergence_window must be non-negative")
        if self.convergence_tolerance < 0:
            raise ConfigurationError("convergence_tolerance must be non-negative")
        if self.evaluation_interval < 1:
            raise ConfigurationError("evaluation_interval must be at least 1")
        if self.committee_jobs < 1:
            raise ConfigurationError("committee_jobs must be at least 1")

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips through :meth:`from_dict`).

        The engine-option fields are emitted only when non-default: their
        canonical JSON (and therefore every ``TrialSpec.trial_hash``) is
        unchanged for configs that predate them, keeping old run stores
        resumable.
        """
        data = {
            "seed_size": self.seed_size,
            "batch_size": self.batch_size,
            "max_iterations": self.max_iterations,
            "target_f1": self.target_f1,
            "convergence_window": self.convergence_window,
            "convergence_tolerance": self.convergence_tolerance,
            "random_state": self.random_state,
        }
        if self.warm_start:
            data["warm_start"] = self.warm_start
        if self.evaluation_interval != 1:
            data["evaluation_interval"] = self.evaluation_interval
        if self.committee_jobs != 1:
            data["committee_jobs"] = self.committee_jobs
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ActiveLearningConfig":
        return cls(**data)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines how a :class:`~repro.pipeline.MatchingPipeline`
    is trained and how it scores record pairs at inference time.

    Serializable (``to_dict`` / ``from_dict`` round-trip through the artifact
    manifest) and frozen, so a persisted pipeline can state exactly how it was
    produced.

    Attributes
    ----------
    combination:
        Named learner/selector combination trained by active learning
        (``"Trees(20)"``, ``"Linear-Margin(Ensemble)"``, ...), resolved by
        :func:`repro.harness.builders.build_combination`.
    config:
        Active-learning loop hyper-parameters used during :meth:`fit`.
    blocking:
        Blocking strategy applied both at training and at inference time.
        ``None`` resolves to the paper's Jaccard blocker at the training
        dataset's spec threshold; the *resolved* config is persisted so a
        reloaded pipeline blocks identically.
    scale / dataset_seed:
        Synthetic-generation parameters when :meth:`fit` is given a catalog
        dataset name (ignored for a ready-made :class:`EMDataset`).
    noise / oracle_seed:
        Training Oracle label-flip probability and its RNG seed.
    chunk_size:
        Default number of candidate pairs scored per chunk during
        :meth:`match` (bounds peak memory; chunking never changes scores).
    cascade:
        Score-cascade behavior of the inference hot path (staged feature
        extraction + provable bound pruning); see :class:`CascadeConfig`.
    """

    combination: str = "Trees(20)"
    config: ActiveLearningConfig = field(default_factory=ActiveLearningConfig)
    blocking: BlockingConfig | None = None
    scale: float = 1.0
    dataset_seed: int | None = None
    noise: float = 0.0
    oracle_seed: int | None = 0
    chunk_size: int = 4096
    cascade: CascadeConfig = field(default_factory=CascadeConfig)

    def __post_init__(self) -> None:
        if not self.combination:
            raise ConfigurationError("pipeline combination must be a non-empty name")
        if self.scale <= 0:
            raise ConfigurationError("pipeline scale must be positive")
        if not 0.0 <= self.noise < 1.0:
            raise ConfigurationError("pipeline noise must be in [0, 1)")
        if self.chunk_size < 1:
            raise ConfigurationError("pipeline chunk_size must be at least 1")

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips through :meth:`from_dict`).

        ``cascade`` is emitted only when non-default, so the canonical JSON
        (and every derived config/artifact hash) is unchanged for configs
        that predate the cascade.
        """
        data = {
            "combination": self.combination,
            "config": self.config.to_dict(),
            "blocking": self.blocking.to_dict() if self.blocking is not None else None,
            "scale": self.scale,
            "dataset_seed": self.dataset_seed,
            "noise": self.noise,
            "oracle_seed": self.oracle_seed,
            "chunk_size": self.chunk_size,
        }
        if self.cascade != CascadeConfig():
            data["cascade"] = self.cascade.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        data = dict(data)
        data["config"] = ActiveLearningConfig.from_dict(data.get("config", {}))
        if data.get("blocking") is not None:
            data["blocking"] = BlockingConfig.from_dict(data["blocking"])
        if data.get("cascade") is not None:
            data["cascade"] = CascadeConfig.from_dict(data["cascade"])
        else:
            data.pop("cascade", None)
        return cls(**data)
