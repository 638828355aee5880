"""Continuous similarity-based feature extraction.

For P candidate pairs, A matched attributes and K similarity functions the
extractor fills a dense (P × A·K) matrix.  There is one extraction path,
:class:`PartialExtraction`: per attribute, the P value pairs are grouped by
their distinct normalized values, each similarity function runs once per
*unique* value pair through the batched kernels of
:mod:`repro.similarity.batch_kernels`, and the results are scattered to
every row sharing that value pair.  :meth:`FeatureExtractor.extract` fills
every column at once; the score cascade fills the cheap columns first and
the expensive ones only for the rows that survive its bound.  Since real
tables repeat attribute values heavily (brands, venues, years), this does
far less similarity work than a pair-at-a-time loop, while producing
bit-identical output (see the batch-vs-scalar oracle tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.base import CandidatePair
from ..exceptions import FeatureExtractionError
from ..similarity import DEFAULT_SIMILARITY_SUITE, SimilarityFunction
from ..similarity.batch_kernels import batch_similarity
from ..similarity.bounds import UPPER_BOUND_NAMES, upper_bound_matrix
from ..similarity.tokenizers import normalize

#: Similarity functions whose per-pair cost is quadratic in string length
#: (DP edit measures) or token-pair quadratic (hybrid measures).  Everything
#: else in a suite is "cheap": linear-time set/bag/counter arithmetic.  Every
#: expensive function has an upper-bound companion in
#: :mod:`repro.similarity.bounds`, which is what lets the score cascade
#: defer them; a measure without a bound must stay in the cheap tier.
EXPENSIVE_SIMILARITIES = frozenset(
    {
        "levenshtein",
        "damerau_levenshtein",
        "jaro",
        "jaro_winkler",
        "needleman_wunsch",
        "smith_waterman",
        "lcs",
        "monge_elkan",
        "soft_tfidf",
    }
)
assert EXPENSIVE_SIMILARITIES <= UPPER_BOUND_NAMES


def cost_tier(similarity_name: str) -> str:
    """Cost tier ("cheap" or "expensive") of a similarity function name."""
    return "expensive" if similarity_name in EXPENSIVE_SIMILARITIES else "cheap"


@dataclass(frozen=True)
class FeatureDescriptor:
    """One feature dimension: a similarity function applied to an attribute."""

    attribute: str
    similarity: str

    @property
    def name(self) -> str:
        return f"{self.similarity}({self.attribute})"

    @property
    def tier(self) -> str:
        """Cost tier of the underlying similarity ("cheap" or "expensive")."""
        return cost_tier(self.similarity)


@dataclass
class FeatureMatrix:
    """A dense feature matrix aligned with a list of candidate pairs.

    Attributes
    ----------
    pairs:
        The candidate pairs, one per matrix row (same order).
    matrix:
        Dense ``(len(pairs), len(descriptors))`` float array of similarities.
    descriptors:
        One :class:`FeatureDescriptor` per matrix column.
    labels:
        Ground-truth labels aligned with ``pairs`` when every pair carries
        one, else ``None``.
    """

    pairs: list[CandidatePair]
    matrix: np.ndarray
    descriptors: list[FeatureDescriptor]
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.matrix.shape[0] != len(self.pairs):
            raise FeatureExtractionError("feature matrix rows must match number of pairs")
        if self.matrix.shape[1] != len(self.descriptors):
            raise FeatureExtractionError("feature matrix columns must match descriptors")

    @property
    def dim(self) -> int:
        """Number of feature dimensions (matrix columns)."""
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.pairs)


class FeatureExtractor:
    """Applies a suite of similarity functions to aligned attribute pairs.

    Parameters
    ----------
    matched_columns:
        The aligned attribute names compared across the two tables.
    similarity_suite:
        Similarity functions to apply; defaults to the 21-function suite
        mirroring the paper's Simmetrics setup.

    Notes
    -----
    Following the paper, when one or both attribute values of a pair are
    missing the similarity evaluates to 0 regardless of the function.

    Three memoization caches make repeated extraction cheap:

    * a normalization cache (raw attribute string → normalized string), so
      each distinct raw value is lower-cased/whitespace-collapsed once per
      extractor lifetime rather than once per pair,
    * a value-pair cache (normalized value pair → K-vector of
      similarities), so repeated value pairs (brands, venues, years) are
      scored once per dataset.  A vector may be partly filled — NaN marks a
      similarity not yet computed, which is how the cascade's cheap-first
      fills and later full fills share one entry, and
    * a bound cache (normalized value pair → upper bounds of the expensive
      columns), read by the cascade's pruning stage.

    The caches persist across :meth:`extract` calls; :meth:`cache_size`
    counts their entries and :meth:`clear_cache` drops them.
    """

    def __init__(
        self,
        matched_columns: list[str],
        similarity_suite: tuple[SimilarityFunction, ...] = DEFAULT_SIMILARITY_SUITE,
    ):
        if not matched_columns:
            raise FeatureExtractionError("matched_columns must not be empty")
        if not similarity_suite:
            raise FeatureExtractionError("similarity_suite must not be empty")
        self.matched_columns = list(matched_columns)
        self.similarity_suite = tuple(similarity_suite)
        self.descriptors = [
            FeatureDescriptor(attribute=column, similarity=function.name)
            for column in self.matched_columns
            for function in self.similarity_suite
        ]
        # Normalized value pair → similarity vector, NaN where not yet
        # computed.  NaN is a safe sentinel: similarities live in [0, 1].
        self._value_cache: dict[tuple[str, str], np.ndarray] = {}
        # Cache of normalized-value-pair → per-expensive-column upper bounds.
        self._bound_cache: dict[tuple[str, str], np.ndarray] = {}
        # Cache of raw value → normalized value, shared across attributes.
        self._norm_cache: dict[str, str] = {}
        self._suite_names = [function.name for function in self.similarity_suite]
        self.cheap_suite_indices = tuple(
            index
            for index, name in enumerate(self._suite_names)
            if name not in EXPENSIVE_SIMILARITIES
        )
        self.expensive_suite_indices = tuple(
            index
            for index, name in enumerate(self._suite_names)
            if name in EXPENSIVE_SIMILARITIES
        )
        suite_size = len(self.similarity_suite)
        # Full-matrix column positions per tier (attribute-major, suite order
        # within each attribute) — the layout the cascade slices against.
        self.cheap_column_indices = np.array(
            [
                attr * suite_size + index
                for attr in range(len(self.matched_columns))
                for index in self.cheap_suite_indices
            ],
            dtype=np.int64,
        )
        self.expensive_column_indices = np.array(
            [
                attr * suite_size + index
                for attr in range(len(self.matched_columns))
                for index in self.expensive_suite_indices
            ],
            dtype=np.int64,
        )

    @property
    def dim(self) -> int:
        """Total number of features: ``len(matched_columns) × len(suite)``."""
        return len(self.descriptors)

    def feature_names(self) -> list[str]:
        """Column names, e.g. ``"jaccard(title)"``, in matrix column order."""
        return [descriptor.name for descriptor in self.descriptors]

    def _normalize_cached(self, value: str) -> str:
        """Normalized form of a raw attribute value, memoized per raw string."""
        cached = self._norm_cache.get(value)
        if cached is None:
            cached = self._norm_cache[value] = normalize(value)
        return cached

    def extract(self, pairs: list[CandidatePair]) -> FeatureMatrix:
        """Feature matrix for a list of candidate pairs (rows in input order).

        Fills every column of one :class:`PartialExtraction`: O(U × K)
        similarity evaluations for U unique value pairs not yet cached
        (U ≤ P, typically U ≪ P) plus O(P × dim) scatter.
        """
        plan = self.begin_partial(pairs)
        plan.fill_all()
        labels = None
        if pairs and all(pair.label is not None for pair in pairs):
            labels = np.array([pair.label for pair in pairs], dtype=np.int64)
        return FeatureMatrix(
            pairs=plan.pairs, matrix=plan.matrix, descriptors=list(self.descriptors), labels=labels
        )

    def _cached_vector(self, key: tuple[str, str]) -> np.ndarray:
        """The (shared, mutable) cached similarity vector of a normalized
        pair; NaN entries mark similarities not yet computed."""
        vector = self._value_cache.get(key)
        if vector is None:
            vector = self._value_cache[key] = np.full(len(self.similarity_suite), np.nan)
        return vector

    def _bounds_for_keys(self, keys: list[tuple[str, str]]) -> np.ndarray:
        """Upper bounds of the expensive suite columns for normalized pairs.

        Shape ``(len(keys), len(expensive_suite_indices))``, memoized per
        pair.  Pairs with an empty side score 0 everywhere (the extractor's
        missing-value rule), so their bounds are 0.
        """
        names = [self._suite_names[index] for index in self.expensive_suite_indices]
        out = np.empty((len(keys), len(names)))
        missing_rows: list[int] = []
        for row, key in enumerate(keys):
            cached = self._bound_cache.get(key)
            if cached is not None:
                out[row] = cached
            elif not key[0] or not key[1]:
                out[row] = 0.0
            else:
                missing_rows.append(row)
        if missing_rows:
            lefts = [keys[row][0] for row in missing_rows]
            rights = [keys[row][1] for row in missing_rows]
            bounds = upper_bound_matrix(names, lefts, rights)
            for slot, row in enumerate(missing_rows):
                self._bound_cache[keys[row]] = bounds[slot]
                out[row] = bounds[slot]
        return out

    def begin_partial(self, pairs: list[CandidatePair]) -> "PartialExtraction":
        """Start a column-tiered extraction over one batch of pairs.

        The returned :class:`PartialExtraction` lets the score cascade fill
        cheap columns first, derive bounds for the expensive ones, and fill
        expensive columns only for surviving rows — reusing (and feeding)
        this extractor's caches so mixed partial/full workloads never
        recompute a similarity.
        """
        return PartialExtraction(self, pairs)

    def cache_size(self) -> int:
        """Entries held across the value-pair, normalization and bound caches."""
        return len(self._value_cache) + len(self._norm_cache) + len(self._bound_cache)

    def clear_cache(self) -> None:
        """Drop the memoization caches (frees memory between datasets)."""
        self._value_cache.clear()
        self._bound_cache.clear()
        self._norm_cache.clear()


class PartialExtraction:
    """Column-tiered view over one batch of candidate pairs.

    Created by :meth:`FeatureExtractor.begin_partial`.  ``matrix`` starts as
    all-NaN; :meth:`fill` computes the requested suite columns (for all rows
    or a subset) through the batched kernels, deduplicated per unique
    normalized value pair and memoized in the parent extractor's caches.
    Filled cells are the same whatever the order and row subsets of the
    fills, so a cascade's staged fills match :meth:`FeatureExtractor.extract`
    bitwise.
    """

    def __init__(self, extractor: FeatureExtractor, pairs: list[CandidatePair]):
        self.extractor = extractor
        self.pairs = list(pairs)
        self.matrix = np.full((len(self.pairs), extractor.dim), np.nan)
        # Per attribute: unique normalized value pair → rows sharing it, and
        # the reverse row → key view for subset fills.
        self._groups: list[dict[tuple[str, str], list[int]]] = []
        self._keys: list[list[tuple[str, str]]] = []
        for column in extractor.matched_columns:
            groups: dict[tuple[str, str], list[int]] = {}
            keys: list[tuple[str, str]] = []
            for row, pair in enumerate(self.pairs):
                key = (
                    extractor._normalize_cached(pair.left.value(column)),
                    extractor._normalize_cached(pair.right.value(column)),
                )
                keys.append(key)
                group = groups.get(key)
                if group is None:
                    groups[key] = [row]
                else:
                    group.append(row)
            self._groups.append(groups)
            self._keys.append(keys)

    def __len__(self) -> int:
        return len(self.pairs)

    def fill(self, suite_indices, rows=None) -> None:
        """Compute the given suite columns, scattering into ``matrix``.

        ``rows=None`` fills every pair; otherwise only the listed rows.
        Each similarity function runs once per unique value pair still
        missing it (across this plan and the extractor's caches).
        """
        wanted = sorted({int(index) for index in suite_indices})
        if not wanted or not self.pairs:
            return
        extractor = self.extractor
        suite = extractor.similarity_suite
        suite_size = len(suite)
        columns_within = np.asarray(wanted, dtype=np.int64)
        for attr_index, groups in enumerate(self._groups):
            if rows is None:
                items = list(groups.items())
            else:
                subset: dict[tuple[str, str], list[int]] = {}
                keys = self._keys[attr_index]
                for row in rows:
                    key = keys[int(row)]
                    group = subset.get(key)
                    if group is None:
                        subset[key] = [int(row)]
                    else:
                        group.append(int(row))
                items = list(subset.items())
            resolved: list[tuple[np.ndarray, list[int]]] = []
            missing: dict[int, list[tuple[np.ndarray, str, str]]] = {}
            for key, group_rows in items:
                left_value, right_value = key
                if not left_value or not right_value:
                    # Missing-value rule: the whole vector is 0.
                    vector = np.zeros(suite_size)
                else:
                    vector = extractor._cached_vector(key)
                    holes = columns_within[np.isnan(vector[columns_within])]
                    for func_index in holes.tolist():
                        missing.setdefault(func_index, []).append(
                            (vector, left_value, right_value)
                        )
                resolved.append((vector, group_rows))
            for func_index, entries in missing.items():
                values = batch_similarity(
                    suite[func_index].name,
                    [entry[1] for entry in entries],
                    [entry[2] for entry in entries],
                )
                for (vector, _, _), value in zip(entries, values):
                    vector[func_index] = value
            columns = attr_index * suite_size + columns_within
            for vector, group_rows in resolved:
                self.matrix[np.ix_(group_rows, columns)] = vector[columns_within]

    def fill_all(self, rows=None) -> None:
        """Fill every suite column (cheap and expensive)."""
        self.fill(range(len(self.extractor.similarity_suite)), rows=rows)

    def upper_bounds(self) -> np.ndarray:
        """Upper bounds for every expensive column.

        Shape ``(len(pairs), len(expensive_column_indices))``, columns in
        the same order as ``FeatureExtractor.expensive_column_indices``
        (attribute-major, expensive suite order).  O(len) per unique value
        pair, memoized in the extractor.
        """
        extractor = self.extractor
        width = len(extractor.expensive_suite_indices)
        out = np.empty((len(self.pairs), len(extractor.matched_columns) * width))
        for attr_index, groups in enumerate(self._groups):
            bounds = extractor._bounds_for_keys(list(groups))
            block = slice(attr_index * width, (attr_index + 1) * width)
            for slot, group_rows in enumerate(groups.values()):
                out[group_rows, block] = bounds[slot]
        return out
