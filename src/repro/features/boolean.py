"""Boolean (thresholded) feature extraction for rule-based learners.

Rule-based models from Qian et al. support only three similarity functions
(exact equality, Jaro-Winkler, Jaccard) and evaluate each against a discrete
grid of thresholds in ``(0, 1]``, producing Boolean feature dimensions such as
``JaccardSim(left.name, right.name) ≥ 0.4`` (Section 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.base import CandidatePair
from ..exceptions import FeatureExtractionError
from ..similarity import RULE_SIMILARITY_SUITE, SimilarityFunction
from ..similarity.tokenizers import normalize


@dataclass(frozen=True)
class BooleanFeatureDescriptor:
    """One Boolean predicate: ``similarity(attribute) ≥ threshold``."""

    attribute: str
    similarity: str
    threshold: float

    @property
    def name(self) -> str:
        return f"{self.similarity}({self.attribute}) >= {self.threshold:.1f}"


class BooleanFeatureExtractor:
    """Thresholded predicate features over the rule-supported similarity suite."""

    def __init__(
        self,
        matched_columns: list[str],
        similarity_suite: tuple[SimilarityFunction, ...] = RULE_SIMILARITY_SUITE,
        thresholds: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    ):
        if not matched_columns:
            raise FeatureExtractionError("matched_columns must not be empty")
        if not thresholds or any(not 0.0 < t <= 1.0 for t in thresholds):
            raise FeatureExtractionError("thresholds must be a non-empty subset of (0, 1]")
        self.matched_columns = list(matched_columns)
        self.similarity_suite = tuple(similarity_suite)
        self.thresholds = tuple(sorted(thresholds))
        self.descriptors = [
            BooleanFeatureDescriptor(attribute=column, similarity=function.name, threshold=threshold)
            for column in self.matched_columns
            for function in self.similarity_suite
            for threshold in self.thresholds
        ]
        self._value_cache: dict[tuple[str, str, str], float] = {}

    @property
    def dim(self) -> int:
        return len(self.descriptors)

    def feature_names(self) -> list[str]:
        return [descriptor.name for descriptor in self.descriptors]

    def _similarity(self, function: SimilarityFunction, left_value: str, right_value: str) -> float:
        left_value, right_value = normalize(left_value), normalize(right_value)
        if not left_value or not right_value:
            return 0.0
        key = (function.name, left_value, right_value)
        cached = self._value_cache.get(key)
        if cached is None:
            cached = function(left_value, right_value)
            self._value_cache[key] = cached
        return cached

    def extract_pair(self, pair: CandidatePair) -> np.ndarray:
        """Boolean feature vector (0/1 floats) for a single candidate pair."""
        values = np.zeros(self.dim)
        index = 0
        for column in self.matched_columns:
            left_value = pair.left.value(column)
            right_value = pair.right.value(column)
            for function in self.similarity_suite:
                similarity = self._similarity(function, left_value, right_value)
                for threshold in self.thresholds:
                    values[index] = 1.0 if similarity >= threshold else 0.0
                    index += 1
        return values

    def extract(self, pairs: list[CandidatePair]) -> np.ndarray:
        """Boolean feature matrix, one row per pair."""
        if not pairs:
            return np.zeros((0, self.dim))
        return np.vstack([self.extract_pair(pair) for pair in pairs])

    def cache_size(self) -> int:
        """Entries held in the similarity cache."""
        return len(self._value_cache)

    def clear_cache(self) -> None:
        self._value_cache.clear()
