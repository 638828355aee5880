"""Scalar reference implementations — test oracles, not production code.

Feature extraction and scoring have one production path each: the batched,
cache-backed :class:`~repro.features.FeatureExtractor` feeding the score
cascade.  The functions here recompute the same numbers the slow, obvious
way — one registry similarity call per (pair, attribute, function), no
caches, no deduplication, no batch kernels — so equivalence tests compare
the production path against an independent implementation instead of
against itself.
"""

from __future__ import annotations

import numpy as np

from repro.similarity import DEFAULT_SIMILARITY_SUITE
from repro.similarity.tokenizers import normalize


def scalar_features(pairs, matched_columns, similarity_suite=DEFAULT_SIMILARITY_SUITE) -> np.ndarray:
    """Dense ``(len(pairs), len(columns) × len(suite))`` feature matrix.

    Attribute-major column order, suite order within each attribute (the
    extractor's layout).  Following the paper, a similarity is 0 when
    either normalized value is missing.
    """
    matrix = np.zeros((len(pairs), len(matched_columns) * len(similarity_suite)))
    for row, pair in enumerate(pairs):
        column = 0
        for attribute in matched_columns:
            left = normalize(pair.left.value(attribute))
            right = normalize(pair.right.value(attribute))
            for function in similarity_suite:
                if left and right:
                    matrix[row, column] = function(left, right)
                column += 1
    return matrix


def scalar_scores(predictor, matched_columns, pairs) -> tuple[np.ndarray, np.ndarray]:
    """``(probabilities, predictions)`` of ``predictor`` over the oracle
    features of ``pairs``, scored as one matrix."""
    matrix = scalar_features(pairs, matched_columns)
    scores = np.asarray(predictor.predict_proba(matrix), dtype=float)
    predictions = np.asarray(predictor.predict(matrix), dtype=np.int64)
    return scores, predictions
