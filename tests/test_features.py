"""Tests for continuous and Boolean feature extraction."""

import numpy as np
import pytest

from repro.datasets import CandidatePair, Record
from repro.exceptions import FeatureExtractionError
from repro.features import (
    BooleanFeatureExtractor,
    FeatureExtractor,
)
from repro.similarity import DEFAULT_SIMILARITY_SUITE, RULE_SIMILARITY_SUITE

from .oracles import scalar_features


def make_pair(left_attrs, right_attrs, label=None):
    pair = CandidatePair(Record("l", left_attrs), Record("r", right_attrs))
    return pair if label is None else pair.with_label(label)


class TestFeatureExtractor:
    def test_dimension_is_suite_times_columns(self):
        extractor = FeatureExtractor(["name", "price"])
        assert extractor.dim == 2 * len(DEFAULT_SIMILARITY_SUITE)
        assert len(extractor.feature_names()) == extractor.dim

    def test_feature_names_mention_attribute_and_similarity(self):
        extractor = FeatureExtractor(["name"])
        names = extractor.feature_names()
        assert "jaccard(name)" in names
        assert "jaro_winkler(name)" in names

    def test_identical_pair_scores_high(self):
        extractor = FeatureExtractor(["name"])
        vector = extractor.extract([make_pair({"name": "sony camera"}, {"name": "sony camera"})]).matrix[0]
        assert vector.shape == (extractor.dim,)
        assert np.all(vector >= 0.99)

    def test_missing_value_gives_zero_features(self):
        extractor = FeatureExtractor(["name", "price"])
        vector = extractor.extract([make_pair({"name": "sony", "price": ""}, {"name": "sony", "price": "10"})]).matrix[0]
        price_block = vector[len(DEFAULT_SIMILARITY_SUITE):]
        assert np.all(price_block == 0.0)

    def test_all_features_bounded(self):
        extractor = FeatureExtractor(["name"])
        vector = extractor.extract(
            [make_pair({"name": "canon eos digital"}, {"name": "nikon coolpix"})]
        ).matrix[0]
        assert np.all(vector >= 0.0)
        assert np.all(vector <= 1.0)

    def test_extract_matrix_shape_and_labels(self):
        extractor = FeatureExtractor(["name"])
        pairs = [
            make_pair({"name": "a b"}, {"name": "a b"}, label=1),
            make_pair({"name": "a b"}, {"name": "c d"}, label=0),
        ]
        matrix = extractor.extract(pairs)
        assert matrix.matrix.shape == (2, extractor.dim)
        assert matrix.labels.tolist() == [1, 0]
        assert matrix.dim == extractor.dim
        assert len(matrix) == 2

    def test_extract_without_labels(self):
        extractor = FeatureExtractor(["name"])
        matrix = extractor.extract([make_pair({"name": "x"}, {"name": "x"})])
        assert matrix.labels is None

    def test_extract_empty_list(self):
        extractor = FeatureExtractor(["name"])
        matrix = extractor.extract([])
        assert matrix.matrix.shape == (0, extractor.dim)

    def test_cache_is_used_and_clearable(self):
        extractor = FeatureExtractor(["name"])
        extractor.extract([make_pair({"name": "sony"}, {"name": "sony"})])
        # One value pair, fully filled, in the single value-pair cache.
        assert len(extractor._value_cache) == 1
        assert not np.isnan(extractor._value_cache[("sony", "sony")]).any()
        assert extractor.cache_size() == 2  # plus the one normalized value
        extractor.clear_cache()
        assert len(extractor._value_cache) == 0
        assert extractor.cache_size() == 0

    def test_requires_columns(self):
        with pytest.raises(FeatureExtractionError):
            FeatureExtractor([])

    def test_requires_similarity_suite(self):
        with pytest.raises(FeatureExtractionError):
            FeatureExtractor(["name"], similarity_suite=())

    def test_batch_extract_equals_scalar_extract(self):
        pairs = [
            make_pair({"name": "sony camera dsc w80", "price": "199.99"},
                      {"name": "sony camera dsc-w82", "price": "189.00"}),
            make_pair({"name": "canon printer", "price": "80"},
                      {"name": "hp laser printer", "price": "85"}),
            make_pair({"name": "sony camera dsc w80", "price": "199.99"},
                      {"name": "sony camera dsc-w82", "price": "189.00"}),  # repeated values
            make_pair({"name": "", "price": "10"}, {"name": "sony", "price": "10"}),
        ]
        batch = FeatureExtractor(["name", "price"]).extract(pairs).matrix
        scalar = scalar_features(pairs, ["name", "price"])
        np.testing.assert_array_equal(batch, scalar)

    def test_matching_pairs_score_higher_than_nonmatching(self, tiny_prepared):
        matrix = tiny_prepared.pool.features
        labels = tiny_prepared.pool.true_labels
        match_mean = matrix[labels == 1].mean()
        nonmatch_mean = matrix[labels == 0].mean()
        assert match_mean > nonmatch_mean


class TestBooleanFeatureExtractor:
    def test_dimension(self):
        extractor = BooleanFeatureExtractor(["name"], thresholds=(0.2, 0.5, 0.8))
        assert extractor.dim == len(RULE_SIMILARITY_SUITE) * 3

    def test_default_threshold_grid_has_ten_levels(self):
        extractor = BooleanFeatureExtractor(["name"])
        assert extractor.dim == len(RULE_SIMILARITY_SUITE) * 10

    def test_values_are_binary(self):
        extractor = BooleanFeatureExtractor(["name"])
        vector = extractor.extract_pair(make_pair({"name": "sony alpha camera"}, {"name": "sony camera"}))
        assert set(np.unique(vector)) <= {0.0, 1.0}

    def test_thresholds_are_monotone(self):
        # If sim >= 0.8 holds then sim >= 0.4 must hold as well.
        extractor = BooleanFeatureExtractor(["name"], thresholds=(0.4, 0.8))
        vector = extractor.extract_pair(make_pair({"name": "sony camera"}, {"name": "sony camera x"}))
        for base in range(0, extractor.dim, 2):
            low, high = vector[base], vector[base + 1]
            assert low >= high

    def test_identical_pair_satisfies_every_predicate(self):
        extractor = BooleanFeatureExtractor(["name"])
        vector = extractor.extract_pair(make_pair({"name": "exact copy"}, {"name": "exact copy"}))
        assert np.all(vector == 1.0)

    def test_missing_value_fails_every_predicate(self):
        extractor = BooleanFeatureExtractor(["name"])
        vector = extractor.extract_pair(make_pair({"name": ""}, {"name": "something"}))
        assert np.all(vector == 0.0)

    def test_descriptor_names(self):
        extractor = BooleanFeatureExtractor(["name"], thresholds=(0.5,))
        names = extractor.feature_names()
        assert "jaccard(name) >= 0.5" in names

    def test_matrix_shape(self):
        extractor = BooleanFeatureExtractor(["name"])
        pairs = [make_pair({"name": "a"}, {"name": "a"}), make_pair({"name": "a"}, {"name": "b"})]
        assert extractor.extract(pairs).shape == (2, extractor.dim)

    def test_invalid_thresholds(self):
        with pytest.raises(FeatureExtractionError):
            BooleanFeatureExtractor(["name"], thresholds=())
        with pytest.raises(FeatureExtractionError):
            BooleanFeatureExtractor(["name"], thresholds=(0.0, 0.5))
        with pytest.raises(FeatureExtractionError):
            BooleanFeatureExtractor(["name"], thresholds=(0.5, 1.2))

    def test_requires_columns(self):
        with pytest.raises(FeatureExtractionError):
            BooleanFeatureExtractor([])
