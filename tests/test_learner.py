"""Weighted ensemble learner: splits, weights, determinism, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialemu.errors import (
    ConfigError,
    DegenerateModelError,
    InsufficientDataError,
    SchemaError,
)
from trialemu.learner import (
    FittedEnsemble,
    LearnerConfig,
    constant_model,
    fit,
    predict_prob,
)

SMALL = LearnerConfig(n_trees=5, max_depth=3, min_leaf=1,
                      feature_subsample=1.0, bootstrap=False, seed=0)


def make_dataset(seed, n=60, n_features=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    logits = X @ np.array([1.5, -1.0, 0.5][:n_features])
    y = (logits + rng.normal(scale=0.5, size=n) > 0).astype(float)
    if y.min() == y.max():  # ensure both classes appear
        y[0] = 1.0 - y[0]
    return X, y


def test_config_validation():
    with pytest.raises(ConfigError):
        LearnerConfig(n_trees=0)
    with pytest.raises(ConfigError):
        LearnerConfig(max_depth=0)
    with pytest.raises(ConfigError):
        LearnerConfig(feature_subsample=0.0)
    with pytest.raises(ConfigError):
        LearnerConfig(feature_subsample=1.2)


def test_constant_model_predicts_value():
    model = constant_model(0.37, 2, SMALL)
    np.testing.assert_array_equal(
        predict_prob(model, [[0.0, 0.0], [5.0, -5.0]]), [0.37, 0.37])
    with pytest.raises(ConfigError):
        constant_model(1.5, 2, SMALL)


def test_two_point_separable_split():
    model = fit([[0.0], [1.0]], [0, 1], [1.0, 1.0],
                LearnerConfig(n_trees=1, max_depth=1, min_leaf=1,
                              feature_subsample=1.0, bootstrap=False))
    np.testing.assert_array_equal(
        predict_prob(model, [[0.0], [0.49], [0.51], [1.0]]), [0, 0, 1, 1])


def test_leaf_value_is_weighted_mean():
    # Depth 1 on one feature: split isolates x<2.5; right leaf mixes labels
    # 1,0 with weights 3,1 -> weighted positive fraction 0.75.
    X = [[0.0], [1.0], [3.0], [4.0]]
    y = [0, 0, 1, 0]
    w = [1.0, 1.0, 3.0, 1.0]
    model = fit(X, y, w, LearnerConfig(n_trees=1, max_depth=1, min_leaf=2,
                                       feature_subsample=1.0, bootstrap=False))
    np.testing.assert_allclose(predict_prob(model, [[0.5], [3.5]]), [0.0, 0.75])


def test_weight_duplication_equivalence():
    X, y = make_dataset(11)
    w = np.ones(len(y))
    w[4] = 3.0
    dup = fit(np.vstack([X, X[4], X[4]]), np.append(y, [y[4], y[4]]),
              np.ones(len(y) + 2), SMALL)
    weighted = fit(X, y, w, SMALL)
    grid = np.random.default_rng(0).normal(size=(40, 3))
    np.testing.assert_allclose(
        predict_prob(dup, grid), predict_prob(weighted, grid), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 19))
def test_weight_duplication_equivalence_property(seed, dup_idx):
    X, y = make_dataset(seed, n=20, n_features=2)
    w = np.ones(20)
    w[dup_idx] = 2.0
    cfg = LearnerConfig(n_trees=2, max_depth=2, min_leaf=1,
                        feature_subsample=1.0, bootstrap=False, seed=1)
    dup = fit(np.vstack([X, X[dup_idx]]), np.append(y, y[dup_idx]),
              np.ones(21), cfg)
    weighted = fit(X, y, w, cfg)
    np.testing.assert_allclose(
        predict_prob(dup, X), predict_prob(weighted, X), atol=1e-12)


def test_single_class_raise_and_constant():
    X = [[0.0], [1.0], [2.0]]
    with pytest.raises(DegenerateModelError):
        fit(X, [1, 1, 1], [1, 1, 1], SMALL)
    model = fit(X, [1, 1, 1], [1, 1, 1], SMALL, on_single_class="constant")
    np.testing.assert_array_equal(predict_prob(model, [[9.0]]), [1.0])


def test_insufficient_data_and_shape_errors():
    with pytest.raises(InsufficientDataError):
        fit([[0.0]], [1], [1.0],
            LearnerConfig(min_leaf=5, bootstrap=False))
    with pytest.raises(SchemaError):
        fit([[0.0], [1.0]], [0, 1, 1], [1, 1], SMALL)
    with pytest.raises(ConfigError):
        fit([[0.0], [1.0]], [0, 1], [1.0, 0.0], SMALL)


def test_fit_is_bitwise_deterministic():
    X, y = make_dataset(5)
    cfg = LearnerConfig(n_trees=20, max_depth=4, min_leaf=3, seed=42)
    a = fit(X, y, np.ones(len(y)), cfg)
    b = fit(X, y, np.ones(len(y)), cfg)
    assert a.to_json() == b.to_json()
    # a different seed must be allowed to differ
    c = fit(X, y, np.ones(len(y)), LearnerConfig(
        n_trees=20, max_depth=4, min_leaf=3, seed=43))
    assert c.to_json() != a.to_json()


def test_predictions_are_probabilities():
    X, y = make_dataset(7, n=120)
    model = fit(X, y, np.ones(len(y)),
                LearnerConfig(n_trees=30, max_depth=5, min_leaf=2, seed=1))
    p = predict_prob(model, np.random.default_rng(1).normal(size=(200, 3)))
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_json_round_trip():
    X, y = make_dataset(9)
    model = fit(X, y, np.ones(len(y)),
                LearnerConfig(n_trees=8, max_depth=3, min_leaf=2, seed=3))
    clone = FittedEnsemble.from_json(model.to_json())
    assert clone.config == model.config
    assert clone.weight_digest == model.weight_digest
    np.testing.assert_array_equal(predict_prob(clone, X), predict_prob(model, X))


def test_predict_rejects_feature_mismatch():
    X, y = make_dataset(2)
    model = fit(X, y, np.ones(len(y)), SMALL)
    with pytest.raises(SchemaError):
        predict_prob(model, [[1.0, 2.0]])


def test_upweighting_positives_raises_mean_prediction():
    X, y = make_dataset(13, n=100)
    cfg = LearnerConfig(n_trees=10, max_depth=3, min_leaf=5,
                        feature_subsample=1.0, bootstrap=False, seed=0)
    means = []
    for rho in (1.0, 2.0, 4.0):
        w = np.where(y == 1, rho, 1.0)
        means.append(predict_prob(fit(X, y, w, cfg), X).mean())
    assert means[0] <= means[1] + 1e-12 <= means[2] + 2e-12
