"""Weighted ensemble learner: splits, weights, determinism, serialization."""

import multiprocessing
import os

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
import trialemu.learner as learner_module
from trialemu.learner import (
    FittedEnsemble,
    LearnerConfig,
    constant_model,
    fit,
    predict_prob,
    split_scan,
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
    with pytest.raises(SchemaError, match="column"):
        fit(np.empty((4, 0)), [0, 1, 0, 1], np.ones(4), SMALL)
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


def test_split_scan_keeps_exactly_the_valid_cuts():
    # small n and large min_leaf reach the edges of the cut range
    rng = np.random.default_rng(3)
    for n in range(1, 30):
        for min_leaf in range(1, 18):
            x = rng.integers(0, 5, n).astype(float)
            xs = np.sort(x)
            left = np.arange(1, n)
            valid = (xs[1:] != xs[:-1]) & (left >= min_leaf) & (n - left >= min_leaf)
            (counts,), (total,), thresholds = split_scan(x, [np.ones(n)], min_leaf)
            assert thresholds.tolist() == ((xs[:-1] + xs[1:]) / 2.0)[valid].tolist()
            assert counts.tolist() == left[valid].tolist()
            assert total == n


def test_adjacent_doubles_are_not_a_cut():
    # their midpoint rounds down onto the lower value, so "x < midpoint"
    # would send both values right; the learner split such a node into an
    # empty child and raised ValueError
    a = 1.0
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == a
    _, _, thresholds = split_scan(np.array([a, a, b, b, 3.0, 3.0]), [np.ones(6)], 1)
    assert thresholds.tolist() == [(b + 3.0) / 2.0]
    cfg = LearnerConfig(n_trees=1, max_depth=2, min_leaf=1, feature_subsample=1.0,
                        bootstrap=False)
    model = fit(np.array([[a]] * 3 + [[b]] * 3), np.array([0, 0, 0, 1, 1, 1.0]),
                np.ones(6), cfg)
    assert model.trees == ({"value": 0.5},)


def test_an_overflowing_midpoint_is_clamped_to_the_upper_value():
    # (1e308 + 1.5e308) / 2 is inf; "x < inf" would send every row left and
    # leave the learner a child with no rows, whose value is 0/0
    x = np.array([1e308] * 3 + [1.5e308] * 3)
    cfg = LearnerConfig(n_trees=1, max_depth=2, min_leaf=1, feature_subsample=1.0,
                        bootstrap=False)
    with np.errstate(over="ignore"):
        _, _, thresholds = split_scan(x, [np.ones(6)], 1)
        model = fit(x[:, None], np.array([0, 0, 0, 1, 1, 1.0]), np.ones(6), cfg)
    assert thresholds.tolist() == [1.5e308]
    assert model.trees == ({"feature": 0, "threshold": 1.5e308,
                            "left": {"value": 0.0}, "right": {"value": 1.0}},)
    assert predict_prob(model, x[:, None]).tolist() == [0, 0, 0, 1, 1, 1]


def test_a_negatively_overflowing_midpoint_is_clamped_to_the_upper_value():
    # (-1.5e308 + -1e308) / 2 is -inf; "x < -inf" is no cut, so the only
    # cut between the two values was dropped
    x = np.array([-1.5e308] * 3 + [-1e308] * 3)
    cfg = LearnerConfig(n_trees=1, max_depth=2, min_leaf=1, feature_subsample=1.0,
                        bootstrap=False)
    with np.errstate(over="ignore"):
        _, _, thresholds = split_scan(x, [np.ones(6)], 1)
        model = fit(x[:, None], np.array([0, 0, 0, 1, 1, 1.0]), np.ones(6), cfg)
    assert thresholds.tolist() == [-1e308]
    assert model.trees == ({"feature": 0, "threshold": -1e308,
                            "left": {"value": 0.0}, "right": {"value": 1.0}},)
    assert predict_prob(model, x[:, None]).tolist() == [0, 0, 0, 1, 1, 1]


# The per-tree growth that shared node scans replaced, kept as an oracle:
# every tree re-scans every drawn feature at every node.
def _oracle_best_split(x_node, y_node, w_node, feats, min_leaf):
    best_imp = np.inf
    best = None
    columns = [w_node, w_node * y_node]
    for f in feats:
        (wl, pl), (total_w, total_p), thresholds = split_scan(
            x_node[:, f], columns, min_leaf)
        if not thresholds.size:
            continue
        wr = total_w - wl
        pr = total_p - pl
        with np.errstate(divide="ignore", invalid="ignore"):
            fl = pl / wl
            fr = pr / wr
            imp = wl * fl * (1.0 - fl) + wr * fr * (1.0 - fr)
        i = int(np.argmin(imp))
        if imp[i] < best_imp:
            best_imp = imp[i]
            best = (int(f), float(thresholds[i]))
    return best


def _oracle_grow(X, y, w, rng, cfg, n_sub_features, depth=0):
    total_w = w.sum()
    value = float((w * y).sum() / total_w)
    n = y.size
    if depth >= cfg.max_depth or n < 2 * cfg.min_leaf or value in (0.0, 1.0):
        return {"value": value}
    feats = np.sort(rng.choice(X.shape[1], size=n_sub_features, replace=False))
    split = _oracle_best_split(X, y, w, feats, cfg.min_leaf)
    if split is None:
        return {"value": value}
    f, thr = split
    mask = X[:, f] < thr
    return {
        "feature": f,
        "threshold": thr,
        "left": _oracle_grow(X[mask], y[mask], w[mask], rng, cfg,
                             n_sub_features, depth + 1),
        "right": _oracle_grow(X[~mask], y[~mask], w[~mask], rng, cfg,
                              n_sub_features, depth + 1),
    }


def _oracle_fit(X, y, w, cfg):
    n, n_features = X.shape
    n_sub = max(1, int(np.ceil(cfg.feature_subsample * n_features)))
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng([cfg.seed, t])
        if cfg.bootstrap:
            idx = rng.choice(n, size=n, replace=True, p=w / w.sum())
        else:
            idx = np.arange(n)
        trees.append(_oracle_grow(X[idx], y[idx], w[idx], rng, cfg, n_sub))
    return trees


@pytest.mark.parametrize("bootstrap", [False, True])
@pytest.mark.parametrize("feature_subsample", [0.34, 0.7, 1.0])
@pytest.mark.parametrize("case", range(4))
def test_shared_node_scans_grow_the_per_tree_oracle(bootstrap, feature_subsample,
                                                    case):
    rng = np.random.default_rng(100 + case)
    n = 40 + 30 * case
    X = rng.normal(size=(n, 6))
    X[:, :3] = rng.integers(0, 3 + case, size=(n, 3))  # tied integer values
    y = (X[:, 0] + X[:, 3] + rng.normal(size=n) > 1.0).astype(float)
    w = rng.choice([1.0, 1.5, 4.0], size=n)  # non-uniform weights
    min_leaf = (1, 3, n // 2 - 1, n // 2)[case]  # near n/2: few valid cuts
    cfg = LearnerConfig(n_trees=25, max_depth=(3, 5, 4, 3)[case], min_leaf=min_leaf,
                        feature_subsample=feature_subsample,
                        bootstrap=bootstrap, seed=case)
    model = fit(X, y, w, cfg)
    oracle = FittedEnsemble(tuple(_oracle_fit(X, y, w, cfg)), 6, cfg,
                            model.weight_digest)
    assert model.to_json() == oracle.to_json()


def test_unbootstrapped_trees_share_split_scans(monkeypatch):
    import trialemu.learner as learner_module

    calls = []

    def counting_scan(*args):
        calls.append(1)
        return split_scan(*args)

    monkeypatch.setattr(learner_module, "split_scan", counting_scan)
    X, y = make_dataset(21, n=600, n_features=3)
    X = np.hstack([X, np.random.default_rng(21).normal(size=(600, 3))])
    counts = {}
    for n_trees in (1, 200):
        calls.clear()
        fit(X, y, np.where(y == 1, 2.0, 1.0),
            LearnerConfig(n_trees=n_trees, max_depth=4, min_leaf=15,
                          feature_subsample=0.7, bootstrap=False, seed=3))
        counts[n_trees] = len(calls)
    assert counts[1] > 0
    assert counts[200] < 10 * counts[1]


def _reference_scan(xs, columns, min_leaf):
    """One sorted row at a time: running sums in row order, and each cut's
    midpoint if its neighbours differ and both sides keep min_leaf rows."""
    m = xs.size
    left = []
    for c in columns:
        acc, sums = 0.0, []
        for v in c:
            acc += v
            sums.append(acc)
        left.append(sums)
    thresholds = [(xs[i] + xs[i + 1]) / 2.0
                  if xs[i] != xs[i + 1] and min(i + 1, m - i - 1) >= min_leaf
                  else None for i in range(m - 1)]
    return [s[:-1] for s in left], [s[-1] for s in left], thresholds


@pytest.mark.parametrize("m, min_leaf", [(1, 1), (2, 1), (7, 3), (9, 5),
                                         (30, 4), (41, 1), (60, 29), (60, 31)])
def test_batched_split_scan_equals_a_per_row_reference(m, min_leaf):
    rng = np.random.default_rng(m * 100 + min_leaf)
    k = 5
    block = np.vstack([rng.integers(0, 4, m),  # ties
                       rng.normal(size=m),
                       np.full(m, 2.0),  # no valid cut
                       rng.integers(0, 2, m),
                       np.round(rng.normal(size=m), 1)]).astype(float)
    block.sort(axis=1)
    columns = [rng.uniform(0.5, 3.0, (k, m)), rng.integers(0, 2, (k, m)) * 1.5]
    left, totals, thresholds = split_scan(block, columns, min_leaf)
    assert thresholds.shape == (k, m - 1)
    assert not np.isfinite(thresholds[2]).any()
    for j in range(k):
        want_left, want_totals, want_thr = _reference_scan(
            block[j], [c[j] for c in columns], min_leaf)
        assert [s[j].tolist() for s in left] == want_left
        assert [t[j] for t in totals] == want_totals
        got = [None if np.isnan(t) else t for t in thresholds[j].tolist()]
        assert got == want_thr
    if m < 2 * min_leaf:
        assert np.isnan(thresholds).all()


def test_demo_shaped_fit_grows_the_per_tree_oracle():
    # the stratify risk model's shape: bootstrapped, depth 8, min_leaf 5
    rng = np.random.default_rng(2026)
    n = 900
    X = rng.normal(size=(n, 6))
    X[:, 0] = rng.integers(0, 2, n)  # tied integer columns
    X[:, 1] = rng.integers(0, 5, n)
    X[:, 2] = np.round(rng.normal(60, 10, n))
    y = (X[:, 0] + 0.5 * X[:, 3] + rng.normal(size=n) > 0.8).astype(float)
    w = rng.uniform(0.5, 3.0, n)
    cfg = LearnerConfig(n_trees=20, max_depth=8, min_leaf=5,
                        feature_subsample=0.7, bootstrap=True, seed=11)
    model = fit(X, y, w, cfg)
    oracle = FittedEnsemble(tuple(_oracle_fit(X, y, w, cfg)), 6, cfg,
                            model.weight_digest)
    assert model.to_json() == oracle.to_json()


def test_bootstrapped_fit_scans_each_node_once(monkeypatch):
    import trialemu.learner as learner_module

    blocks, draws = [], []
    best_split = learner_module._Node.best_split

    def counting_scan(x, columns, min_leaf):
        blocks.append(x.shape[0])
        return split_scan(x, columns, min_leaf)

    def counting_best_split(node, feats, min_leaf):
        draws.append(feats.size)
        return best_split(node, feats, min_leaf)

    monkeypatch.setattr(learner_module, "split_scan", counting_scan)
    monkeypatch.setattr(learner_module._Node, "best_split", counting_best_split)
    _force_processes(monkeypatch, 1)  # the counters see only this process
    X, y = make_dataset(4, n=400)
    X = np.hstack([X, np.random.default_rng(4).normal(size=(400, 3))])
    fit(X, y, np.ones(400), LearnerConfig(n_trees=10, max_depth=6, min_leaf=3,
                                          feature_subsample=0.7, seed=2))
    assert len(draws) > 100 and set(draws) == {5}  # 5 of 6 features a node
    assert blocks == draws  # one scan per node that drew, of the drawn features


@pytest.mark.parametrize("bootstrap", [False, True])
@pytest.mark.parametrize("which", ["features", "labels", "weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_schema_errors(bootstrap, which, bad):
    X, y = make_dataset(8)
    arrays = {"features": X.copy(), "labels": y.copy(), "weights": np.ones(y.size)}
    arrays[which].flat[7] = bad
    with pytest.raises(SchemaError, match=which):
        fit(arrays["features"], arrays["labels"], arrays["weights"],
            LearnerConfig(n_trees=3, max_depth=3, min_leaf=2, bootstrap=bootstrap))


def _force_processes(monkeypatch, k):
    monkeypatch.setattr(learner_module, "_processes", lambda: k)


@pytest.mark.parametrize("n_trees", [1, 2, 3, 20])
def test_bootstrapped_fit_is_byte_identical_for_any_process_count(n_trees,
                                                                  monkeypatch):
    # n_trees 1 and 2 are fewer trees than 3 processes
    X, y = make_dataset(17, n=150, n_features=3)
    w = np.where(y == 1, 2.0, 1.0)
    cfg = LearnerConfig(n_trees=n_trees, max_depth=5, min_leaf=3, seed=9)
    docs = []
    for k in (1, 2, 3):
        _force_processes(monkeypatch, k)
        docs.append(fit(X, y, w, cfg).to_json())
        assert multiprocessing.active_children() == []
    assert docs[1] == docs[0] and docs[2] == docs[0]


class _Boom(Exception):
    pass


@pytest.mark.parametrize("where", ["worker", "this process"])
def test_an_exception_while_growing_reaches_the_caller_and_no_worker_outlives_it(
        where, monkeypatch):
    parent = os.getpid()
    grow = learner_module._grow

    def failing_grow(node, rng, cfg, n_sub_features, depth=0):
        # raised by every tree in a worker's range, or in this process's
        if (os.getpid() != parent) == (where == "worker"):
            raise _Boom(where)
        return grow(node, rng, cfg, n_sub_features, depth)

    monkeypatch.setattr(learner_module, "_grow", failing_grow)
    _force_processes(monkeypatch, 3)
    X, y = make_dataset(3, n=80)
    with pytest.raises(_Boom, match=where):
        fit(X, y, np.ones(len(y)), LearnerConfig(n_trees=9, max_depth=3, seed=1))
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_without_sending_is_an_error(monkeypatch):
    parent = os.getpid()
    grow = learner_module._grow

    def dying_grow(node, rng, cfg, n_sub_features, depth=0):
        if os.getpid() != parent:
            os._exit(7)
        return grow(node, rng, cfg, n_sub_features, depth)

    monkeypatch.setattr(learner_module, "_grow", dying_grow)
    _force_processes(monkeypatch, 2)
    X, y = make_dataset(3, n=80)
    with pytest.raises(ChildProcessError, match="code 7"):
        fit(X, y, np.ones(len(y)), LearnerConfig(n_trees=4, max_depth=3, seed=1))
    assert multiprocessing.active_children() == []


def test_unbootstrapped_fits_grow_in_this_process(monkeypatch):
    def no_workers():
        raise AssertionError("an unbootstrapped fit asked for processes")

    monkeypatch.setattr(learner_module, "_processes", no_workers)
    X, y = make_dataset(6)
    fit(X, y, np.ones(len(y)), LearnerConfig(n_trees=8, bootstrap=False))
