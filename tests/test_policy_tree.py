"""Policy tree fitting, assignment, concordance, selection, reporting."""

import tracemalloc

import numpy as np
import pytest

from trialemu import policy_tree
from trialemu.cohort import Cohort, CovariateSchema
from trialemu.errors import ConfigError, InvalidRewardsError, SchemaError
from trialemu.learner import presort, split_scan
from trialemu.policy_tree import (
    LOOKAHEAD_WIDTH,
    V_IMPROVEMENT_EPS,
    Node,
    PolicyTree,
    PolicyTreeConfig,
    _candidate_splits,
    _cut_scores,
    _walk,
    assign,
    concordance,
    fit_policy_tree,
    select_tree,
    subgroup_report,
)

CFG1 = PolicyTreeConfig(max_depth=1, min_leaf=1)


def test_config_validation():
    with pytest.raises(ConfigError):
        PolicyTreeConfig(min_leaf=0)
    with pytest.raises(ConfigError):
        PolicyTreeConfig(max_depth=-1)


def test_candidate_splits_rank_ties_by_feature_then_threshold():
    # two identical features; the middle split of either scores 4, the
    # outer splits 3, so only the tie rule orders each group
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    R = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    total, feature, threshold = _candidate_splits(presort(X)[1], X.T, R, min_leaf=1)
    assert list(zip(total.tolist(), feature.tolist(), threshold.tolist())) == [
        (4.0, 0, 1.5), (4.0, 1, 1.5),
        (3.0, 0, 0.5), (3.0, 0, 2.5), (3.0, 1, 0.5), (3.0, 1, 2.5)]


def _naive_value(node, X, R, rows):
    """(value sum, smallest leaf count) of a subtree, routed and summed
    node by node."""
    if node.is_leaf:
        if rows.size == 0:
            return 0.0, 0
        return max(R[rows, 0].sum(), R[rows, 1].sum()), rows.size
    mask = X[rows, node.feature] < node.threshold
    lv, ln = _naive_value(node.left, X, R, rows[mask])
    rv, rn = _naive_value(node.right, X, R, rows[~mask])
    return lv + rv, min(ln, rn)


def _random_tree(rng, X, depth):
    if depth == 0:
        return Node()
    f = int(rng.integers(X.shape[1]))
    return Node(feature=f, threshold=float(rng.choice(X[:, f])) + 0.05,
                left=_random_tree(rng, X, depth - 1),
                right=_random_tree(rng, X, depth - 1))


@pytest.mark.parametrize("seed, depth, min_leaf, decimals", [
    (0, 2, 3, 1), (1, 2, 8, None), (2, 3, 2, 1), (3, 3, 5, None), (4, 3, 4, 1)])
def test_cut_scores_equal_naive_route_and_sum(seed, depth, min_leaf, decimals):
    # every cut of every internal node, both subtrees held fixed; rewards
    # rounded to 0.1 make exact ties between arms and between cuts
    rng = np.random.default_rng(seed)
    n = 160
    X = np.column_stack([rng.integers(0, 6, n), np.round(rng.normal(size=n), 1),
                         rng.uniform(size=n)])
    R = rng.uniform(size=(n, 2))
    if decimals is not None:
        R = np.round(R, decimals)
    root = _random_tree(rng, X, depth)
    checked = 0
    for node, reach in _walk(root, X, np.arange(n)):
        if node.is_leaf or reach.size == 0:  # a fitted tree has no empty node
            continue
        split = node.feature, node.threshold
        for f, (values, counts, thresholds) in enumerate(
                _cut_scores(node, X, R, presort(X)[1], reach, min_leaf)):
            xs = np.unique(X[reach, f])
            want = []
            for thr in (xs[:-1] + xs[1:]) / 2.0:
                n_left = int((X[reach, f] < thr).sum())
                if min(n_left, reach.size - n_left) >= min_leaf:
                    node.feature, node.threshold = f, float(thr)
                    want.append((float(thr), *_naive_value(node, X, R, reach)))
            node.feature, node.threshold = split
            assert thresholds.tolist() == [w[0] for w in want]
            np.testing.assert_allclose(values, [w[1] for w in want], rtol=0, atol=1e-9)
            assert counts.astype(int).tolist() == [w[2] for w in want]
            checked += len(want)
    assert checked > 100


# --- reference grower: sorts at every node and ranks every cut -------------

def _ref_candidate_splits(idx, X, R, min_leaf):
    Xs = X[idx].T
    order = np.argsort(Xs, axis=1, kind="stable")
    (c0, c1), (t0, t1), thr = split_scan(
        np.take_along_axis(Xs, order, axis=1), [R[idx, 0][order], R[idx, 1][order]],
        min_leaf)
    valid = ~np.isnan(thr)
    total = (np.maximum(c0, c1) + np.maximum(t0[:, None] - c0, t1[:, None] - c1))[valid]
    feature, threshold = np.nonzero(valid)[0], thr[valid]
    rank = np.lexsort((threshold, feature, -total))
    return total[rank], feature[rank], threshold[rank]


def _ref_grow(idx, X, R, cfg, n_total, depth):
    leaf_sum = max(float(R[idx, 0].sum()), float(R[idx, 1].sum()))
    if depth >= cfg.max_depth or idx.size < 2 * cfg.min_leaf:
        return Node(), leaf_sum
    _total, features, thresholds = _ref_candidate_splits(idx, X, R, cfg.min_leaf)
    best_node, best_sum = None, -np.inf
    for f, thr in zip(features[:LOOKAHEAD_WIDTH].tolist(),
                      thresholds[:LOOKAHEAD_WIDTH].tolist()):
        mask = X[idx, f] < thr
        left, lsum = _ref_grow(idx[mask], X, R, cfg, n_total, depth + 1)
        right, rsum = _ref_grow(idx[~mask], X, R, cfg, n_total, depth + 1)
        if lsum + rsum > best_sum:
            best_sum = lsum + rsum
            best_node = Node(feature=f, threshold=thr, left=left, right=right)
    if best_sum - leaf_sum < V_IMPROVEMENT_EPS * n_total:
        return Node(), leaf_sum
    return best_node, best_sum


def _ref_cut_scores(node, X, R, reach, min_leaf):
    Xr, Rr = X[reach], R[reach]
    leaves, columns = [], []
    for right, sub in enumerate((node.left, node.right)):
        for leaf, pos in _walk(sub, Xr, np.arange(reach.size)):
            if leaf.is_leaf:
                one_hot = np.zeros(reach.size)
                one_hot[pos] = 1.0
                leaves.append((leaf, right))
                columns += [Rr[:, 0] * one_hot, Rr[:, 1] * one_hot, one_hot]
    order = np.argsort(Xr.T, axis=1, kind="stable")
    left_sums, totals, thresholds = split_scan(
        np.take_along_axis(Xr.T, order, axis=1), [c[order] for c in columns], min_leaf)
    values, counts = {}, []
    for k, (leaf, right) in enumerate(leaves):
        s0, s1, n = left_sums[3 * k:3 * k + 3]
        if right:
            s0, s1, n = (t[:, None] - s for t, s in zip(totals[3 * k:3 * k + 3], (s0, s1, n)))
        values[id(leaf)] = np.maximum(s0, s1)
        counts.append(n)
    values, counts = policy_tree._tree_sum(node, values), np.min(counts, axis=0)
    for keep, v, c, thr in zip(~np.isnan(thresholds), values, counts, thresholds):
        yield v[keep], c[keep], thr[keep]


def _reference_fit(X, R, cfg, monkeypatch):
    """fit_policy_tree with the reference grower and local-search scores."""
    with monkeypatch.context() as m:
        m.setattr(policy_tree, "_grow", lambda order, XT, R, cfg, n, depth:
                  _ref_grow(np.arange(n), X, R, cfg, n, depth))
        m.setattr(policy_tree, "_cut_scores", lambda node, X, R, order, reach, min_leaf:
                  _ref_cut_scores(node, X, R, reach, min_leaf))
        return fit_policy_tree(X, R, cfg).to_json()


def _mixed_problem(seed, n):
    """Integer, binary and continuous features; rewards rounded to 0.1, so
    arm sums and cut totals tie exactly."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.integers(0, 8, n), rng.integers(0, 2, n),
                         rng.normal(size=n), np.round(rng.uniform(size=n), 1)])
    R = np.round(rng.uniform(size=(n, 2)), 1)
    return X, R


@pytest.mark.parametrize("seed, n, max_depth, min_leaf", [
    (0, 150, 1, 1), (1, 200, 2, 1), (2, 300, 3, 1), (3, 450, 2, 5),
    (4, 600, 3, 5), (5, 150, 3, 20), (6, 600, 1, 20), (7, 400, 3, 20),
    (8, 250, 2, 5)])
def test_fit_equals_the_sorting_reference(seed, n, max_depth, min_leaf, monkeypatch):
    X, R = _mixed_problem(seed, n)
    cfg = PolicyTreeConfig(max_depth=max_depth, min_leaf=min_leaf)
    assert fit_policy_tree(X, R, cfg).to_json() == _reference_fit(X, R, cfg, monkeypatch)


def test_top_cuts_keep_every_tie_in_feature_then_threshold_order(monkeypatch):
    # 20 copies of one column: each copy's best cut ties with the others',
    # so more than LOOKAHEAD_WIDTH cuts share the width-th best total
    rng = np.random.default_rng(11)
    n = 300
    X = np.repeat(rng.integers(0, 10, n)[:, None].astype(float), 20, axis=1)
    R = np.round(rng.uniform(size=(n, 2)), 1)
    want = _ref_candidate_splits(np.arange(n), X, R, 5)
    assert np.count_nonzero(want[0] == want[0][LOOKAHEAD_WIDTH - 1]) > LOOKAHEAD_WIDTH
    XT, order = presort(X)
    got = _candidate_splits(order, XT, R, 5)
    for g, w in zip(got, want):
        assert g[:LOOKAHEAD_WIDTH].tolist() == w[:LOOKAHEAD_WIDTH].tolist()
    for cfg in (PolicyTreeConfig(max_depth=2, min_leaf=5),
                PolicyTreeConfig(max_depth=3, min_leaf=20)):
        assert fit_policy_tree(X, R, cfg).to_json() == _reference_fit(X, R, cfg, monkeypatch)


def test_an_overflowing_midpoint_splits_between_the_values(monkeypatch):
    # (1e308 + 1.5e308) / 2 is inf, and the cut "x < inf" would send every
    # row left; the threshold is clamped to the upper value instead
    X = np.array([[1e308]] * 3 + [[1.5e308]] * 3)
    R = np.array([[0.9, 0.1]] * 3 + [[0.1, 0.9]] * 3)
    with np.errstate(over="ignore"):
        tree = fit_policy_tree(X, R, CFG1)
        assert tree.to_json() == _reference_fit(X, R, CFG1, monkeypatch)
    assert (tree.root.feature, tree.root.threshold) == (0, 1.5e308)
    assert [(leaf.n, leaf.arm) for leaf in (tree.root.left, tree.root.right)] == \
        [(3, 0), (3, 1)]
    assert assign(tree, X)[0].tolist() == [0, 0, 0, 1, 1, 1]


def test_a_negatively_overflowing_midpoint_splits_between_the_values(monkeypatch):
    # (-1.5e308 + -1e308) / 2 is -inf, and the cut "x < -inf" would send
    # every row right; the threshold is the upper value instead
    X = np.array([[-1.5e308]] * 3 + [[-1e308]] * 3)
    R = np.array([[0.9, 0.1]] * 3 + [[0.1, 0.9]] * 3)
    with np.errstate(over="ignore"):
        tree = fit_policy_tree(X, R, CFG1)
        assert tree.to_json() == _reference_fit(X, R, CFG1, monkeypatch)
    assert (tree.root.feature, tree.root.threshold) == (0, -1e308)
    assert [(leaf.n, leaf.arm) for leaf in (tree.root.left, tree.root.right)] == \
        [(3, 0), (3, 1)]
    assert assign(tree, X)[0].tolist() == [0, 0, 0, 1, 1, 1]


def test_fit_memory_does_not_grow_with_the_nodes_visited():
    # a depth-3 fit visits thousands of nodes; a cache keyed by node would
    # hold tens of MB here, the presorted matrices well under one
    rng = np.random.default_rng(5)
    n = 3500
    X = np.column_stack([rng.integers(0, 8, n), rng.integers(0, 2, n),
                         rng.normal(size=(n, 4))])
    R = rng.uniform(size=(n, 2))
    tracemalloc.start()
    try:
        fit_policy_tree(X, R, PolicyTreeConfig(max_depth=3, min_leaf=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_uniform_rewards_give_root_only_tree():
    X = np.arange(10.0).reshape(-1, 1)
    R = np.tile([0.4, 0.6], (10, 1))
    tree = fit_policy_tree(X, R, PolicyTreeConfig(max_depth=3, min_leaf=1))
    assert tree.root.is_leaf and tree.root.arm == 1
    assert tree.training_value == pytest.approx(0.6, abs=1e-15)


def test_binary_covariate_split():
    # x=0 rows prefer control (0.9 vs 0.1); x=1 rows prefer treatment
    X = np.array([[0.0]] * 4 + [[1.0]] * 4)
    R = np.array([[0.9, 0.1]] * 4 + [[0.1, 0.9]] * 4)
    tree = fit_policy_tree(X, R, CFG1)
    assert not tree.root.is_leaf
    assert tree.training_value == pytest.approx(0.9, abs=1e-15)
    arms, _ = assign(tree, [[0.0], [1.0]])
    np.testing.assert_array_equal(arms, [0, 1])


def test_boundary_value_routes_right():
    X = np.array([[0.0]] * 2 + [[1.0]] * 2)
    R = np.array([[1.0, 0.0]] * 2 + [[0.0, 1.0]] * 2)
    tree = fit_policy_tree(X, R, CFG1)
    thr = tree.root.threshold
    arms, _ = assign(tree, [[thr - 1e-9], [thr], [thr + 1e-9]])
    np.testing.assert_array_equal(arms, [0, 1, 1])


def test_exact_leaf_tie_prefers_control():
    X = np.zeros((6, 1))
    R = np.tile([0.5, 0.5], (6, 1))
    tree = fit_policy_tree(X, R, CFG1)
    assert tree.root.arm == 0


def test_training_value_at_least_single_arm_baseline():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X = rng.uniform(size=(30, 2))
        R = rng.uniform(size=(30, 2))
        tree = fit_policy_tree(X, R, PolicyTreeConfig(max_depth=2, min_leaf=3))
        baseline = max(R[:, 0].mean(), R[:, 1].mean())
        assert tree.training_value >= baseline - 1e-12


def test_invalid_rewards_and_shapes():
    X = np.zeros((3, 1))
    with pytest.raises(InvalidRewardsError):
        fit_policy_tree(X, [[0.5, 1.5]] * 3, CFG1)
    with pytest.raises(InvalidRewardsError):
        fit_policy_tree(X, [[0.5, np.nan]] * 3, CFG1)
    with pytest.raises(SchemaError):
        fit_policy_tree(X, [[0.5, 0.5]] * 2, CFG1)
    with pytest.raises(SchemaError):
        fit_policy_tree(np.zeros((0, 1)), np.zeros((0, 2)), CFG1)


def test_node_ids_are_breadth_first_from_one():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    R = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    tree = fit_policy_tree(X, R, PolicyTreeConfig(max_depth=2, min_leaf=1))
    assert [nd.node_id for nd in tree.nodes] == list(range(1, len(tree.nodes) + 1))
    assert tree.nodes[0] is tree.root


def test_concordance_values():
    X = np.array([[0.0]] * 2 + [[1.0]] * 2)
    R = np.array([[0.9, 0.1]] * 2 + [[0.1, 0.9]] * 2)
    split = fit_policy_tree(X, R, CFG1)
    assert concordance(split, R, X) == 1.0
    root_only = fit_policy_tree(X, R, PolicyTreeConfig(max_depth=0, min_leaf=1))
    assert concordance(root_only, R, X) == 0.5
    # a row-wise tie is concordant with either arm
    tied = np.tile([0.5, 0.5], (4, 1))
    assert concordance(root_only, tied, X) == 1.0


def test_select_tree_prefers_fewer_leaves_on_ties():
    # the split candidate is trained on rewards that force a split; under
    # the evaluation rewards both candidates reach concordance 1.0 (row
    # ties count either way), so the smaller tree must win
    X = np.array([[0.0]] * 2 + [[1.0]] * 2)
    forcing = np.array([[0.1, 0.9]] * 2 + [[0.9, 0.1]] * 2)
    cfg_deep = PolicyTreeConfig(max_depth=1, min_leaf=1)
    deep = fit_policy_tree(X, forcing, cfg_deep)
    assert len(deep.leaves()) == 2
    R = np.array([[0.1, 0.9]] * 2 + [[0.5, 0.5]] * 2)
    cfg_root = PolicyTreeConfig(max_depth=0, min_leaf=1)
    root_only = fit_policy_tree(X, R, cfg_root)
    assert concordance(deep, R, X) == concordance(root_only, R, X) == 1.0
    chosen = select_tree([(cfg_deep, deep), (cfg_root, root_only)], R, X)
    assert chosen is root_only


def test_select_tree_skips_min_leaf_violations():
    X = np.array([[0.0]] * 3 + [[1.0]])
    R = np.array([[0.9, 0.1]] * 3 + [[0.1, 0.9]])
    cfg = PolicyTreeConfig(max_depth=1, min_leaf=1)
    split = fit_policy_tree(X, R, cfg)
    assert len(split.leaves()) == 2  # one leaf holds a single row
    strict = PolicyTreeConfig(max_depth=1, min_leaf=2)
    root_cfg = PolicyTreeConfig(max_depth=0, min_leaf=2)
    root_only = fit_policy_tree(X, R, root_cfg)
    chosen = select_tree([(strict, split), (root_cfg, root_only)], R, X)
    assert chosen is root_only
    with pytest.raises(ConfigError):
        select_tree([(strict, split)], R, X)
    with pytest.raises(ConfigError):
        select_tree([], R, X)


def test_assign_validates_feature_count():
    tree = fit_policy_tree(np.zeros((4, 2)), np.tile([0.1, 0.9], (4, 1)), CFG1)
    with pytest.raises(SchemaError):
        assign(tree, [[1.0]])


def test_subgroup_report_flags_weak_treatment_leaves():
    schema = CovariateSchema(("x",), ("continuous",), ("",))
    matched = Cohort(schema, [f"p{i}" for i in range(8)],
                     [[float(i < 4)] for i in range(8)], [i % 2 for i in range(8)],
                     [0] * 8, [70.0] * 8)
    X = matched.covariate_matrix()
    # x=0 leaf clearly prefers control; x=1 leaf prefers treatment by
    # only 0.02, below the 0.05 effect floor -> flagged
    R = np.where(X[:, :1] == 1.0, [[0.40, 0.42]], [[0.70, 0.30]])
    tree = fit_policy_tree(X, R, CFG1)
    report = subgroup_report(tree, assign(tree, X)[1], matched.treatments(),
                             min_effect=0.05)
    by_effect = {round(v["effect"], 2): v for v in report.values()}
    assert by_effect[-0.40]["flagged"] is False
    assert by_effect[-0.40]["recommended_treatment"] == 0
    assert by_effect[0.02]["flagged"] is True
    assert by_effect[0.02]["recommended_treatment"] == 1
    total = sum(v["n"] for v in report.values())
    assert total == 8
    for v in report.values():
        assert v["n_received_control"] + v["n_received_treatment"] == v["n"]


def test_json_and_text_render_round_trip_fields():
    X = np.array([[0.0], [1.0]] * 3)
    R = np.array([[0.9, 0.1], [0.1, 0.9]] * 3)
    tree = fit_policy_tree(X, R, CFG1)
    doc = tree.to_json()
    assert '"training_value"' in doc and '"threshold"' in doc
    text = tree.render_text(["biomarker"])
    assert "biomarker" in text and "treat=" in text


def test_from_json_inverts_to_json():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 3))
    R = rng.random((120, 2))
    tree = fit_policy_tree(X, R, PolicyTreeConfig(max_depth=3, min_leaf=10))
    assert tree.depth() >= 2
    decoded = PolicyTree.from_json(tree.to_json())
    assert decoded.to_json() == tree.to_json()
    assert [nd.node_id for nd in decoded.nodes] == [nd.node_id for nd in tree.nodes]
    for got, want in zip(assign(decoded, X), assign(tree, X)):
        np.testing.assert_array_equal(got, want)
