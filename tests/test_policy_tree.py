"""Policy tree fitting, assignment, concordance, selection, reporting."""

import numpy as np
import pytest

from trialemu.cohort import Cohort, CovariateSchema
from trialemu.errors import ConfigError, InvalidRewardsError, SchemaError
from trialemu.policy_tree import (
    PolicyTree,
    PolicyTreeConfig,
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
        PolicyTreeConfig(lookahead_width=0)
    with pytest.raises(ConfigError):
        PolicyTreeConfig(max_depth=-1)


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
    report = subgroup_report(tree, matched, R, min_effect=0.05)
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
