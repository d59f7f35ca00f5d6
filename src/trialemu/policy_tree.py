"""Axis-aligned policy trees over a two-arm reward matrix.

Leaves each recommend one treatment; the tree is grown greedily, with a
lookahead over the LOOKAHEAD_WIDTH best-ranked splits of each node (only
cuts that can rank there are ranked), to maximize the mean reward of its
assignments. Two coordinate passes of local search then re-choose each
internal node's (feature, threshold). Both scan cuts with ``split_scan``
over one ``learner.presort`` per fit, partitioned stably at each split.
The fit is deterministic; there is no seed. Routing is "value < threshold
goes left"; boundary values go right. Node ids are breadth-first from 1.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidRewardsError, SchemaError
from .learner import partition, presort, split_scan

V_IMPROVEMENT_EPS = 1e-12
LOOKAHEAD_WIDTH = 16  # top-ranked candidate splits grown per node
LOCAL_SEARCH_PASSES = 2


@dataclass(frozen=True)
class PolicyTreeConfig:
    max_depth: int = 3
    min_leaf: int = 20

    def __post_init__(self):
        if self.max_depth < 0 or self.min_leaf < 1:
            raise ConfigError("invalid policy tree config bounds")


@dataclass
class Node:
    # internal: feature/threshold/left/right set; leaf: arm and stats set
    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    arm: int | None = None
    n: int = 0
    mean_r0: float = 0.0
    mean_r1: float = 0.0
    node_id: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def effect(self) -> float:
        return self.mean_r1 - self.mean_r0


@dataclass
class PolicyTree:
    root: Node
    n_features: int
    training_value: float = 0.0
    nodes: list = field(default_factory=list)  # breadth-first, ids from 1

    def leaves(self):
        return [nd for nd in self.nodes if nd.is_leaf]

    def depth(self) -> int:
        def d(node):
            return 0 if node.is_leaf else 1 + max(d(node.left), d(node.right))
        return d(self.root)

    def to_json(self) -> str:
        def enc(node):
            if node.is_leaf:
                return {
                    "id": node.node_id, "n": node.n, "treatment": node.arm,
                    "mean_reward_control": node.mean_r0,
                    "mean_reward_treatment": node.mean_r1,
                    "effect": node.effect,
                }
            return {
                "id": node.node_id, "feature": node.feature,
                "threshold": node.threshold,
                "left": enc(node.left), "right": enc(node.right),
            }
        return json.dumps(
            {"training_value": self.training_value,
             "n_features": self.n_features,
             "tree": enc(self.root)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, doc: str) -> "PolicyTree":
        """Inverse of ``to_json``."""
        raw = json.loads(doc)

        def dec(node):
            if "feature" in node:
                return Node(feature=node["feature"], threshold=node["threshold"],
                            left=dec(node["left"]), right=dec(node["right"]))
            return Node(arm=node["treatment"], n=node["n"],
                        mean_r0=node["mean_reward_control"],
                        mean_r1=node["mean_reward_treatment"])

        tree = cls(root=dec(raw["tree"]), n_features=raw["n_features"],
                   training_value=raw["training_value"])
        _number_nodes(tree)
        return tree

    def render_text(self, feature_names=None) -> str:
        names = feature_names or [f"x{f}" for f in range(self.n_features)]
        lines = []

        def walk(node, indent):
            pad = "  " * indent
            if node.is_leaf:
                lines.append(
                    f"{pad}node {node.node_id}: treat={node.arm} "
                    f"(n={node.n}, r0={node.mean_r0:.4f}, "
                    f"r1={node.mean_r1:.4f}, effect={node.effect:+.4f})")
            else:
                lines.append(
                    f"{pad}node {node.node_id}: {names[node.feature]} "
                    f"< {node.threshold:g}?")
                walk(node.left, indent + 1)
                walk(node.right, indent + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def _leaf_value_sum(idx, R) -> float:
    return max(float(R[:, 0][idx].sum()), float(R[:, 1][idx].sum()))


def _walk(node, X, rows):
    """(node, rows reaching it), breadth-first. A node's rows are split only
    after the caller has seen the node, so a split it changed is used."""
    queue = deque([(node, rows)])
    while queue:
        nd, idx = queue.popleft()
        yield nd, idx
        if not nd.is_leaf:
            mask = X[idx, nd.feature] < nd.threshold
            queue.append((nd.left, idx[mask]))
            queue.append((nd.right, idx[~mask]))


def _tree_sum(node, leaf_values):
    """Sum of the subtree's leaf values (keyed by leaf id()), added left
    plus right at every internal node."""
    if node.is_leaf:
        return leaf_values[id(node)]
    return _tree_sum(node.left, leaf_values) + _tree_sum(node.right, leaf_values)


def _subtree_value(node, X, R, rows) -> float:
    return _tree_sum(node, {id(leaf): _leaf_value_sum(idx, R)
                            for leaf, idx in _walk(node, X, rows) if leaf.is_leaf})


def _candidate_splits(order, XT, R, min_leaf):
    """The valid (feature, threshold) splits of the node with index matrix
    ``order`` whose summed best-arm child rewards reach the
    LOOKAHEAD_WIDTH-th largest, ties included, as the arrays (sum, feature,
    threshold) ranked by sum descending, then lowest feature and threshold."""
    rows = order[:-1]
    (c0, c1), (t0, t1), thr = split_scan(
        np.take_along_axis(XT, rows, axis=1), [R[:, 0][rows], R[:, 1][rows]], min_leaf)
    valid = ~np.isnan(thr)
    total = (np.maximum(c0, c1) + np.maximum(t0[:, None] - c0, t1[:, None] - c1))[valid]
    feature, threshold = np.nonzero(valid)[0], thr[valid]
    if total.size > LOOKAHEAD_WIDTH:
        top = total >= np.partition(total, -LOOKAHEAD_WIDTH)[-LOOKAHEAD_WIDTH]
        total, feature, threshold = total[top], feature[top], threshold[top]
    rank = np.lexsort((threshold, feature, -total))
    return total[rank], feature[rank], threshold[rank]


def _grow(order, XT, R, cfg, n_total, depth):
    """Greedy partitioning with bounded lookahead: the top-ranked
    candidate splits (by summed best-arm child rewards) are each grown
    recursively and the one with the best final subtree value is kept;
    subtrees whose total gain stays below the improvement epsilon
    collapse back to a leaf. Returns (node, subtree value sum); leaf
    statistics are set later by ``_refresh_stats``."""
    leaf_sum = _leaf_value_sum(order[-1], R)
    if depth >= cfg.max_depth or order.shape[1] < 2 * cfg.min_leaf:
        return Node(), leaf_sum
    _total, features, thresholds = _candidate_splits(order, XT, R, cfg.min_leaf)
    rows = order if depth + 1 < cfg.max_depth else order[-1:]  # leaves: row list only
    best_node = None
    best_sum = -np.inf
    for f, thr in zip(features[:LOOKAHEAD_WIDTH].tolist(),
                      thresholds[:LOOKAHEAD_WIDTH].tolist()):
        left_rows, right_rows = partition(XT, rows, f, thr)
        left, lsum = _grow(left_rows, XT, R, cfg, n_total, depth + 1)
        right, rsum = _grow(right_rows, XT, R, cfg, n_total, depth + 1)
        if lsum + rsum > best_sum:
            best_sum = lsum + rsum
            best_node = Node(feature=f, threshold=thr, left=left, right=right)
    if best_sum - leaf_sum < V_IMPROVEMENT_EPS * n_total:
        return Node(), leaf_sum
    return best_node, best_sum


def _cut_scores(node, X, R, order, reach, min_leaf):
    """For each feature, (value sum, smallest leaf count, threshold) of every
    cut of the node that leaves min_leaf rows a side, with both subtrees
    held fixed, over the rows ``reach`` reaching the node, taken in the fit's
    presorted ``order``. The rows are routed through each subtree once; a
    leaf of the left subtree then holds the prefix sums of its one-hot reward
    and count columns, a leaf of the right subtree the totals minus them."""
    rows = order[:-1][np.isin(order[:-1], reach)].reshape(-1, reach.size)
    leaves, columns = [], []
    for right, sub in enumerate((node.left, node.right)):
        for leaf, idx in _walk(sub, X, reach):
            if leaf.is_leaf:
                one_hot = np.zeros(X.shape[0])
                one_hot[idx] = 1.0
                leaves.append((leaf, right))
                columns += [R[:, 0] * one_hot, R[:, 1] * one_hot, one_hot]
    left_sums, totals, thresholds = split_scan(
        np.take_along_axis(X.T, rows, axis=1), [c[rows] for c in columns], min_leaf)
    values, counts = {}, []
    for k, (leaf, right) in enumerate(leaves):
        s0, s1, n = left_sums[3 * k:3 * k + 3]
        if right:
            s0, s1, n = (t[:, None] - s for t, s in zip(totals[3 * k:3 * k + 3], (s0, s1, n)))
        values[id(leaf)] = np.maximum(s0, s1)
        counts.append(n)
    values, counts = _tree_sum(node, values), np.min(counts, axis=0)
    for keep, v, c, thr in zip(~np.isnan(thresholds), values, counts, thresholds):
        yield v[keep], c[keep], thr[keep]


def _local_search(root: Node, X, R, order, min_leaf) -> None:
    """Coordinate passes over the internal nodes, breadth-first,
    re-choosing each node's (feature, threshold) with the rest of the tree
    held fixed. Only the node's own subtree value can change, so the cuts
    are scored on the rows reaching it. Cuts are taken in feature, then
    threshold order; one replaces the best so far only if it beats it by
    the improvement epsilon."""
    tol = V_IMPROVEMENT_EPS * X.shape[0]
    for _ in range(LOCAL_SEARCH_PASSES):
        improved = False
        for node, reach in _walk(root, X, np.arange(X.shape[0])):
            if node.is_leaf:
                continue
            best_v, best = _subtree_value(node, X, R, reach), None
            for f, (values, counts, thresholds) in enumerate(
                    _cut_scores(node, X, R, order, reach, min_leaf)):
                # best_v only rises, so only cuts above it now can be taken
                for i in np.nonzero((counts >= min_leaf) & (values > best_v + tol))[0]:
                    if values[i] > best_v + tol:
                        best_v, best = values[i], (f, float(thresholds[i]))
            if best is not None:
                node.feature, node.threshold = best
                improved = True
        if not improved:
            break


def _refresh_stats(root: Node, X, R) -> None:
    """Set each leaf's count, mean rewards and arm from running sums in row
    order; an exact tie recommends control."""
    for leaf, idx in _walk(root, X, np.arange(X.shape[0])):
        if leaf.is_leaf:
            s0 = float(np.cumsum(R[idx, 0])[-1])
            s1 = float(np.cumsum(R[idx, 1])[-1])
            leaf.n = idx.size
            leaf.mean_r0 = s0 / idx.size
            leaf.mean_r1 = s1 / idx.size
            leaf.arm = 1 if s1 > s0 else 0


def _number_nodes(tree: PolicyTree) -> None:
    queue = [tree.root]
    nodes = []
    next_id = 1
    while queue:
        nd = queue.pop(0)
        nd.node_id = next_id
        next_id += 1
        nodes.append(nd)
        if not nd.is_leaf:
            queue.extend([nd.left, nd.right])
    tree.nodes = nodes


def fit_policy_tree(covariates, rewards, config: PolicyTreeConfig) -> PolicyTree:
    X = np.asarray(covariates, dtype=float)
    R = np.asarray(getattr(rewards, "rewards", rewards), dtype=float)
    if X.ndim != 2 or R.ndim != 2 or R.shape != (X.shape[0], 2):
        raise SchemaError("covariates n x L and rewards n x 2 must align")
    if not np.all((R >= 0) & (R <= 1)):  # NaN too
        raise InvalidRewardsError("reward entries must lie in [0, 1]")
    n = X.shape[0]
    if n == 0:
        raise SchemaError("empty training data")

    XT, order = presort(X)
    root, _ = _grow(order, XT, R, config, n, 0)
    _local_search(root, X, R, order, config.min_leaf)

    tree = PolicyTree(root=root, n_features=X.shape[1])
    _refresh_stats(root, X, R)
    _number_nodes(tree)
    tree.training_value = _subtree_value(root, X, R, np.arange(n)) / n
    return tree


def assign(tree: PolicyTree, covariates):
    """(treatment per patient, leaf id per patient)."""
    X = np.asarray(covariates, dtype=float)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise SchemaError(f"expected {tree.n_features} features")
    arms = np.empty(X.shape[0], dtype=int)
    leaf_ids = np.empty(X.shape[0], dtype=int)
    for leaf, idx in _walk(tree.root, X, np.arange(X.shape[0])):
        if leaf.is_leaf:
            arms[idx] = leaf.arm
            leaf_ids[idx] = leaf.node_id
    return arms, leaf_ids


def concordance(tree: PolicyTree, rewards, covariates) -> float:
    """Fraction of patients whose tree arm equals their row-wise argmax
    reward; row ties are concordant with either arm."""
    R = np.asarray(getattr(rewards, "rewards", rewards), dtype=float)
    arms, _ = assign(tree, covariates)
    pref_treat = R[:, 1] > R[:, 0]
    pref_ctrl = R[:, 0] > R[:, 1]
    ok = np.where(arms == 1, ~pref_ctrl, ~pref_treat)
    return float(ok.mean())


def select_tree(candidates, rewards, covariates) -> PolicyTree:
    """Highest concordance among candidates whose leaves all satisfy their
    config's min_leaf; ties -> fewer leaves, then lower depth, then first."""
    if not candidates:
        raise ConfigError("empty candidate list")
    ranked = []
    for pos, (cfg, tree) in enumerate(candidates):
        if any(leaf.n < cfg.min_leaf for leaf in tree.leaves()):
            continue
        ranked.append((
            -concordance(tree, rewards, covariates),
            len(tree.leaves()),
            tree.depth(),
            pos,
            tree,
        ))
    if not ranked:
        raise ConfigError("no candidate satisfies its min_leaf requirement")
    ranked.sort(key=lambda t: t[:4])
    return ranked[0][4]


def subgroup_report(tree: PolicyTree, leaf_ids, treatments, min_effect: float) -> dict:
    """Per-leaf arm counts by received treatment, mean rewards, effect, and
    an under-effect flag for treatment-recommending leaves. ``leaf_ids``
    are the patients' leaves as ``assign`` gives them, and ``treatments``
    the arms they received; the mean rewards are the tree's own."""
    report = {}
    for leaf in tree.leaves():
        mask = leaf_ids == leaf.node_id
        report[leaf.node_id] = {
            "recommended_treatment": leaf.arm,
            "n": int(mask.sum()),
            "n_received_control": int((mask & (treatments == 0)).sum()),
            "n_received_treatment": int((mask & (treatments == 1)).sum()),
            "mean_reward_control": leaf.mean_r0,
            "mean_reward_treatment": leaf.mean_r1,
            "effect": leaf.effect,
            "flagged": bool(leaf.arm == 1 and leaf.effect < min_effect),
        }
    return report
