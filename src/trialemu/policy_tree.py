"""Axis-aligned policy trees over a two-arm reward matrix.

Leaves each recommend one treatment; the tree is grown greedily to
maximize the mean reward of its assignments, then refined by coordinate
local search over each internal node's (feature, threshold). Routing is
"value < threshold goes left"; boundary values go right. Node ids are
breadth-first from 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidRewardsError, SchemaError

V_IMPROVEMENT_EPS = 1e-12


@dataclass(frozen=True)
class PolicyTreeConfig:
    max_depth: int = 3
    min_leaf: int = 20
    local_search_passes: int = 2
    lookahead_width: int = 16  # top-ranked candidate splits grown per node
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 0 or self.min_leaf < 1 or self.local_search_passes < 0:
            raise ConfigError("invalid policy tree config bounds")
        if self.lookahead_width < 1:
            raise ConfigError("lookahead_width must be >= 1")


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
    config: PolicyTreeConfig
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
        """Inverse of ``to_json``. The fitting config is not serialized, so
        the decoded tree carries the default one."""
        raw = json.loads(doc)

        def dec(node):
            if "feature" in node:
                return Node(feature=node["feature"], threshold=node["threshold"],
                            left=dec(node["left"]), right=dec(node["right"]))
            return Node(arm=node["treatment"], n=node["n"],
                        mean_r0=node["mean_reward_control"],
                        mean_r1=node["mean_reward_treatment"])

        tree = cls(root=dec(raw["tree"]), config=PolicyTreeConfig(),
                   n_features=raw["n_features"],
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


def _leaf_from(idx, R) -> Node:
    s0 = float(R[idx, 0].sum())
    s1 = float(R[idx, 1].sum())
    n = idx.size
    arm = 1 if s1 > s0 else 0  # exact tie -> control
    return Node(arm=arm, n=n, mean_r0=s0 / n, mean_r1=s1 / n)


def _leaf_value_sum(idx, R) -> float:
    return max(float(R[idx, 0].sum()), float(R[idx, 1].sum()))


def _candidate_splits(idx, X, R, min_leaf):
    """All valid (feature, threshold) splits of this subset with their
    summed best-arm child rewards, ranked by that sum descending; ties
    rank the lowest feature, then the lowest threshold, first."""
    n = idx.size
    out = []
    for f in range(X.shape[1]):
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        c0 = np.cumsum(R[idx, 0][order])
        c1 = np.cumsum(R[idx, 1][order])
        t0, t1 = c0[-1], c1[-1]
        counts = np.arange(1, n)
        valid = (xs[1:] != xs[:-1]) & (counts >= min_leaf) & (n - counts >= min_leaf)
        if not valid.any():
            continue
        left_best = np.maximum(c0[:-1], c1[:-1])
        right_best = np.maximum(t0 - c0[:-1], t1 - c1[:-1])
        total = left_best + right_best
        for i in np.nonzero(valid)[0]:
            out.append((float(total[i]), f, float((xs[i] + xs[i + 1]) / 2.0)))
    out.sort(key=lambda c: (-c[0], c[1], c[2]))
    return out


def _grow(idx, X, R, cfg, n_total, depth):
    """Greedy partitioning with bounded lookahead: the top-ranked
    candidate splits (by summed best-arm child rewards) are each grown
    recursively and the one with the best final subtree value is kept;
    subtrees whose total gain stays below the improvement epsilon
    collapse back to a leaf. Returns (node, subtree value sum)."""
    leaf = _leaf_from(idx, R)
    leaf_sum = _leaf_value_sum(idx, R)
    if depth >= cfg.max_depth or idx.size < 2 * cfg.min_leaf:
        return leaf, leaf_sum
    candidates = _candidate_splits(idx, X, R, cfg.min_leaf)
    if not candidates:
        return leaf, leaf_sum
    best_node = None
    best_sum = -np.inf
    for _imm, f, thr in candidates[: cfg.lookahead_width]:
        mask = X[idx, f] < thr
        left, lsum = _grow(idx[mask], X, R, cfg, n_total, depth + 1)
        right, rsum = _grow(idx[~mask], X, R, cfg, n_total, depth + 1)
        if lsum + rsum > best_sum:
            best_sum = lsum + rsum
            best_node = Node(feature=f, threshold=thr, left=left, right=right)
    if best_sum - leaf_sum < V_IMPROVEMENT_EPS * n_total:
        return leaf, leaf_sum
    return best_node, best_sum


def _subtree_eval(node, idx, X, R):
    """(value sum, smallest leaf count) of a subtree over the rows in idx."""
    if node.is_leaf:
        if idx.size == 0:
            return 0.0, 0
        return _leaf_value_sum(idx, R), idx.size
    mask = X[idx, node.feature] < node.threshold
    lv, ln = _subtree_eval(node.left, idx[mask], X, R)
    rv, rn = _subtree_eval(node.right, idx[~mask], X, R)
    return lv + rv, min(ln, rn)


def _route(node, X):
    """Leaf object reached by each row."""
    out = [None] * X.shape[0]
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            for i in idx:
                out[i] = nd
        else:
            mask = X[idx, nd.feature] < nd.threshold
            stack.append((nd.left, idx[mask]))
            stack.append((nd.right, idx[~mask]))
    return out


def _refresh_stats(root: Node, X, R) -> None:
    leaves = _route(root, X)
    agg = {}
    for i, leaf in enumerate(leaves):
        s = agg.setdefault(id(leaf), [leaf, 0.0, 0.0, 0])
        s[1] += float(R[i, 0])
        s[2] += float(R[i, 1])
        s[3] += 1
    for leaf, s0, s1, n in agg.values():
        leaf.n = n
        leaf.mean_r0 = s0 / n
        leaf.mean_r1 = s1 / n
        leaf.arm = 1 if s1 > s0 else 0


def _internal_nodes(root: Node) -> list:
    out = []
    queue = [root]
    while queue:
        nd = queue.pop(0)
        if not nd.is_leaf:
            out.append(nd)
            queue.extend([nd.left, nd.right])
    return out


def _subset_reaching(root: Node, target: Node, X) -> np.ndarray:
    idx = np.arange(X.shape[0])
    path = _path_to(root, target)
    if path is None:
        return idx[:0]
    for nd, go_left in path:
        mask = X[idx, nd.feature] < nd.threshold
        idx = idx[mask] if go_left else idx[~mask]
    return idx


def _path_to(root: Node, target: Node):
    if root is target:
        return []
    if root.is_leaf:
        return None
    left = _path_to(root.left, target)
    if left is not None:
        return [(root, True)] + left
    right = _path_to(root.right, target)
    if right is not None:
        return [(root, False)] + right
    return None


def _local_search(root: Node, X, R, cfg) -> None:
    """Coordinate passes over internal nodes, re-optimizing each node's
    (feature, threshold) with the rest of the tree held fixed. Only the
    node's own subtree value can change, so candidates are scored on the
    rows reaching that node."""
    n_total = X.shape[0]
    for _ in range(cfg.local_search_passes):
        improved = False
        for node in _internal_nodes(root):
            reach = _subset_reaching(root, node, X)
            if reach.size == 0:
                continue
            current, cur_min = _subtree_eval(node, reach, X, R)
            best = (node.feature, node.threshold)
            best_v = current
            for f in range(X.shape[1]):
                vals = np.unique(X[reach, f])
                if vals.size < 2:
                    continue
                for thr in (vals[:-1] + vals[1:]) / 2.0:
                    node.feature, node.threshold = f, float(thr)
                    v, min_n = _subtree_eval(node, reach, X, R)
                    if min_n >= cfg.min_leaf and v > best_v + V_IMPROVEMENT_EPS * n_total:
                        best_v = v
                        best = (f, float(thr))
            node.feature, node.threshold = best
            if best_v > current:
                improved = True
        if not improved:
            break
    _refresh_stats(root, X, R)


def _policy_value(root: Node, X, R) -> float:
    total, _ = _subtree_eval(root, np.arange(X.shape[0]), X, R)
    return total / X.shape[0]


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
    if np.any((R < 0) | (R > 1)):
        raise InvalidRewardsError("reward entries must lie in [0, 1]")
    n = X.shape[0]
    if n == 0:
        raise SchemaError("empty training data")

    if n < 2 * config.min_leaf:
        root = _leaf_from(np.arange(n), R)
    else:
        root, _ = _grow(np.arange(n), X, R, config, n, 0)
        _local_search(root, X, R, config)

    tree = PolicyTree(root=root, config=config, n_features=X.shape[1])
    _refresh_stats(root, X, R)
    _number_nodes(tree)
    tree.training_value = _policy_value(root, X, R)
    return tree


def assign(tree: PolicyTree, covariates):
    """(treatment per patient, leaf id per patient)."""
    X = np.asarray(covariates, dtype=float)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise SchemaError(f"expected {tree.n_features} features")
    leaves = _route(tree.root, X)
    arms = np.array([leaf.arm for leaf in leaves], dtype=int)
    leaf_ids = np.array([leaf.node_id for leaf in leaves], dtype=int)
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


def subgroup_report(tree: PolicyTree, matched, rewards, min_effect: float) -> dict:
    """Per-leaf arm counts by received treatment, mean rewards, effect, and
    an under-effect flag for treatment-recommending leaves."""
    X = matched.covariate_matrix()
    treatments = matched.treatments()
    _, leaf_ids = assign(tree, X)
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
