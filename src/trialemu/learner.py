"""Weighted tree-ensemble probability learner.

Used for the baseline-risk model and both per-arm counterfactual models.
Per-sample weights enter the split impurity (weighted Gini), the leaf
values (weighted positive fraction) and, when bootstrapping, the
resampling probabilities. Fitting is bit-reproducible for a fixed seed:
per-tree random streams are derived from (seed, tree index).

Without bootstrapping every tree trains on the same rows in the same
order, so a node reached by the same splits from the root holds the same
rows in every tree; the trees differ only in the features drawn at each
node. The trees of such a fit therefore share one set of nodes, and each
feature is scanned at most once per node, however many trees draw it there.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateModelError,
    InsufficientDataError,
    SchemaError,
)


@dataclass(frozen=True)
class LearnerConfig:
    n_trees: int = 200
    max_depth: int = 8
    min_leaf: int = 5
    feature_subsample: float = 0.7
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ConfigError("n_trees, max_depth, min_leaf must be positive")
        if not (0.0 < self.feature_subsample <= 1.0):
            raise ConfigError("feature_subsample must be in (0, 1]")


@dataclass(frozen=True)
class FittedEnsemble:
    trees: tuple  # nested dicts: {"feature", "threshold", "left", "right"} | {"value"}
    n_features: int
    config: LearnerConfig
    weight_digest: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_features": self.n_features,
                "config": self.config.__dict__,
                "weight_digest": self.weight_digest,
                "trees": list(self.trees),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, doc: str) -> "FittedEnsemble":
        raw = json.loads(doc)
        return cls(
            trees=tuple(raw["trees"]),
            n_features=raw["n_features"],
            config=LearnerConfig(**raw["config"]),
            weight_digest=raw["weight_digest"],
        )


def constant_model(value: float, n_features: int, config: LearnerConfig) -> FittedEnsemble:
    """Degenerate single-leaf model predicting a fixed probability."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError("constant model value must be a probability")
    return FittedEnsemble(
        trees=({"value": float(value)},),
        n_features=n_features,
        config=config,
        weight_digest="constant",
    )


def split_scan(x, columns, min_leaf):
    """Cumulative sums of each column along the stable sort order of x, kept
    at the valid cuts: adjacent sorted values differ and each side holds at
    least min_leaf rows. Returns (the left sums at each cut, one array per
    column; the column totals; the midpoint threshold of each cut). Each
    column is summed on its own, in sorted row order."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # cut i puts sorted rows 0..i left, so both sides hold min_leaf rows
    # exactly when lo <= i < hi
    lo, hi = min_leaf - 1, max(x.size - min_leaf, min_leaf - 1)
    at = lo + np.flatnonzero(xs[lo + 1:hi + 1] != xs[lo:hi])
    sums = [np.cumsum(c[order]) for c in columns]
    return [s[at] for s in sums], [s[-1] for s in sums], (xs[at] + xs[at + 1]) / 2.0


class _Node:
    """The rows reaching one node. With the same training rows, every tree
    that takes the same splits from the root reaches a node with the same
    rows, so the trees of one fit share the node and its split scans."""

    def __init__(self, X, y, w):
        self.X, self.y = X, y
        self.columns = [w, w * y]
        self.value = float(self.columns[1].sum() / w.sum())
        self.scans = {}  # feature -> (lowest Gini, its threshold) | None
        self.children = {}  # (feature, threshold) -> (left node, right node)

    def scan(self, f, min_leaf):
        """Lowest weighted Gini over f's valid cuts, at the first argmin."""
        if f not in self.scans:
            (wl, pl), (total_w, total_p), thresholds = split_scan(
                self.X[:, f], self.columns, min_leaf)
            if not thresholds.size:
                self.scans[f] = None
            else:
                wr = total_w - wl
                pr = total_p - pl
                with np.errstate(divide="ignore", invalid="ignore"):
                    fl = pl / wl
                    fr = pr / wr
                    imp = wl * fl * (1.0 - fl) + wr * fr * (1.0 - fr)
                i = int(np.argmin(imp))
                self.scans[f] = (imp[i], float(thresholds[i]))
        return self.scans[f]

    def best_split(self, feats, min_leaf):
        """Lowest-Gini split over feats; ties break to the lowest feature
        index, then the lowest threshold (features are scanned ascending,
        thresholds via first argmin)."""
        best_imp, best = np.inf, None
        for f in feats.tolist():
            scan = self.scan(f, min_leaf)
            if scan is not None and scan[0] < best_imp:
                best_imp, best = scan[0], (f, scan[1])
        return best

    def split(self, f, thr):
        """The (left, right) children of the cut x[f] < thr."""
        if (f, thr) not in self.children:
            mask = self.X[:, f] < thr
            w = self.columns[0]
            self.children[f, thr] = (_Node(self.X[mask], self.y[mask], w[mask]),
                                     _Node(self.X[~mask], self.y[~mask], w[~mask]))
        return self.children[f, thr]


def _grow(node, rng, cfg, n_sub_features, depth=0):
    if (depth >= cfg.max_depth or node.y.size < 2 * cfg.min_leaf
            or node.value in (0.0, 1.0)):
        return {"value": node.value}
    L = node.X.shape[1]
    feats = np.sort(rng.choice(L, size=n_sub_features, replace=False))
    split = node.best_split(feats, cfg.min_leaf)
    if split is None:
        return {"value": node.value}
    f, thr = split
    left, right = node.split(f, thr)
    return {
        "feature": f,
        "threshold": thr,
        "left": _grow(left, rng, cfg, n_sub_features, depth + 1),
        "right": _grow(right, rng, cfg, n_sub_features, depth + 1),
    }


def fit(features, labels, weights, config: LearnerConfig,
        on_single_class: str = "raise") -> FittedEnsemble:
    """Fit a weighted ensemble. on_single_class: "raise" or "constant"."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    w = np.asarray(weights, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size or y.size != w.size:
        raise SchemaError("features/labels/weights shapes disagree")
    if np.any(w <= 0):
        raise ConfigError("all sample weights must be positive")
    n = y.size
    if n < config.min_leaf:
        raise InsufficientDataError(
            f"{n} samples < min_leaf {config.min_leaf}")
    classes = np.unique(y)
    if classes.size < 2:
        if on_single_class == "constant":
            return constant_model(float(classes[0]), X.shape[1], config)
        raise DegenerateModelError("training labels contain a single class")
    if n < 2:
        raise InsufficientDataError("need at least 2 samples")

    L = X.shape[1]
    n_sub = max(1, int(math.ceil(config.feature_subsample * L)))
    prob = w / w.sum()
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng([config.seed, t])
        if config.bootstrap:
            idx = rng.choice(n, size=n, replace=True, p=prob)
            root = _Node(X[idx], y[idx], w[idx])
        elif t == 0:
            root = _Node(X, y, w)  # the same rows for every tree
        trees.append(_grow(root, rng, config, n_sub))
    digest = hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()[:16]
    return FittedEnsemble(tuple(trees), L, config, digest)


def _predict_tree(node, X):
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if "value" in nd:
            out[idx] = nd["value"]
        else:
            mask = X[idx, nd["feature"]] < nd["threshold"]
            stack.append((nd["left"], idx[mask]))
            stack.append((nd["right"], idx[~mask]))
    return out


def predict_prob(model: FittedEnsemble, features) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise SchemaError(
            f"expected {model.n_features} features, got "
            f"{X.shape[1] if X.ndim == 2 else 'non-matrix input'}")
    acc = np.zeros(X.shape[0])
    for tree in model.trees:
        acc += _predict_tree(tree, X)
    return acc / len(model.trees)
