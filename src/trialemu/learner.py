"""Weighted tree-ensemble probability learner.

Used for the baseline-risk model and both per-arm counterfactual models.
Per-sample weights enter the split impurity (weighted Gini), the leaf
values (weighted positive fraction) and, when bootstrapping, the
resampling probabilities. Fitting is bit-reproducible for a fixed seed:
per-tree random streams are derived from (seed, tree index).
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


def _best_split(x_node, y_node, w_node, feats, min_leaf):
    """Scan all midpoint thresholds of the given features for the lowest
    weighted Gini; ties break to the lowest feature index, then the lowest
    threshold (features are scanned ascending, thresholds via first argmin)."""
    n = y_node.size
    best_imp = np.inf
    best = None
    for f in feats:
        x = x_node[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y_node[order]
        ws = w_node[order]
        cw = np.cumsum(ws)
        cp = np.cumsum(ws * ys)
        total_w = cw[-1]
        total_p = cp[-1]
        counts = np.arange(1, n)
        valid = (xs[1:] != xs[:-1]) & (counts >= min_leaf) & (n - counts >= min_leaf)
        if not valid.any():
            continue
        wl = cw[:-1]
        pl = cp[:-1]
        wr = total_w - wl
        pr = total_p - pl
        with np.errstate(divide="ignore", invalid="ignore"):
            fl = pl / wl
            fr = pr / wr
            imp = wl * fl * (1.0 - fl) + wr * fr * (1.0 - fr)
        imp = np.where(valid, imp, np.inf)
        i = int(np.argmin(imp))
        if imp[i] < best_imp:
            best_imp = imp[i]
            best = (int(f), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _grow(X, y, w, rng, cfg, n_sub_features, depth=0):
    total_w = w.sum()
    value = float((w * y).sum() / total_w)
    n = y.size
    if depth >= cfg.max_depth or n < 2 * cfg.min_leaf or value in (0.0, 1.0):
        return {"value": value}
    L = X.shape[1]
    feats = np.sort(rng.choice(L, size=n_sub_features, replace=False))
    split = _best_split(X, y, w, feats, cfg.min_leaf)
    if split is None:
        return {"value": value}
    f, thr = split
    mask = X[:, f] < thr
    return {
        "feature": f,
        "threshold": thr,
        "left": _grow(X[mask], y[mask], w[mask], rng, cfg, n_sub_features, depth + 1),
        "right": _grow(X[~mask], y[~mask], w[~mask], rng, cfg, n_sub_features, depth + 1),
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
        else:
            idx = np.arange(n)
        trees.append(_grow(X[idx], y[idx], w[idx], rng, config, n_sub))
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
