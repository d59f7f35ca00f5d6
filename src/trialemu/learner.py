"""Weighted tree-ensemble probability learner.

Used for the baseline-risk model and both per-arm counterfactual models.
Per-sample weights enter the split impurity (weighted Gini), the leaf
values (weighted positive fraction) and, when bootstrapping, the
resampling probabilities. Fitting is bit-reproducible for a fixed seed:
per-tree random streams are derived from (seed, tree index). Features,
labels and weights must be finite.

Each tree sorts its rows by every feature once (the presorted "exact
greedy" layout of SLIQ and XGBoost); no node sorts, and a node scans the
features it needs in one ``split_scan`` call.

Without bootstrapping every tree trains on the same rows in the same
order, so a node reached by the same splits from the root holds the same
rows in every tree; the trees differ only in the features drawn at each
node. The trees of such a fit therefore share one set of nodes, and each
node is scanned once, over all features, by the first tree to reach it.

The trees of a bootstrapped fit share nothing: tree t depends only on the
fit's inputs and its own (seed, t) stream. They are grown in parallel, one
contiguous range of tree indices per CPU in the process's affinity mask,
this process growing the first and forked workers the rest, and the ranges
are joined in tree order, so the fit is byte-identical for any CPU count.
Unbootstrapped fits, whose trees share one set of nodes, grow in this
process."""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
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
    """Prefix sums of each column along sorted values, and the valid cuts:
    the midpoint of the two adjacent sorted values lies above the lower one,
    so "value < midpoint" splits them as scanned, and each side holds at
    least min_leaf rows. (The midpoint of two adjacent doubles can round
    down onto the lower value. Where the sum of the two overflows, to inf or
    to -inf, the threshold is the upper value, which still splits them as
    scanned.)

    x is a k x m block whose rows are each sorted ascending, one feature's
    values per row, and each column is a k x m array in the same order.
    Returns (the left sums at each of the m - 1 cuts, one k x (m - 1) array
    per column; the row totals, one length-k array per column; the midpoint
    threshold of each valid cut, NaN at the others). Each row of a column is
    summed on its own, in order. A 1-D x is one feature in any row order: it
    is sorted stably first, and only its valid cuts are returned."""
    one = x.ndim == 1
    if one:
        order = np.argsort(x, kind="stable")
        x, columns = x[order][None], [c[order][None] for c in columns]
    m = x.shape[1]
    # cut i puts sorted rows 0..i left, so both sides hold min_leaf rows
    # exactly when lo <= i < hi
    lo, hi = min_leaf - 1, max(m - min_leaf, min_leaf - 1)
    mid = (x[:, :-1] + x[:, 1:]) / 2.0
    mid = np.where(np.isinf(mid), x[:, 1:], mid)
    valid = np.zeros((x.shape[0], m - 1), dtype=bool)
    valid[:, lo:hi] = x[:, lo:hi] < mid[:, lo:hi]
    thresholds = np.where(valid, mid, np.nan)
    sums = [np.cumsum(c, axis=1) for c in columns]
    left, totals = [s[:, :-1] for s in sums], [s[:, -1] for s in sums]
    if one:
        keep = valid[0]
        return [s[0, keep] for s in left], [t[0] for t in totals], thresholds[0, keep]
    return left, totals, thresholds


def presort(X):
    """(X.T made contiguous, the (L + 1) x n index matrix of X's rows): row
    f < L of the matrix sorts the rows stably by feature f; the last row
    lists them in row order."""
    XT = np.ascontiguousarray(X.T)
    return XT, np.vstack([np.argsort(XT, axis=1, kind="stable"), np.arange(XT.shape[1])])


def partition(XT, order, f, thr):
    """The (left, right) index matrices of the cut XT[f] < thr; each row
    keeps its order, so a child's rows arrive sorted. A side may be empty."""
    goes_left = XT[f][order] < thr
    n_left = int(np.count_nonzero(goes_left[-1]))
    return (order[goes_left].reshape(len(order), n_left),
            order[~goes_left].reshape(len(order), order.shape[1] - n_left))


class _Node:
    """The rows reaching one node, as an (L + 1) x m index matrix into the
    tree's rows (see ``presort``); a split ``partition``s it. A ``shared``
    node (see the module docstring) scans all features at once."""

    def __init__(self, data, order, shared):
        self.data, self.order, self.shared = data, order, shared
        rows = order[-1]
        _, w, wy = data
        self.n = rows.size
        self.value = float(wy[rows].sum() / w[rows].sum())
        self.scans = {}  # feature -> (lowest Gini, its threshold) | None
        self.children = {}  # (feature, threshold) -> (left node, right node)

    def scan(self, feats, min_leaf):
        """Each feature's lowest weighted Gini over its valid cuts, at the
        first argmin, from one split_scan of the node's presorted rows."""
        XT, w, wy = self.data
        idx = self.order[feats]
        (wl, pl), (total_w, total_p), thresholds = split_scan(
            XT[feats[:, None], idx], [w[idx], wy[idx]], min_leaf)
        wr = total_w[:, None] - wl
        pr = total_p[:, None] - pl
        with np.errstate(divide="ignore", invalid="ignore"):
            fl = pl / wl
            fr = pr / wr
            imp = wl * fl * (1.0 - fl) + wr * fr * (1.0 - fr)
        imp[np.isnan(thresholds)] = np.inf
        cut = imp.argmin(axis=1)
        rows = np.arange(feats.size)
        for f, lowest, thr in zip(feats.tolist(), imp[rows, cut].tolist(),
                                  thresholds[rows, cut].tolist()):
            self.scans[f] = None if math.isnan(thr) else (lowest, thr)

    def best_split(self, feats, min_leaf):
        """Lowest-Gini split over feats; ties break to the lowest feature
        index, then the lowest threshold (features are compared ascending,
        thresholds via first argmin)."""
        if any(f not in self.scans for f in feats.tolist()):
            self.scan(np.arange(self.data[0].shape[0]) if self.shared else feats,
                      min_leaf)
        best_imp, best = np.inf, None
        for f in feats.tolist():
            scan = self.scans[f]
            if scan is not None and scan[0] < best_imp:
                best_imp, best = scan[0], (f, scan[1])
        return best

    def split(self, f, thr):
        """The (left, right) children of the cut x[f] < thr."""
        if (f, thr) not in self.children:
            self.children[f, thr] = tuple(
                _Node(self.data, side, self.shared)
                for side in partition(self.data[0], self.order, f, thr))
        return self.children[f, thr]


def _root(X, y, w, shared):
    """The root node of a tree trained on rows (X, y, w): each feature is
    sorted once here, and never again below."""
    XT, order = presort(X)
    return _Node((XT, w, w * y), order, shared)


def _grow(node, rng, cfg, n_sub_features, depth=0):
    if (depth >= cfg.max_depth or node.n < 2 * cfg.min_leaf
            or node.value in (0.0, 1.0)):
        return {"value": node.value}
    L = node.order.shape[0] - 1
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


def _processes() -> int:
    """How many processes grow a bootstrapped fit's trees: the CPUs in this
    process's affinity mask, or 1 where there is no such mask or no fork
    start method, and in a daemonic process, which may not start any."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _send_trees(grow_trees, t0, t1, send):
    """A forked worker's body: send (True, trees t0 .. t1 - 1), or (False,
    the exception that growing them raised)."""
    try:
        result = True, grow_trees(t0, t1)
    except Exception as exc:
        result = False, exc
    send.send(result)


def _in_processes(grow_trees, n_trees):
    """grow_trees(0, n_trees), grown in contiguous, equal tree-index ranges
    by min(_processes(), n_trees) processes: this one grows the first range,
    and a forked worker each other one. The workers inherit the fit's arrays
    through fork and send back their lists of trees, which are joined in
    tree order. Every worker is joined before this returns or raises, and a
    worker's exception is raised here."""
    k = min(_processes(), n_trees)
    if k == 1:
        return grow_trees(0, n_trees)
    bounds = [n_trees * i // k for i in range(k + 1)]
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for t0, t1 in zip(bounds[1:-1], bounds[2:]):
            receive, send = ctx.Pipe(duplex=False)
            with send:  # closed before the next fork: only its worker holds it
                proc = ctx.Process(target=_send_trees, args=(grow_trees, t0, t1, send))
                proc.start()
            workers.append((proc, receive))
        trees = grow_trees(bounds[0], bounds[1])
        for proc, receive in workers:
            try:
                ok, result = receive.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(
                    f"a tree worker exited with code {proc.exitcode}") from None
            if not ok:
                raise result
            trees += result
    except BaseException:
        for proc, _ in workers:
            proc.kill()
        raise
    finally:
        for proc, receive in workers:
            proc.join()
            receive.close()
    return trees


def fit(features, labels, weights, config: LearnerConfig,
        on_single_class: str = "raise") -> FittedEnsemble:
    """Fit a weighted ensemble. on_single_class: "raise" or "constant"."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    w = np.asarray(weights, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size or y.size != w.size:
        raise SchemaError("features/labels/weights shapes disagree")
    if X.shape[1] == 0:
        raise SchemaError("features must have at least one column")
    for name, values in (("features", X), ("labels", y), ("weights", w)):
        if not np.isfinite(values).all():
            raise SchemaError(f"{name} must be finite")
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

    L = X.shape[1]
    n_sub = max(1, int(math.ceil(config.feature_subsample * L)))
    prob = w / w.sum()
    # the same rows for every tree of an unbootstrapped fit
    shared = None if config.bootstrap else _root(X, y, w, shared=True)

    def grow_trees(t0, t1):
        """Trees t0 .. t1 - 1, each from its own (seed, tree index) stream."""
        trees = []
        for t in range(t0, t1):
            rng = np.random.default_rng([config.seed, t])
            root = shared
            if config.bootstrap:
                idx = rng.choice(n, size=n, replace=True, p=prob)
                root = _root(X[idx], y[idx], w[idx], shared=False)
            trees.append(_grow(root, rng, config, n_sub))
        return trees

    trees = (_in_processes(grow_trees, config.n_trees) if config.bootstrap
             else grow_trees(0, config.n_trees))
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
