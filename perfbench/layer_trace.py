"""Outside-in tracing of trialemu's public functions for the traced run.

Importing this module changes nothing. ``Tracer.install`` replaces the
functions named in ``TARGETS`` with wrappers that record a span (name,
start, end, parent) in memory, and ``Tracer.restore`` puts the originals
back. Only the traced run imports this module, so untraced runs measure the
unmodified library.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from trialemu import (
    counterfactual,
    learner,
    pipeline,
    policy_tree,
    stratify_match,
    survival_stats,
    synthgen,
)

NAME, START, END, PARENT, ATTRS = range(5)


def _rows(args, result):
    return {"rows": len(result)}


def _fit(args, result):
    X = np.ascontiguousarray(args["features"], dtype=float)
    key = hashlib.blake2b(digest_size=16)
    for arr in (X, args["labels"], args["weights"]):
        key.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    key.update(repr(args["config"]).encode())
    return {"rows": X.shape[0], "trees": len(result.trees),
            "key": key.hexdigest()}


def _distance_bytes(args, result):
    # the dense n1 x n0 x L difference tensor plus the n1 x n0 result, as
    # computed from the array sizes rather than measured
    problem = args["self"]
    cells = len(problem.treated_ids) * len(problem.untreated_ids)
    return {"bytes": cells * (len(problem.distance_covariates) + 1) * 8}


def _pairs(args, result):
    return {"pairs": len(result.pairs)}


def _tree_fit(args, result):
    return {"rows": np.asarray(args["covariates"]).shape[0],
            "depth": args["config"].max_depth}


# (owner, attribute, span name, observer). pipeline imports the cohort
# functions by name, so the names it binds are the ones wrapped; functions
# called inside their own module (assign, evaluate_objective) are looked up
# as module globals at call time, so wrapping the module attribute catches
# those calls too.
TARGETS = (
    (pipeline, "load_cohort", "cohort.load_cohort", _rows),
    (pipeline, "load_trial_config", "cohort.load_trial_config", None),
    (pipeline, "apply_eligibility", "cohort.apply_eligibility", None),
    (pipeline, "save_cohort", "cohort.save_cohort", None),
    (pipeline, "binarize_at_horizon", "cohort.binarize_at_horizon", None),
    (counterfactual, "binarize_at_horizon", "cohort.binarize_at_horizon", None),
    (learner, "fit", "learner.fit", _fit),
    (learner, "predict_prob", "learner.predict_prob", None),
    (counterfactual, "tune_weight", "counterfactual.tune_weight", None),
    (counterfactual, "fit_counterfactuals", "counterfactual.fit_counterfactuals", None),
    (counterfactual, "reward_matrix", "counterfactual.reward_matrix", None),
    (counterfactual, "constrain_rewards", "counterfactual.constrain_rewards", None),
    (stratify_match, "solve", "stratify_match.solve", _pairs),
    (stratify_match, "default_quotas", "stratify_match.default_quotas", None),
    (stratify_match, "evaluate_objective", "stratify_match.evaluate_objective", None),
    (stratify_match.MatchProblem, "distance_matrix",
     "stratify_match.distance_matrix", _distance_bytes),
    (policy_tree, "fit_policy_tree", "policy_tree.fit_policy_tree", _tree_fit),
    (policy_tree, "select_tree", "policy_tree.select_tree", None),
    (policy_tree, "assign", "policy_tree.assign", None),
    (policy_tree, "concordance", "policy_tree.concordance", None),
    (policy_tree, "subgroup_report", "policy_tree.subgroup_report", None),
    (survival_stats, "km_curve", "survival_stats.km_curve", None),
    (survival_stats, "median_survival", "survival_stats.median_survival", None),
    (survival_stats, "logrank", "survival_stats.logrank", None),
    (survival_stats, "node_balance_audit", "survival_stats.node_balance_audit", None),
    (survival_stats, "crs_score", "survival_stats.score", None),
    (survival_stats, "game_score", "survival_stats.score", None),
    (synthgen, "generate_observational", "synthgen.generate_observational", None),
    (synthgen, "generate_rct_target", "synthgen.generate_rct_target", None),
)


class Tracer:
    """In-memory span recorder; spans are lists indexed by NAME..ATTRS."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, owner, attr, name, observe):
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.spans[idx][ATTRS] = observe(bound, result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, observe in TARGETS:
            self._wrap(owner, attr, name, observe)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def _duration(span) -> float:
    return span[END] - span[START]


def setup_metrics(spans) -> dict:
    """Totals of the synthgen spans recorded while the inputs were built."""
    out = defaultdict(float)
    for span in spans:
        if span[NAME].startswith("synthgen."):
            out[f"{span[NAME]}_s"] += _duration(span)
    return dict(out)


def op_metrics(spans, lo: int, hi: int) -> dict:
    """Per-layer metrics of the op whose spans are spans[lo:hi].

    A span's self time is its duration minus the durations of its direct
    children; each layer's self time is the sum over its spans. Every span
    name N also yields ``N.calls`` and ``N_s`` (inclusive seconds).
    """
    out = defaultdict(float)
    child_time = defaultdict(float)
    for i in range(lo, hi):
        parent = spans[i][PARENT]
        if parent >= 0:
            child_time[parent] += _duration(spans[i])

    def ancestors(i):
        parent = spans[i][PARENT]
        while parent >= lo:
            yield spans[parent][NAME]
            parent = spans[parent][PARENT]

    tune_keys = []
    for i in range(lo, hi):
        name, attrs = spans[i][NAME], spans[i][ATTRS] or {}
        dur = _duration(spans[i])
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += dur - child_time[i]
        out[f"{name}.calls"] += 1
        out[f"{name}_s"] += dur
        up = list(ancestors(i))
        stage = next((a.split(".", 1)[1] for a in up
                      if a.startswith("pipeline.")), None)
        if name == "cohort.load_cohort":
            out["cohort.rows_parsed"] += attrs["rows"]
        elif name == "learner.fit":
            out["learner.fit.trees"] += attrs["trees"]
            out["learner.fit.tree_rows"] += attrs["trees"] * attrs["rows"]
            out[f"{stage}.learner.fit_s"] += dur
            if "counterfactual.tune_weight" in up:
                out["counterfactual.refits"] += 1
            if stage == "tune":
                tune_keys.append(attrs["key"])
        elif name == "stratify_match.distance_matrix":
            out["stratify_match.distance_bytes"] = max(
                out["stratify_match.distance_bytes"], attrs["bytes"])
        elif name == "stratify_match.solve":
            out["stratify_match.pairs"] += attrs["pairs"]
        elif name == "policy_tree.fit_policy_tree":
            out["policy_tree.fit.rows"] += attrs["rows"]
            out[f"policy_tree.fit_depth{attrs['depth']}_s"] += dur
    if tune_keys:
        out["counterfactual.fit_reuse"] = len(set(tune_keys)) / len(tune_keys)
    return dict(out)
