"""Survival statistics and confounding audits.

Kaplan-Meier product-limit curves, two-group log-rank test, median
survival, the MSK clinical risk score and JHH GAME score, and per-node
treatment balance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import UndefinedStatisticError


@dataclass(frozen=True)
class KMCurve:
    times: np.ndarray  # distinct event times, ascending
    survival: np.ndarray  # S(t) just after each event time
    at_risk: np.ndarray
    events: np.ndarray
    n: int

    def survival_at(self, t: float) -> float:
        """Step-function evaluation of S(t)."""
        idx = np.searchsorted(self.times, t, side="right")
        return 1.0 if idx == 0 else float(self.survival[idx - 1])


def km_curve(times, events) -> KMCurve:
    """Product-limit estimator; at tied times events precede censorings."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if times.size == 0:
        raise UndefinedStatisticError("km_curve: empty input")
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    order = np.argsort(times, kind="stable")
    times, events = times[order], events[order]

    out_t, out_s, out_r, out_d = [], [], [], []
    s = 1.0
    n = times.size
    i = 0
    at_risk = n
    while i < n:
        t = times[i]
        j = i
        d = 0
        while j < n and times[j] == t:
            d += events[j]
            j += 1
        if d > 0:
            s *= 1.0 - d / at_risk
            out_t.append(t)
            out_s.append(s)
            out_r.append(at_risk)
            out_d.append(d)
        at_risk -= j - i
        i = j
    return KMCurve(
        times=np.array(out_t),
        survival=np.array(out_s),
        at_risk=np.array(out_r, dtype=int),
        events=np.array(out_d, dtype=int),
        n=n,
    )


def median_survival(curve: KMCurve):
    """Smallest event time with S <= 0.5, or None when never reached."""
    below = np.nonzero(curve.survival <= 0.5)[0]
    if below.size == 0:
        return None
    return float(curve.times[below[0]])


def chi2_sf_1df(x: float) -> float:
    """Survival function of chi-square with 1 df: P(X > x) = erfc(sqrt(x/2))."""
    if x < 0:
        raise ValueError("chi-square statistic must be >= 0")
    return math.erfc(math.sqrt(x / 2.0))


def logrank(times0, events0, times1, events1):
    """Two-group log-rank test; returns (chi-square statistic, p-value)."""
    times0 = np.asarray(times0, dtype=float)
    times1 = np.asarray(times1, dtype=float)
    events0 = np.asarray(events0, dtype=int)
    events1 = np.asarray(events1, dtype=int)
    if times0.size == 0 or times1.size == 0:
        raise UndefinedStatisticError("logrank: both groups must be nonempty")

    all_times = np.concatenate([times0, times1])
    all_events = np.concatenate([events0, events1])
    group = np.concatenate([np.zeros(times0.size, int), np.ones(times1.size, int)])
    if all_events.sum() == 0:
        raise UndefinedStatisticError("logrank: no events in pooled data")

    event_times = np.unique(all_times[all_events == 1])
    o_minus_e = 0.0
    var = 0.0
    for t in event_times:
        at_risk = all_times >= t
        n_tot = int(at_risk.sum())
        n1 = int((at_risk & (group == 1)).sum())
        d_mask = (all_times == t) & (all_events == 1)
        d_tot = int(d_mask.sum())
        d1 = int((d_mask & (group == 1)).sum())
        e1 = d_tot * n1 / n_tot
        o_minus_e += d1 - e1
        if n_tot > 1:
            var += (
                d_tot * (n1 / n_tot) * (1 - n1 / n_tot) * (n_tot - d_tot) / (n_tot - 1)
            )
    if var == 0.0:
        return 0.0, 1.0
    stat = o_minus_e**2 / var
    return float(stat), chi2_sf_1df(stat)


@dataclass(frozen=True)
class RiskScoreInput:
    node_positive: bool
    dfi_months: float
    n_tumors: int
    max_size_cm: float
    cea_ng_ml: float
    kras_mutated: bool

    def __post_init__(self):
        if min(self.dfi_months, self.n_tumors, self.max_size_cm, self.cea_ng_ml) < 0:
            raise ValueError("risk score inputs must be nonnegative")


def crs_score(inp: RiskScoreInput) -> int:
    """MSK clinical risk score, 0-5."""
    return (
        int(inp.node_positive)
        + int(inp.dfi_months < 12)
        + int(inp.n_tumors > 1)
        + int(inp.max_size_cm > 5)
        + int(inp.cea_ng_ml >= 200)
    )


def tumor_burden_score(max_size_cm: float, n_tumors: int) -> float:
    return math.hypot(max_size_cm, n_tumors)


def game_score(inp: RiskScoreInput) -> int:
    """JHH GAME score, 0-5; uses the standard tumor burden score bands."""
    tbs = tumor_burden_score(inp.max_size_cm, inp.n_tumors)
    score = int(inp.kras_mutated) + int(inp.cea_ng_ml >= 20) + int(inp.node_positive)
    if tbs >= 9:
        score += 2
    elif tbs >= 3:
        score += 1
    return score


def node_balance_audit(leaf_ids, treatments, score_values):
    """Per-leaf Welch t-test of a risk score between treatment arms.

    Returns {leaf: {"mean0", "mean1", "n0", "n1", "p"}}; p is None when
    either arm has fewer than 2 patients.
    """
    leaf_ids = np.asarray(leaf_ids)
    treatments = np.asarray(treatments, dtype=int)
    score_values = np.asarray(score_values, dtype=float)
    out = {}
    for leaf in sorted(set(leaf_ids.tolist())):
        mask = leaf_ids == leaf
        s0 = score_values[mask & (treatments == 0)]
        s1 = score_values[mask & (treatments == 1)]
        entry = {
            "n0": int(s0.size),
            "n1": int(s1.size),
            "mean0": float(s0.mean()) if s0.size else None,
            "mean1": float(s1.mean()) if s1.size else None,
            "p": None,
        }
        if s0.size >= 2 and s1.size >= 2:
            if np.var(s0) == 0 and np.var(s1) == 0 and s0.mean() == s1.mean():
                entry["p"] = 1.0
            else:
                entry["p"] = float(stats.ttest_ind(s0, s1, equal_var=False).pvalue)
        out[leaf] = entry
    return out
