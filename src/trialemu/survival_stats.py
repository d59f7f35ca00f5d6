"""Survival statistics and confounding audits.

Kaplan-Meier product-limit curves, two-group log-rank test, median
survival, the MSK clinical risk score and JHH GAME score, and per-node
treatment balance tests.

Kaplan-Meier and log-rank both read one risk table: the rows are sorted
by time once, and each distinct event time gets its at-risk and event
counts from cumulative counts over the sorted rows.
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


def _survival_data(times, events):
    """times as floats and events as ints, after checking that they pair
    up, that every time is finite and >= 0 and every event is 0 or 1."""
    times, events = np.asarray(times, dtype=float), np.asarray(events)
    if times.ndim != 1 or times.shape != events.shape:
        raise ValueError("times and events must be 1-D and of one length")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    if not np.all((events == 0) | (events == 1)):
        raise ValueError("events must be 0 or 1")
    return times, events.astype(int)


def _risk_table(times, events, group=None):
    """The risk table of survival data: each distinct event time, sorted
    ascending, with the number at risk (time >= t) and the number of events
    at it; given a 0/1 group column, also the group's own two counts."""
    order = np.argsort(times, kind="stable")
    distinct, first = np.unique(times[order], return_index=True)
    events = events[order]
    table = [distinct, times.size - first, np.add.reduceat(events, first)]
    if group is not None:
        group = group[order]
        table += [np.cumsum(group[::-1])[::-1][first],
                  np.add.reduceat(events * group, first)]
    hit = table[2] > 0
    return [column[hit] for column in table]


def km_curve(times, events) -> KMCurve:
    """Product-limit estimator; at tied times events precede censorings."""
    times, events = _survival_data(times, events)
    if times.size == 0:
        raise UndefinedStatisticError("km_curve: empty input")
    event_times, at_risk, d = _risk_table(times, events)
    return KMCurve(
        times=event_times,
        survival=np.cumprod(1.0 - d / at_risk),
        at_risk=at_risk,
        events=d,
        n=times.size,
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


def _add_in_order(terms) -> float:
    """0.0 + terms[0] + terms[1] + ..., added left to right as a loop's +=
    adds them; np.sum adds pairwise and rounds differently."""
    return float(np.cumsum(np.concatenate([[0.0], terms]))[-1])


def logrank(times0, events0, times1, events1):
    """Two-group log-rank test; returns (chi-square statistic, p-value)."""
    times0, events0 = _survival_data(times0, events0)
    times1, events1 = _survival_data(times1, events1)
    if times0.size == 0 or times1.size == 0:
        raise UndefinedStatisticError("logrank: both groups must be nonempty")

    times = np.concatenate([times0, times1])
    events = np.concatenate([events0, events1])
    group = np.repeat([0, 1], [times0.size, times1.size])
    if events.sum() == 0:
        raise UndefinedStatisticError("logrank: no events in pooled data")

    _, n, d, n1, d1 = _risk_table(times, events, group)
    o_minus_e = _add_in_order(d1 - d * n1 / n)
    v = n > 1  # a lone patient at risk adds no variance
    share1 = n1[v] / n[v]
    var = _add_in_order(d[v] * share1 * (1 - share1) * (n[v] - d[v]) / (n[v] - 1))
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
