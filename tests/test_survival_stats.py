"""Kaplan-Meier, log-rank, clinical risk scores, balance audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from trialemu.errors import UndefinedStatisticError
from trialemu.survival_stats import (
    KMCurve,
    RiskScoreInput,
    chi2_sf_1df,
    crs_score,
    game_score,
    km_curve,
    logrank,
    median_survival,
    node_balance_audit,
    tumor_burden_score,
)


# (times, events, message) that km_curve and logrank reject
INVALID_SURVIVAL_DATA = [
    ([1.0, np.nan], [1, 1], "finite"),
    ([1.0, np.inf], [1, 0], "finite"),
    ([1.0, -2.0], [1, 1], ">= 0"),
    ([1, 2, 3], [2, 0, 1], "0 or 1"),
    ([1, 2], [0.5, 1], "0 or 1"),
    ([1, 2], [np.nan, 1], "0 or 1"),
    ([1, 2], [1, 0, 1], "one length"),
    ([1, 2, 3], [1], "one length"),
]


class TestKaplanMeier:
    def test_no_censoring_steps(self):
        curve = km_curve([1, 2, 3], [1, 1, 1])
        np.testing.assert_allclose(curve.survival, [2 / 3, 1 / 3, 0.0],
                                   atol=1e-15)
        np.testing.assert_array_equal(curve.at_risk, [3, 2, 1])

    def test_censoring_shrinks_risk_set(self):
        curve = km_curve([1, 2, 3], [1, 0, 1])
        assert curve.survival_at(1.0) == pytest.approx(2 / 3, abs=1e-15)
        # at t=3 only one patient remains at risk, factor (1 - 1/1) = 0
        assert curve.survival_at(3.0) == 0.0
        np.testing.assert_array_equal(curve.times, [1.0, 3.0])

    def test_all_censored_is_flat_one(self):
        curve = km_curve([5, 8, 13], [0, 0, 0])
        assert curve.times.size == 0
        assert curve.survival_at(0.0) == curve.survival_at(100.0) == 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(0, 50, size=40)
        events = rng.integers(0, 2, size=40)
        base = km_curve(times, events)
        perm = rng.permutation(40)
        shuffled = km_curve(times[perm], events[perm])
        np.testing.assert_array_equal(base.survival, shuffled.survival)
        np.testing.assert_array_equal(base.times, shuffled.times)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=30))
    def test_uncensored_km_equals_one_minus_ecdf(self, times):
        times = np.round(times, 6)
        curve = km_curve(times, np.ones(len(times), dtype=int))
        for t in curve.times:
            ecdf = np.mean(times <= t)
            assert curve.survival_at(t) == pytest.approx(1.0 - ecdf, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(UndefinedStatisticError):
            km_curve([], [])

    @pytest.mark.parametrize("times, events, message", INVALID_SURVIVAL_DATA)
    def test_invalid_input_rejected(self, times, events, message):
        with pytest.raises(ValueError, match=message):
            km_curve(times, events)


class TestMedianSurvival:
    def test_first_step_below_half(self):
        assert median_survival(km_curve([1, 2, 3], [1, 1, 1])) == 2.0

    def test_exactly_half_counts(self):
        # two patients, one event at t=5: S(5) = 0.5 exactly
        assert median_survival(km_curve([5, 9], [1, 0])) == 5.0

    def test_not_reached(self):
        # five patients, one event: S stays at 0.8
        curve = km_curve([3, 10, 10, 10, 10], [1, 0, 0, 0, 0])
        assert curve.survival.min() == pytest.approx(0.8)
        assert median_survival(curve) is None


class TestLogrank:
    def test_identical_groups(self):
        times = [2, 5, 7, 11]
        events = [1, 0, 1, 1]
        assert logrank(times, events, times, events) == (0.0, 1.0)

    def test_symmetry(self):
        t0, e0 = [1, 4, 9], [1, 1, 0]
        t1, e1 = [2, 3, 8], [0, 1, 1]
        stat_a, p_a = logrank(t0, e0, t1, e1)
        stat_b, p_b = logrank(t1, e1, t0, e0)
        assert stat_a == pytest.approx(stat_b, abs=1e-12)
        assert p_a == pytest.approx(p_b, abs=1e-12)

    def test_six_patient_hand_value(self):
        # Groups (1,2,3) vs (4,5,6), all events. Hand hypergeometric table:
        # sum(O-E) = -(0.5 + 0.6 + 0.75) = -1.85, sum(Var) = 0.6775,
        # statistic = 1.85^2 / 0.6775.
        stat, p = logrank([1, 2, 3], [1, 1, 1], [4, 5, 6], [1, 1, 1])
        assert stat == pytest.approx(3.4225 / 0.6775, abs=1e-10)
        assert p == pytest.approx(chi2_sf_1df(3.4225 / 0.6775), abs=1e-15)

    def test_no_events_is_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            logrank([1, 2], [0, 0], [3, 4], [0, 0])

    def test_empty_group_is_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            logrank([], [], [1], [1])

    @pytest.mark.parametrize("times, events, message", INVALID_SURVIVAL_DATA)
    def test_invalid_input_rejected(self, times, events, message):
        with pytest.raises(ValueError, match=message):
            logrank(times, events, [1, 2], [1, 0])
        with pytest.raises(ValueError, match=message):
            logrank([1, 2], [1, 0], times, events)


def _km_reference(times, events) -> KMCurve:
    """The row-by-row product-limit loop the risk table replaced."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events).astype(int)
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


def _logrank_reference(times0, events0, times1, events1):
    """The per-event-time rescan the risk table replaced."""
    all_times = np.concatenate([np.asarray(times0, dtype=float),
                                np.asarray(times1, dtype=float)])
    all_events = np.concatenate([np.asarray(events0).astype(int),
                                 np.asarray(events1).astype(int)])
    group = np.concatenate([np.zeros(len(times0), int), np.ones(len(times1), int)])

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


def _seeded_groups(seed):
    """Two groups of tied integer or continuous times, randomly censored."""
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(2):
        n = int(rng.integers(1, 40))
        if seed % 2:
            times = rng.integers(0, 6, n).astype(float)
        else:
            times = rng.exponential(10.0, n)
        groups += [times, (rng.random(n) < rng.random()).astype(int)]
    return groups


# (times0, events0, times1, events1) edge cases for the risk table
RISK_TABLE_CASES = {
    "all-censored-group": ([1, 2, 3], [0, 0, 0], [2, 4], [1, 1]),
    "single-rows": ([4], [1], [7], [0]),
    "group-of-one": ([3], [1], [1, 3, 3, 5, 8], [0, 1, 0, 1, 1]),
    "last-event-alone": ([1, 2, 3], [1, 0, 1], [2, 2], [1, 0]),
    "negative-zero": ([-0.0, 0.0, 2.0], [1, 0, 1], [0.0, -0.0, 1.0], [1, 1, 0]),
}


class TestRiskTableMatchesLoops:
    """km_curve and logrank give the bytes of the loops they replaced."""

    @staticmethod
    def _assert_same(times0, events0, times1, events1):
        for times, events in ((times0, events0), (times1, events1)):
            got, want = km_curve(times, events), _km_reference(times, events)
            for name in ("times", "survival", "at_risk", "events"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, name
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert got.n == want.n
        if sum(events0) + sum(events1) > 0:
            assert repr(logrank(times0, events0, times1, events1)) == repr(
                _logrank_reference(times0, events0, times1, events1))

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_cases(self, seed):
        self._assert_same(*_seeded_groups(seed))

    @pytest.mark.parametrize("case", RISK_TABLE_CASES.values(), ids=RISK_TABLE_CASES)
    def test_edge_cases(self, case):
        self._assert_same(*case)


class TestChi2:
    def test_against_scipy(self):
        for x in (0.0, 0.5, 1.0, 2.0, 3.84, 5.05, 10.0, 25.0, 50.0):
            assert chi2_sf_1df(x) == pytest.approx(
                float(sps.chi2.sf(x, df=1)), abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_sf_1df(-1.0)


BASELINE = dict(node_positive=False, dfi_months=24.0, n_tumors=1,
                max_size_cm=1.0, cea_ng_ml=0.0, kras_mutated=False)


class TestRiskScores:
    def test_crs_extremes_and_example(self):
        assert crs_score(RiskScoreInput(
            node_positive=True, dfi_months=6.0, n_tumors=3,
            max_size_cm=7.0, cea_ng_ml=250.0, kras_mutated=False)) == 5
        assert crs_score(RiskScoreInput(**BASELINE)) == 0
        assert crs_score(RiskScoreInput(
            node_positive=True, dfi_months=10.0, n_tumors=2,
            max_size_cm=6.0, cea_ng_ml=150.0, kras_mutated=False)) == 4

    def test_game_examples(self):
        assert game_score(RiskScoreInput(
            node_positive=True, dfi_months=24.0, n_tumors=3,
            max_size_cm=4.0, cea_ng_ml=25.0, kras_mutated=True)) == 4
        assert game_score(RiskScoreInput(
            node_positive=False, dfi_months=24.0, n_tumors=2,
            max_size_cm=9.0, cea_ng_ml=0.0, kras_mutated=False)) == 2
        assert game_score(RiskScoreInput(
            node_positive=False, dfi_months=0.0, n_tumors=0,
            max_size_cm=0.0, cea_ng_ml=0.0, kras_mutated=False)) == 0

    def test_tbs_bands(self):
        assert tumor_burden_score(9.0, 2) == pytest.approx(np.hypot(9, 2))
        low = dict(BASELINE, n_tumors=0, max_size_cm=0.0)
        mid = dict(BASELINE, n_tumors=3, max_size_cm=4.0)
        high = dict(BASELINE, n_tumors=2, max_size_cm=9.0)
        assert game_score(RiskScoreInput(**low)) == 0
        assert game_score(RiskScoreInput(**mid)) == 1
        assert game_score(RiskScoreInput(**high)) == 2

    def test_monotonicity(self):
        # Turning on any single criterion never decreases either score.
        worse = dict(
            node_positive=True, dfi_months=6.0, n_tumors=4,
            max_size_cm=10.0, cea_ng_ml=300.0, kras_mutated=True)
        base_inp = RiskScoreInput(**BASELINE)
        for key, value in worse.items():
            bumped = RiskScoreInput(**{**BASELINE, key: value})
            assert crs_score(bumped) >= crs_score(base_inp)
            assert game_score(bumped) >= game_score(base_inp)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            RiskScoreInput(**{**BASELINE, "dfi_months": -1.0})


class TestNodeBalanceAudit:
    def test_identical_arms_p_one(self):
        leaves = [0] * 8
        arms = [0, 0, 0, 0, 1, 1, 1, 1]
        scores = [1, 2, 3, 4, 1, 2, 3, 4]
        audit = node_balance_audit(leaves, arms, scores)
        assert audit[0]["p"] == pytest.approx(1.0)
        assert audit[0]["mean0"] == audit[0]["mean1"] == 2.5

    def test_tiny_arm_reports_means_without_p(self):
        leaves = [0] * 11
        arms = [1] + [0] * 10
        scores = [5.0] + list(range(10))
        audit = node_balance_audit(leaves, arms, scores)
        assert audit[0]["n1"] == 1 and audit[0]["p"] is None
        assert audit[0]["mean1"] == 5.0

    def test_matches_welch_t(self):
        rng = np.random.default_rng(8)
        s0 = rng.normal(1.9, 0.8, size=20)
        s1 = rng.normal(2.1, 1.0, size=25)
        audit = node_balance_audit(
            [2] * 45, [0] * 20 + [1] * 25, np.concatenate([s0, s1]))
        expected = float(sps.ttest_ind(s0, s1, equal_var=False).pvalue)
        assert audit[2]["p"] == pytest.approx(expected, abs=1e-15)

    def test_multiple_leaves_partition(self):
        leaves = [0, 0, 0, 0, 1, 1, 1, 1]
        arms = [0, 0, 1, 1] * 2
        scores = [1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 8.0, 10.0]
        audit = node_balance_audit(leaves, arms, scores)
        assert set(audit) == {0, 1}
        assert audit[1]["mean0"] == 3.5 and audit[1]["mean1"] == 9.0
