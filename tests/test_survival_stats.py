"""Kaplan-Meier, log-rank, clinical risk scores, balance audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from trialemu.errors import UndefinedStatisticError
from trialemu.survival_stats import (
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
