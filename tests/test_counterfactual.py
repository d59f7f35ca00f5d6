"""Per-arm counterfactual models, rho tuning, and reward constraining."""

import numpy as np
import pytest

from trialemu import learner
from trialemu.cohort import Cohort, CovariateSchema
from trialemu.counterfactual import (
    RewardMatrix,
    TuningTrace,
    constrain_rewards,
    fit_counterfactuals,
    reward_matrix,
    tune_weight,
)
from trialemu.errors import (
    ConfigError,
    InsufficientDataError,
    UnreachableTargetError,
)

SCHEMA = CovariateSchema(("x",), ("continuous",), ("",))
HORIZON = 60.0
CFG = learner.LearnerConfig(n_trees=5, max_depth=3, min_leaf=5,
                            feature_subsample=1.0, bootstrap=False, seed=2)


def make_matched(n_per_arm=40, seed=0, event_rate=0.5):
    """Balanced matched cohort; events concentrate at low x."""
    rng = np.random.default_rng(seed)
    ids, xs, arms, events = [], [], [], []
    for arm in (0, 1):
        for i, x in enumerate(rng.uniform(0, 1, n_per_arm)):
            event = int(x < event_rate) if rng.uniform() < 0.9 else int(
                x >= event_rate)
            ids.append(f"a{arm}p{i}")
            xs.append([float(x)])
            arms.append(arm)
            events.append(event)
    times = [30.0 if e else 70.0 for e in events]
    return Cohort(SCHEMA, ids, xs, arms, events, times)


class TestFitCounterfactuals:
    def test_rho_one_equals_unweighted_fit(self):
        matched = make_matched()
        pair = fit_counterfactuals(matched, HORIZON, CFG)
        arm0 = matched.treatments() == 0
        X = matched.covariate_matrix()[arm0]
        y = 1 - matched.events()[arm0]  # event-free label
        direct = learner.fit(X, y, np.ones(len(y)), CFG)
        assert pair.model0.to_json() == direct.to_json()
        assert pair.rho0 == pair.rho1 == 1.0

    def test_hbar_is_full_cohort_mean_prediction(self):
        matched = make_matched()
        pair = fit_counterfactuals(matched, HORIZON, CFG)
        X_all = matched.covariate_matrix()
        assert pair.hbar0 == pytest.approx(
            learner.predict_prob(pair.model0, X_all).mean(), abs=1e-15)

    def test_rho_below_one_rejected(self):
        with pytest.raises(ConfigError):
            fit_counterfactuals(make_matched(), HORIZON, CFG, rho0=0.5)

    def test_missing_arm(self):
        arm0_only = Cohort(SCHEMA, ["p0", "p1"], [[0.2], [0.8]], [0, 0],
                           [1, 0], [10.0, 70.0])
        with pytest.raises(InsufficientDataError):
            fit_counterfactuals(arm0_only, HORIZON, CFG)

    def test_single_class_arm_falls_back_to_constant(self):
        ids = [f"c{i}" for i in range(10)] + [f"t{i}" for i in range(10)]
        xs = [[i / 10] for i in range(10)] * 2
        arms = [0] * 10 + [1] * 10
        events = [0] * 10 + [i % 2 for i in range(10)]
        times = [30.0 if e else 70.0 for e in events]
        with pytest.warns(UserWarning, match="single-class"):
            pair = fit_counterfactuals(Cohort(SCHEMA, ids, xs, arms, events, times),
                                       HORIZON, CFG)
        assert pair.hbar0 == 1.0  # all arm-0 patients event-free


class TestRewardMatrix:
    def test_rows_and_column_means(self):
        matched = make_matched()
        pair = fit_counterfactuals(matched, HORIZON, CFG)
        matrix = reward_matrix(pair, matched, HORIZON)
        X = matched.covariate_matrix()
        np.testing.assert_array_equal(
            matrix.rewards[:, 0], learner.predict_prob(pair.model0, X))
        np.testing.assert_array_equal(
            matrix.rewards[:, 1], learner.predict_prob(pair.model1, X))
        m0, m1 = matrix.column_means()
        assert m0 == pytest.approx(pair.hbar0, abs=1e-12)
        assert m1 == pytest.approx(pair.hbar1, abs=1e-12)
        assert matrix.ids == tuple(matched.ids)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RewardMatrix(("a",), np.array([[0.5, 0.5], [0.1, 0.2]]), HORIZON)
        with pytest.raises(ConfigError):
            RewardMatrix(("a",), np.array([[1.5, 0.5]]), HORIZON)


class TestConstrainRewards:
    def matrix(self, rows):
        ids = tuple(f"p{i}" for i in range(len(rows)))
        return RewardMatrix(ids, np.array(rows, dtype=float), HORIZON)

    def test_control_preferring_row_is_scaled(self):
        out = constrain_rewards(self.matrix([[0.9, 0.8]]), 0.78)
        np.testing.assert_allclose(out.rewards, [[0.624, 0.8]], atol=1e-12)

    def test_treatment_preferring_row_unchanged(self):
        out = constrain_rewards(self.matrix([[0.5, 0.7]]), 0.78)
        np.testing.assert_array_equal(out.rewards, [[0.5, 0.7]])

    def test_factor_one_caps_at_equality(self):
        out = constrain_rewards(self.matrix([[0.9, 0.8], [0.3, 0.6]]), 1.0)
        np.testing.assert_allclose(out.rewards, [[0.8, 0.8], [0.3, 0.6]])

    def test_idempotent_and_never_increases(self):
        rng = np.random.default_rng(4)
        matrix = self.matrix(rng.uniform(0, 1, size=(30, 2)))
        once = constrain_rewards(matrix, 0.78)
        twice = constrain_rewards(once, 0.78)
        np.testing.assert_array_equal(once.rewards, twice.rewards)
        assert np.all(once.rewards <= matrix.rewards + 1e-15)

    def test_favor_control_direction(self):
        out = constrain_rewards(self.matrix([[0.4, 0.8]]), 0.5,
                                direction="favor-control")
        np.testing.assert_allclose(out.rewards, [[0.4, 0.2]], atol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            constrain_rewards(self.matrix([[0.5, 0.5]]), 0.0)
        with pytest.raises(ConfigError):
            constrain_rewards(self.matrix([[0.5, 0.5]]), 1.2)
        with pytest.raises(ConfigError):
            constrain_rewards(self.matrix([[0.5, 0.5]]), 0.78,
                              direction="sideways")


class TestTuneWeight:
    def test_target_already_met_returns_one(self):
        matched = make_matched()
        base = fit_counterfactuals(matched, HORIZON, CFG).hbar0
        trace = TuningTrace([], [], [])
        rho = tune_weight(matched, 0, base - 0.001, HORIZON, CFG, trace=trace)
        assert rho == 1.0
        assert trace.rho_sequence == [1.0]

    def test_bisection_hits_attainable_target(self):
        matched = make_matched(n_per_arm=60, seed=3)
        target = fit_counterfactuals(matched, HORIZON, CFG, rho0=3.0).hbar0
        trace = TuningTrace([], [], [])
        rho = tune_weight(matched, 0, target, HORIZON, CFG,
                          tol=0.005, trace=trace)
        achieved = fit_counterfactuals(matched, HORIZON, CFG, rho0=rho).hbar0
        assert abs(achieved - target) <= 0.005
        assert len(trace.rho_sequence) <= 15
        assert trace.rho_sequence[0] == 1.0

    def test_unreachable_target_reports_residual(self):
        matched = make_matched(n_per_arm=60, seed=3)
        with pytest.raises(UnreachableTargetError) as err:
            tune_weight(matched, 0, 0.999, HORIZON, CFG, rho_max=1.2)
        assert err.value.residual > 0

    def test_argument_validation(self):
        matched = make_matched()
        with pytest.raises(ConfigError):
            tune_weight(matched, 0, 1.5, HORIZON, CFG)
        with pytest.raises(ConfigError):
            tune_weight(matched, 0, 0.5, HORIZON, CFG, tol=0.0)
