"""Per-arm counterfactual models, rho tuning, and reward constraining."""

import numpy as np
import pytest

from trialemu import counterfactual, learner
from trialemu.cohort import Cohort, CovariateSchema
from trialemu.counterfactual import (
    ArmFit,
    RewardMatrix,
    TuningTrace,
    constrain_rewards,
    fit_arm,
    fit_counterfactuals,
    reward_matrix,
    tune_weight,
)
from trialemu.errors import (
    ConfigError,
    InsufficientDataError,
    InvalidRewardsError,
    SchemaError,
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
        fits = fit_counterfactuals(matched, HORIZON, CFG)
        arm0 = matched.treatments() == 0
        X = matched.covariate_matrix()[arm0]
        y = 1 - matched.events()[arm0]  # event-free label
        direct = learner.fit(X, y, np.ones(len(y)), CFG)
        assert fits[0].model.to_json() == direct.to_json()
        assert fits[0].rho == fits[1].rho == 1.0
        assert fits[0].trace is fits[1].trace is None

    def test_hbar_is_full_cohort_mean_prediction(self):
        matched = make_matched()
        fits = fit_counterfactuals(matched, HORIZON, CFG)
        X_all = matched.covariate_matrix()
        assert fits[0].hbar == pytest.approx(
            learner.predict_prob(fits[0].model, X_all).mean(), abs=1e-15)

    def test_rho_below_one_rejected(self):
        with pytest.raises(ConfigError):
            fit_arm(make_matched(), 0, HORIZON, CFG, rho=0.5)

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
            fits = fit_counterfactuals(Cohort(SCHEMA, ids, xs, arms, events, times),
                                       HORIZON, CFG)
        assert fits[0].hbar == 1.0  # all arm-0 patients event-free

    def test_a_targeted_arm_is_tuned_and_the_other_fit_at_one(self):
        matched = make_matched(n_per_arm=60, seed=3)
        target = fit_arm(matched, 1, HORIZON, CFG, rho=3.0).hbar
        fits = fit_counterfactuals(matched, HORIZON, CFG, targets=(None, target))
        tuned = tune_weight(matched, 1, target, HORIZON, CFG)
        assert fits[0].rho == 1.0 and fits[0].trace is None
        assert fits[1].rho == tuned.rho > 1.0
        assert fits[1].trace == tuned.trace
        assert fits[1].model.to_json() == tuned.model.to_json()


class TestRewardMatrix:
    def test_rows_and_column_means(self):
        matched = make_matched()
        fits = fit_counterfactuals(matched, HORIZON, CFG)
        matrix = reward_matrix(fits, matched)
        X = matched.covariate_matrix()
        np.testing.assert_array_equal(
            matrix.rewards[:, 0], learner.predict_prob(fits[0].model, X))
        np.testing.assert_array_equal(
            matrix.rewards[:, 1], learner.predict_prob(fits[1].model, X))
        assert matrix.rewards[:, 0].mean() == pytest.approx(fits[0].hbar, abs=1e-12)
        assert matrix.rewards[:, 1].mean() == pytest.approx(fits[1].hbar, abs=1e-12)
        assert matrix.ids == tuple(matched.ids)

    def test_validation(self):
        # the same exit codes as the policy tree's checks of the same data
        with pytest.raises(SchemaError):
            RewardMatrix(("a",), np.array([[0.5, 0.5], [0.1, 0.2]]))
        with pytest.raises(SchemaError):
            RewardMatrix(("a",), np.array([0.5, 0.5]))
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(InvalidRewardsError):
                RewardMatrix(("a",), np.array([[bad, 0.5]]))


class TestConstrainRewards:
    def matrix(self, rows):
        ids = tuple(f"p{i}" for i in range(len(rows)))
        return RewardMatrix(ids, np.array(rows, dtype=float))

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
        base = fit_arm(matched, 0, HORIZON, CFG).hbar
        trace = TuningTrace([], [], [])
        fit = tune_weight(matched, 0, base - 0.001, HORIZON, CFG, trace=trace)
        assert fit.rho == 1.0 and fit.hbar == base
        assert fit.trace is trace and trace.rho_sequence == [1.0]

    def test_bisection_hits_attainable_target(self):
        matched = make_matched(n_per_arm=60, seed=3)
        target = fit_arm(matched, 0, HORIZON, CFG, rho=3.0).hbar
        fit = tune_weight(matched, 0, target, HORIZON, CFG, tol=0.005)
        assert abs(fit.hbar - target) <= 0.005
        assert len(fit.trace.rho_sequence) <= 15
        assert fit.trace.rho_sequence[0] == 1.0
        assert fit.trace.rho_sequence[-1] == fit.rho
        assert fit.trace.hbar_sequence[-1] == fit.hbar

    def test_the_tuned_model_is_reused_not_refit(self, monkeypatch):
        """The fit tune_weight accepts is the one fit_counterfactuals
        returns: one learner.fit per traced rho, and one for the untuned arm."""
        matched = make_matched(n_per_arm=60, seed=3)
        target = fit_arm(matched, 0, HORIZON, CFG, rho=3.0).hbar
        fits = []
        real_fit = learner.fit
        monkeypatch.setattr(learner, "fit",
                            lambda *a, **k: fits.append(1) or real_fit(*a, **k))
        tuned, untuned = fit_counterfactuals(matched, HORIZON, CFG,
                                             targets=(target, None))
        assert len(fits) == len(tuned.trace.rho_sequence) + 1
        fresh = fit_arm(matched, 0, HORIZON, CFG, rho=tuned.rho)
        assert tuned.model.to_json() == fresh.model.to_json()
        assert untuned.model.to_json() == fit_arm(matched, 1, HORIZON, CFG).model.to_json()

    def test_the_tuned_predictions_are_reused(self, monkeypatch):
        matched = make_matched(n_per_arm=60, seed=3)
        target = fit_arm(matched, 0, HORIZON, CFG, rho=3.0).hbar
        predicted = []
        real_predict = learner.predict_prob
        monkeypatch.setattr(learner, "predict_prob", lambda model, X: (
            predicted.append(model) or real_predict(model, X)))
        fits = fit_counterfactuals(matched, HORIZON, CFG, targets=(target, None))
        matrix = reward_matrix(fits, matched)
        # one prediction per fit, the accepted fit's among them; none after
        assert len(predicted) == len(fits[0].trace.rho_sequence) + 1
        assert predicted[-2] is fits[0].model and predicted[-1] is fits[1].model
        np.testing.assert_array_equal(
            matrix.rewards, np.column_stack([fits[0].rewards, fits[1].rewards]))

    def test_unreachable_target_reports_residual(self):
        matched = make_matched(n_per_arm=60, seed=3)
        with pytest.raises(UnreachableTargetError) as err:
            tune_weight(matched, 0, 0.999, HORIZON, CFG, rho_max=1.2)
        assert err.value.residual > 0

    def test_argument_validation(self):
        matched = make_matched()
        with pytest.raises(ConfigError):
            tune_weight(matched, 0, 1.5, HORIZON, CFG)
        for bad in ({"tol": 0.0}, {"tol": np.nan}, {"rho_max": 0.5},
                    {"rho_max": np.nan}, {"rho_max": np.inf}):
            with pytest.raises(ConfigError):
                tune_weight(matched, 0, 0.5, HORIZON, CFG, **bad)


class TestBisectionOnAStandInResponse:
    """The arm's mean estimate is set per rho by replacing the fit."""

    def tune(self, monkeypatch, mean_at, target, **kwargs):
        """tune_weight's fit (or error) and traced rhos when the single
        prediction, and so the mean estimate, at rho is mean_at(rho)."""
        monkeypatch.setattr(
            counterfactual, "fit_arm",
            lambda matched, arm, horizon, config, rho: ArmFit(
                rho, object(), np.array([mean_at(rho)])))
        trace = TuningTrace([], [], [])
        try:
            fit = tune_weight(make_matched(), 0, target, HORIZON, CFG,
                              trace=trace, **kwargs)
        except UnreachableTargetError as exc:
            fit = exc
        return fit, trace.rho_sequence

    def test_a_dip_at_the_first_midpoint_ends_after_three_fits(self, monkeypatch):
        means = {1.0: 0.3, 5.0: 0.9, 3.0: 0.2}
        err, rhos = self.tune(monkeypatch, means.__getitem__, 0.6)
        assert isinstance(err, UnreachableTargetError)
        assert err.exit_code == 5 and err.residual > 0
        assert "not monotone" in str(err) and "0.2000 at rho=3" in str(err)
        assert rhos == [1.0, 5.0, 3.0]

    def test_a_step_over_the_band_ends_after_fifteen_fits(self, monkeypatch):
        err, rhos = self.tune(
            monkeypatch, lambda rho: 0.3 if rho < 2.2 else 0.8, 0.55)
        assert isinstance(err, UnreachableTargetError)
        assert err.exit_code == 5 and err.residual == pytest.approx(0.25)
        assert "13 midpoints" in str(err)
        assert len(rhos) == 15 and rhos[:2] == [1.0, 5.0]
        assert max(r for r in rhos if r < 2.2) > 2.2 - 4 / 2**13

    def test_a_linear_response_returns_the_bisection_rho(self, monkeypatch):
        fit, rhos = self.tune(
            monkeypatch, lambda rho: 0.3 + 0.1 * (rho - 1.0), 0.61)
        assert fit.rho == 4.125
        assert rhos == [1.0, 5.0, 3.0, 4.0, 4.5, 4.25, 4.125]
        assert fit.trace.rho_sequence is rhos
        assert fit.rewards[0] == pytest.approx(0.6125)

    def test_a_target_met_at_rho_max_stops_there(self, monkeypatch):
        fit, rhos = self.tune(
            monkeypatch, lambda rho: 0.3 + 0.1 * (rho - 1.0), 0.698)
        assert fit.rho == 5.0 and rhos == [1.0, 5.0]

    def test_a_rho_max_of_one_fits_once(self, monkeypatch):
        err, rhos = self.tune(monkeypatch, lambda rho: 0.3, 0.6, rho_max=1.0)
        assert isinstance(err, UnreachableTargetError)
        assert "irreducible" in str(err) and rhos == [1.0]
