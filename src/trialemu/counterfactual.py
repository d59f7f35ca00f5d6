"""Per-arm counterfactual outcome models with cost-sensitive weight tuning.

One event-free-probability model is fit per treatment arm of the matched
cohort. A weight rho >= 1 amplifies the loss of event-free patients in
that arm, pushing the arm's mean predicted event-free rate upward; tuning
picks the rho that aligns the mean with the trial target, absorbing
residual (unobserved) confounding. Each fit is predicted once, over the
whole matched cohort; those predictions are the arm's reward column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import learner
from .cohort import Cohort, binarize_at_horizon
from .errors import ConfigError, InsufficientDataError, UnreachableTargetError

RHO_TOL_DEFAULT = 0.005
RHO_MAX_DEFAULT = 5.0
GRID_STEP = 0.05


@dataclass(frozen=True)
class RewardPair:
    model0: learner.FittedEnsemble
    model1: learner.FittedEnsemble
    rho0: float
    rho1: float
    rewards: np.ndarray  # n x 2: each model's predictions over the matched cohort
    hbar0 = property(lambda self: float(self.rewards[:, 0].mean()))
    hbar1 = property(lambda self: float(self.rewards[:, 1].mean()))


@dataclass(frozen=True)
class RewardMatrix:
    ids: tuple[str, ...]
    rewards: np.ndarray  # n x 2: column 0 = reward under control, 1 = treatment
    horizon: float

    def __post_init__(self):
        r = np.asarray(self.rewards, dtype=float)
        if r.ndim != 2 or r.shape[1] != 2 or r.shape[0] != len(self.ids):
            raise ConfigError("rewards must be an n x 2 matrix matching ids")
        if not np.all((r >= 0) & (r <= 1)):
            raise ConfigError("reward entries must lie in [0, 1]")

    def column_means(self):
        return float(self.rewards[:, 0].mean()), float(self.rewards[:, 1].mean())


def _arm_training_data(matched: Cohort, arm: int, horizon: float):
    """Event-free labels and features for one arm of the matched cohort."""
    arm_cohort = matched.take(matched.treatments() == arm)
    if len(arm_cohort) == 0:
        raise InsufficientDataError(f"matched cohort has no arm-{arm} patients")
    hl = binarize_at_horizon(arm_cohort, horizon)
    if len(hl.ids) == 0:
        raise InsufficientDataError(
            f"arm {arm}: no patients with determinable horizon label")
    X = arm_cohort.subset(hl.ids).covariate_matrix()
    # model target is event-free at horizon, so invert the event label
    y = 1 - hl.labels
    return X, y


def _fit_and_predict(matched: Cohort, arm: int, horizon: float,
                     config: learner.LearnerConfig, rho: float):
    """One arm's model at weight rho, and its predictions over the whole
    matched cohort."""
    if rho < 1.0:
        raise ConfigError("rho must be >= 1 (weights only amplify event-free outcomes)")
    X, y = _arm_training_data(matched, arm, horizon)
    weights = np.where(y == 1, rho, 1.0)
    if np.unique(y).size < 2:
        warnings.warn(f"arm {arm}: single-class outcome; constant-model fallback")
    model = learner.fit(X, y, weights, config, on_single_class="constant")
    return model, learner.predict_prob(model, matched.covariate_matrix())


def fit_counterfactuals(matched: Cohort, horizon: float,
                        config: learner.LearnerConfig,
                        rho0: float = 1.0, rho1: float = 1.0,
                        models: dict | None = None) -> RewardPair:
    """Fit both arm models and predict each over the full matched cohort
    (both arms). ``models`` maps (arm, rho) to the (model, predictions)
    that ``tune_weight`` already made on the same inputs; those are reused."""
    models = models or {}
    (model0, r0), (model1, r1) = (
        models.get((arm, rho)) or _fit_and_predict(matched, arm, horizon, config, rho)
        for arm, rho in ((0, rho0), (1, rho1)))
    return RewardPair(model0, model1, rho0, rho1, np.column_stack([r0, r1]))


@dataclass
class TuningTrace:
    rho_sequence: list
    hbar_sequence: list
    residuals: list
    method: str = "bisection"

    def record(self, rho, hbar, target):
        self.rho_sequence.append(float(rho))
        self.hbar_sequence.append(float(hbar))
        self.residuals.append(float(hbar - target))


def tune_weight(matched: Cohort, arm: int, target_mu: float,
                horizon: float, config: learner.LearnerConfig,
                tol: float = RHO_TOL_DEFAULT, rho_max: float = RHO_MAX_DEFAULT,
                trace: TuningTrace | None = None,
                models: dict | None = None) -> float:
    """Smallest explored rho whose arm mean estimate is within tol of the
    target. Bisection assumes the mean responds monotonically to rho; a
    detected violation falls back to a grid search over [1, rho_max].

    If ``models`` is given, the (model, predictions) pair fit at the
    returned rho is stored in it under (arm, rho), so that
    ``fit_counterfactuals`` need neither refit nor repredict it. Only the
    fit nearest the target is held meanwhile; that is the one returned
    except, at times, after a grid fallback."""
    if not 0.0 <= target_mu <= 1.0:
        raise ConfigError("target must be a probability")
    check_tuning(tol, rho_max)
    if trace is None:
        trace = TuningTrace([], [], [])

    evaluated: dict[float, float] = {}
    kept = {}  # the (model, predictions) nearest the target so far, by rho

    def hbar(rho: float) -> float:
        if rho not in evaluated:
            fit = _fit_and_predict(matched, arm, horizon, config, rho)
            evaluated[rho] = h = float(fit[1].mean())
            trace.record(rho, h, target_mu)
            if all(abs(h - target_mu) < abs(evaluated[r] - target_mu) for r in kept):
                kept.clear()
                kept[rho] = fit
        return evaluated[rho]

    def chosen(rho: float) -> float:
        if models is not None and rho in kept:
            models[arm, rho] = kept[rho]
        return rho

    def monotone_violated() -> bool:
        pts = sorted(evaluated.items())
        return any(pts[i][1] > pts[i + 1][1] + 1e-9 for i in range(len(pts) - 1))

    def smallest_in_tol():
        ok = [r for r, h in evaluated.items() if abs(h - target_mu) <= tol]
        return min(ok) if ok else None

    h1 = hbar(1.0)
    if h1 >= target_mu - tol:
        # never down-weight below 1, even when already above the target
        return chosen(1.0)
    h_max = hbar(rho_max)
    if h_max < target_mu - tol:
        raise UnreachableTargetError(
            f"arm {arm}: even rho={rho_max} leaves the mean estimate "
            f"{target_mu - h_max:.4f} below the target (irreducible gap)",
            residual=target_mu - h_max)

    lo, hi = 1.0, rho_max
    violated = False
    for _ in range(13):  # 13 midpoints + the two endpoint fits = 15 refits
        found = smallest_in_tol()
        if found is not None:
            return chosen(found)
        mid = (lo + hi) / 2.0
        h = hbar(mid)
        if monotone_violated():
            violated = True
            break
        if h < target_mu - tol:
            lo = mid
        else:
            hi = mid
    found = smallest_in_tol()
    if found is not None and not violated:
        return chosen(found)

    if monotone_violated():
        warnings.warn(f"arm {arm}: non-monotone weight response; grid fallback")
    trace.method = "grid"
    best_rho, best_resid = None, np.inf
    rho = 1.0
    while rho <= rho_max + 1e-9:
        resid = abs(hbar(round(rho, 10)) - target_mu)
        if resid < best_resid:
            best_rho, best_resid = round(rho, 10), resid
        rho += GRID_STEP
    if best_resid > tol:
        raise UnreachableTargetError(
            f"arm {arm}: no rho in [1, {rho_max}] reaches the target within "
            f"{tol} (best residual {best_resid:.4f})", residual=best_resid)
    return chosen(best_rho)


def reward_matrix(pair: RewardPair, matched: Cohort, horizon: float) -> RewardMatrix:
    """The pair's reward columns, keyed by the ids of the matched cohort
    they were predicted over."""
    return RewardMatrix(tuple(matched.ids), pair.rewards, horizon)


def check_tuning(tol: float, rho_max: float) -> None:
    """Reject a nonpositive tolerance or a weight ceiling below 1."""
    if tol <= 0:
        raise ConfigError("tol must be positive")
    if rho_max < 1.0:
        raise ConfigError("rho_max must be >= 1")


def check_constraint(factor: float | None, direction: str) -> None:
    """Reject a factor outside (0, 1] or an unknown direction; a factor of
    None (no constraint) passes."""
    if factor is not None and not 0.0 < factor <= 1.0:
        raise ConfigError("factor must lie in (0, 1]")
    if direction not in ("favor-treatment", "favor-control"):
        raise ConfigError(f"unknown direction {direction!r}")


def constrain_rewards(matrix: RewardMatrix, factor: float,
                      direction: str = "favor-treatment") -> RewardMatrix:
    """Scale down the dispreferred arm's reward in rows preferring it.

    favor-treatment: rows with r0 > r1 get r0 <- factor * r1.
    favor-control:   rows with r1 > r0 get r1 <- factor * r0.
    """
    check_constraint(factor, direction)
    r = matrix.rewards.copy()
    if direction == "favor-treatment":
        mask = r[:, 0] > r[:, 1]
        r[mask, 0] = factor * r[mask, 1]
    else:
        mask = r[:, 1] > r[:, 0]
        r[mask, 1] = factor * r[mask, 0]
    return RewardMatrix(matrix.ids, r, matrix.horizon)
