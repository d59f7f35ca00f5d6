"""Per-arm counterfactual outcome models with cost-sensitive weight tuning.

One event-free-probability model is fit per treatment arm of the matched
cohort. A weight rho >= 1 amplifies the loss of event-free patients in
that arm, pushing the arm's mean predicted event-free rate upward; tuning
picks the rho that aligns the mean with the trial target, absorbing
residual (unobserved) confounding.
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
    hbar0: float
    hbar1: float


@dataclass(frozen=True)
class RewardMatrix:
    ids: tuple[str, ...]
    rewards: np.ndarray  # n x 2: column 0 = reward under control, 1 = treatment
    horizon: float
    model_digests: tuple[str, str] = ("", "")

    def __post_init__(self):
        r = np.asarray(self.rewards, dtype=float)
        if r.ndim != 2 or r.shape[1] != 2 or r.shape[0] != len(self.ids):
            raise ConfigError("rewards must be an n x 2 matrix matching ids")
        if np.any((r < 0) | (r > 1)):
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


def _fit_arm(matched: Cohort, arm: int, horizon: float,
             config: learner.LearnerConfig, rho: float) -> learner.FittedEnsemble:
    if rho < 1.0:
        raise ConfigError("rho must be >= 1 (weights only amplify event-free outcomes)")
    X, y = _arm_training_data(matched, arm, horizon)
    weights = np.where(y == 1, rho, 1.0)
    if np.unique(y).size < 2:
        warnings.warn(f"arm {arm}: single-class outcome; constant-model fallback")
        return learner.fit(X, y, weights, config, on_single_class="constant")
    return learner.fit(X, y, weights, config)


def fit_counterfactuals(matched: Cohort, horizon: float,
                        config: learner.LearnerConfig,
                        rho0: float = 1.0, rho1: float = 1.0) -> RewardPair:
    """Fit both arm models and average their predictions over the full
    matched cohort (both arms)."""
    model0 = _fit_arm(matched, 0, horizon, config, rho0)
    model1 = _fit_arm(matched, 1, horizon, config, rho1)
    X_all = matched.covariate_matrix()
    hbar0 = float(learner.predict_prob(model0, X_all).mean())
    hbar1 = float(learner.predict_prob(model1, X_all).mean())
    return RewardPair(model0, model1, rho0, rho1, hbar0, hbar1)


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
                trace: TuningTrace | None = None) -> float:
    """Smallest explored rho whose arm mean estimate is within tol of the
    target. Bisection assumes the mean responds monotonically to rho; a
    detected violation falls back to a grid search over [1, rho_max]."""
    if not 0.0 <= target_mu <= 1.0:
        raise ConfigError("target must be a probability")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    if trace is None:
        trace = TuningTrace([], [], [])
    X_all = matched.covariate_matrix()

    evaluated: dict[float, float] = {}

    def hbar(rho: float) -> float:
        if rho not in evaluated:
            model = _fit_arm(matched, arm, horizon, config, rho)
            evaluated[rho] = float(learner.predict_prob(model, X_all).mean())
            trace.record(rho, evaluated[rho], target_mu)
        return evaluated[rho]

    def monotone_violated() -> bool:
        pts = sorted(evaluated.items())
        return any(pts[i][1] > pts[i + 1][1] + 1e-9 for i in range(len(pts) - 1))

    def smallest_in_tol():
        ok = [r for r, h in evaluated.items() if abs(h - target_mu) <= tol]
        return min(ok) if ok else None

    h1 = hbar(1.0)
    if h1 >= target_mu - tol:
        # never down-weight below 1, even when already above the target
        return 1.0
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
            return found
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
        return found

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
    return best_rho


def reward_matrix(pair: RewardPair, matched: Cohort, horizon: float) -> RewardMatrix:
    X = matched.covariate_matrix()
    r0 = learner.predict_prob(pair.model0, X)
    r1 = learner.predict_prob(pair.model1, X)
    return RewardMatrix(
        ids=tuple(matched.ids),
        rewards=np.column_stack([r0, r1]),
        horizon=horizon,
        model_digests=(pair.model0.weight_digest, pair.model1.weight_digest),
    )


def constrain_rewards(matrix: RewardMatrix, factor: float,
                      direction: str = "favor-treatment") -> RewardMatrix:
    """Scale down the dispreferred arm's reward in rows preferring it.

    favor-treatment: rows with r0 > r1 get r0 <- factor * r1.
    favor-control:   rows with r1 > r0 get r1 <- factor * r0.
    """
    if not 0.0 < factor <= 1.0:
        raise ConfigError("factor must lie in (0, 1]")
    if direction not in ("favor-treatment", "favor-control"):
        raise ConfigError(f"unknown direction {direction!r}")
    r = matrix.rewards.copy()
    if direction == "favor-treatment":
        mask = r[:, 0] > r[:, 1]
        r[mask, 0] = factor * r[mask, 1]
    else:
        mask = r[:, 1] > r[:, 0]
        r[mask, 1] = factor * r[mask, 0]
    return RewardMatrix(matrix.ids, r, matrix.horizon, matrix.model_digests)
