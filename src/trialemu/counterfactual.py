"""Per-arm counterfactual outcome models with cost-sensitive weight tuning.

One event-free-probability model is fit per treatment arm of the matched
cohort. A weight rho >= 1 amplifies the loss of event-free patients in
that arm, pushing the arm's mean predicted event-free rate upward; tuning
bisects rho until the mean aligns with the trial target, absorbing
residual (unobserved) confounding. A target the bisection cannot reach
(beyond rho_max, or across a non-monotone or jumping response) raises
``UnreachableTargetError``. Each fit is predicted once, over the
whole matched cohort; those predictions are the arm's reward column.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import learner
from .cohort import Cohort, binarize_at_horizon
from .errors import (
    ConfigError,
    InsufficientDataError,
    InvalidRewardsError,
    SchemaError,
    UnreachableTargetError,
)

RHO_TOL_DEFAULT = 0.005
RHO_MAX_DEFAULT = 5.0
MAX_MIDPOINTS = 13  # after the fits at 1 and rho_max: at most 15 fits per arm


@dataclass(frozen=True)
class RewardMatrix:
    ids: tuple[str, ...]
    rewards: np.ndarray  # n x 2: column 0 = reward under control, 1 = treatment

    def __post_init__(self):
        r = np.asarray(self.rewards, dtype=float)
        if r.ndim != 2 or r.shape[1] != 2 or r.shape[0] != len(self.ids):
            raise SchemaError("rewards must be an n x 2 matrix matching ids")
        if not np.all((r >= 0) & (r <= 1)):
            raise InvalidRewardsError("reward entries must lie in [0, 1]")


@dataclass
class TuningTrace:
    rho_sequence: list
    hbar_sequence: list
    residuals: list
    method: str = "bisection"  # the only method; tune.json still records it

    def record(self, rho, hbar, target):
        self.rho_sequence.append(float(rho))
        self.hbar_sequence.append(float(hbar))
        self.residuals.append(float(hbar - target))


@dataclass(frozen=True)
class ArmFit:
    """One arm's model at weight rho and its predictions over the whole
    matched cohort, which are the arm's reward column."""

    rho: float
    model: learner.FittedEnsemble
    rewards: np.ndarray
    trace: TuningTrace | None = None  # the bisection's, for a tuned arm

    @property
    def hbar(self) -> float:
        return float(self.rewards.mean())


def fit_arm(matched: Cohort, arm: int, horizon: float,
            config: learner.LearnerConfig, rho: float = 1.0) -> ArmFit:
    """Fit one arm's model at weight rho on the arm's patients whose status
    at the horizon is known, and predict it over the whole matched cohort."""
    if rho < 1.0:
        raise ConfigError("rho must be >= 1 (weights only amplify event-free outcomes)")
    arm_cohort = matched.take(matched.treatments() == arm)
    if len(arm_cohort) == 0:
        raise InsufficientDataError(f"matched cohort has no arm-{arm} patients")
    known, labels = binarize_at_horizon(arm_cohort, horizon)
    if labels.size == 0:
        raise InsufficientDataError(
            f"arm {arm}: no patients with determinable horizon label")
    y = 1 - labels  # the model's label is event-free through the horizon
    if np.unique(y).size < 2:
        warnings.warn(f"arm {arm}: single-class outcome; constant-model fallback")
    model = learner.fit(arm_cohort.take(known).covariate_matrix(), y,
                        np.where(y == 1, rho, 1.0), config, on_single_class="constant")
    return ArmFit(rho, model, learner.predict_prob(model, matched.covariate_matrix()))


def fit_counterfactuals(matched: Cohort, horizon: float, config: learner.LearnerConfig,
                        targets=(None, None), tol: float = RHO_TOL_DEFAULT,
                        rho_max: float = RHO_MAX_DEFAULT) -> tuple[ArmFit, ...]:
    """Each arm's fit, control first. An arm whose target mean is given is
    tuned to it by ``tune_weight``; an arm whose target is None is fit at
    rho = 1."""
    return tuple(
        fit_arm(matched, arm, horizon, config) if mu is None
        else tune_weight(matched, arm, mu, horizon, config, tol=tol, rho_max=rho_max)
        for arm, mu in enumerate(targets))


def tune_weight(matched: Cohort, arm: int, target_mu: float,
                horizon: float, config: learner.LearnerConfig,
                tol: float = RHO_TOL_DEFAULT, rho_max: float = RHO_MAX_DEFAULT,
                trace: TuningTrace | None = None) -> ArmFit:
    """Bisect rho over [1, rho_max] until the arm's mean estimate is within
    tol of the target, and return the fit made at that rho, with the trace.

    The search fits at rho = 1, then at rho_max, then at up to
    MAX_MIDPOINTS midpoints of the bracket, and stops at the first fit
    within tol. A mean already at or above the target at rho = 1 returns the
    fit at 1: rho never down-weights. It raises ``UnreachableTargetError`` when
    rho_max leaves the mean below the target, when a midpoint's mean falls
    outside its bracket's means (the response is not monotone in rho), and
    when no midpoint lands within tol (the response jumps over the band).
    Only the latest fit is held meanwhile."""
    if not 0.0 <= target_mu <= 1.0:
        raise ConfigError("target must be a probability")
    check_tuning(tol, rho_max)
    if trace is None:
        trace = TuningTrace([], [], [])
    fit = None  # the latest ArmFit

    def mean_at(rho: float) -> float:
        nonlocal fit
        fit = None  # drop the previous fit before making the next
        fit = fit_arm(matched, arm, horizon, config, rho)
        trace.record(rho, fit.hbar, target_mu)
        return fit.hbar

    def unreachable(why: str) -> UnreachableTargetError:
        return UnreachableTargetError(
            f"arm {arm}: {why}",
            residual=min(abs(m - target_mu) for m in (h_lo, h, h_hi)))

    lo, h_lo = 1.0, mean_at(1.0)
    if h_lo >= target_mu - tol:
        # never down-weight below 1, even when already above the target
        return replace(fit, trace=trace)
    rho = hi = rho_max
    h = h_hi = mean_at(rho_max) if rho_max > 1.0 else h_lo  # 1 is fit already
    if h_hi < target_mu - tol:
        raise UnreachableTargetError(
            f"arm {arm}: even rho={rho_max} leaves the mean estimate "
            f"{target_mu - h_hi:.4f} below the target (irreducible gap)",
            residual=target_mu - h_hi)

    midpoints = 0
    while abs(h - target_mu) > tol:
        if midpoints == MAX_MIDPOINTS:
            raise unreachable(
                f"{MAX_MIDPOINTS} midpoints brought the mean estimate no "
                f"closer than {tol} to the target {target_mu}: it steps from "
                f"{h_lo:.4f} at rho={lo:.6g} to {h_hi:.4f} at rho={hi:.6g}")
        rho = (lo + hi) / 2.0
        h = mean_at(rho)
        midpoints += 1
        if h_lo > h + 1e-9 or h > h_hi + 1e-9:
            raise unreachable(
                f"the mean estimate is not monotone in rho: {h:.4f} at "
                f"rho={rho:.6g} lies outside {h_lo:.4f} at rho={lo:.6g} and "
                f"{h_hi:.4f} at rho={hi:.6g}")
        if h < target_mu - tol:
            lo, h_lo = rho, h
        else:
            hi, h_hi = rho, h
    return replace(fit, trace=trace)


def reward_matrix(fits: tuple[ArmFit, ArmFit], matched: Cohort) -> RewardMatrix:
    """The two arms' reward columns, control first, keyed by the ids of the
    matched cohort they were predicted over."""
    return RewardMatrix(tuple(matched.ids),
                        np.column_stack([fit.rewards for fit in fits]))


def check_tuning(tol: float, rho_max: float) -> None:
    """Reject a tolerance that is not positive (NaN included) and a weight
    ceiling that is below 1 or not finite."""
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if not 1.0 <= rho_max < math.inf:
        raise ConfigError(f"rho_max must be finite and >= 1, got {rho_max}")


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
    return RewardMatrix(matrix.ids, r)
