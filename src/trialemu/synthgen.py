"""Synthetic ground-truth generator.

Simulates an observational cohort with observed prognostic covariates, a
single standard-normal unobserved confounder driving both treatment
assignment and hazard, exponential event times with multiplicative
hazards, independent censoring, and an optional planted subgroup whose
treatment effect differs from the rest. A parallel randomized cohort from
the same process yields the trial targets used downstream, so every
pipeline claim can be checked against known truth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import yaml

from .cohort import Cohort, CovariateSchema, TrialTarget
from .errors import ConfigError
from .survival_stats import km_curve


@dataclass(frozen=True)
class CovariateSpec:
    name: str
    kind: str  # "binary" | "continuous"
    p: float = 0.5          # binary success probability
    mean: float = 0.0       # continuous location
    sd: float = 1.0         # continuous scale
    hazard_coef: float = 0.0  # effect on log-hazard per standardized unit

    def __post_init__(self):
        if self.kind not in ("binary", "continuous"):
            raise ConfigError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "binary" and not 0.0 <= self.p <= 1.0:
            raise ConfigError("binary covariate p must be a probability")
        if self.kind == "continuous" and self.sd <= 0:
            raise ConfigError("continuous covariate sd must be positive")


@dataclass(frozen=True)
class SubgroupRule:
    """Patients with covariate <side> threshold get their own multiplier."""

    covariate: str
    threshold: float
    side: str  # "<" | ">="
    multiplier: float

    def __post_init__(self):
        if self.side not in ("<", ">="):
            raise ConfigError("subgroup side must be '<' or '>='")
        if self.multiplier <= 0:
            raise ConfigError("subgroup multiplier must be positive")


@dataclass(frozen=True)
class DGPConfig:
    n_obs: int = 1000
    n_rct: int = 2000
    covariates: tuple[CovariateSpec, ...] = ()
    gamma_u: float = 0.0  # unobserved confounder strength
    gamma_x: float = 0.0  # observed confounding strength (risk -> treatment)
    base_hazard: float = 0.015  # events per month at covariate means
    treatment_multiplier: float = 1.0  # hazard multiplier under treatment
    subgroup: SubgroupRule | None = None
    treatment_log_odds: float = 0.0  # treated-fraction intercept
    censoring_hazard: float = 0.003
    max_followup_months: float = 120.0
    horizon_months: float = 60.0
    seed: int = 0
    tolerance_outcome: float = 0.02
    tolerance_covariate: float = 0.03

    def __post_init__(self):
        if self.n_obs < 1 or self.n_rct < 1:
            raise ConfigError("cohort sizes must be >= 1")
        if self.base_hazard <= 0 or self.treatment_multiplier <= 0:
            raise ConfigError("hazards and multipliers must be positive")
        if self.gamma_u < 0:
            raise ConfigError("gamma_u must be >= 0")
        if self.censoring_hazard < 0 or self.max_followup_months <= 0:
            raise ConfigError("invalid censoring settings")
        if self.horizon_months <= 0:
            raise ConfigError("horizon must be positive")
        if self.subgroup is not None:
            names = [c.name for c in self.covariates]
            if self.subgroup.covariate not in names:
                raise ConfigError(
                    f"subgroup covariate {self.subgroup.covariate!r} unknown")

    def schema(self) -> CovariateSchema:
        return CovariateSchema(
            names=tuple(c.name for c in self.covariates),
            kinds=tuple(c.kind for c in self.covariates),
            units=tuple("" for _ in self.covariates),
        )


@dataclass(frozen=True)
class GroundTruth:
    """Sealed sidecar: the unobserved confounder and true effect multiplier
    per patient. Never part of any cohort export."""

    ids: tuple[str, ...]
    u: np.ndarray
    true_multiplier: np.ndarray


def _standardized_risk_score(config: DGPConfig, X: np.ndarray) -> np.ndarray:
    """Linear log-hazard score from standardized covariates."""
    s = np.zeros(X.shape[0])
    for j, spec in enumerate(config.covariates):
        if spec.hazard_coef == 0.0:
            continue
        if spec.kind == "binary":
            mu, sd = spec.p, max(np.sqrt(spec.p * (1 - spec.p)), 1e-12)
        else:
            mu, sd = spec.mean, spec.sd
        s += spec.hazard_coef * (X[:, j] - mu) / sd
    return s


def _effect_multiplier(config: DGPConfig, X: np.ndarray) -> np.ndarray:
    m = np.full(X.shape[0], config.treatment_multiplier)
    if config.subgroup is not None:
        j = [c.name for c in config.covariates].index(config.subgroup.covariate)
        if config.subgroup.side == "<":
            inside = X[:, j] < config.subgroup.threshold
        else:
            inside = X[:, j] >= config.subgroup.threshold
        m[inside] = config.subgroup.multiplier
    return m


def _draw_covariates(config: DGPConfig, rng, n: int) -> np.ndarray:
    cols = []
    for spec in config.covariates:
        if spec.kind == "binary":
            cols.append((rng.random(n) < spec.p).astype(float))
        else:
            cols.append(spec.mean + spec.sd * rng.standard_normal(n))
    return np.column_stack(cols) if cols else np.empty((n, 0))


def _simulate(config: DGPConfig, rng, n: int, randomized: bool, id_prefix: str):
    X = _draw_covariates(config, rng, n)
    u = rng.standard_normal(n)
    score = _standardized_risk_score(config, X)

    if randomized:
        treated = (rng.random(n) < 0.5).astype(int)
    else:
        logits = config.treatment_log_odds + config.gamma_x * score \
            + config.gamma_u * u
        treated = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)

    mult = _effect_multiplier(config, X)
    hazard = config.base_hazard * np.exp(score + config.gamma_u * u)
    hazard = hazard * np.where(treated == 1, mult, 1.0)

    event_time = rng.exponential(1.0 / hazard)
    if config.censoring_hazard > 0:
        censor_time = rng.exponential(1.0 / config.censoring_hazard, size=n)
    else:
        censor_time = np.full(n, np.inf)
    censor_time = np.minimum(censor_time, config.max_followup_months)

    time = np.minimum(event_time, censor_time)
    event = (event_time <= censor_time).astype(int)

    ids = tuple(f"{id_prefix}{i:05d}" for i in range(n))
    cohort = Cohort(config.schema(), ids, X, treated, event, time)
    truth = GroundTruth(ids=ids, u=u, true_multiplier=mult)
    return cohort, truth


def generate_observational(config: DGPConfig):
    """Confounded observational cohort plus its sealed ground-truth sidecar."""
    rng = np.random.default_rng([config.seed, 0])
    return _simulate(config, rng, config.n_obs, randomized=False, id_prefix="obs")


def generate_rct_target(config: DGPConfig):
    """Simulated randomized cohort from the same process, plus the
    TrialTarget its Kaplan-Meier horizon rates and covariate means define."""
    rng = np.random.default_rng([config.seed, 1])
    cohort, _truth = _simulate(config, rng, config.n_rct, randomized=True,
                               id_prefix="rct")
    times = cohort.times()
    events = cohort.events()
    treated = cohort.treatments()
    X = cohort.covariate_matrix()

    mus = []
    for arm in (0, 1):
        mask = treated == arm
        curve = km_curve(times[mask], events[mask])
        mus.append(curve.survival_at(config.horizon_months))

    covariate_targets = {}
    for j, spec in enumerate(config.covariates):
        covariate_targets[spec.name] = (
            float(X[treated == 0, j].mean()),
            float(X[treated == 1, j].mean()),
        )

    target = TrialTarget(
        horizon_months=config.horizon_months,
        mu0=mus[0],
        mu1=mus[1],
        covariate_targets=covariate_targets,
        tolerance_outcome=config.tolerance_outcome,
        tolerance_covariate=config.tolerance_covariate,
    )
    return target, cohort


def load_dgp_config(path) -> DGPConfig:
    """Read a generator config from its YAML description."""
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    covariates = []
    for entry in raw.get("covariates") or []:
        covariates.append(CovariateSpec(
            name=entry["name"],
            kind=entry["kind"],
            p=float(entry.get("p", 0.5)),
            mean=float(entry.get("mean", 0.0)),
            sd=float(entry.get("sd", 1.0)),
            hazard_coef=float(entry.get("hazard_coef", 0.0)),
        ))
    subgroup = None
    if raw.get("subgroup"):
        sg = raw["subgroup"]
        subgroup = SubgroupRule(
            covariate=sg["covariate"],
            threshold=float(sg["threshold"]),
            side=sg["side"],
            multiplier=float(sg["multiplier"]),
        )
    try:
        return DGPConfig(
            n_obs=int(raw["n_obs"]),
            n_rct=int(raw["n_rct"]),
            covariates=tuple(covariates),
            gamma_u=float(raw.get("gamma_u", 0.0)),
            gamma_x=float(raw.get("gamma_x", 0.0)),
            base_hazard=float(raw.get("base_hazard", 0.015)),
            treatment_multiplier=float(raw.get("treatment_multiplier", 1.0)),
            subgroup=subgroup,
            treatment_log_odds=float(raw.get("treatment_log_odds", 0.0)),
            censoring_hazard=float(raw.get("censoring_hazard", 0.003)),
            max_followup_months=float(raw.get("max_followup_months", 120.0)),
            horizon_months=float(raw.get("horizon_months", 60.0)),
            seed=int(raw.get("seed", 0)),
            tolerance_outcome=float(raw.get("tolerance_outcome", 0.02)),
            tolerance_covariate=float(raw.get("tolerance_covariate", 0.03)),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing required key {exc}") from None


def save_ground_truth(truth: GroundTruth, path) -> None:
    """Write the sealed sidecar CSV (id, u, true effect multiplier)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "u", "true_effect_multiplier"])
        for pid, u, m in zip(truth.ids, truth.u, truth.true_multiplier):
            writer.writerow([pid, repr(float(u)), repr(float(m))])


def true_event_free_at_horizon(config: DGPConfig, X: np.ndarray, u: np.ndarray,
                               treated: bool) -> np.ndarray:
    """Closed-form horizon event-free probability, for oracle checks."""
    score = _standardized_risk_score(config, X)
    hazard = config.base_hazard * np.exp(score + config.gamma_u * u)
    if treated:
        hazard = hazard * _effect_multiplier(config, X)
    return np.exp(-hazard * config.horizon_months)
