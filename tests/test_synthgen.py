"""Synthetic data generating process: determinism, confounding, oracles."""

import numpy as np
import pytest
import yaml
from scipy import stats as sps

from trialemu.cohort import save_cohort
from trialemu.errors import ConfigError
from trialemu.synthgen import (
    CovariateSpec,
    DGPConfig,
    SubgroupRule,
    _standardized_risk_score,
    generate_observational,
    generate_rct_target,
    load_dgp_config,
    save_ground_truth,
    true_event_free_at_horizon,
)

from conftest import cohort_columns

COVARIATES = (
    CovariateSpec("flag", "binary", p=0.4, hazard_coef=0.3),
    CovariateSpec("level", "continuous", mean=10.0, sd=3.0, hazard_coef=-0.25),
)


def make_config(**overrides):
    base = dict(n_obs=800, n_rct=1200, covariates=COVARIATES,
                base_hazard=0.012, seed=5)
    base.update(overrides)
    return DGPConfig(**base)


def test_determinism_per_seed():
    cfg = make_config(gamma_u=0.5, gamma_x=0.6)
    a, truth_a = generate_observational(cfg)
    b, truth_b = generate_observational(cfg)
    assert cohort_columns(a) == cohort_columns(b)
    np.testing.assert_array_equal(truth_a.u, truth_b.u)
    c, _ = generate_observational(make_config(gamma_u=0.5, gamma_x=0.6, seed=6))
    assert cohort_columns(c) != cohort_columns(a)


def test_null_confounding_balances_risk_scores():
    # gamma_u = gamma_x = 0: treatment ignores risk entirely, so treated and
    # untreated risk-score distributions are KS-indistinguishable
    cfg = make_config(n_obs=2000, gamma_u=0.0, gamma_x=0.0)
    cohort, _ = generate_observational(cfg)
    scores = _standardized_risk_score(cfg, cohort.covariate_matrix())
    treated = cohort.treatments()
    p = sps.ks_2samp(scores[treated == 1], scores[treated == 0]).pvalue
    assert p > 0.01


def test_confounding_skews_treatment_toward_risk():
    cfg = make_config(n_obs=2000, gamma_x=1.0)
    cohort, _ = generate_observational(cfg)
    scores = _standardized_risk_score(cfg, cohort.covariate_matrix())
    treated = cohort.treatments()
    assert scores[treated == 1].mean() > scores[treated == 0].mean() + 0.1


def test_sidecar_never_leaks_into_cohort_export(tmp_path):
    cohort, truth = generate_observational(make_config(gamma_u=0.8))
    save_cohort(cohort, tmp_path / "cohort.csv")
    header = (tmp_path / "cohort.csv").read_text().splitlines()[0]
    assert header == "id,treatment,event,time,flag,level"
    save_ground_truth(truth, tmp_path / "truth.csv")
    sidecar = (tmp_path / "truth.csv").read_text().splitlines()
    assert sidecar[0] == "id,u,true_effect_multiplier"
    assert len(sidecar) == len(cohort) + 1


def test_closed_form_matches_monte_carlo():
    # no covariates, no unobserved effect, no censoring: every patient has
    # hazard = base_hazard, so the empirical event-free rate at the horizon
    # must approach exp(-base_hazard * horizon)
    cfg = DGPConfig(n_obs=4000, n_rct=10, covariates=(), base_hazard=0.012,
                    censoring_hazard=0.0, seed=2)
    cohort, truth = generate_observational(cfg)
    X = cohort.covariate_matrix()
    closed = true_event_free_at_horizon(cfg, X, np.zeros(len(cohort)), False)
    expected = np.exp(-0.012 * 60.0)
    np.testing.assert_allclose(closed, expected, atol=1e-15)
    empirical = np.mean(cohort.times() > 60.0)
    assert empirical == pytest.approx(expected, abs=0.02)


def test_subgroup_multiplier_applies_inside_only():
    cfg = make_config(
        treatment_multiplier=1.0,
        subgroup=SubgroupRule("level", 10.0, "<", 0.4))
    cohort, truth = generate_observational(cfg)
    X = cohort.covariate_matrix()
    inside = X[:, 1] < 10.0
    np.testing.assert_array_equal(truth.true_multiplier[inside], 0.4)
    np.testing.assert_array_equal(truth.true_multiplier[~inside], 1.0)
    s_in = true_event_free_at_horizon(cfg, X, np.zeros(len(cohort)), True)
    s_out = true_event_free_at_horizon(cfg, X, np.zeros(len(cohort)), False)
    assert np.all(s_in[inside] > s_out[inside])  # treatment helps inside
    np.testing.assert_allclose(s_in[~inside], s_out[~inside])


def test_null_effect_rct_targets_nearly_equal():
    cfg = make_config(n_rct=6000, treatment_multiplier=1.0)
    target, rct = generate_rct_target(cfg)
    assert abs(target.mu1 - target.mu0) < 0.04
    assert len(rct) == 6000
    # covariate targets are per-arm empirical means
    arm0 = rct.covariate_matrix()[rct.treatments() == 0, 0].mean()
    assert target.covariate_targets["flag"][0] == pytest.approx(arm0)


def test_effective_treatment_separates_rct_arms():
    cfg = make_config(n_rct=6000, treatment_multiplier=0.5)
    target, _ = generate_rct_target(cfg)
    assert target.mu1 > target.mu0 + 0.05


def test_dgp_yaml_round_trip(tmp_path):
    doc = {
        "n_obs": 300, "n_rct": 400, "seed": 9, "gamma_u": 0.4,
        "gamma_x": 0.7, "base_hazard": 0.02, "treatment_multiplier": 0.7,
        "censoring_hazard": 0.004, "horizon_months": 48.0,
        "covariates": [
            {"name": "flag", "kind": "binary", "p": 0.4, "hazard_coef": 0.3},
            {"name": "level", "kind": "continuous", "mean": 10.0, "sd": 3.0},
        ],
        "subgroup": {"covariate": "level", "threshold": 10.0,
                     "side": "<", "multiplier": 0.4},
    }
    path = tmp_path / "dgp.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg = load_dgp_config(path)
    assert cfg.n_obs == 300 and cfg.horizon_months == 48.0
    assert cfg.subgroup == SubgroupRule("level", 10.0, "<", 0.4)
    assert cfg.covariates[1].sd == 3.0


def test_config_validation_errors(tmp_path):
    path = tmp_path / "dgp.yaml"
    path.write_text(yaml.safe_dump({"n_rct": 100}))
    with pytest.raises(ConfigError, match="n_obs"):
        load_dgp_config(path)
    with pytest.raises(ConfigError):
        make_config(base_hazard=0.0)
    with pytest.raises(ConfigError):
        make_config(subgroup=SubgroupRule("nope", 1.0, "<", 0.5))
    with pytest.raises(ConfigError):
        SubgroupRule("level", 1.0, "between", 0.5)
    with pytest.raises(ConfigError):
        CovariateSpec("bad", "categorical")
