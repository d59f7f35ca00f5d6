"""Shared fixtures: shipped synthetic corpora and finished pipeline runs.

The expensive end-to-end fixtures are session-scoped so the acceptance
tests can share one demo run and one heterogeneous-effect run.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from trialemu import pipeline, synthgen
from trialemu.cohort import save_cohort, save_trial_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _generate_corpus(dgp_yaml: Path, out: Path) -> Path:
    cfg = synthgen.load_dgp_config(dgp_yaml)
    cohort, truth = synthgen.generate_observational(cfg)
    target, rct = synthgen.generate_rct_target(cfg)
    save_cohort(cohort, out / "observational.csv")
    save_cohort(rct, out / "rct.csv")
    save_trial_config(target, [], out / "trial.yaml")
    synthgen.save_ground_truth(truth, out / "truth.csv")
    return out


def _rewrite_pipeline_yaml(src: Path, cohort: Path, trial: Path, dest: Path) -> Path:
    doc = yaml.safe_load(src.read_text(encoding="utf-8"))
    doc["cohort"] = str(cohort)
    doc["trial"] = str(trial)
    dest.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return dest


@pytest.fixture(scope="session")
def demo_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_data")
    return _generate_corpus(CONFIGS / "demo_dgp.yaml", out)


@pytest.fixture(scope="session")
def demo_run(demo_corpus, tmp_path_factory):
    """Finished demo pipeline run; returns (run dir, wall seconds)."""
    base = tmp_path_factory.mktemp("demo_run")
    cfg_file = _rewrite_pipeline_yaml(
        CONFIGS / "demo_pipeline.yaml",
        demo_corpus / "observational.csv",
        CONFIGS / "demo_trial.yaml",
        base / "pipeline.yaml",
    )
    cfg = pipeline.load_pipeline_config(cfg_file)
    start = time.monotonic()
    pipeline.run_pipeline(cfg, base / "out")
    return base / "out", time.monotonic() - start


@pytest.fixture(scope="session")
def hte_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("hte_data")
    return _generate_corpus(CONFIGS / "hte_dgp.yaml", out)


@pytest.fixture(scope="session")
def hte_pipeline_yaml(hte_corpus, tmp_path_factory):
    base = tmp_path_factory.mktemp("hte_cfg")
    return _rewrite_pipeline_yaml(
        CONFIGS / "hte_pipeline.yaml",
        hte_corpus / "observational.csv",
        hte_corpus / "trial.yaml",
        base / "pipeline.yaml",
    )


@pytest.fixture(scope="session")
def hte_run(hte_pipeline_yaml, tmp_path_factory):
    base = tmp_path_factory.mktemp("hte_run")
    cfg = pipeline.load_pipeline_config(hte_pipeline_yaml)
    pipeline.run_pipeline(cfg, base / "out")
    return base / "out"


MINI_DGP = synthgen.DGPConfig(
    n_obs=500, n_rct=1000, seed=11, gamma_u=0.3, gamma_x=0.5,
    base_hazard=0.012, treatment_multiplier=0.8, censoring_hazard=0.003,
    covariates=(
        synthgen.CovariateSpec("x1", "continuous", mean=0.0, sd=1.0,
                               hazard_coef=0.3),
        synthgen.CovariateSpec("flag", "binary", p=0.5, hazard_coef=0.2),
    ))


def mini_pipeline_doc(corpus: Path) -> dict:
    """Base pipeline YAML document for the small fast test corpus."""
    return {
        "cohort": str(corpus / "observational.csv"),
        "trial": str(corpus / "trial.yaml"),
        "seed": 3,
        "covariates": [{"name": "x1", "kind": "continuous"},
                       {"name": "flag", "kind": "binary"}],
        "learner": {"n_trees": 15, "max_depth": 3, "min_leaf": 10},
        "counterfactual_learner": {"n_trees": 10, "max_depth": 3,
                                   "min_leaf": 10, "feature_subsample": 1.0,
                                   "bootstrap": False},
        "buckets": [0.0, 0.5, 1.0],
        "quotas": "auto",
        "match": {"mode": "heuristic", "distance_covariates": ["x1"]},
        "tune": {"arms": []},
        "constrain": {"factor": 0.78},
        "tree": {"grid": [{"max_depth": 1}, {"max_depth": 2}],
                 "min_leaf": 15},
    }


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_data")
    cohort, truth = synthgen.generate_observational(MINI_DGP)
    target, rct = synthgen.generate_rct_target(MINI_DGP)
    save_cohort(cohort, out / "observational.csv")
    save_cohort(rct, out / "rct.csv")
    save_trial_config(target, [], out / "trial.yaml")
    synthgen.save_ground_truth(truth, out / "truth.csv")
    return out


@pytest.fixture(scope="session")
def mini_run(mini_corpus, tmp_path_factory):
    """Completed small run shared by read-only tests; (run dir, config path)."""
    base = tmp_path_factory.mktemp("mini_run")
    cfg_file = base / "pipeline.yaml"
    cfg_file.write_text(yaml.safe_dump(mini_pipeline_doc(mini_corpus),
                                       sort_keys=False), encoding="utf-8")
    cfg = pipeline.load_pipeline_config(cfg_file)
    pipeline.run_pipeline(cfg, base / "out")
    return base / "out", cfg_file


def read_csv_dicts(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def covariate_matrix(rows: list[dict], names) -> np.ndarray:
    return np.array([[float(r[n]) for n in names] for r in rows])


def cohort_columns(cohort) -> tuple:
    """A cohort's columns as plain lists, for equality checks."""
    return (cohort.ids, cohort.covariate_matrix().tolist(),
            cohort.treatments().tolist(), cohort.events().tolist(),
            cohort.times().tolist())
