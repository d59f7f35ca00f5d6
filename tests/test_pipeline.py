"""Staged pipeline orchestration: manifests, resume, tamper, report."""

import json
from pathlib import Path

import pytest
import yaml

from trialemu import pipeline
from trialemu.errors import (
    ArtifactError,
    ConfigError,
    SchemaError,
    TargetInfeasibleError,
    UnreachableTargetError,
)
from trialemu.policy_tree import PolicyTreeConfig

from conftest import mini_pipeline_doc, read_csv_dicts


def write_config(tmp_path, doc):
    path = tmp_path / "pipeline.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def load_config(tmp_path, doc):
    return pipeline.load_pipeline_config(write_config(tmp_path, doc))


def test_full_run_manifest_and_artifacts(mini_run):
    out, _cfg = mini_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["name"] for e in manifest["stages"]] == list(pipeline.STAGES)
    for entry in manifest["stages"]:
        for name, digest in entry["artifacts"].items():
            path = out / name
            assert path.exists(), name
            assert pipeline._sha256(path) == digest


def test_until_stops_after_stage(mini_corpus, tmp_path):
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    manifest = pipeline.run_pipeline(cfg, tmp_path / "run", until="match")
    assert [e["name"] for e in manifest["stages"]] == [
        "filter", "stratify", "match"]
    assert (tmp_path / "run" / "matches.csv").exists()
    assert not (tmp_path / "run" / "tree.json").exists()


def test_resume_reuses_intact_artifacts(mini_corpus, tmp_path):
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, until="match")
    stamp = (run / "risks.csv").stat().st_mtime_ns
    manifest = pipeline.run_pipeline(cfg, run)
    assert [e["name"] for e in manifest["stages"]] == list(pipeline.STAGES)
    assert (run / "risks.csv").stat().st_mtime_ns == stamp  # not rebuilt


def test_tampered_artifact_is_refused(mini_corpus, tmp_path):
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run)
    rewards = run / "rewards.csv"
    rewards.write_text(rewards.read_text() + "obs999,0.5,0.5\n")
    with pytest.raises(ArtifactError, match="rewards.csv"):
        pipeline.run_pipeline(cfg, run)


def test_config_change_invalidates_resume(mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    cfg = load_config(tmp_path, doc)
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, until="stratify")
    stamp = (run / "risks.csv").stat().st_mtime_ns
    doc["seed"] = 4
    cfg2 = load_config(tmp_path, doc)
    pipeline.run_pipeline(cfg2, run, until="stratify")
    assert (run / "risks.csv").stat().st_mtime_ns != stamp  # rebuilt


def test_changed_cohort_file_invalidates_resume(mini_corpus, tmp_path):
    cohort = tmp_path / "observational.csv"
    lines = (mini_corpus / "observational.csv").read_text().splitlines(keepends=True)
    cohort.write_text("".join(lines))
    doc = mini_pipeline_doc(mini_corpus)
    doc["cohort"] = str(cohort)
    cfg = load_config(tmp_path, doc)
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, until="filter")
    assert len(read_csv_dicts(run / "eligible.csv")) == 500
    cohort.write_text("".join(lines[:251]))  # header plus the first 250 rows
    pipeline.run_pipeline(cfg, run, until="filter")
    assert len(read_csv_dicts(run / "eligible.csv")) == 250


@pytest.mark.parametrize("key", ["cohort", "trial"])
def test_missing_input_file_is_config_error(mini_corpus, tmp_path, key):
    doc = mini_pipeline_doc(mini_corpus)
    doc[key] = str(tmp_path / "absent")
    cfg = load_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="absent"):
        pipeline.run_pipeline(cfg, tmp_path / "run")


def test_unknown_until_stage(mini_corpus, tmp_path):
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    with pytest.raises(ConfigError, match="unknown stage"):
        pipeline.run_pipeline(cfg, tmp_path / "run", until="polish")


def test_stage_errors_carry_stage_name(mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    doc["covariates"].append({"name": "ghost", "kind": "continuous"})
    cfg = load_config(tmp_path, doc)
    with pytest.raises(SchemaError) as err:
        pipeline.run_pipeline(cfg, tmp_path / "run")
    assert err.value.stage == "filter"


def test_infeasible_quotas(mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    doc["quotas"] = [400, 400]
    cfg = load_config(tmp_path, doc)
    with pytest.raises(TargetInfeasibleError) as err:
        pipeline.run_pipeline(cfg, tmp_path / "run")
    assert err.value.stage == "match"


def test_unreachable_tuning_target(mini_corpus, tmp_path):
    trial = yaml.safe_load((mini_corpus / "trial.yaml").read_text())
    trial["mu0"] = 0.99
    (tmp_path / "trial_high.yaml").write_text(yaml.safe_dump(trial))
    doc = mini_pipeline_doc(mini_corpus)
    doc["trial"] = str(tmp_path / "trial_high.yaml")
    doc["quotas"] = [20, 20]
    doc["tune"] = {"arms": [0], "rho_max": 1.05}
    cfg = load_config(tmp_path, doc)
    with pytest.raises(UnreachableTargetError) as err:
        pipeline.run_pipeline(cfg, tmp_path / "run")
    assert err.value.stage == "tune"
    assert err.value.residual > 0


def test_load_pipeline_config_missing_key(tmp_path):
    path = write_config(tmp_path, {"cohort": "c.csv"})
    with pytest.raises(ConfigError):
        pipeline.load_pipeline_config(path)


def test_omitted_keys_take_the_dataclass_defaults(mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    del doc["constrain"]
    doc["counterfactual_learner"] = {"n_trees": 3}
    cfg = load_config(tmp_path, doc)
    assert cfg.constrain == pipeline.ConstrainSection(factor=None)
    assert cfg.counterfactual_learner.n_trees == 3
    assert cfg.counterfactual_learner.bootstrap is False
    assert cfg.tree.configs()[0] == PolicyTreeConfig(max_depth=1, min_leaf=15)


@pytest.mark.parametrize("budget, exhausted", [(1, True), (10**6, False)])
def test_match_json_reports_the_move_budget(mini_corpus, tmp_path, budget,
                                            exhausted):
    doc = mini_pipeline_doc(mini_corpus)
    doc["match"]["move_budget"] = budget
    pipeline.run_pipeline(load_config(tmp_path, doc), tmp_path / "run",
                          until="match")
    match = json.loads((tmp_path / "run" / "match.json").read_text())
    assert match["budget_exhausted"] is exhausted
    assert 0 < match["evals"] <= budget + 1
    assert isinstance(match["restart"], int)


def test_report_bundle_contents(mini_run):
    out, _cfg = mini_run
    rep = pipeline.report(out)
    for name in ("achieved_vs_target.csv", "tuning_trace.csv", "tree.json",
                 "tree.txt", "logrank.csv", "balance.csv", "subgroups.csv"):
        assert (rep / name).exists(), name
    achieved = read_csv_dicts(rep / "achieved_vs_target.csv")
    by_metric = {r["metric"]: r for r in achieved}
    # numeric cells carry 4 decimal places
    assert len(by_metric["event_free_treated"]["achieved"].split(".")[1]) == 4
    tune = json.loads((out / "tune.json").read_text())
    target = tune["targets"]["mu0"]
    assert float(by_metric["event_free_treated"]["target"]) == pytest.approx(
        target, abs=5e-5)
    groups = {r["group"] for r in read_csv_dicts(rep / "logrank.csv")}
    assert groups == {"recommended", "advised_against"}


def test_report_requires_completed_stages(mini_corpus, tmp_path):
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, until="match")
    with pytest.raises(ArtifactError, match="tune"):
        pipeline.report(run)
    with pytest.raises(ArtifactError, match="manifest"):
        pipeline.report(tmp_path / "nowhere")


def test_balance_audit_skipped_without_clinical_fields(mini_run):
    out, _cfg = mini_run
    validation = json.loads((out / "validation.json").read_text())
    assert validation["balance"]["scores"] == {}
    assert "skipped" in validation["balance"]


def test_rewards_match_tune_hbar(mini_run):
    out, _cfg = mini_run
    rows = read_csv_dicts(out / "rewards.csv")
    tune = json.loads((out / "tune.json").read_text())
    mean0 = sum(float(r["reward_control"]) for r in rows) / len(rows)
    assert mean0 == pytest.approx(tune["hbar0"], abs=1e-12)


def test_matches_respect_buckets(mini_run):
    out, _cfg = mini_run
    stratify = json.loads((out / "stratify.json").read_text())
    quotas = stratify["quotas"]
    rows = read_csv_dicts(out / "matches.csv")
    per_bucket = [0] * len(quotas)
    for r in rows:
        per_bucket[int(r["bucket"])] += 1
    assert per_bucket == quotas
    treated = [r["treated_id"] for r in rows]
    untreated = [r["untreated_id"] for r in rows]
    assert len(set(treated)) == len(treated)
    assert len(set(untreated)) == len(untreated)
