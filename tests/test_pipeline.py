"""Staged pipeline orchestration: manifests, resume, tamper, report."""

import builtins
import io
import json
import re
from pathlib import Path

import pytest
import yaml

from trialemu import learner, pipeline
from trialemu.errors import (
    ArtifactError,
    ConfigError,
    SchemaError,
    TargetInfeasibleError,
    UnreachableTargetError,
)
from trialemu.policy_tree import PolicyTreeConfig

from conftest import ROOT, mini_pipeline_doc, read_csv_dicts


def write_config(tmp_path, doc):
    path = tmp_path / "pipeline.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def load_config(tmp_path, doc):
    return pipeline.load_pipeline_config(write_config(tmp_path, doc))


# SHA-256 of every artifact of the mini_run fixture, recorded on x86-64
# Linux. A refactor leaves these alone; a change that alters the estimator
# on purpose updates them and says so.
MINI_RUN_SHA256 = {
    "constrain.json":
        "9da53577f38f52bfa8a74a92c64b7e0021f7bfe736123307df195eb22de8166d",
    "eligible.csv":
        "acec1ee71f662edad377deb3a41dd598ac8376b8e3c9a922c5abe4b8240eca18",
    "filter.json":
        "bac3d180c20de04b1c93b4c48e299129b358c1b9fa2ff3abd7050964a365d902",
    "km_recommended_control.csv":
        "a993b9c74ffdfcf05d6093b7a60f310ad6c3569aa3078c91a5f4785871e987db",
    "km_recommended_treated.csv":
        "4f7d150ccb3a3db6d24e5ef8e023f4cef0fa79bab8ba616d735093c5bcc48665",
    "match.json":
        "869d5eddf0c7a46a93f8ad0e8647b0de0d65287285e7c7a58125fa34b9f68feb",
    "matches.csv":
        "446b122bfe62b7eca2cc34282a20d4a18937bfea8df6cdb4c5935ca9967cc4cb",
    "rewards.csv":
        "426617a5c1bacaff17f4209d0e7ca360dbd758cc9628269aa4912a9b8843cfb2",
    "rewards_constrained.csv":
        "f940499fcc0bc57cadb7ef822396d2bd021bac8fb9f80e8d5ba8c9f3f8a4c043",
    "risks.csv":
        "8cb315ac4e3b06a026c0e71814e96ecc0cc769eb625387a78868cdfdbe8cafb4",
    "stratify.json":
        "ee33ac911160d67ec83e6c6efb12d178f9e80244d21ddae5e7f4f15d982a1505",
    "tree.json":
        "fda41e5291796a52a2aeffd356cc70923410d1526423ef69089789631d3433f9",
    "tree.txt":
        "13e62fba1bb405f984b86a052a7982bc89f08c374a1232ee449243a28a58d6f6",
    "tree_meta.json":
        "5aa358fdfbc8637e4aa74892a675b5673b5c7a387fd509e6cd7b7b0dc1a2edea",
    "tune.json":
        "ed77376bbc25776cf3390951de92f8857fd1a37a5918dc62379c218ddc64ba6f",
    "validation.json":
        "121b2e91c381d9396b863737eafeba729700d24a4c033050fb4510f5f74bc7c9",
    "xray_model.json":
        "a421f7be94b8e3fbe3728080a189c3729b5be216141d510ebe41f034da1fcdc9",
}


def test_full_run_manifest_and_artifacts(mini_run):
    out, _cfg = mini_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["name"] for e in manifest["stages"]] == list(pipeline.STAGES)
    for entry in manifest["stages"]:
        for name, digest in entry["artifacts"].items():
            path = out / name
            assert path.exists(), name
            assert pipeline._sha256(path) == digest


def test_mini_run_artifacts_are_pinned(mini_run):
    out, _cfg = mini_run
    manifest = json.loads((out / "manifest.json").read_text())
    recorded = {name: digest for entry in manifest["stages"]
                for name, digest in entry["artifacts"].items()}
    assert recorded == MINI_RUN_SHA256


@pytest.mark.parametrize("processes", [1, 3])
def test_mini_run_artifacts_do_not_depend_on_the_process_count(
        processes, mini_corpus, tmp_path, monkeypatch):
    # the risk model's bootstrapped trees grow in this many processes
    monkeypatch.setattr(learner, "_processes", lambda: processes)
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    pipeline.run_pipeline(cfg, tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    recorded = {name: digest for entry in manifest["stages"]
                for name, digest in entry["artifacts"].items()}
    assert recorded == MINI_RUN_SHA256


def test_each_input_is_parsed_once_per_call(mini_corpus, tmp_path, monkeypatch):
    calls = {"load_cohort": 0, "load_trial_config": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    pipeline.run_pipeline(cfg, tmp_path / "run")
    # the input cohort and eligible.csv; the trial file once
    assert calls == {"load_cohort": 2, "load_trial_config": 1}


# README's "reads" column: the files each stage function opens for reading,
# besides the hash checks; "cohort" and "trial" are the config's input files
README_READS = {
    "filter": {"cohort", "trial"},
    "stratify": {"eligible.csv", "trial"},
    "match": {"eligible.csv", "risks.csv", "stratify.json", "trial"},
    "tune": {"eligible.csv", "matches.csv", "trial"},
    "constrain": {"rewards.csv"},
    "tree": {"eligible.csv", "matches.csv", "rewards_constrained.csv"},
    "validate": {"eligible.csv", "matches.csv", "tree.json"},
}


def _readme_reads() -> dict:
    """The backquoted names in each stage's "reads" cell of README's table."""
    reads = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 2 and cells[1] in pipeline.STAGES:
            reads[cells[1]] = set(re.findall(r"`([^`]+)`", cells[2]))
    return reads


def test_each_stage_reads_what_readme_lists(mini_corpus, tmp_path, monkeypatch):
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    run = tmp_path / "run"
    inputs = {Path(cfg.cohort): "cohort", Path(cfg.trial): "trial"}
    reads = {}
    running = []  # the stage whose function is on the stack
    real_open = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if running and isinstance(file, (str, Path)) and not set(mode) & set("wax+"):
            path = Path(file)
            reads.setdefault(running[-1], set()).add(
                inputs.get(path) or (path.name if path.parent == run else str(path)))
        return real_open(file, mode, *args, **kwargs)

    def recorded(name, stage):
        def call(r):
            running.append(name)
            try:
                stage(r)
            finally:
                running.pop()
        return call

    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    for name, stage in list(pipeline._STAGE_FUNCS.items()):
        monkeypatch.setitem(pipeline._STAGE_FUNCS, name, recorded(name, stage))
    for name in pipeline.STAGES:  # a new call per stage: nothing is cached
        pipeline.run_pipeline(cfg, run, until=name)
    assert reads == README_READS
    assert _readme_reads() == README_READS


def test_the_tune_stage_predicts_each_model_once(mini_corpus, tmp_path,
                                                 monkeypatch):
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, until="match")
    calls = []
    real_predict = learner.predict_prob
    monkeypatch.setattr(learner, "predict_prob",
                        lambda *args: calls.append(1) or real_predict(*args))
    pipeline.run_pipeline(cfg, run, until="tune")
    assert len(calls) == 2  # tune.arms is []: one untuned model per arm


@pytest.mark.parametrize("arms", [[1], [0, 1]])
def test_tuned_fits_are_made_once(mini_corpus, tmp_path, monkeypatch, arms):
    trial = yaml.safe_load((mini_corpus / "trial.yaml").read_text())
    trial.update(mu0=0.66, mu1=0.68)  # above both arms' means at rho = 1
    (tmp_path / "trial_high.yaml").write_text(yaml.safe_dump(trial))
    doc = mini_pipeline_doc(mini_corpus)
    doc.update(trial=str(tmp_path / "trial_high.yaml"), quotas=[20, 20],
               tune={"arms": arms})
    cfg = load_config(tmp_path, doc)
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run, until="match")
    calls = {"fit": 0, "predict_prob": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(learner, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(learner, name, counted)
    pipeline.run_pipeline(cfg, run, until="tune")
    tune = json.loads((run / "tune.json").read_text())
    assert sorted(tune["traces"]) == [str(arm) for arm in arms]
    assert all(tune[f"rho{arm}"] > 1.0 for arm in arms)  # each tuned arm bisects
    fits = sum(len(t["rho_sequence"]) for t in tune["traces"].values()) + 2 - len(arms)
    assert calls == {"fit": fits, "predict_prob": fits}


def test_every_json_artifact_is_strict_json(mini_run):
    out, _cfg = mini_run

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    paths = sorted(out.rglob("*.json"))
    assert "manifest.json" in [path.name for path in paths]
    for path in paths:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


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


def test_report_bundles_only_the_km_curves_the_manifest_lists(mini_corpus,
                                                              tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    run = tmp_path / "run"
    doc["constrain"] = {"factor": None}
    pipeline.run_pipeline(load_config(tmp_path, doc), run)
    pipeline.report(run)
    assert (run / "report" / "km_advised_against_treated.csv").exists()
    doc["constrain"] = {"factor": 0.78}  # now nobody is advised against
    manifest = pipeline.run_pipeline(load_config(tmp_path, doc), run)
    listed = {name for name in manifest["stages"][-1]["artifacts"]
              if name.startswith("km_")}
    assert listed == {"km_recommended_control.csv", "km_recommended_treated.csv"}
    pipeline.report(run)
    assert {p.name for p in (run / "report").glob("km_*.csv")} == listed


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


def test_manifest_is_written_once_per_completed_stage(mini_corpus, tmp_path,
                                                      monkeypatch):
    written = []
    real = pipeline._write_json

    def counted(path, obj):
        written.append(Path(path).name)
        real(path, obj)

    monkeypatch.setattr(pipeline, "_write_json", counted)
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    run = tmp_path / "run"
    pipeline.run_pipeline(cfg, run)
    assert written.count("manifest.json") == len(pipeline.STAGES)
    raw = (run / "manifest.json").read_bytes()
    written.clear()
    pipeline.run_pipeline(cfg, run)  # nothing left to do
    assert written.count("manifest.json") == 0
    assert (run / "manifest.json").read_bytes() == raw


def test_rerun_deletes_the_artifacts_it_no_longer_lists(mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    run = tmp_path / "run"
    doc["constrain"] = {"factor": None}
    pipeline.run_pipeline(load_config(tmp_path, doc), run)
    assert (run / "km_advised_against_treated.csv").exists()
    doc["constrain"] = {"factor": 0.78}  # now nobody is advised against
    manifest = pipeline.run_pipeline(load_config(tmp_path, doc), run)
    listed = {name for entry in manifest["stages"] for name in entry["artifacts"]}
    assert {p.name for p in run.iterdir()} == listed | {"manifest.json"}


def test_a_crafted_manifest_deletes_nothing_outside_the_run(mini_corpus, tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    outside = tmp_path / "x"
    outside.write_text("keep\n")
    (run / "kept.csv").write_text("keep\n")
    (run / "manifest.json").write_text(json.dumps({
        "config_digest": "stale",
        "stages": [{"name": "filter", "artifacts": {
            "../x": "0", str(outside): "0", "..": "0", "": "0"}}],
    }))
    cfg = load_config(tmp_path, mini_pipeline_doc(mini_corpus))
    with pytest.raises(ArtifactError, match="malformed manifest.json"):
        pipeline.run_pipeline(cfg, run, until="filter")
    assert outside.read_text() == "keep\n"
    assert (run / "kept.csv").exists()


def test_rerun_deletes_the_stale_report_bundle(mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    run = tmp_path / "run"
    pipeline.run_pipeline(load_config(tmp_path, doc), run)
    rep = pipeline.report(run)
    bundled = {p.name for p in rep.iterdir()}
    assert {n for n in bundled if not n.startswith("km_")} == set(pipeline.REPORT_FILES)
    assert "tree.json" in bundled
    doc["seed"] += 1  # a new digest: nothing can be resumed
    pipeline.run_pipeline(load_config(tmp_path, doc), run, until="filter")
    assert not (rep / "tree.json").exists()
    assert list(rep.iterdir()) == []
