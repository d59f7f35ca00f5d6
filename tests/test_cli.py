"""Command-line interface: subcommands and exit-code contract."""

import json
import shutil

import pytest
import yaml
from click.testing import CliRunner

from trialemu import pipeline
from trialemu.cli import main
from trialemu.errors import (
    ArtifactError,
    ConfigError,
    TargetInfeasibleError,
    TrialEmuError,
    UnreachableTargetError,
)

from conftest import CONFIGS, mini_pipeline_doc


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def test_synth_writes_corpus(tmp_path):
    out = tmp_path / "data"
    result = invoke("synth", "--config", str(CONFIGS / "demo_dgp.yaml"),
                    "--out", str(out), "--with-truth")
    assert result.exit_code == 0, result.output
    for name in ("observational.csv", "rct.csv", "trial.yaml", "truth.csv"):
        assert (out / name).exists(), name


def test_run_and_report_round_trip(mini_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    run_dir = tmp_path / "run"
    result = invoke("run", "--config", str(cfg), "--out", str(run_dir))
    assert result.exit_code == 0, result.output
    assert "completed stages" in result.output
    assert "validate" in result.output
    result = invoke("report", "--out", str(run_dir))
    assert result.exit_code == 0, result.output
    assert (run_dir / "report" / "subgroups.csv").exists()


def test_stage_subcommand_stops_at_stage(mini_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    run_dir = tmp_path / "run"
    result = invoke("match", "--config", str(cfg), "--out", str(run_dir))
    assert result.exit_code == 0, result.output
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert [e["name"] for e in manifest["stages"]] == [
        "filter", "stratify", "match"]
    # report on the partial run lists the missing stages -> data error
    result = invoke("report", "--out", str(run_dir))
    assert result.exit_code == 3
    assert "tune" in result.output


def test_report_refuses_a_tampered_artifact(mini_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(mini_run[0], run_dir)
    validation = run_dir / "validation.json"
    validation.write_text(validation.read_text().replace("{", "{\n", 1))
    with pytest.raises(ArtifactError, match="validation.json"):
        pipeline.report(run_dir)
    result = invoke("report", "--out", str(run_dir))
    assert result.exit_code == 3
    assert "validation.json" in result.output


def test_stage_option_overrides(mini_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    run_dir = tmp_path / "run"
    result = invoke("stratify", "--config", str(cfg), "--out", str(run_dir),
                    "--quotas", "30,30")
    assert result.exit_code == 0, result.output
    stratify = json.loads((run_dir / "stratify.json").read_text())
    assert stratify["quotas"] == [30, 30]


def test_config_error_exits_2(mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    del doc["covariates"]
    cfg = write_yaml(tmp_path / "p.yaml", doc)
    result = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert result.exit_code == 2
    assert "error:" in result.output


@pytest.mark.parametrize("key, value", [
    ("match", {"move_budget": "lots"}),
    ("tree", {"grid": [{"max_depth": "deep"}]}),
    ("match", 5),
])
def test_malformed_config_value_exits_2(mini_corpus, tmp_path, key, value):
    doc = mini_pipeline_doc(mini_corpus)
    doc[key] = value
    cfg = write_yaml(tmp_path / "p.yaml", doc)
    result = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


def _doc_with(doc: dict, key: str, line: str) -> str:
    """The YAML document with key's entry replaced by a raw YAML line."""
    rest = {k: v for k, v in doc.items() if k != key}
    return yaml.safe_dump(rest, sort_keys=False) + line + "\n"


# id: (key replaced, YAML line replacing it, text the error must contain)
PIPELINE_CONFIG_ERRORS = {
    "misspelt-key": ("match", "match: {mode: heuristic, lamda_outcome: 9}",
                     "match.lamda_outcome"),
    "misspelt-top-key": ("quotas", "quota: [20, 20]", "quota"),
    "misspelt-tree-key": ("tree", "tree: {lookahed_width: 3}",
                          "tree.lookahed_width"),
    "yaml-syntax": ("cohort", "cohort: [x", "invalid YAML"),
    "buckets-descending": ("buckets", "buckets: [0, 0.7, 0.3, 1]", "buckets"),
    "buckets-nan": ("buckets", "buckets: [0.0, .nan, 1.0]", "buckets"),
    "negative-seed": ("seed", "seed: -1", "seed must be >= 0"),
    "quotas-length": ("quotas", "quotas: [20, 20, 20]", "quotas"),
    "constrain-direction": (
        "constrain", "constrain: {factor: 0.78, direction: sideways}",
        "constrain"),
    "constrain-factor": ("constrain", "constrain: {factor: 1.5}", "constrain"),
    "quoted-bool": ("learner", "learner: {bootstrap: 'no'}", "learner.bootstrap"),
    "learner-seed": ("learner", "learner: {n_trees: 5, seed: 4}", "learner.seed"),
    "counterfactual-seed": ("counterfactual_learner",
                            "counterfactual_learner: {seed: 4}",
                            "counterfactual_learner.seed"),
    "grid-seed": ("tree", "tree: {grid: [{max_depth: 1, seed: 2}]}",
                  "tree.grid[0].seed"),
    "grid-shared-key": ("tree", "tree: {grid: [{max_depth: 1, min_effect: 0.1}]}",
                        "tree.grid[0].min_effect"),
    "removed-tree-key": ("tree", "tree: {local_search_passes: 2}",
                         "tree.local_search_passes"),
    "negative-move-budget": ("match", "match: {move_budget: -5}", "match"),
    "tune-tol": ("tune", "tune: {arms: [0], tol: -1}", "tune"),
    "tune-rho-max": ("tune", "tune: {arms: [0], rho_max: 0.5}", "tune"),
    "tune-tol-nan": ("tune", "tune: {arms: [0], tol: .nan}", "tune: tol"),
    "tune-rho-max-nan": ("tune", "tune: {arms: [0], rho_max: .nan}",
                         "tune: rho_max"),
    "tune-rho-max-inf": ("tune", "tune: {arms: [0], rho_max: .inf}",
                         "tune: rho_max"),
    "match-lambda-nan": ("match", "match: {lambda_outcome: .nan}",
                         "match: lambda_outcome"),
    "match-lambda-inf": ("match", "match: {lambda_distance: .inf}",
                         "match: lambda_distance"),
    "match-lambda-negative": ("match", "match: {lambda_covariate: -0.5}",
                              "match: lambda_covariate"),
    "duplicate-key": ("match", "match: {mode: heuristic}\nmatch: {move_budget: 5}",
                      "duplicate key 'match'"),
    "covariates-empty": ("covariates", "covariates: []", "covariates"),
    "distance-covariate-unknown": (
        "match", "match: {mode: heuristic, distance_covariates: [nope]}",
        "match.distance_covariates: 'nope'"),
    "tree-min-effect-nan": ("tree", "tree: {min_effect: .nan}",
                            "tree: min_effect must be finite"),
    "tree-min-effect-inf": ("tree", "tree: {min_effect: .inf}",
                            "tree: min_effect must be finite"),
}


@pytest.mark.parametrize("key, line, named", PIPELINE_CONFIG_ERRORS.values(),
                         ids=PIPELINE_CONFIG_ERRORS)
def test_pipeline_config_errors_exit_2_before_any_stage(mini_corpus, tmp_path,
                                                        key, line, named):
    cfg = tmp_path / "p.yaml"
    cfg.write_text(_doc_with(mini_pipeline_doc(mini_corpus), key, line))
    run_dir = tmp_path / "r"
    result = invoke("run", "--config", str(cfg), "--out", str(run_dir))
    assert result.exit_code == 2, result.output
    assert f"error: {cfg}: " in result.output
    assert named in result.output
    assert not (run_dir / "manifest.json").exists()
    assert not (run_dir / "eligible.csv").exists()


TRIAL_CONFIG_ERRORS = {
    "misspelt-key": ("tolerance_outcome", "tolerence_outcome: 0.02",
                     "tolerence_outcome"),
    "not-a-number": ("mu0", "mu0: abc", "mu0"),
    "yaml-syntax": ("mu0", "mu0: [1", "invalid YAML"),
    "rule-without-value": ("eligibility", "eligibility: [{field: x1, op: '<'}]",
                           "eligibility[0].value"),
    "comparator-string": (
        "eligibility", "eligibility: [{field: x1, op: '<', value: abc}]",
        "eligibility[0]: value"),
    "in-scalar": ("eligibility", "eligibility: [{field: x1, op: in, value: 3}]",
                  "eligibility[0]: value"),
    "rule-extra-key": (
        "eligibility", "eligibility: [{field: x1, op: '<', value: 3, note: x}]",
        "eligibility[0].note"),
    "target-extra-arm": (
        "covariate_targets",
        "covariate_targets: {x1: {arm0: 0.1, arm1: 0.2, arm2: 0.3}}",
        "covariate_targets"),
    "horizon-nan": ("horizon_months", "horizon_months: .nan", "horizon_months"),
    "horizon-inf": ("horizon_months", "horizon_months: .inf", "horizon_months"),
    "negative-tolerance": ("tolerance_outcome", "tolerance_outcome: -0.5",
                           "tolerance_outcome"),
    "target-nan": ("covariate_targets",
                   "covariate_targets: {x1: {arm0: .nan, arm1: 0.2}}",
                   "covariate_targets"),
    "target-unknown-covariate": (
        "covariate_targets", "covariate_targets: {zz: {arm0: 0.1, arm1: 0.2}}",
        "covariate_targets.zz: 'zz' is not a covariate"),
    "rule-unknown-field": (
        "eligibility", "eligibility: [{field: zz, op: '<', value: 3}]",
        "eligibility[0].field: 'zz'"),
}


@pytest.mark.parametrize("key, line, named", TRIAL_CONFIG_ERRORS.values(),
                         ids=TRIAL_CONFIG_ERRORS)
def test_trial_config_errors_exit_2(mini_corpus, tmp_path, key, line, named):
    trial = tmp_path / "trial.yaml"
    trial.write_text(_doc_with(
        yaml.safe_load((mini_corpus / "trial.yaml").read_text()), key, line))
    doc = mini_pipeline_doc(mini_corpus)
    doc["trial"] = str(trial)
    cfg = write_yaml(tmp_path / "p.yaml", doc)
    result = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "r"),
                    "--until", "filter")
    assert result.exit_code == 2, result.output
    assert f"{trial}: " in result.output
    assert named in result.output


GENERATOR_CONFIG_ERRORS = {
    "misspelt-key": ("gamma_u", "gama_u: 0.5", "gama_u"),
    "not-an-integer": ("n_obs", "n_obs: many", "n_obs"),
    "yaml-syntax": ("n_obs", "n_obs: [1", "invalid YAML"),
    "covariate-without-kind": ("covariates", "covariates: [{name: a, p: 0.5}]",
                               "covariates[0].kind"),
    "covariate-extra-key": (
        "covariates", "covariates: [{name: a, kind: binary, prob: 0.5}]",
        "covariates[0].prob"),
    "negative-seed": ("seed", "seed: -1", "seed must be >= 0"),
    "gamma-x-nan": ("gamma_x", "gamma_x: .nan", "gamma_x must be finite"),
    "censoring-nan": ("censoring_hazard", "censoring_hazard: .nan",
                      "censoring_hazard must be finite"),
    "covariate-sd-nan": (
        "covariates", "covariates: [{name: dfi_months, kind: continuous, sd: .nan}]",
        "covariates[0]: sd must be finite"),
    "subgroup-threshold-nan": (
        "subgroup",
        "subgroup: {covariate: dfi_months, threshold: .nan, side: '<', multiplier: 0.35}",
        "subgroup: threshold must be finite"),
    "horizon-beyond-followup": ("horizon_months", "horizon_months: 500",
                                "horizon_months must not exceed max_followup_months"),
    "tolerance-negative": ("tolerance_outcome", "tolerance_outcome: -1",
                           "tolerance_outcome must be nonnegative"),
}


@pytest.mark.parametrize("key, line, named", GENERATOR_CONFIG_ERRORS.values(),
                         ids=GENERATOR_CONFIG_ERRORS)
def test_generator_config_errors_exit_2(tmp_path, key, line, named):
    dgp = tmp_path / "dgp.yaml"
    dgp.write_text(_doc_with(
        yaml.safe_load((CONFIGS / "hte_dgp.yaml").read_text()), key, line))
    out = tmp_path / "d"
    result = invoke("synth", "--config", str(dgp), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert f"error: {dgp}: " in result.output
    assert named in result.output
    assert not out.exists()


def test_synth_with_an_empty_trial_arm_exits_3_and_writes_nothing(tmp_path):
    dgp = tmp_path / "dgp.yaml"
    dgp.write_text(_doc_with(
        yaml.safe_load((CONFIGS / "demo_dgp.yaml").read_text()), "n_rct", "n_rct: 1"))
    out = tmp_path / "d"
    result = invoke("synth", "--config", str(dgp), "--out", str(out))
    assert result.exit_code == 3, result.output
    assert "is empty at n_rct 1" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "synth"])
def test_negative_seed_option_exits_2(mini_corpus, tmp_path, command):
    if command == "run":
        cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    else:
        cfg = CONFIGS / "demo_dgp.yaml"
    out = tmp_path / "out"
    result = invoke(command, "--config", str(cfg), "--out", str(out), "--seed", "-1")
    assert result.exit_code == 2, result.output
    assert "seed must be >= 0" in result.output
    assert not out.exists()


def test_stage_quotas_auto_replaces_config_quotas(mini_run, mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    doc["quotas"] = [20, 20]
    cfg = write_yaml(tmp_path / "p.yaml", doc)
    run_dir = tmp_path / "run"
    result = invoke("stratify", "--config", str(cfg), "--out", str(run_dir),
                    "--quotas", "auto")
    assert result.exit_code == 0, result.output
    auto = json.loads((mini_run[0] / "stratify.json").read_text())["quotas"]
    assert auto != [20, 20]
    assert json.loads((run_dir / "stratify.json").read_text())["quotas"] == auto


def test_stage_bad_buckets_option_exits_2(mini_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    run_dir = tmp_path / "run"
    result = invoke("stratify", "--config", str(cfg), "--out", str(run_dir),
                    "--buckets", "0,a,1")
    assert result.exit_code == 2, result.output
    assert "buckets" in result.output
    assert not (run_dir / "manifest.json").exists()


def test_constrain_subcommand_stops_after_constrain(mini_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    run_dir = tmp_path / "run"
    result = invoke("constrain", "--config", str(cfg), "--out", str(run_dir))
    assert result.exit_code == 0, result.output
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert [e["name"] for e in manifest["stages"]] == [
        "filter", "stratify", "match", "tune", "constrain"]
    assert not (run_dir / "tree.json").exists()


def test_tampered_artifact_exits_3(mini_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    run_dir = tmp_path / "run"
    assert invoke("run", "--config", str(cfg),
                  "--out", str(run_dir)).exit_code == 0
    risks = run_dir / "risks.csv"
    risks.write_text(risks.read_text() + "obs999,0.5\n")
    result = invoke("run", "--config", str(cfg), "--out", str(run_dir))
    assert result.exit_code == 3
    assert "risks.csv" in result.output


def test_infeasible_quotas_exit_4(mini_corpus, tmp_path):
    doc = mini_pipeline_doc(mini_corpus)
    doc["quotas"] = [400, 400]
    cfg = write_yaml(tmp_path / "p.yaml", doc)
    result = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert result.exit_code == 4
    assert "stage match" in result.output


def test_unreachable_target_exit_5(mini_corpus, tmp_path):
    trial = yaml.safe_load((mini_corpus / "trial.yaml").read_text())
    trial["mu0"] = 0.99
    trial_path = write_yaml(tmp_path / "trial_high.yaml", trial)
    doc = mini_pipeline_doc(mini_corpus)
    doc["trial"] = str(trial_path)
    doc["quotas"] = [20, 20]
    doc["tune"] = {"arms": [0], "rho_max": 1.05}
    cfg = write_yaml(tmp_path / "p.yaml", doc)
    result = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert result.exit_code == 5
    assert "stage tune" in result.output


def test_seed_override_changes_run(mini_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    a, b = tmp_path / "a", tmp_path / "b"
    assert invoke("run", "--config", str(cfg), "--out", str(a),
                  "--until", "stratify").exit_code == 0
    assert invoke("run", "--config", str(cfg), "--out", str(b),
                  "--until", "stratify", "--seed", "99").exit_code == 0
    assert (a / "risks.csv").read_text() != (b / "risks.csv").read_text()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# README's exit-code table: every error not named here is a data error (3)
README_EXIT_CODES = {ConfigError: 2, TargetInfeasibleError: 4,
                     UnreachableTargetError: 5}


@pytest.mark.parametrize("error", list(_subclasses(TrialEmuError)),
                         ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_readme_code(tmp_path, monkeypatch, error):
    def fail(*_args, **_kwargs):
        raise error("boom")

    monkeypatch.setattr(pipeline, "load_pipeline_config", fail)
    cfg = write_yaml(tmp_path / "p.yaml", {})
    result = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert result.exit_code == README_EXIT_CODES.get(error, 3)
    assert "error: boom" in result.output


# manifest.json contents, given the run's config digest
MALFORMED_MANIFESTS = {
    "empty": lambda digest: "",  # what a crash inside write_text leaves
    "list": lambda digest: "[]",
    "stage-without-artifacts": lambda digest: json.dumps(
        {"config_digest": digest, "stages": [{"name": "filter"}]}),
    "artifact-outside-the-run": lambda digest: json.dumps(
        {"config_digest": digest, "stages": [
            {"name": "validate", "artifacts": {"km_x/../../secret.txt": "0" * 64}}]}),
}


@pytest.mark.parametrize("command", ["run", "report"])
@pytest.mark.parametrize("manifest", MALFORMED_MANIFESTS)
def test_a_malformed_manifest_exits_3(mini_corpus, tmp_path, command, manifest):
    cfg = write_yaml(tmp_path / "p.yaml", mini_pipeline_doc(mini_corpus))
    digest = pipeline._config_digest(pipeline.load_pipeline_config(cfg))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(MALFORMED_MANIFESTS[manifest](digest))
    options = ["--config", str(cfg)] if command == "run" else []
    result = invoke(command, *options, "--out", str(run_dir))
    assert result.exit_code == 3
    assert "manifest.json" in result.output
