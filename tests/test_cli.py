"""Command-line interface: subcommands and exit-code contract."""

import json

import pytest
import yaml
from click.testing import CliRunner

from trialemu.cli import main

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
