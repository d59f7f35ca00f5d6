"""The traced benchmark run wraps library functions by owner and name."""

import importlib.util
import json

import yaml

from trialemu import pipeline

from conftest import ROOT, mini_pipeline_doc


def _layer_trace():
    spec = importlib.util.spec_from_file_location(
        "layer_trace", ROOT / "perfbench" / "layer_trace.py")
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    return layer_trace


def test_every_trace_target_exists():
    layer_trace = _layer_trace()
    assert layer_trace.TARGETS
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _span, _observer in layer_trace.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_a_traced_run_reports_the_matcher_metrics(mini_corpus, tmp_path):
    layer_trace = _layer_trace()
    cfg_file = tmp_path / "pipeline.yaml"
    cfg_file.write_text(yaml.safe_dump(mini_pipeline_doc(mini_corpus)),
                        encoding="utf-8")
    cfg = pipeline.load_pipeline_config(cfg_file)
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(cfg, tmp_path / "run")
    finally:
        tracer.restore()
    metrics = layer_trace.op_metrics(tracer.spans, 0, len(tracer.spans))

    counts = json.loads((tmp_path / "run" / "stratify.json").read_text())
    n_t, n_c = (sum(counts["bucket_counts"][side])
                for side in ("treated", "untreated"))
    n_distance = len(cfg.match.distance_covariates)
    assert metrics["stratify_match.distance_bytes"] == n_t * n_c * (n_distance + 1) * 8
    match = json.loads((tmp_path / "run" / "match.json").read_text())
    assert metrics["stratify_match.pairs"] == match["n_pairs"] > 0
