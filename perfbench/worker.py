"""The benchmark's op process: build one workload's inputs, then run its ops.

run.py starts this process; it prints ``ready`` on its own line once set-up
(imports, corpus generation and writing, config loading) is done. With
``--setup-only`` it then exits. Otherwise it runs ops in a closed loop, one
``run_pipeline`` call into a fresh run directory at a time, checks each
op's outputs, and prints one JSON line with the op records.

With ``--trace 1`` the first pass of ops runs traced, one
``run_pipeline(until=stage)`` call per stage, and a second, untraced pass
over the same inputs gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import yaml  # noqa: E402

from trialemu import pipeline, synthgen  # noqa: E402
from trialemu.cohort import load_trial_config, save_cohort, save_trial_config  # noqa: E402
from trialemu.errors import TrialEmuError  # noqa: E402


@dataclass(frozen=True)
class Workload:
    dgp: str
    pipeline: str
    trial: str | None  # None: use the trial target the generator emits
    n_obs: int | None  # None: keep the generator config's n_obs
    seeds: tuple[int, ...]
    held_out: tuple[int, ...]
    min_ops: int
    check_targets: bool  # acceptance gate 2 on the achieved targets


# The seeds are generator seeds; the held-out ones are for confirming a
# claim on data not used while writing it (pass --gen-seeds held-out).
WORKLOADS = {
    "demo": Workload("demo_dgp.yaml", "demo_pipeline.yaml", "demo_trial.yaml",
                     None, (20260,), (20261,), min_ops=2, check_targets=True),
    "hte_4k": Workload("hte_dgp.yaml", "hte_pipeline.yaml", None, 4000,
                       (101,), (102,), min_ops=3, check_targets=False),
    "hte_replicates": Workload("hte_dgp.yaml", "hte_pipeline.yaml", None, 500,
                               tuple(range(1000, 1030)),
                               tuple(range(2000, 2030)),
                               min_ops=30, check_targets=False),
}


@dataclass
class Case:
    """One generated corpus and the pipeline config that reads it."""

    gen_seed: int
    config: pipeline.PipelineConfig
    target: object  # cohort.TrialTarget, for the target check
    X: np.ndarray  # observational covariates, all patients
    benefits: np.ndarray  # generator truth: treatment lowers the hazard


def parse_seeds(text: str, workload: Workload) -> tuple[int, ...]:
    """'shipped', 'held-out', or a comma list of seeds and a-b ranges."""
    if text == "shipped":
        return workload.seeds
    if text == "held-out":
        return workload.held_out
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return tuple(seeds)


def build_case(workload: Workload, gen_seed: int, inputs: Path) -> Case:
    dgp = synthgen.load_dgp_config(CONFIGS / workload.dgp)
    dgp = replace(dgp, seed=gen_seed, n_obs=workload.n_obs or dgp.n_obs)
    cohort, truth = synthgen.generate_observational(dgp)
    target, _rct = synthgen.generate_rct_target(dgp)
    folder = inputs / f"seed{gen_seed}"
    folder.mkdir(parents=True)
    save_cohort(cohort, folder / "observational.csv")
    trial = folder / "trial.yaml"
    if workload.trial is None:
        save_trial_config(target, [], trial)
    else:
        shutil.copyfile(CONFIGS / workload.trial, trial)
    doc = yaml.safe_load((CONFIGS / workload.pipeline).read_text(encoding="utf-8"))
    doc["cohort"] = str(folder / "observational.csv")
    doc["trial"] = str(trial)
    config_path = folder / "pipeline.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    config = pipeline.load_pipeline_config(config_path)
    trial_target, _rules = load_trial_config(trial, config.schema)
    return Case(gen_seed, config, trial_target, cohort.covariate_matrix(),
                truth.true_multiplier < 1.0)


# --- output checks ----------------------------------------------------------

def _route(node: dict, x) -> int:
    while "feature" in node:
        node = node["left"] if x[node["feature"]] < node["threshold"] else node["right"]
    return node["treatment"]


def check_op(case: Case, run_dir: Path, manifest: dict, workload: Workload,
             reference: dict) -> tuple[list[str], dict]:
    """(failed check names, quality values) for one completed op."""
    failed = []
    stages = [entry["name"] for entry in manifest["stages"]]
    if stages != list(pipeline.STAGES):
        failed.append(f"manifest lists stages {stages}")
    raw = (run_dir / "manifest.json").read_bytes()
    if reference.setdefault(case.gen_seed, raw) != raw:
        failed.append("manifest.json differs from an earlier op on the same inputs")

    match = json.loads((run_dir / "match.json").read_text(encoding="utf-8"))
    if workload.check_targets:
        t = case.target
        for arm in ("untreated", "treated"):
            event_free = 1.0 - match["achieved"][f"mean_risk_{arm}"]
            if abs(event_free - t.mu0) > t.tolerance_outcome:
                failed.append(f"{arm} event-free rate {event_free:.4f} is "
                              f"outside mu0 {t.mu0} +- {t.tolerance_outcome}")
        for name, (a0, a1) in t.covariate_targets.items():
            for arm, want in (("untreated", a0), ("treated", a1)):
                got = match["achieved"][f"covariate_means_{arm}"][name]
                if abs(got - want) > t.tolerance_covariate:
                    failed.append(f"{arm} mean {name} {got:.4f} is outside "
                                  f"{want} +- {t.tolerance_covariate}")

    meta = json.loads((run_dir / "tree_meta.json").read_text(encoding="utf-8"))
    selected = [g for g in meta["grid"] if g["selected"]]
    tree = json.loads((run_dir / "tree.json").read_text(encoding="utf-8"))["tree"]
    recommend = np.array([_route(tree, x) for x in case.X]) == 1
    quality = {
        "match_objective": match["objective"],
        "policy_value": selected[0]["training_value"],
        "policy_accuracy": float((recommend == case.benefits).mean()),
    }
    return failed, quality


# --- ops --------------------------------------------------------------------

def run_op(case: Case, run_dir: Path, workload: Workload, reference: dict,
           execute) -> dict:
    """Time one op, then check its outputs; every exception fails the op."""
    record = {"gen_seed": case.gen_seed, "error": None, "checks_failed": []}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        manifest = execute(case, run_dir)
    except Exception as exc:  # noqa: BLE001 - every exception is a failed op
        record["error"] = type(exc).__name__
        record["documented"] = isinstance(exc, TrialEmuError)
        record["stage"] = getattr(exc, "stage", None)
    record["wall_s"] = time.perf_counter() - wall0
    record["cpu_s"] = time.process_time() - cpu0
    if record["error"] is None:
        try:
            record["checks_failed"], quality = check_op(
                case, run_dir, manifest, workload, reference)
            record.update(quality)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            record["checks_failed"] = [f"outputs unreadable: {exc!r}"]
    return record


def untraced(case: Case, run_dir: Path) -> dict:
    return pipeline.run_pipeline(case.config, run_dir)


class RunDirs:
    """A fresh run directory per op; handing out the next one deletes the
    previous one, so only the last op's outputs stay for inspection.

    Deleting an op's files seconds after they were written, before the
    kernel writes them back, is cheap and leaves no writeback of old
    outputs to compete with later ops for the disk.
    """

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        self.last = None

    def next(self) -> Path:
        if self.last is not None:
            shutil.rmtree(self.last, ignore_errors=True)
        self.last = self.root / f"op{self.count:03d}"
        self.count += 1
        return self.last


def run_passes(cases, workload, dirs: RunDirs, seconds: float, min_ops: int,
               reference: dict, execute) -> list[dict]:
    """Whole passes over ``cases`` until ``seconds`` and ``min_ops`` are met."""
    records = []
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        for case in cases:
            records.append(run_op(case, dirs.next(), workload, reference, execute))
    return records


# --- run record -------------------------------------------------------------

def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def filesystem_type(path: Path) -> str:
    """Type of the mount that holds ``path``, from /proc/self/mounts."""
    path = str(path.resolve())
    best, fstype = "", "unknown"
    with open("/proc/self/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_record(runs: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "run_dir_fs": filesystem_type(runs),
    }


# --- traced run -------------------------------------------------------------

def vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def traced_passes(cases, workload, dirs: RunDirs, reference: dict, tracer):
    """One traced pass, then one untraced pass over the same inputs.

    Returns (op records, per-layer metrics, accounting, spans). Per-layer metrics are
    means over the traced ops that completed, or over all traced ops when
    none did.
    """
    import layer_trace

    def staged(case, run_dir):
        peak = {}
        peaks.append(peak)
        for stage in pipeline.STAGES:
            with tracer.span(f"pipeline.{stage}"):
                manifest = pipeline.run_pipeline(case.config, run_dir, until=stage)
            peak[f"pipeline.{stage}.peak_rss_mb"] = vmhwm_mb()
        return manifest

    peaks, per_op, traced = [], [], []
    try:
        for case in cases:
            run_dir = dirs.next()
            lo = len(tracer.spans)
            op = run_op(case, run_dir, workload, reference, staged)
            metrics = layer_trace.op_metrics(tracer.spans, lo, len(tracer.spans))
            metrics["pipeline.io_wait_s"] = op["wall_s"] - op["cpu_s"]
            metrics["pipeline.artifact_bytes"] = sum(
                f.stat().st_size for f in run_dir.rglob("*") if f.is_file())
            metrics["trace.unaccounted_s"] = op["wall_s"] - sum(
                metrics.get(f"pipeline.{s}_s", 0.0) for s in pipeline.STAGES)
            traced.append(op)
            per_op.append(metrics)
    finally:
        tracer.restore()

    plain = run_passes(cases, workload, dirs, 0.0, len(cases), reference,
                       untraced)
    for metrics, t_op, u_op in zip(per_op, traced, plain):
        metrics["trace.overhead_s"] = t_op["wall_s"] - u_op["wall_s"]
    done = [i for i, op in enumerate(traced) if op["error"] is None]
    keep = done or list(range(len(traced)))
    names = {name for i in keep for name in per_op[i]}
    per_layer = {name: sum(per_op[i].get(name, 0.0) for i in keep) / len(keep)
                 for name in names}
    # VmHWM never falls, so only the first op's stage peaks say which stage
    # set the process peak
    per_layer.update(peaks[keep[0]])
    per_layer.update(layer_trace.setup_metrics(tracer.spans))
    accounting = {
        "traced_wall_s": sum(traced[i]["wall_s"] for i in keep) / len(keep),
        "untraced_wall_s": sum(plain[i]["wall_s"] for i in keep) / len(keep),
        "stage_spans_s": sum(per_layer.get(f"pipeline.{s}_s", 0.0)
                             for s in pipeline.STAGES),
    }
    return traced + plain, per_layer, accounting, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--gen-seeds", default="shipped")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import layer_trace

        tracer = layer_trace.Tracer()
        tracer.install()
    cases = [build_case(workload, s, args.work / "inputs")
             for s in parse_seeds(args.gen_seeds, workload)]
    # the benchmark seed sets the order of the corpora, never their content
    random.Random(args.seed).shuffle(cases)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    dirs = RunDirs(args.work / "runs")
    reference: dict = {}
    result = {}
    if tracer is None:
        result["ops"] = run_passes(cases, workload, dirs, args.seconds,
                                   workload.min_ops, reference, untraced)
    else:
        result["ops"], result["per_layer"], result["accounting"], spans = traced_passes(
            cases, workload, dirs, reference, tracer)
        spans_path = args.work / "spans.json"
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
        result["spans_path"] = str(spans_path)
    result["record"] = run_record(dirs.root)
    shutil.rmtree(args.work / "inputs")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
