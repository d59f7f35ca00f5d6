"""Benchmark of the trialemu emulation pipeline.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in one worker process (worker.py) that builds its inputs
with the synthetic generator and then calls ``trialemu.pipeline.run_pipeline``
in a closed loop: one client, one op at a time, each op into a fresh run
directory. Before it, the same set-up runs in short-lived set-up-only
processes, one after another, so that ``setup_s`` is a median. This script
reads the worker's peak RSS from outside through rusage.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the ops traced and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything the run writes stays under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
DEADLINE_S = 175  # a run of one workload must end within 180 s


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def spawn_worker(args, workload: str, work: Path, extra: list[str], live: list):
    """Start the worker and wait for its ``ready`` line; (process, set-up s).

    The process is appended to ``live`` so the caller can stop it."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--gen-seeds", args.gen_seeds, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    live.append(proc)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line != "ready\n":
        proc.wait()
        raise BenchError(f"{workload}: worker set-up failed "
                         f"(exit {proc.returncode})")
    return proc, setup_s


def finish_worker(proc, workload: str):
    """(last stdout line as JSON, peak RSS in MB) of a worker that ran ops."""
    out = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024.0


def wall_tail(walls: list[float]):
    """(seconds, percentile): the highest percentile of op wall time with at
    least ten ops beyond it. Runs with fewer than 20 ops report the maximum."""
    walls = sorted(walls)
    n = len(walls)
    if n < 20:
        return walls[-1], 100.0
    return walls[n - 11], 100.0 * (n - 10) / n


def e2e_metrics(ops: list[dict], setup: list[float], peak_rss_mb: float):
    done = [op for op in ops if op["error"] is None]
    if not done:
        raise BenchError("no op completed, so there are no outputs to measure")
    ok = [op for op in done if not op["checks_failed"]]
    tail, pct = wall_tail([op["wall_s"] for op in ops])
    metrics = {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "wall_tail_s": tail,
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
        "ops_ok": len(ok) / len(ops),
        "match_objective": statistics.median(op["match_objective"] for op in done),
        "policy_value": statistics.median(op["policy_value"] for op in done),
        "policy_accuracy": statistics.median(op["policy_accuracy"] for op in done),
    }
    return metrics, {"wall_tail_percentile": pct, "ops": len(ops),
                     "setup_samples_s": setup}


def run_workload(args, workload: str, spec: dict) -> dict:
    # the previous run's last op outputs and spans stay until here
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    live = []
    signal.alarm(DEADLINE_S)
    try:
        setup = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                probe = work / f"setup{k}"
                proc, seconds = spawn_worker(args, workload, probe,
                                             ["--setup-only"], live)
                proc.communicate()
                shutil.rmtree(probe)
                setup.append(seconds)
        proc, seconds = spawn_worker(args, workload, work / "ops", [], live)
        setup.append(seconds)
        result, peak_rss_mb = finish_worker(proc, workload)
    finally:
        signal.alarm(0)
        for proc in live:
            if proc.returncode is None:
                proc.kill()
                proc.wait()

    ops = result["ops"]
    if args.trace:
        metrics = result["per_layer"]
        notes = {"spans": result["spans_path"], **result["accounting"]}
        wanted = spec["per_layer"]
    else:
        metrics, notes = e2e_metrics(ops, setup, peak_rss_mb)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    failed_ops = [{"gen_seed": op["gen_seed"], "error": op["error"] or "check",
                   "stage": op.get("stage")}
                  for op in ops if op["error"] or op["checks_failed"]]
    undocumented = sorted({op["error"] for op in ops
                           if op["error"] and not op["documented"]})
    checks = sorted({c for op in ops for c in op["checks_failed"]})
    return {
        "workload": workload,
        "correct": not checks and not undocumented,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "failures_by_class": dict(Counter(op["error"] for op in failed_ops)),
        "failed_ops": failed_ops,
        "failed_checks": checks,
        "undocumented_errors": undocumented,
        # a layer the op never reached, e.g. after a failed stage, has
        # no spans; its metrics read 0
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
        "metrics_not_observed": missing,
        "notes": notes,
        "record": result["record"],
        "seed": args.seed,
        "gen_seeds": sorted({op["gen_seed"] for op in ops}),
        "trace": args.trace,
        "ops": ops,
    }


def report(res: dict) -> None:
    print(f"== {res['workload']} (trace {res['trace']}): {res['attempted']} ops, "
          f"{res['failed']} failed {res['failures_by_class'] or ''}")
    for op in res["failed_ops"]:
        print(f"   failed op: gen seed {op['gen_seed']}, {op['error']}"
              + (f" at stage {op['stage']}" if op["stage"] else ""))
    print("   record: " + ", ".join(f"{k}={v}" for k, v in res["record"].items()))
    print(f"   checks: {'pass' if res['correct'] else 'FAIL'}"
          + "".join(f"\n     - {c}" for c in res["failed_checks"])
          + "".join(f"\n     - undocumented error {e}"
                    for e in res["undocumented_errors"]))
    notes = res["notes"]
    if "wall_tail_percentile" in notes:
        print(f"   wall_tail_s is p{notes['wall_tail_percentile']:.1f} "
              f"of {notes['ops']} ops")
    for name, m in res["metrics"].items():
        print(f"   {name:42s} {m['value']:>16.6f} {m['unit']}")
    if res["metrics_not_observed"]:
        print("   not observed (read 0): " + ", ".join(res["metrics_not_observed"]))
    if res["trace"]:
        print(f"   per op: seven stage spans {notes['stage_spans_s']:.4f} s + "
              f"trace.unaccounted_s = traced wall {notes['traced_wall_s']:.4f} s"
              f" = untraced wall {notes['untraced_wall_s']:.4f} s + "
              f"trace.overhead_s")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed: orders the hte_replicates "
                             "corpora; the corpora come from --gen-seeds")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run whole passes of ops until this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen-seeds", default="shipped",
                        help="generator seeds: 'shipped' (default), "
                             "'held-out' (see interaction_map.json), or a "
                             "list such as 1000-1029,7")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trialemu").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} has no src/trialemu or configs/; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    def on_deadline(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    # exit through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    results = []
    try:
        for workload in (workloads if args.workload == "all" else (args.workload,)):
            results.append(run_workload(args, workload, spec))
            report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for res in results:
        path = WORK / "results" / (f"{res['workload']}-trace{args.trace}"
                                   f"-seed{args.seed}.json")
        path.write_text(json.dumps(res, indent=2) + "\n", encoding="utf-8")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
