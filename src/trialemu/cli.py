"""Command-line entry points for the trial-emulation pipeline.

``run`` executes all stages; each stage also has its own subcommand that
runs the pipeline up to (and including) that stage, reusing intact
artifacts from previous invocations of the same run directory. ``synth``
generates the synthetic demo inputs and ``report`` assembles the report
bundle from a finished run.

Exit codes: 0 success, else the ``exit_code`` of the ``TrialEmuError``
raised (see ``trialemu.errors``): 2 configuration error, 3 data error, 4
infeasible matching target, 5 unreachable tuning target.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import pipeline, synthgen
from .cohort import save_cohort, save_trial_config
from .errors import TrialEmuError


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TrialEmuError as exc:
            stage = getattr(exc, "stage", None)
            prefix = f"stage {stage}: " if stage else ""
            click.echo(f"error: {prefix}{exc}", err=True)
            sys.exit(exc.exit_code)
    return wrapper


@click.group()
def main():
    """Emulate a target randomized trial from an observational cohort."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True), help="Generator config YAML.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Output directory for the generated files.")
@click.option("--with-truth", is_flag=True,
              help="Also write the sealed ground-truth sidecar.")
@_handle_errors
def synth(config_path, seed, out_dir, with_truth):
    """Generate an observational cohort, trial target, and RCT cohort."""
    cfg = synthgen.load_dgp_config(config_path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    cohort, truth = synthgen.generate_observational(cfg)
    target, rct = synthgen.generate_rct_target(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_cohort(cohort, out / "observational.csv")
    save_cohort(rct, out / "rct.csv")
    save_trial_config(target, [], out / "trial.yaml")
    if with_truth:
        synthgen.save_ground_truth(truth, out / "truth.csv")
    click.echo(f"wrote observational.csv ({len(cohort)} patients), "
               f"rct.csv ({len(rct)} patients), trial.yaml to {out}")


def _run_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True),
                      help="Pipeline config YAML.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override the config seed.")(fn)
    fn = click.option("--out", "out_dir", required=True, type=click.Path(),
                      help="Run directory for stage artifacts.")(fn)
    return fn


def _run_until(config_path, seed, out_dir, until, overrides=None):
    cfg = pipeline.load_pipeline_config(config_path, seed=seed,
                                        overrides=overrides)
    manifest = pipeline.run_pipeline(cfg, out_dir, until=until)
    done = [e["name"] for e in manifest["stages"]]
    click.echo(f"completed stages: {', '.join(done)}")


@main.command()
@_run_options
@click.option("--until", type=click.Choice(pipeline.STAGES), default=None,
              help="Stop after this stage.")
@_handle_errors
def run(config_path, seed, out_dir, until):
    """Run the full pipeline (or up to --until)."""
    _run_until(config_path, seed, out_dir, until)


# stage option -> the pipeline config key it overrides
_OVERRIDE_KEYS = {"buckets": "buckets", "quotas": "quotas",
                  "mode": "match.mode", "move_budget": "match.move_budget"}


def _stage_command(name, help_text, extra_options=()):
    @_handle_errors
    def cmd(config_path, seed, out_dir, **options):
        overrides = {_OVERRIDE_KEYS[option]: value
                     for option, value in options.items() if value is not None}
        _run_until(config_path, seed, out_dir, name, overrides)

    cmd.__name__ = name
    cmd = _run_options(cmd)
    for opt in extra_options:
        cmd = opt(cmd)
    return main.command(name=name, help=help_text)(cmd)


def _comma_list(_ctx, _param, value):
    return value if value in (None, "auto") else value.split(",")


_MATCH_OPTIONS = (
    click.option("--buckets", default=None, callback=_comma_list,
                 help="Comma-separated risk boundaries, e.g. 0,0.25,0.5,1."),
    click.option("--quotas", default=None, callback=_comma_list,
                 help="'auto' or comma-separated per-bucket quotas."),
)

_stage_command("filter", "Apply eligibility rules to the cohort.")
_stage_command("stratify", "Fit the baseline-risk model and set buckets.",
               _MATCH_OPTIONS)
_stage_command("match", "Solve the trial-matching optimization.",
               _MATCH_OPTIONS + (
                   click.option("--mode",
                                type=click.Choice(["heuristic", "exact"]),
                                default=None, help="Solver mode."),
                   click.option("--move-budget", type=int, default=None,
                                help="Local-search move budget."),
               ))
_stage_command("tune", "Fit counterfactual models and tune their weights.")
_stage_command("constrain", "Scale down the rewards of the dispreferred arm.")
_stage_command("tree", "Fit the policy-tree grid and select a tree.")
_stage_command("validate", "Produce subgroup, KM/log-rank, and balance audits.")


@main.command(name="report")
@click.option("--out", "run_dir", required=True, type=click.Path(exists=True),
              help="Run directory containing manifest.json.")
@_handle_errors
def report_cmd(run_dir):
    """Assemble the report bundle from a completed run."""
    rep = pipeline.report(run_dir)
    click.echo(f"report written to {rep}")


if __name__ == "__main__":
    main()
