"""Staged trial-emulation pipeline with hashed, resumable artifacts.

Seven stages run in order: filter (eligibility), stratify (baseline-risk
model, buckets, quotas), match, tune (counterfactual models + weight
tuning), constrain (reward adjustment), tree (policy-tree grid + selection)
and validate (subgroup reports, KM/log-rank, balance audit). Every stage
writes plain CSV/JSON artifacts into the run directory and records their
content hashes in ``manifest.json``; a rerun resumes from intact artifacts
and refuses to build on tampered ones.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import counterfactual, learner, policy_tree, stratify_match, survival_stats
from .cohort import (
    Cohort,
    CovariateSchema,
    TrialTarget,
    apply_eligibility,
    binarize_at_horizon,
    load_cohort,
    load_trial_config,
    save_cohort,
)
from .config import build, read_yaml
from .errors import ArtifactError, ConfigError, InsufficientDataError
from .learner import LearnerConfig
from .policy_tree import PolicyTreeConfig

STAGES = ("filter", "stratify", "match", "tune", "constrain", "tree", "validate")

CLINICAL_SCORE_FIELDS = (
    "node_positive", "dfi_months", "n_tumors", "max_size_cm",
    "cea_ng_ml", "kras_mutated",
)


@dataclass(frozen=True)
class CovariateColumn:
    name: str
    kind: str  # "binary" | "continuous"
    unit: str = ""


@dataclass(frozen=True)
class MatchSection:
    mode: str = "heuristic"
    move_budget: int = 10**6
    distance_covariates: tuple[str, ...] = ()
    lambda_outcome: float = 1.0
    lambda_covariate: float = 1.0
    lambda_distance: float = 1.0

    def __post_init__(self):
        if self.mode not in ("heuristic", "exact"):
            raise ConfigError(f"unknown match mode {self.mode!r}")
        if self.move_budget < 0:
            raise ConfigError("move_budget must be >= 0")
        stratify_match.check_lambdas(self)


@dataclass(frozen=True)
class TuneSection:
    arms: tuple[int, ...] = (0, 1)
    tol: float = counterfactual.RHO_TOL_DEFAULT
    rho_max: float = counterfactual.RHO_MAX_DEFAULT

    def __post_init__(self):
        if any(arm not in (0, 1) for arm in self.arms):
            raise ConfigError("arms must be 0 and/or 1")
        counterfactual.check_tuning(self.tol, self.rho_max)


@dataclass(frozen=True)
class ConstrainSection:
    factor: float | None = None  # None leaves the rewards as tuned
    direction: str = "favor-treatment"

    def __post_init__(self):
        counterfactual.check_constraint(self.factor, self.direction)


@dataclass(frozen=True)
class GridPoint:
    max_depth: int = PolicyTreeConfig.max_depth
    min_leaf: int | None = None  # None: the tree section's min_leaf


@dataclass(frozen=True)
class TreeSection:
    """The policy-tree grid; every grid point shares the other settings."""

    grid: tuple[GridPoint, ...] = (GridPoint(1), GridPoint(2), GridPoint(3))
    min_leaf: int = PolicyTreeConfig.min_leaf
    min_effect: float = 0.05

    def __post_init__(self):
        if not self.grid:
            raise ConfigError("grid must contain at least one entry")
        if not math.isfinite(self.min_effect):
            raise ConfigError(f"min_effect must be finite, got {self.min_effect}")
        self.configs()  # PolicyTreeConfig checks each point's bounds

    def configs(self) -> tuple[PolicyTreeConfig, ...]:
        return tuple(PolicyTreeConfig(
            p.max_depth, self.min_leaf if p.min_leaf is None else p.min_leaf)
            for p in self.grid)


@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline YAML: each field is a key, each section a dataclass."""

    cohort: str
    trial: str
    covariates: tuple[CovariateColumn, ...]
    seed: int = 0
    learner: LearnerConfig = LearnerConfig()
    counterfactual_learner: LearnerConfig = LearnerConfig(bootstrap=False)
    buckets: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    quotas: tuple[int, ...] | None = None  # None ('auto'): default_quotas
    match: MatchSection = MatchSection()
    tune: TuneSection = TuneSection()
    constrain: ConstrainSection = ConstrainSection()
    tree: TreeSection = TreeSection()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        stratify_match.BucketSpec(self.buckets, self.quotas or ())
        if not self.covariates:
            raise ConfigError("covariates must list at least one covariate")
        names = self.schema.names  # CovariateSchema checks the names and kinds
        for name in self.match.distance_covariates:
            if name not in names:
                raise ConfigError(
                    f"match.distance_covariates: {name!r} is not among the covariates")

    @property
    def schema(self) -> CovariateSchema:
        return CovariateSchema(
            names=tuple(c.name for c in self.covariates),
            kinds=tuple(c.kind for c in self.covariates),
            units=tuple(c.unit for c in self.covariates),
        )


def _seeded_by_pipeline(_value):
    raise ValueError("not settable; the top-level seed seeds every stage")


def load_pipeline_config(path, seed: int | None = None,
                         overrides: dict | None = None) -> PipelineConfig:
    """Read a pipeline config YAML; relative paths resolve against it.

    ``overrides`` maps keys (``buckets``) and section keys (``match.mode``)
    to YAML values that replace the file's; ``seed`` overrides ``seed``.
    """
    path = Path(path)
    doc = read_yaml(path)
    seeds = {} if seed is None else {"seed": seed}
    for key, value in dict(overrides or {}, **seeds).items():
        section, _, name = key.rpartition(".")
        if section and doc.get(section) is None:
            doc[section] = {}
        node = doc[section] if section else doc
        if isinstance(node, dict):  # else build reports the malformed section
            node[name] = value

    def resolve(p):
        p = Path(p)
        return str(p if p.is_absolute() else path.parent / p)

    return build(PipelineConfig, doc, path, cohort=resolve, trial=resolve,
                 quotas=lambda q: None if q == "auto" else q,
                 **{"learner.seed": _seeded_by_pipeline,
                    "counterfactual_learner.seed": _seeded_by_pipeline})


# --- artifact helpers -------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path: Path) -> list[list[str]]:
    """A CSV artifact's rows, without its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


class _Run:
    """One ``run_pipeline`` call's view of its run directory.

    Stages create every artifact through ``new``, which records it for the
    manifest, and read their inputs through the cached properties. Each
    input is therefore parsed at most once per call, and always from the
    file on disk, so fresh and resumed runs read their inputs the same way.
    """

    def __init__(self, config: PipelineConfig, out: Path):
        self.config = config
        self.out = out
        self.written: list[str] = []

    def new(self, name: str) -> Path:
        """Record ``name`` as an artifact of the running stage; its path."""
        self.written.append(name)
        return self.out / name

    @cached_property
    def trial(self) -> tuple[TrialTarget, list]:
        return load_trial_config(self.config.trial, self.config.schema)

    @cached_property
    def eligible(self) -> Cohort:
        return load_cohort(self.out / "eligible.csv", self.config.schema)

    @cached_property
    def matched(self) -> Cohort:
        return self.eligible.subset(
            [pid for tid, cid, _ in _read_rows(self.out / "matches.csv")
             for pid in (tid, cid)])

    def rewards(self, name: str) -> counterfactual.RewardMatrix:
        """Parse a reward CSV."""
        rows = _read_rows(self.out / name)
        return counterfactual.RewardMatrix(
            ids=tuple(pid for pid, _r0, _r1 in rows),
            rewards=np.array([(float(r0), float(r1)) for _pid, r0, r1 in rows]))


def _build_problem(run: _Run, risks: dict, quotas=None) -> stratify_match.MatchProblem:
    config, eligible = run.config, run.eligible
    spec = stratify_match.BucketSpec(config.buckets)
    if quotas is not None:
        spec = spec.with_quotas(quotas)
    sides = [eligible.take(eligible.treatments() == arm) for arm in (1, 0)]
    return stratify_match.MatchProblem(
        ids=tuple(tuple(side.ids) for side in sides),
        risks=tuple(np.array([risks[pid] for pid in side.ids]) for side in sides),
        X=tuple(side.covariate_matrix() for side in sides),
        buckets=spec,
        target=run.trial[0],
        covariate_names=config.schema.names,
        distance_covariates=config.match.distance_covariates,
        lambda_outcome=config.match.lambda_outcome,
        lambda_covariate=config.match.lambda_covariate,
        lambda_distance=config.match.lambda_distance,
    )


def _write_rewards(path: Path, matrix: counterfactual.RewardMatrix) -> None:
    _write_rows(path, ["id", "reward_control", "reward_treatment"],
                ([pid, repr(float(r0)), repr(float(r1))]
                 for pid, (r0, r1) in zip(matrix.ids, matrix.rewards)))


# --- stages -----------------------------------------------------------------

def _stage_filter(run: _Run):
    cohort = load_cohort(run.config.cohort, run.config.schema)
    _target, rules = run.trial
    result = apply_eligibility(cohort, rules)
    save_cohort(result.cohort, run.new("eligible.csv"))
    _write_json(run.new("filter.json"), {
        "n_input": len(cohort),
        "n_eligible": len(result.cohort),
        "exclusions": result.exclusions,
    })


def _stage_stratify(run: _Run):
    config, eligible = run.config, run.eligible
    target, _rules = run.trial
    untreated = eligible.take(eligible.treatments() == 0)
    if len(untreated) == 0:
        raise InsufficientDataError("no untreated patients to fit the risk model")
    known, labels = binarize_at_horizon(untreated, target.horizon_months)
    model = learner.fit(
        untreated.take(known).covariate_matrix(), labels, np.ones(labels.size),
        replace(config.learner, seed=config.seed))
    run.new("xray_model.json").write_text(model.to_json() + "\n", encoding="utf-8")

    risks = learner.predict_prob(model, eligible.covariate_matrix())
    _write_rows(run.new("risks.csv"), ["id", "risk"],
                ([pid, repr(float(r))] for pid, r in zip(eligible.ids, risks)))

    problem = _build_problem(run, dict(zip(eligible.ids, risks)))
    if config.quotas is not None:
        quotas = config.quotas
    else:
        quotas = stratify_match.default_quotas(problem)
    counts = {side: np.bincount(b, minlength=problem.buckets.n_buckets).tolist()
              for side, b in zip(("treated", "untreated"), problem.bucket)}
    _write_json(run.new("stratify.json"), {
        "boundaries": list(config.buckets),
        "quotas": list(quotas),
        "bucket_counts": counts,
        "n_training": labels.size,
        "n_censored_excluded": int((~known).sum()),
    })


def _stage_match(run: _Run):
    config = run.config
    quotas = _read_json(run.out / "stratify.json")["quotas"]
    risks = {pid: float(risk) for pid, risk in _read_rows(run.out / "risks.csv")}
    problem = _build_problem(run, risks, quotas=quotas)
    solution = stratify_match.solve(
        problem, mode=config.match.mode, seed=config.seed,
        move_budget=config.match.move_budget)
    bucket_of = dict(zip(problem.ids[0], problem.bucket[0]))
    _write_rows(run.new("matches.csv"), ["treated_id", "untreated_id", "bucket"],
                ([tid, cid, int(bucket_of[tid])] for tid, cid in solution.pairs))
    _write_json(run.new("match.json"), {
        "mode": config.match.mode,
        "objective": solution.objective,
        "breakdown": solution.breakdown,
        "achieved": solution.achieved,
        "targets": {
            "mu0": problem.target.mu0,
            "mu1": problem.target.mu1,
            "risk_target": problem.risk_target,
            "covariate_targets": {
                name: list(arms)
                for name, arms in sorted(problem.target.covariate_targets.items())
            },
        },
        "n_pairs": len(solution.pairs),
        "evals": solution.evals,
        "budget_exhausted": solution.budget_exhausted,
        "restart": solution.restart,
    })


def _stage_tune(run: _Run):
    config, matched = run.config, run.matched
    target, _rules = run.trial
    horizon = target.horizon_months
    fits = counterfactual.fit_counterfactuals(
        matched, horizon, replace(config.counterfactual_learner, seed=config.seed + 1),
        targets=[mu if arm in config.tune.arms else None
                 for arm, mu in enumerate((target.mu0, target.mu1))],
        tol=config.tune.tol, rho_max=config.tune.rho_max)
    _write_rewards(run.new("rewards.csv"), counterfactual.reward_matrix(fits, matched))
    _write_json(run.new("tune.json"), {
        "horizon_months": horizon,
        "rho0": fits[0].rho, "rho1": fits[1].rho,
        "hbar0": fits[0].hbar, "hbar1": fits[1].hbar,
        "targets": {"mu0": target.mu0, "mu1": target.mu1},
        "model_digests": [fit.model.weight_digest for fit in fits],
        "traces": {str(arm): asdict(fit.trace)
                   for arm, fit in enumerate(fits) if fit.trace is not None},
    })


def _stage_constrain(run: _Run):
    matrix = run.rewards("rewards.csv")
    factor, direction = run.config.constrain.factor, run.config.constrain.direction
    if factor is None:
        constrained = matrix
        meta = {"enabled": False}
    else:
        constrained = counterfactual.constrain_rewards(matrix, factor, direction)
        meta = {
            "enabled": True,
            "factor": factor,
            "direction": direction,
            "n_rows_adjusted": int(
                (constrained.rewards != matrix.rewards).any(axis=1).sum()),
        }
    _write_rewards(run.new("rewards_constrained.csv"), constrained)
    _write_json(run.new("constrain.json"), meta)


def _stage_tree(run: _Run):
    config, matched = run.config, run.matched
    matrix = run.rewards("rewards_constrained.csv")
    if tuple(matrix.ids) != tuple(matched.ids):
        raise ArtifactError("rewards_constrained.csv ids disagree with matches.csv")
    X = matched.covariate_matrix()
    candidates = [(tc, policy_tree.fit_policy_tree(X, matrix, tc))
                  for tc in config.tree.configs()]
    selected = policy_tree.select_tree(candidates, matrix, X)
    run.new("tree.json").write_text(selected.to_json() + "\n", encoding="utf-8")
    run.new("tree.txt").write_text(
        selected.render_text(list(config.schema.names)) + "\n", encoding="utf-8")
    _write_json(run.new("tree_meta.json"), {
        "grid": [
            {
                "max_depth": tc.max_depth,
                "min_leaf": tc.min_leaf,
                "concordance": policy_tree.concordance(tree, matrix, X),
                "n_leaves": len(tree.leaves()),
                "depth": tree.depth(),
                "training_value": tree.training_value,
                "selected": tree is selected,
            }
            for tc, tree in candidates
        ],
    })


def _group_outcomes(run: _Run, mask: np.ndarray, label: str) -> dict:
    """KM per received arm within one recommendation group, plus log-rank."""
    times = run.matched.times()
    events = run.matched.events()
    treatments = run.matched.treatments()
    entry = {"n": int(mask.sum())}
    m0, m1 = mask & (treatments == 0), mask & (treatments == 1)
    for sub, arm_name in ((m0, "control"), (m1, "treated")):
        entry[f"n_received_{arm_name}"] = int(sub.sum())
        if sub.any():
            curve = survival_stats.km_curve(times[sub], events[sub])
            _write_rows(run.new(f"km_{label}_{arm_name}.csv"),
                        ["time", "survival", "at_risk", "events"],
                        ([f"{t:.4f}", f"{s:.4f}", int(r), int(d)]
                         for t, s, r, d in zip(curve.times, curve.survival,
                                               curve.at_risk, curve.events)))
            entry[f"median_{arm_name}"] = survival_stats.median_survival(curve)
    if m0.any() and m1.any() and events[mask].sum() > 0:
        chi2, p = survival_stats.logrank(
            times[m0], events[m0], times[m1], events[m1])
        entry["logrank_chi2"] = chi2
        entry["logrank_p"] = p
    else:
        entry["logrank_chi2"] = None
        entry["logrank_p"] = None
    return entry


def _stage_validate(run: _Run):
    config, matched = run.config, run.matched
    tree = policy_tree.PolicyTree.from_json(
        (run.out / "tree.json").read_text(encoding="utf-8"))
    X = matched.covariate_matrix()
    arms, leaf_ids = policy_tree.assign(tree, X)

    subgroups = policy_tree.subgroup_report(
        tree, leaf_ids, matched.treatments(), config.tree.min_effect)

    groups = {}
    for label, mask in (("recommended", arms == 1),
                        ("advised_against", arms == 0)):
        groups[label] = _group_outcomes(run, mask, label) if mask.any() else {"n": 0}

    balance = {"test": "welch-t", "scores": {}}
    names = config.schema.names
    if all(f in names for f in CLINICAL_SCORE_FIELDS):
        cols = {f: names.index(f) for f in CLINICAL_SCORE_FIELDS}
        # score inputs are defined on nonnegative measurements; clamp any
        # stray negative continuous values rather than failing the audit
        inputs = [
            survival_stats.RiskScoreInput(
                node_positive=bool(row[cols["node_positive"]]),
                dfi_months=max(0.0, float(row[cols["dfi_months"]])),
                n_tumors=max(0, int(row[cols["n_tumors"]])),
                max_size_cm=max(0.0, float(row[cols["max_size_cm"]])),
                cea_ng_ml=max(0.0, float(row[cols["cea_ng_ml"]])),
                kras_mutated=bool(row[cols["kras_mutated"]]),
            )
            for row in X
        ]
        for score_name, fn in (("crs", survival_stats.crs_score),
                               ("game", survival_stats.game_score)):
            values = [fn(inp) for inp in inputs]
            audit = survival_stats.node_balance_audit(
                leaf_ids, matched.treatments(), values)
            balance["scores"][score_name] = {str(k): v for k, v in audit.items()}
    else:
        balance["skipped"] = "clinical score covariates not present in schema"

    _write_json(run.new("validation.json"), {
        "subgroups": {str(k): v for k, v in subgroups.items()},
        "min_effect": config.tree.min_effect,
        "groups": groups,
        "balance": balance,
    })


_STAGE_FUNCS = {
    "filter": _stage_filter,
    "stratify": _stage_stratify,
    "match": _stage_match,
    "tune": _stage_tune,
    "constrain": _stage_constrain,
    "tree": _stage_tree,
    "validate": _stage_validate,
}


# --- orchestration ----------------------------------------------------------

def _input_sha256(path) -> str:
    try:
        return _sha256(Path(path))
    except OSError as exc:
        raise ConfigError(
            f"cannot read input file {path}: {exc.strerror or exc}") from None


def _config_digest(config: PipelineConfig) -> str:
    """Digest of the config and of the cohort and trial file contents, so a
    changed input invalidates every recorded stage."""
    doc = json.dumps(dict(asdict(config),
                          cohort_sha256=_input_sha256(config.cohort),
                          trial_sha256=_input_sha256(config.trial)),
                     sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _read_manifest(path: Path) -> dict:
    """The manifest at ``path``: a JSON object whose ``stages`` lists
    objects with a string ``name`` and an object ``artifacts`` keyed by
    plain file names, so no listed artifact lies outside the run
    directory."""
    try:
        manifest = _read_json(path)
    except ValueError:  # not UTF-8, or not JSON
        manifest = None
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("artifacts"), dict)
            and all(Path(n).name == n not in ("", "..") for n in e["artifacts"])
            for e in stages):
        raise ArtifactError(f"{path}: malformed manifest.json; delete it and rerun")
    return manifest


def _verify_stage(out: Path, entry: dict) -> None:
    for name, digest in entry["artifacts"].items():
        path = out / name
        if not path.exists():
            raise ArtifactError(
                f"stage {entry['name']}: artifact {name} missing; "
                f"delete manifest.json or rerun from that stage")
        if _sha256(path) != digest:
            raise ArtifactError(
                f"stage {entry['name']}: artifact {name} does not match its "
                f"recorded hash (tampered or regenerated out of band)")


def _remove_artifacts(out: Path, entries) -> None:
    """Delete the files that manifest entries list; ``_read_manifest``
    admits only plain file names, so each lies inside ``out``."""
    for entry in entries:
        for name in entry["artifacts"]:
            path = out / name
            if path.is_file():
                path.unlink()


def run_pipeline(config: PipelineConfig, out_dir,
                 until: str | None = None) -> dict:
    """Run all stages (or up to ``until``), resuming from intact artifacts.

    Returns the manifest dict; ``manifest.json`` is written after each
    stage that completes, and only then, so a failed run keeps its partial
    artifacts. Artifacts of recorded stages that cannot be resumed are
    deleted, with the stale manifest and report bundle, before any stage
    runs.
    """
    if until is not None and until not in STAGES:
        raise ConfigError(f"unknown stage {until!r}; expected one of {STAGES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    digest = _config_digest(config)

    completed = []
    if manifest_path.exists():
        previous = _read_manifest(manifest_path)
        entries = previous["stages"]
        if previous.get("config_digest") == digest:
            by_name = {e["name"]: e for e in entries}
            for name in STAGES:  # completed stages must form a prefix
                if name not in by_name:
                    break
                _verify_stage(out, by_name[name])
                completed.append(by_name[name])
        if len(completed) < len(entries):
            _remove_artifacts(out, [e for e in entries if e not in completed])
            _remove_report(out)
            manifest_path.unlink(missing_ok=True)

    manifest = {
        "config_digest": digest,
        "seed": config.seed,
        "stages": completed,
    }
    done = {e["name"] for e in completed}
    run = _Run(config, out)
    for name in STAGES:
        if name not in done:
            try:
                _STAGE_FUNCS[name](run)
            except Exception as exc:
                exc.stage = name
                raise
            manifest["stages"].append({
                "name": name,
                "artifacts": {f: _sha256(out / f) for f in run.written},
            })
            run.written.clear()
            _write_json(manifest_path, manifest)
        if name == until:
            break
    return manifest


# --- report bundle ----------------------------------------------------------

# the bundle's files besides the KM curves (km_*.csv)
REPORT_FILES = ("achieved_vs_target.csv", "tuning_trace.csv", "tree.json",
                "tree.txt", "logrank.csv", "balance.csv", "subgroups.csv")


def _remove_report(out: Path) -> None:
    """Delete the files ``report`` writes into ``out/report``: its fixed
    names and every KM curve."""
    rep = out / "report"
    for path in [rep / name for name in REPORT_FILES] + list(rep.glob("km_*.csv")):
        path.unlink(missing_ok=True)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    _write_rows(path, header, ([_fmt(v) for v in row] for row in rows))


def report(run_dir) -> Path:
    """Assemble the report bundle from a run directory's artifacts.

    Every artifact the manifest lists is checked against its recorded hash
    before anything is read, and only listed files are bundled.
    """
    out = Path(run_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise ArtifactError(f"{out}: no manifest.json; run the pipeline first")
    stages = {e["name"]: e for e in _read_manifest(manifest_path)["stages"]}
    missing = [s for s in ("match", "tune", "tree", "validate") if s not in stages]
    if missing:
        raise ArtifactError(
            f"report needs completed stages {missing}; rerun them first")
    for entry in stages.values():
        _verify_stage(out, entry)

    _remove_report(out)  # nothing from an earlier bundle survives
    rep = out / "report"
    rep.mkdir(exist_ok=True)

    match = _read_json(out / "match.json")
    tune = _read_json(out / "tune.json")
    validation = _read_json(out / "validation.json")

    targets = match["targets"]
    rows = [
        ["event_free_treated", targets["mu0"],
         1.0 - match["achieved"]["mean_risk_treated"]],
        ["event_free_untreated", targets["mu0"],
         1.0 - match["achieved"]["mean_risk_untreated"]],
    ]
    for name, (a0, a1) in sorted(targets["covariate_targets"].items()):
        rows.append([f"{name}_treated", a1,
                     match["achieved"]["covariate_means_treated"][name]])
        rows.append([f"{name}_untreated", a0,
                     match["achieved"]["covariate_means_untreated"][name]])
    _write_csv(rep / "achieved_vs_target.csv",
               ["metric", "target", "achieved"], rows)

    trace_rows = []
    for arm in sorted(tune.get("traces", {})):
        tr = tune["traces"][arm]
        for i, (rho, hbar, resid) in enumerate(zip(
                tr["rho_sequence"], tr["hbar_sequence"], tr["residuals"])):
            trace_rows.append([arm, i, rho, hbar, resid])
    _write_csv(rep / "tuning_trace.csv",
               ["arm", "step", "rho", "hbar", "residual"], trace_rows)

    kms = sorted(n for n in stages["validate"]["artifacts"] if n.startswith("km_"))
    for name in ["tree.json", "tree.txt"] + kms:
        (rep / name).write_text((out / name).read_text(encoding="utf-8"),
                                encoding="utf-8")

    logrank_rows = []
    for label in ("recommended", "advised_against"):
        g = validation["groups"].get(label, {})
        logrank_rows.append([
            label, g.get("n", 0),
            g.get("n_received_treated", 0), g.get("n_received_control", 0),
            g.get("logrank_chi2"), g.get("logrank_p"),
            g.get("median_treated"), g.get("median_control"),
        ])
    _write_csv(rep / "logrank.csv",
               ["group", "n", "n_received_treated", "n_received_control",
                "chi2", "p", "median_treated", "median_control"],
               logrank_rows)

    balance_rows = []
    for score_name, leaves in sorted(validation["balance"]["scores"].items()):
        for leaf in sorted(leaves, key=int):
            e = leaves[leaf]
            balance_rows.append([score_name, leaf, e["n0"], e["n1"],
                                 e["mean0"], e["mean1"], e["p"]])
    _write_csv(rep / "balance.csv",
               ["score", "leaf", "n_control", "n_treated",
                "mean_control", "mean_treated", "p"],
               balance_rows)

    subgroup_rows = []
    for leaf in sorted(validation["subgroups"], key=int):
        e = validation["subgroups"][leaf]
        subgroup_rows.append([
            leaf, e["recommended_treatment"], e["n"],
            e["n_received_control"], e["n_received_treatment"],
            e["mean_reward_control"], e["mean_reward_treatment"],
            e["effect"], e["flagged"],
        ])
    _write_csv(rep / "subgroups.csv",
               ["leaf", "recommended_treatment", "n", "n_received_control",
                "n_received_treatment", "mean_reward_control",
                "mean_reward_treatment", "effect", "flagged"],
               subgroup_rows)
    return rep
