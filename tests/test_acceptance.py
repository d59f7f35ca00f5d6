"""End-to-end acceptance gates.

Each test here is one of the eight release criteria: matching and
policy-tree brute-force oracles, target attainment and weight tuning on
the shipped demo corpus, planted-subgroup recovery, survival-statistic
reference values, constrained-reward monotonicity, and determinism.
"""

from __future__ import annotations

import filecmp
import itertools
import json
import time

import numpy as np
import pytest

from trialemu import pipeline, policy_tree, stratify_match, survival_stats
from trialemu.cohort import TrialTarget
from trialemu.counterfactual import RewardMatrix, constrain_rewards
from trialemu.policy_tree import PolicyTreeConfig, assign, fit_policy_tree
from trialemu.survival_stats import RiskScoreInput

from conftest import covariate_matrix, read_csv_dicts


# --- 1. matching oracle -----------------------------------------------------

def _random_match_problem(rng):
    n_buckets = int(rng.integers(1, 3))
    boundaries = (0.0, 1.0) if n_buckets == 1 else (0.0, 0.5, 1.0)
    n_t = int(rng.integers(2, 7))
    n_c = int(rng.integers(2, 7))
    target = TrialTarget(
        horizon_months=60.0,
        mu0=float(rng.uniform(0.2, 0.8)),
        mu1=float(rng.uniform(0.2, 0.8)),
        covariate_targets={"a": (float(rng.uniform(-1, 1)),
                                 float(rng.uniform(-1, 1)))},
    )
    t_risks, t_X = rng.uniform(0, 1, n_t), rng.normal(size=(n_t, 2))
    c_risks, c_X = rng.uniform(0, 1, n_c), rng.normal(size=(n_c, 2))
    problem = stratify_match.MatchProblem(
        ids=(tuple(f"t{i}" for i in range(n_t)), tuple(f"c{j}" for j in range(n_c))),
        risks=(t_risks, c_risks),
        X=(t_X, c_X),
        buckets=stratify_match.BucketSpec(boundaries),
        target=target,
        covariate_names=("a", "b"),
        distance_covariates=("a", "b"),
    )
    quotas = []
    for k in range(problem.buckets.n_buckets):
        cap = min(int((b == k).sum()) for b in problem.bucket)
        quotas.append(int(rng.integers(0, cap + 1)))
    if sum(quotas) == 0:
        return None
    problem.buckets = problem.buckets.with_quotas(quotas)
    return problem


def _brute_force_match(problem):
    """Exhaustive enumeration of all feasible pair sets; returns the
    minimum objective."""
    K = problem.buckets.n_buckets
    quotas = problem.buckets.quotas
    per_bucket_options = []
    for k in range(K):
        T, C = (np.nonzero(b == k)[0] for b in problem.bucket)
        q = quotas[k]
        options = []
        for sel_t in itertools.combinations(T, q):
            for sel_c in itertools.combinations(C, q):
                for perm in itertools.permutations(sel_c):
                    options.append([
                        (problem.ids[0][i], problem.ids[1][j])
                        for i, j in zip(sel_t, perm)
                    ])
        per_bucket_options.append(options)
    best = np.inf
    for combo in itertools.product(*per_bucket_options):
        pairs = tuple(sorted(p for bucket in combo for p in bucket))
        sol = stratify_match.MatchSolution(pairs, 0.0, {}, {})
        breakdown = stratify_match.evaluate_objective(problem, sol)
        best = min(best, breakdown["total"])
    return best


def test_matching_solvers_agree_with_enumeration():
    rng = np.random.default_rng(20250824)
    start = time.monotonic()
    cases = 0
    while cases < 100:
        problem = _random_match_problem(rng)
        if problem is None:
            continue
        cases += 1
        optimum = _brute_force_match(problem)
        exact = stratify_match.solve(problem, mode="exact")
        assert abs(exact.objective - optimum) <= 1e-9, (
            f"case {cases}: exact {exact.objective} vs optimum {optimum}")
        heur = stratify_match.solve(problem, mode="heuristic", seed=cases)
        assert heur.objective <= optimum * 1.05 + 1e-9, (
            f"case {cases}: heuristic {heur.objective} vs optimum {optimum}")
    assert time.monotonic() - start < 60.0


# --- 2. target attainment on the shipped demo -------------------------------

def test_demo_matching_attains_trial_targets(demo_run):
    out, seconds = demo_run
    assert seconds < 300.0
    match = json.loads((out / "match.json").read_text())
    mu0 = match["targets"]["mu0"]
    for arm in ("untreated", "treated"):
        achieved_event_free = 1.0 - match["achieved"][f"mean_risk_{arm}"]
        assert abs(achieved_event_free - mu0) <= 0.02
    for name, (a0, a1) in match["targets"]["covariate_targets"].items():
        got_t = match["achieved"]["covariate_means_treated"][name]
        got_c = match["achieved"]["covariate_means_untreated"][name]
        assert abs(got_t - a1) <= 0.03, name
        assert abs(got_c - a0) <= 0.03, name


# --- 3. weight tuning closes the planted confounding gap --------------------

def test_demo_tuning_closes_confounding_gap(demo_run):
    out, _ = demo_run
    tune = json.loads((out / "tune.json").read_text())
    mu1 = tune["targets"]["mu1"]
    trace = tune["traces"]["1"]
    untuned = trace["hbar_sequence"][0]
    assert trace["rho_sequence"][0] == 1.0
    assert mu1 - untuned >= 0.03, "planted confounding gap too small"
    assert abs(tune["hbar1"] - mu1) <= 0.005
    for arm_trace in tune["traces"].values():
        assert len(arm_trace["rho_sequence"]) <= 15


# --- 4. policy-tree oracle --------------------------------------------------

def _enumerate_tree_value(idx, X, R, depth_left):
    """Best total reward achievable by any axis-aligned tree of the given
    remaining depth over the rows in idx (min_leaf = 1)."""
    best = max(float(R[idx, 0].sum()), float(R[idx, 1].sum()))
    if depth_left == 0 or idx.size < 2:
        return best
    for f in range(X.shape[1]):
        vals = np.unique(X[idx, f])
        for thr in (vals[:-1] + vals[1:]) / 2.0:
            mask = X[idx, f] < thr
            v = (_enumerate_tree_value(idx[mask], X, R, depth_left - 1)
                 + _enumerate_tree_value(idx[~mask], X, R, depth_left - 1))
            best = max(best, v)
    return best


def test_policy_tree_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    cfg = PolicyTreeConfig(max_depth=2, min_leaf=1)
    shortfalls = []
    for case in range(200):
        n = int(rng.integers(2, 13))
        L = int(rng.integers(1, 3))
        X = np.round(rng.random((n, L)), 1)  # duplicates exercise tie rules
        R = rng.random((n, 2))
        tree = fit_policy_tree(X, R, cfg)
        fitted = tree.training_value * n
        optimum = _enumerate_tree_value(np.arange(n), X, R, 2)
        assert fitted <= optimum + 1e-9, f"case {case}: above enumeration"
        if fitted < optimum - 1e-9:
            shortfalls.append((case, fitted, optimum))
    assert len(shortfalls) <= 5, f"shortfalls: {shortfalls}"


# --- 5. planted-subgroup recovery -------------------------------------------

def test_hte_pipeline_recovers_planted_subgroup(hte_run, hte_corpus):
    names = ("node_positive", "dfi_months", "n_tumors", "max_size_cm",
             "cea_ng_ml", "kras_mutated")
    tree = policy_tree.PolicyTree.from_json(
        (hte_run / "tree.json").read_text(encoding="utf-8"))

    obs = read_csv_dicts(hte_corpus / "observational.csv")
    truth = {r["id"]: float(r["true_effect_multiplier"])
             for r in read_csv_dicts(hte_corpus / "truth.csv")}
    arms, _ = assign(tree, covariate_matrix(obs, names))
    benefiting = np.array([truth[r["id"]] < 1.0 for r in obs])
    assert arms[benefiting].mean() >= 0.90
    assert arms[~benefiting].mean() <= 0.20

    rct = read_csv_dicts(hte_corpus / "rct.csv")
    rct_arms, _ = assign(tree, covariate_matrix(rct, names))
    t = np.array([float(r["time"]) for r in rct])
    e = np.array([int(r["event"]) for r in rct])
    z = np.array([int(r["treatment"]) for r in rct])
    ps = {}
    for label, mask in (("recommended", rct_arms == 1),
                        ("advised_against", rct_arms == 0)):
        _, ps[label] = survival_stats.logrank(
            t[mask & (z == 0)], e[mask & (z == 0)],
            t[mask & (z == 1)], e[mask & (z == 1)])
    assert ps["recommended"] < 0.05
    assert ps["advised_against"] > 0.05


# --- 6. survival-statistics reference gates ---------------------------------

# P(X > x) for a chi-square with one degree of freedom (scipy.stats.chi2.sf)
CHI2_SF_REFERENCE = [
    (0.0, 1.0),
    (0.001, 0.9747728793699604),
    (0.01, 0.920344325445942),
    (0.1, 0.7518296340458492),
    (0.5, 0.47950012218695337),
    (1.0, 0.31731050786291115),
    (2.0, 0.15729920705028105),
    (3.84, 0.05004352124870519),
    (5.0, 0.025347318677468325),
    (10.0, 0.001565402258002549),
    (25.0, 5.733031437583875e-07),
    (50.0, 1.537459794428033e-12),
]


def test_survival_statistics_reference_gates():
    curve = survival_stats.km_curve([1, 2, 3], [1, 1, 1])
    assert np.allclose(curve.survival, [2 / 3, 1 / 3, 0.0], atol=1e-12)
    curve = survival_stats.km_curve([1, 2, 3], [1, 0, 1])
    assert abs(curve.survival_at(1) - 2 / 3) <= 1e-12
    assert abs(curve.survival_at(3) - 0.0) <= 1e-12

    times = [3, 7, 11, 14, 20]
    events = [1, 0, 1, 1, 0]
    stat, p = survival_stats.logrank(times, events, times, events)
    assert stat == 0.0 and p == 1.0

    for x, expected in CHI2_SF_REFERENCE:
        assert abs(survival_stats.chi2_sf_1df(x) - expected) <= 1e-8, x

    # exhaustive flag grid: toggle each scoring criterion independently
    for flags in itertools.product((0, 1), repeat=5):
        node, dfi_low, multi, big, cea_high = flags
        inp = RiskScoreInput(
            node_positive=bool(node),
            dfi_months=6.0 if dfi_low else 24.0,
            n_tumors=2 if multi else 1,
            max_size_cm=6.0 if big else 3.0,
            cea_ng_ml=250.0 if cea_high else 10.0,
            kras_mutated=False,
        )
        assert survival_stats.crs_score(inp) == sum(flags)
    for flags in itertools.product((0, 1), repeat=5):
        kras, cea20, node, tbs_mid, tbs_high = flags
        if tbs_mid and tbs_high:
            continue
        if tbs_high:
            size, count = 9.0, 3  # TBS ~ 9.49
        elif tbs_mid:
            size, count = 4.0, 3  # TBS = 5
        else:
            size, count = 2.0, 1  # TBS ~ 2.24
        inp = RiskScoreInput(
            node_positive=bool(node),
            dfi_months=24.0,
            n_tumors=count,
            max_size_cm=size,
            cea_ng_ml=25.0 if cea20 else 10.0,
            kras_mutated=bool(kras),
        )
        expected = kras + cea20 + node + tbs_mid + 2 * tbs_high
        assert survival_stats.game_score(inp) == expected


# --- 7. constrained-reward monotonicity -------------------------------------

def test_constraining_never_decreases_treated_count(demo_run):
    out, _ = demo_run
    rows = read_csv_dicts(out / "rewards.csv")
    R = np.array([[float(r["reward_control"]), float(r["reward_treatment"])]
                  for r in rows])
    ids = tuple(r["id"] for r in rows)
    eligible = {r["id"]: r for r in read_csv_dicts(out / "eligible.csv")}
    names = ("node_positive", "dfi_months", "n_tumors", "max_size_cm",
             "cea_ng_ml", "kras_mutated")
    X = covariate_matrix([eligible[pid] for pid in ids], names)
    cfg = PolicyTreeConfig(max_depth=3, min_leaf=20)
    previous = -1
    for c in (1.0, 0.9, 0.78, 0.6):
        matrix = constrain_rewards(
            RewardMatrix(ids=ids, rewards=R.copy()), c)
        tree = fit_policy_tree(X, matrix.rewards, cfg)
        n_treated = int(assign(tree, X)[0].sum())
        assert n_treated >= previous, f"c={c}: {n_treated} < {previous}"
        previous = n_treated


# --- 8. determinism ---------------------------------------------------------

def test_repeated_runs_are_byte_identical(hte_pipeline_yaml, tmp_path):
    cfg = pipeline.load_pipeline_config(hte_pipeline_yaml)
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        pipeline.run_pipeline(cfg, out)
        pipeline.report(out)
        dirs.append(out)
    a, b = dirs
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    report_files = sorted(p.name for p in (a / "report").iterdir())
    assert report_files == sorted(p.name for p in (b / "report").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(
        a / "report", b / "report", report_files, shallow=False)
    assert not mismatch and not errors
