"""Risk bucketing, quota derivation, and the matching solvers."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from trialemu import stratify_match
from trialemu.cohort import TrialTarget
from trialemu.errors import (
    ConfigError,
    InvalidSolutionError,
    SchemaError,
    TargetInfeasibleError,
)
from trialemu.stratify_match import (
    SWAP_CHUNK,
    BucketSpec,
    MatchProblem,
    MatchSolution,
    _bucket_members,
    _build_solution,
    _greedy_pairs,
    _HeurState,
    assign_buckets,
    default_quotas,
    evaluate_objective,
    solve,
)


def make_problem(t_risks, c_risks, boundaries, quotas, mu0=0.4,
                 cov_targets=None, tX=None, cX=None, dist=()):
    t_risks = np.asarray(t_risks, dtype=float)
    c_risks = np.asarray(c_risks, dtype=float)
    target = TrialTarget(horizon_months=60.0, mu0=mu0, mu1=0.5,
                         covariate_targets=cov_targets or {})
    return MatchProblem(
        ids=(tuple(f"t{i}" for i in range(t_risks.size)),
             tuple(f"c{i}" for i in range(c_risks.size))),
        risks=(t_risks, c_risks),
        X=tuple(np.zeros((r.size, 1)) if X is None else np.asarray(X)
                for r, X in ((t_risks, tX), (c_risks, cX))),
        buckets=BucketSpec(tuple(boundaries), tuple(quotas)),
        target=target,
        covariate_names=("x",),
        distance_covariates=tuple(dist),
    )


def small_instances():
    """Fifteen seeded one-bucket problems with two to four patients a side."""
    rng = np.random.default_rng(0)
    for _ in range(15):
        n_t, n_c = rng.integers(2, 5), rng.integers(2, 5)
        q = int(rng.integers(1, min(n_t, n_c) + 1))
        yield make_problem(
            rng.uniform(0.2, 0.9, n_t), rng.uniform(0.2, 0.9, n_c),
            (0.0, 1.0), (q,),
            cov_targets={"x": (0.5, 0.5)},
            tX=rng.normal(size=(n_t, 1)), cX=rng.normal(size=(n_c, 1)),
            dist=("x",))


class TestBuckets:
    def test_boundary_membership(self):
        spec = BucketSpec((0.0, 0.2, 0.6, 1.0))
        np.testing.assert_array_equal(
            assign_buckets([0.0, 0.15, 0.2, 0.59, 0.6, 1.0], spec),
            [0, 0, 1, 1, 2, 2])  # half-open left edges; 1.0 joins the last

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            BucketSpec((0.1, 1.0))
        with pytest.raises(ConfigError):
            BucketSpec((0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ConfigError, match="ascending"):
            BucketSpec((0.0, np.nan, 1.0))
        with pytest.raises(ConfigError):
            BucketSpec((0.0, 1.0), quotas=(1, 2))
        with pytest.raises(ConfigError):
            BucketSpec((0.0, 1.0), quotas=(-1,))

    def test_risks_outside_unit_interval(self):
        with pytest.raises(ConfigError):
            assign_buckets([1.1], BucketSpec((0.0, 1.0)))
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(ConfigError):
                assign_buckets([0.5, bad], BucketSpec((0.0, 1.0)))
            with pytest.raises(ConfigError):
                make_problem([0.5, bad], [0.5], (0.0, 1.0), (1,))
            with pytest.raises(ConfigError):
                make_problem([0.5], [0.5, bad], (0.0, 1.0), (1,))
        # each side needs one risk and one covariate row per id
        good = make_problem([0.5, 0.6], [0.5, 0.6], (0.0, 1.0), (1,))
        for risks, X in [
            (([0.5], [0.5, 0.6]), good.X),                       # risks short of ids
            (good.risks, (np.zeros((2, 1)), np.zeros((3, 1)))),  # extra X row
            (good.risks, (np.zeros((2, 2)), np.zeros((2, 1)))),  # extra column
            (good.risks, (np.zeros(2), np.zeros((2, 1)))),       # X not a matrix
        ]:
            with pytest.raises(SchemaError):
                replace(good, risks=risks, X=X)

    def test_default_quotas_caps_when_target_attainable(self):
        # every untreated risk sits exactly on the target, so alpha = 1
        problem = make_problem(
            t_risks=[0.6, 0.6, 0.6, 0.6],
            c_risks=[0.6] * 6, boundaries=(0.0, 1.0), quotas=())
        assert default_quotas(problem) == (4,)

    def test_default_quotas_infeasible_target(self):
        problem = make_problem(
            t_risks=[0.1, 0.1], c_risks=[0.1, 0.1],
            boundaries=(0.0, 1.0), quotas=(), mu0=0.05)  # target risk 0.95
        with pytest.raises(TargetInfeasibleError):
            default_quotas(problem)


class TestObjective:
    def test_perfect_match_scores_zero(self):
        problem = make_problem(
            [0.6], [0.6], (0.0, 1.0), (1,),
            cov_targets={"x": (3.0, 2.0)}, tX=[[2.0]], cX=[[3.0]])
        sol = MatchSolution((("t0", "c0"),), 0.0, {}, {})
        assert evaluate_objective(problem, sol)["total"] == 0.0

    def test_outcome_deviation_term(self):
        problem = make_problem([0.6], [0.7], (0.0, 1.0), (1,))
        sol = MatchSolution((("t0", "c0"),), 0.0, {}, {})
        breakdown = evaluate_objective(problem, sol)
        assert breakdown["outcome_untreated"] == pytest.approx(0.1, abs=1e-12)
        assert breakdown["total"] == pytest.approx(
            problem.lambda_outcome * 0.1, abs=1e-12)

    def test_two_pair_hand_value(self):
        # treated mean risk 0.6 == target; untreated mean 0.585 -> 0.015;
        # treated x mean 2.6 vs target 2.5 -> 0.1; untreated 2.9 vs 3.0 -> 0.1
        problem = make_problem(
            [0.5, 0.7], [0.55, 0.62], (0.0, 1.0), (2,),
            cov_targets={"x": (3.0, 2.5)},
            tX=[[2.0], [3.2]], cX=[[2.8], [3.0]])
        sol = MatchSolution((("t0", "c0"), ("t1", "c1")), 0.0, {}, {})
        breakdown = evaluate_objective(problem, sol)
        assert breakdown["outcome_untreated"] == pytest.approx(0.015, abs=1e-12)
        assert breakdown["covariate_treated"] == pytest.approx(0.1, abs=1e-12)
        assert breakdown["covariate_untreated"] == pytest.approx(0.1, abs=1e-12)
        assert breakdown["total"] == pytest.approx(0.215, abs=1e-12)

    def test_duplicate_and_unknown_patients_rejected(self):
        problem = make_problem([0.5, 0.6], [0.5, 0.6], (0.0, 1.0), (2,))
        dup = MatchSolution((("t0", "c0"), ("t0", "c1")), 0.0, {}, {})
        with pytest.raises(InvalidSolutionError, match="more than once"):
            evaluate_objective(problem, dup)
        ghost = MatchSolution((("t9", "c0"), ("t1", "c1")), 0.0, {}, {})
        with pytest.raises(InvalidSolutionError, match="unknown"):
            evaluate_objective(problem, ghost)

    def test_cross_bucket_pair_rejected(self):
        problem = make_problem([0.2, 0.8], [0.8, 0.2], (0.0, 0.5, 1.0), (1, 1))
        crossed = MatchSolution((("t0", "c0"), ("t1", "c1")), 0.0, {}, {})
        with pytest.raises(InvalidSolutionError, match="crosses buckets"):
            evaluate_objective(problem, crossed)

    def test_quota_mismatch_rejected(self):
        problem = make_problem([0.5, 0.6], [0.5, 0.6], (0.0, 1.0), (2,))
        short = MatchSolution((("t0", "c0"),), 0.0, {}, {})
        with pytest.raises(InvalidSolutionError, match="quota"):
            evaluate_objective(problem, short)


class TestSolvers:
    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_unique_feasible_pair(self, mode):
        problem = make_problem([0.55], [0.58], (0.0, 1.0), (1,))
        sol = solve(problem, mode=mode)
        assert sol.pairs == (("t0", "c0"),)
        assert sol.objective == pytest.approx(0.05 + 0.02, abs=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_zero_quotas_give_empty_solution(self, mode):
        problem = make_problem([0.2], [0.8], (0.0, 0.5, 1.0), (0, 0))
        sol = solve(problem, mode=mode)
        assert sol.pairs == () and sol.objective == 0.0

    def test_exact_prefers_close_pairs(self):
        # risks/targets identical everywhere; only pair distance differs,
        # so the optimal pairing matches nearest x values
        problem = make_problem(
            [0.6, 0.6], [0.6, 0.6], (0.0, 1.0), (2,),
            tX=[[0.0], [10.0]], cX=[[9.9], [0.1]], dist=("x",))
        sol = solve(problem, mode="exact")
        assert set(sol.pairs) == {("t0", "c1"), ("t1", "c0")}

    def test_heuristic_matches_exact_on_small_instances(self):
        for problem in small_instances():
            exact = solve(problem, mode="exact")
            heur = solve(problem, mode="heuristic", seed=3)
            assert heur.objective <= exact.objective * 1.05 + 1e-9
            evaluate_objective(problem, heur)  # constraints hold

    def test_heuristic_is_deterministic(self):
        rng = np.random.default_rng(5)
        problem = make_problem(
            rng.uniform(0.3, 0.8, 30), rng.uniform(0.3, 0.8, 40),
            (0.0, 0.55, 1.0), (8, 6),
            tX=rng.normal(size=(30, 1)), cX=rng.normal(size=(40, 1)),
            dist=("x",))
        a = solve(problem, mode="heuristic", seed=9)
        b = solve(problem, mode="heuristic", seed=9)
        assert a.pairs == b.pairs and a.objective == b.objective

    def test_exact_refuses_oversized_instances(self):
        # one bucket of 1000 x 1000 at quota 1: 10**6 pair columns
        rng = np.random.default_rng(1)
        problem = make_problem(
            rng.uniform(0.3, 0.8, 1000), rng.uniform(0.3, 0.8, 1000),
            (0.0, 1.0), (1,))
        with pytest.raises(ConfigError, match="heuristic"):
            solve(problem, mode="exact")

    def test_quota_exceeding_supply_is_infeasible(self):
        problem = make_problem([0.5], [0.5, 0.6], (0.0, 1.0), (2,))
        with pytest.raises(TargetInfeasibleError):
            solve(problem, mode="heuristic")

    def test_unset_quotas_and_unknown_mode(self):
        problem = make_problem([0.5], [0.5], (0.0, 1.0), ())
        with pytest.raises(ConfigError):
            solve(problem, mode="heuristic")
        problem2 = make_problem([0.5], [0.5], (0.0, 1.0), (1,))
        with pytest.raises(ConfigError):
            solve(problem2, mode="annealing")


def golden_problem(seed, n_t, n_c, boundaries, share, dist=("a", "b"),
                   lambdas=(1.0, 1.0, 1.0)):
    """Seeded problem with two targeted and three covariates; each bucket's
    quota is the given share of its smaller arm."""
    rng = np.random.default_rng(seed)
    t_risks = rng.uniform(0.2, 0.9, n_t)
    c_risks = rng.uniform(0.2, 0.9, n_c)
    spec = BucketSpec(tuple(boundaries))
    tb, cb = assign_buckets(t_risks, spec), assign_buckets(c_risks, spec)
    quotas = [int(share * min((tb == k).sum(), (cb == k).sum()))
              for k in range(spec.n_buckets)]
    return MatchProblem(
        ids=(tuple(f"t{i}" for i in range(n_t)), tuple(f"c{i}" for i in range(n_c))),
        risks=(t_risks, c_risks),
        X=(rng.normal(size=(n_t, 3)), rng.normal(0.3, 1.2, size=(n_c, 3))),
        buckets=spec.with_quotas(quotas),
        target=TrialTarget(horizon_months=60.0, mu0=0.45, mu1=0.55,
                           covariate_targets={"a": (0.2, 0.0), "b": (0.5, -0.1)}),
        covariate_names=("a", "b", "c"), distance_covariates=dist,
        lambda_outcome=lambdas[0], lambda_covariate=lambdas[1],
        lambda_distance=lambdas[2])


# n_sel is 7 and 26 (8 restarts) and 225 (one restart)
GOLDEN_PROBLEMS = {
    "one-bucket": dict(seed=1, n_t=14, n_c=18, boundaries=(0.0, 1.0), share=0.5),
    "one-bucket-no-distance": dict(seed=2, n_t=14, n_c=18,
                                   boundaries=(0.0, 1.0), share=0.5, dist=()),
    "three-buckets": dict(seed=3, n_t=45, n_c=60,
                          boundaries=(0.0, 0.45, 0.6, 1.0), share=0.6,
                          lambdas=(2.0, 0.5, 0.3)),
    "single-restart": dict(seed=4, n_t=330, n_c=360,
                           boundaries=(0.0, 0.5, 1.0), share=0.7),
}

# (problem, move budget): (n pairs, sha256 prefix of the pairs, objective,
# sha256 prefix of the achieved means) of solve(seed=7); any change to the
# search's float arithmetic, its evaluation count, or the order in which
# the achieved means add the paired patients shows here
HEURISTIC_GOLDEN = {
    ("one-bucket", 0): (7, "6c81a390be919548", 1.3042490104989721,
                        "cde7f4c9baeb2ae2"),
    ("one-bucket", 1): (7, "5e14e71cd599ae2b", 1.227628974499126,
                        "b59e1c69d8f86c7e"),
    ("one-bucket", 7): (7, "93a7baae4e982510", 1.1920016492933978,
                        "34aee059aba26c31"),
    ("one-bucket", 50): (7, "6ca6e1dac033d1e4", 1.0307878323181294,
                         "91ed01af9f03adb9"),
    ("one-bucket", 10**6): (7, "9b393c96558cdc34", 0.43819174000253214,
                            "36a0a275e555c882"),
    ("one-bucket-no-distance", 0): (7, "237210956b917896", 0.5581102298975921,
                                    "1664b1f40700ed57"),
    ("one-bucket-no-distance", 1): (7, "237210956b917896", 0.5581102298975921,
                                    "1664b1f40700ed57"),
    ("one-bucket-no-distance", 7): (7, "237210956b917896", 0.5581102298975921,
                                    "1664b1f40700ed57"),
    ("one-bucket-no-distance", 50): (7, "5a0bb09be5f7aba8", 0.24664517799606755,
                                     "a293ea97a8994193"),
    ("one-bucket-no-distance", 10**6): (7, "ce380c04c6cb373f", 0.06841087995991119,
                                        "ef27b6928480b288"),
    ("three-buckets", 0): (26, "d532bb11fc986358", 0.5537191731736675,
                           "c18eb3bccb361428"),
    ("three-buckets", 1): (26, "d93d007bee7533ff", 0.5190434510133237,
                           "e273657fc5c9b904"),
    ("three-buckets", 7): (26, "db0ea0fb47e30ff6", 0.49277302540318535,
                           "8eef83093647b270"),
    ("three-buckets", 50): (26, "028eb762ef6151c4", 0.40484459955459845,
                            "e556a504da2945fb"),
    ("three-buckets", 10**6): (26, "f3c1de6bf319dc38", 0.14510876617559887,
                               "2d78472fda70b46c"),
    ("single-restart", 0): (225, "abf55ee2f9d9dc1d", 0.8421482475266814,
                            "6e9113d951cd5c27"),
    ("single-restart", 1): (225, "abf55ee2f9d9dc1d", 0.8421482475266814,
                            "6e9113d951cd5c27"),
    ("single-restart", 7): (225, "a92b1b08cecac201", 0.8370299924318745,
                            "b7304acbdb703977"),
    ("single-restart", 50): (225, "335073c20654e3b2", 0.8313743432220267,
                             "cf1deb3a8ac5c175"),
    ("single-restart", 10**6): (225, "3a8c0ee6a8293aaa", 0.2805437482007893,
                                "c4c418975cf121b5"),
}


@pytest.mark.parametrize("name, budget", HEURISTIC_GOLDEN,
                         ids=[f"{n}-{b}" for n, b in HEURISTIC_GOLDEN])
def test_heuristic_golden_outputs(name, budget):
    sol = solve(golden_problem(**GOLDEN_PROBLEMS[name]), seed=7,
                move_budget=budget)
    digest = hashlib.sha256(
        ";".join(f"{t},{c}" for t, c in sol.pairs).encode()).hexdigest()[:16]
    achieved = hashlib.sha256(
        json.dumps(sol.achieved, sort_keys=True).encode()).hexdigest()[:16]
    assert (len(sol.pairs), digest, float(sol.objective), achieved) == \
        HEURISTIC_GOLDEN[name, budget]
    # every sweep needs more than 50 evaluations; 10**6 reaches an optimum
    assert sol.budget_exhausted == (budget < 10**6)
    assert sol.evals <= budget + 1
    assert 0 <= sol.restart < max(1, min(8, 200 // len(sol.pairs)))


def _means_over_pairs(problem, pairs):
    """The achieved means recomputed from the pairs, in the order listed."""
    means = {}
    for s, side in enumerate(("treated", "untreated")):
        rows = [problem.ids[s].index(pair[s]) for pair in pairs]
        means[f"mean_risk_{side}"] = float(problem.risks[s][rows].mean())
        means[f"covariate_means_{side}"] = {
            name: float(problem.X[s][rows, problem.covariate_names.index(name)].mean())
            for name in problem.target.covariate_targets}
    return means


@pytest.mark.parametrize("name, budget", HEURISTIC_GOLDEN,
                         ids=[f"{n}-{b}" for n, b in HEURISTIC_GOLDEN])
def test_heuristic_achieved_means_follow_the_sorted_pairs(name, budget):
    problem = golden_problem(**GOLDEN_PROBLEMS[name])
    sol = solve(problem, seed=7, move_budget=budget)
    assert sol.pairs == tuple(sorted(sol.pairs))
    assert sol.achieved == _means_over_pairs(problem, sol.pairs)  # bitwise


def test_exact_achieved_means_follow_the_sorted_pairs():
    one_bucket = [golden_problem(**GOLDEN_PROBLEMS[name])
                  for name in ("one-bucket", "one-bucket-no-distance")]
    for problem in [*small_instances(), *one_bucket]:
        sol = solve(problem, mode="exact")
        assert sol.pairs == tuple(sorted(sol.pairs))
        assert sol.achieved == _means_over_pairs(problem, sol.pairs)  # bitwise


def _heur_state(problem):
    T, C = _bucket_members(problem)
    quotas = problem.buckets.quotas
    blocks = [problem.distance_matrix(T[k], C[k]) for k in range(len(quotas))]
    return _HeurState(problem, (T, C), quotas, blocks)


def _side_values(problem, s, i):
    """Patient i of side s (0 treated, 1 untreated): its risk, then its
    targeted covariates."""
    return [float(problem.risks[s][i])] + [
        float(problem.X[s][i, c]) for c, _ in problem.target_columns()]


def _pair_distance(full, s, i, j):
    """Distance between patient i of side s and patient j of side 1 - s."""
    return float(full[i, j] if s == 0 else full[j, i])


def _unselected(state, s, k):
    """Bucket k's unselected side-s positions, ascending."""
    return np.setdiff1d(np.arange(len(state.pools[s][k])), state.slots[s][k])


@pytest.mark.parametrize("name", ["three-buckets", "one-bucket-no-distance"])
def test_swap_objectives_equal_scalar_evaluation(name):
    problem = golden_problem(**GOLDEN_PROBLEMS[name])
    full = problem.distance_matrix()
    state = _heur_state(problem)
    state.fill(np.random.default_rng(0))
    for k in range(len(problem.buckets.quotas)):
        for s in (0, 1):
            pool = state.pools[s][k]
            news = _unselected(state, s, k)
            for slot, old in enumerate(state.slots[s][k].tolist()):
                j = state.pools[1 - s][k][state.slots[1 - s][k][slot]]
                expected = []
                for new in news.tolist():
                    sums = [row.tolist() for row in state.sums]
                    sums[s] = [v + a - b for v, a, b in zip(
                        sums[s], _side_values(problem, s, pool[new]),
                        _side_values(problem, s, pool[old]))]
                    dist = (state.dist_sum + _pair_distance(full, s, pool[new], j)
                            - _pair_distance(full, s, pool[old], j))
                    expected.append(float(state._objective_from_sums(
                        np.array(sums), dist)))
                got = state.swap_objectives(s, k, np.array([slot]), news)[0]
                assert got.tolist() == expected  # bitwise, not approximate


@pytest.mark.parametrize("seed", range(4))
def test_greedy_fill_breaks_distance_ties_by_flat_index(seed):
    # a binary distance covariate: every distance is 0 or one shared value
    rng = np.random.default_rng(seed)
    n1, n0, q = 9, 12, 6
    problem = make_problem(rng.uniform(0.3, 0.8, n1), rng.uniform(0.3, 0.8, n0),
                           (0.0, 1.0), (q,), tX=rng.integers(0, 2, (n1, 1)),
                           cX=rng.integers(0, 2, (n0, 1)), dist=("x",))
    block = problem.distance_matrix()
    assert np.unique(block).size == 2
    used_t, used_c, expected = set(), set(), []
    for f in sorted(range(n1 * n0), key=lambda f: (block.flat[f], f)):
        a, b = divmod(f, n0)
        if a not in used_t and b not in used_c and len(expected) < q:
            used_t.add(a)
            used_c.add(b)
            expected.append((a, b))
    state = _heur_state(problem)  # one bucket: positions are patient indices
    state.fill(None)
    assert list(zip(state.slots[0][0].tolist(), state.slots[1][0].tolist())) == expected


@pytest.mark.parametrize("name", ["three-buckets", "one-bucket"])
def test_state_after_applied_swaps_matches_a_recomputation(name):
    problem = golden_problem(**GOLDEN_PROBLEMS[name])
    full = problem.distance_matrix()
    state = _heur_state(problem)
    state.fill(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    K = len(problem.buckets.quotas)
    repaired = 0
    for step in range(200):
        k = int(rng.integers(K))
        if step % 10 == 9:
            before = [set(state.slots[s][k].tolist()) for s in (0, 1)]
            repaired += state.repair_bucket(k)
            # a re-pairing changes who is paired with whom, not who is selected
            assert [set(state.slots[s][k].tolist()) for s in (0, 1)] == before
            continue
        s = int(rng.integers(2))
        free = _unselected(state, s, k)
        if state.quotas[k] and free.size:
            state.apply_swap(s, k, int(rng.integers(state.quotas[k])),
                             int(rng.choice(free)))
    assert repaired > 0
    chosen = [np.concatenate([state.pools[s][k][state.slots[s][k]]
                              for k in range(K)]) for s in (0, 1)]
    for s in (0, 1):
        assert len(set(chosen[s].tolist())) == chosen[s].size == state.n_sel
        sums = np.sum([_side_values(problem, s, i) for i in chosen[s]], axis=0)
        np.testing.assert_allclose(state.sums[s], sums, rtol=0, atol=1e-9)
    dist = full[chosen[0], chosen[1]].sum()
    assert abs(state.dist_sum - dist) <= 1e-9


def test_blocks_and_pair_distances_equal_the_full_matrix():
    problem = golden_problem(seed=5, n_t=40, n_c=50, boundaries=(0.0, 0.5, 1.0),
                             share=0.5, dist=("a", "b", "c"))
    full = problem.distance_matrix()
    T, C = _bucket_members(problem)
    for k in range(2):
        assert (problem.distance_matrix(T[k], C[k]) == full[np.ix_(T[k], C[k])]).all()
    ti, ci = np.arange(40), np.arange(50)[::-1][:40]
    assert (problem.pair_distances(ti, ci) == full[ti, ci]).all()


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_solution_reports_the_local_search(mode):
    problem = make_problem([0.55, 0.6], [0.58, 0.5], (0.0, 1.0), (1,))
    sol = solve(problem, mode=mode, move_budget=1)
    if mode == "exact":
        assert (sol.evals, sol.budget_exhausted, sol.restart) == (None, False, None)
    else:
        # one treated and one untreated candidate: the second is past the budget
        assert (sol.evals, sol.budget_exhausted) == (2, True)
        assert sol.restart in range(8)


@pytest.mark.parametrize("seed", [11, 12])
def test_exact_solves_instances_near_the_size_cap(seed):
    # one bucket, 20 treated, 20 untreated, quota 3: 7.8e6 candidate
    # pairings, too many to enumerate, but only 400 pair columns for the MILP
    problem = golden_problem(seed, 20, 20, (0.0, 1.0), 0.15)
    assert problem.buckets.quotas == (3,)
    exact = solve(problem, mode="exact")
    heur = solve(problem, mode="heuristic", seed=7)
    assert exact.objective <= heur.objective + 1e-12
    assert evaluate_objective(problem, exact)["total"] == exact.objective
    assert solve(problem, mode="exact").pairs == exact.pairs


# --- greedy fill: rounds of mutually best pairs against the walk -----------

def _walk_pairs(block, q):
    """The first q pairs a walk over block's entries in (value, flat index)
    order takes, a pair being taken when its row and column are both free."""
    n1, n0 = block.shape
    used_r, used_c, pairs = set(), set(), []
    for f in sorted(range(n1 * n0), key=lambda f: (block.flat[f], f)):
        a, b = divmod(f, n0)
        if a not in used_r and b not in used_c:
            used_r.add(a)
            used_c.add(b)
            pairs.append((a, b))
    return pairs[:q]


def _chain_block(rng, n, extra_rows):
    """A block whose only mutually best pair at every round is the chain's
    last link: row i's two links are columns i - 1 and i, the weights fall
    along the chain, and every other entry is larger, with ties. Rows and
    columns are shuffled."""
    block = rng.integers(4 * n, 4 * n + 3, (n + extra_rows, n)).astype(float)
    for i in range(n):
        block[i, i] = 2 * n - 2 * i
        if i:
            block[i, i - 1] = 2 * n - 2 * i + 1
    return block[rng.permutation(n + extra_rows)][:, rng.permutation(n)]


@pytest.mark.parametrize("n, extra_rows", [(300, 0), (250, 40)])
def test_greedy_fill_on_a_chain_takes_the_walks_pairs(n, extra_rows):
    block = _chain_block(np.random.default_rng(n), n, extra_rows)
    best_c, best_r = block.argmin(axis=1), block.argmin(axis=0)
    assert np.count_nonzero(best_r[best_c] == np.arange(block.shape[0])) == 1
    walk = _walk_pairs(block, n)
    for q in (1, n // 2, n):
        rows, cols = _greedy_pairs(block, q)
        assert list(zip(rows.tolist(), cols.tolist())) == walk[:q]


def test_greedy_fill_on_tied_random_blocks_takes_the_walks_pairs():
    rng = np.random.default_rng(18)
    for _ in range(1000):
        n1, n0 = rng.integers(1, 30, 2)
        block = rng.integers(0, int(rng.integers(1, 5)), (n1, n0)).astype(float)
        walk = _walk_pairs(block, min(n1, n0))
        for q in range(1, min(n1, n0) + 1):
            rows, cols = _greedy_pairs(block, q)
            assert list(zip(rows.tolist(), cols.tolist())) == walk[:q]


# --- chunked swap scores against the per-patient search ---------------------

@pytest.mark.parametrize("name", ["three-buckets", "single-restart"])
def test_chunk_scores_equal_each_patients_own_call(name):
    problem = golden_problem(**GOLDEN_PROBLEMS[name])
    state = _heur_state(problem)
    state.fill(np.random.default_rng(3))
    longest = 0
    for k in range(len(problem.buckets.quotas)):
        q = state.quotas[k]
        for s in (0, 1):
            news = _unselected(state, s, k)
            for start in range(0, q, SWAP_CHUNK):
                chunk = np.arange(start, min(start + SWAP_CHUNK, q))
                scores = state.swap_objectives(s, k, chunk, news)
                assert scores.shape == (chunk.size, news.size)
                for row, slot in enumerate(chunk.tolist()):
                    # bitwise, not approximate
                    assert scores[row].tolist() == state.swap_objectives(
                        s, k, np.array([slot]), news)[0].tolist()
        longest = max(longest, q)
    assert (longest > SWAP_CHUNK) == (name == "single-restart")


def _reference_heuristic_once(state, rng, move_budget):
    """The local search as it scored one selected patient per call."""
    state.fill(rng)
    K = len(state.quotas)
    for k in range(K):
        state.repair_bucket(k)
    current = state.objective()
    evals = 0
    sweep_improved = True
    while sweep_improved and evals < move_budget:
        sweep_improved = False
        for k in range(K):
            for s in (0, 1):
                unselected = _unselected(state, s, k)
                for slot in range(state.quotas[k]):
                    n_scored = min(unselected.size, move_budget - evals)
                    evals += n_scored + (n_scored < unselected.size)
                    trials = state.swap_objectives(
                        s, k, np.array([slot]), unselected[:n_scored])[0]
                    best_pos, best_obj = None, current
                    for pos in np.flatnonzero(trials < current - 1e-12).tolist():
                        if trials[pos] < best_obj - 1e-12:
                            best_pos, best_obj = pos, float(trials[pos])
                    if best_pos is not None:
                        unselected[best_pos] = state.apply_swap(
                            s, k, slot, int(unselected[best_pos]))
                        current = best_obj
                        sweep_improved = True
                    if evals > move_budget:
                        break
                if evals > move_budget:
                    break
            if state.repair_bucket(k):
                current = state.objective()
                sweep_improved = True
            if evals > move_budget:
                break

    buckets = [(pt[a], pc[b]) for pt, pc, a, b in zip(*state.pools, *state.slots)]
    return replace(_build_solution(state.p, buckets), evals=evals,
                   budget_exhausted=evals > move_budget or sweep_improved)


def _evals_at_swaps(problem, monkeypatch):
    """The evaluation count right after each swap of the greedy restart's
    unbounded reference search, where every row scores every candidate."""
    evals, at_swap = [0], []
    score, swap = _HeurState.swap_objectives, _HeurState.apply_swap

    def counting_score(state, s, k, slots, news):
        evals[0] += len(slots) * len(news)
        return score(state, s, k, slots, news)

    def recording_swap(state, s, k, slot, new):
        at_swap.append(evals[0])
        return swap(state, s, k, slot, new)

    with monkeypatch.context() as m:
        m.setattr(_HeurState, "swap_objectives", counting_score)
        m.setattr(_HeurState, "apply_swap", recording_swap)
        sol = _reference_heuristic_once(_heur_state(problem), None, 10**6)
    assert sol.evals == evals[0]
    return at_swap


def _search_outcome(problem, budget):
    sol = solve(problem, seed=7, move_budget=budget)
    return sol.pairs, sol.objective, sol.evals, sol.budget_exhausted, sol.restart


@pytest.mark.parametrize("name", list(GOLDEN_PROBLEMS) + ["more-than-a-chunk"])
def test_chunked_search_equals_the_per_patient_search(name, monkeypatch):
    kwargs = GOLDEN_PROBLEMS.get(name) or dict(
        seed=9, n_t=260, n_c=240, boundaries=(0.0, 1.0), share=0.6)
    problem = golden_problem(**kwargs)
    swaps = _evals_at_swaps(problem, monkeypatch)
    assert len(swaps) >= 3
    # budgets that end right after a swap, one evaluation into the swap's
    # row or the next row, partway into the first rows, and never
    budgets = {0, 1, 7, 50, 333, 10**6}
    budgets |= {e + d for e in swaps[:3] + swaps[-2:] for d in (-1, 0, 1)}
    for budget in sorted(budgets):
        got = _search_outcome(problem, budget)
        with monkeypatch.context() as m:
            m.setattr(stratify_match, "_heuristic_once", _reference_heuristic_once)
            assert got == _search_outcome(problem, budget), budget
