"""Baseline-risk stratification and the trial-matching optimization.

Patients are bucketed by baseline risk; within each bucket, treated and
untreated patients are paired 1:1 so that the selected sub-cohort's mean
risk and covariate means hit the trial targets while paired patients stay
close in covariate space. Exact solving is one mixed-integer program over
the same-bucket pairs, solved by HiGHS through ``scipy.optimize.milp``;
heuristic solving uses greedy construction plus local search. Pairs never
cross buckets, so the heuristic computes pair distances once per solve as
one treated-by-untreated block per bucket. The greedy fill takes the pairs
that a walk over a block in ascending distance order would take, found in
rounds of mutually best pairs instead of by sorting the block. The local
search scores every candidate swap of up to SWAP_CHUNK pairs in one
vectorized expression. The problem and the heuristic's state are indexed
by side s (0 treated, 1 untreated), so each step is written once and
serves both arms. The problem tabulates the objective's terms and the
standardized distance covariates once; evaluation, the heuristic and the
MILP read that table. Each bucket keeps its selection as slots of positions
within the bucket, one array per side, aligned pair by pair: a swap writes
one slot, and a re-pairing permutes the untreated slots. A solution is a
function of its pairs: its breakdown and achieved means are summed in one
pass over the sorted pair list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp

from .cohort import TrialTarget
from .errors import ConfigError, InvalidSolutionError, SchemaError, TargetInfeasibleError

EXACT_SIZE_CAP = 10**5  # pair columns of the exact MILP


@dataclass(frozen=True)
class BucketSpec:
    """Half-open risk intervals [b_k, b_{k+1}); the last bucket is closed."""

    boundaries: tuple[float, ...]
    quotas: tuple[int, ...] = ()

    def __post_init__(self):
        b = self.boundaries
        if len(b) < 2 or b[0] != 0.0 or b[-1] != 1.0:
            raise ConfigError("buckets must start at 0.0 and end at 1.0")
        if any(not b[i] < b[i + 1] for i in range(len(b) - 1)):
            raise ConfigError("buckets must be strictly ascending")
        if self.quotas and len(self.quotas) != self.n_buckets:
            raise ConfigError("quotas length must equal bucket count")
        if any(q < 0 for q in self.quotas):
            raise ConfigError("quotas must be nonnegative")

    @property
    def n_buckets(self) -> int:
        return len(self.boundaries) - 1

    def with_quotas(self, quotas) -> "BucketSpec":
        return BucketSpec(self.boundaries, tuple(int(q) for q in quotas))


def assign_buckets(risks, spec: BucketSpec) -> np.ndarray:
    risks = np.asarray(risks, dtype=float)
    if not np.all((risks >= 0) & (risks <= 1)):
        raise ConfigError("risks must lie in [0, 1]")
    idx = np.searchsorted(np.asarray(spec.boundaries), risks, side="right") - 1
    return np.minimum(idx, spec.n_buckets - 1)


def check_lambdas(weights) -> None:
    """Reject a lambda of weights that is negative or not finite; 0 passes."""
    for name in ("lambda_outcome", "lambda_covariate", "lambda_distance"):
        if not 0.0 <= getattr(weights, name) < math.inf:
            raise ConfigError(f"{name} must be finite and >= 0")


@dataclass
class MatchProblem:
    """The matching problem, indexed by side s: 0 for treated, 1 for
    untreated. ``ids[s]``, ``risks[s]`` and ``X[s]`` hold side s's patient
    ids, baseline risks and covariate rows (one column per covariate name),
    and ``bucket[s]`` each patient's risk bucket. The objective's terms are
    tabulated once: ``term_values[s]`` has one row per side-s patient, its
    risk and then its targeted covariates in sorted name order
    (``term_names``), and ``term_targets[s]`` their targets: the risk
    target, then the arm-1 means treated or the arm-0 means untreated.
    ``distance_columns[s]`` holds side s's distance covariates, standardized
    once over the pooled population (treated rows first). All are built at
    construction: change an input but the quotas with ``dataclasses.replace``.
    The lambdas must be finite and nonnegative."""

    ids: tuple[tuple[str, ...], tuple[str, ...]]
    risks: tuple[np.ndarray, np.ndarray]
    X: tuple[np.ndarray, np.ndarray]
    buckets: BucketSpec
    target: TrialTarget
    covariate_names: tuple[str, ...]
    distance_covariates: tuple[str, ...] = ()
    lambda_outcome: float = 1.0
    lambda_covariate: float = 1.0
    lambda_distance: float = 1.0

    bucket: tuple[np.ndarray, np.ndarray] = field(init=False)
    term_names: tuple[str, ...] = field(init=False)
    term_values: tuple[np.ndarray, np.ndarray] = field(init=False)
    term_targets: tuple[np.ndarray, np.ndarray] = field(init=False)
    distance_columns: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self):
        check_lambdas(self)
        self.ids = tuple(tuple(ids) for ids in self.ids)
        self.risks = tuple(np.asarray(r, dtype=float) for r in self.risks)
        self.X = tuple(np.asarray(X, dtype=float) for X in self.X)
        m = len(self.covariate_names)
        for side, ids, risks, X in zip(("treated", "untreated"),
                                       self.ids, self.risks, self.X):
            n = len(ids)
            if risks.shape != (n,) or X.shape != (n, m):
                raise SchemaError(
                    f"{side}: {n} ids need {n} risks and a {n} x {m} covariate "
                    f"matrix, got shapes {risks.shape} and {X.shape}")
        self.bucket = tuple(assign_buckets(r, self.buckets) for r in self.risks)
        for name in self.distance_covariates:
            if name not in self.covariate_names:
                raise ConfigError(f"distance covariate {name!r} not in schema")
        for name in self.target.covariate_targets:
            if name not in self.covariate_names:
                raise ConfigError(f"covariate target {name!r} not in schema")
        targeted = sorted(self.target.covariate_targets.items())
        self.term_names = ("risk", *(name for name, _ in targeted))
        cols = [self.covariate_names.index(name) for name in self.term_names[1:]]
        self.term_values = tuple(np.column_stack([r, X[:, cols]])
                                 for r, X in zip(self.risks, self.X))
        self.term_targets = tuple(np.array([self.risk_target, *(
            arms[1 - s] for _, arms in targeted)]) for s in (0, 1))
        cols = [self.covariate_names.index(c) for c in self.distance_covariates]
        sides = [X[:, cols] for X in self.X]
        pooled = np.vstack(sides)  # a problem with no patients has no spread
        sd = pooled.std(axis=0) if pooled.size else np.ones(len(cols))
        sd[sd == 0] = 1.0
        self.distance_columns = tuple(side / sd for side in sides)

    # perfbench/layer_trace.py reads these two
    treated_ids = property(lambda self: self.ids[0])
    untreated_ids = property(lambda self: self.ids[1])

    # event-risk target: trial targets are event-free rates, risks are event
    # probabilities, so the matcher aims mean risk at 1 - mu0.
    @property
    def risk_target(self) -> float:
        return 1.0 - self.target.mu0

    def distance_matrix(self, treated=None, untreated=None) -> np.ndarray:
        """Squared Euclidean pair distances over the standardized distance
        covariates between the ``treated`` rows and the ``untreated`` rows
        (index arrays; each defaults to every row)."""
        a, b = self.distance_columns
        if treated is not None:
            a = a[treated]
        if untreated is not None:
            b = b[untreated]
        return _squared_distances(a[:, None, :], b[None, :, :])

    def pair_distances(self, treated, untreated) -> np.ndarray:
        """The distance_matrix entries [treated[i], untreated[i]] alone."""
        a, b = self.distance_columns
        return _squared_distances(a[treated], b[untreated])


def _squared_distances(a, b) -> np.ndarray:
    """Sum over the last axis of (a - b)**2, the other axes broadcast. The
    covariates are added one at a time, in order, so every entry has the
    same bits whichever block or pair list it is computed in."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1])
    for k in range(a.shape[-1]):
        diff = a[..., k] - b[..., k]
        out += diff * diff
    return out


@dataclass(frozen=True)
class MatchSolution:
    pairs: tuple[tuple[str, str], ...]  # (treated id, untreated id)
    objective: float
    breakdown: dict
    achieved: dict
    # Heuristic local search of the winning restart; each restart has its
    # own move budget. None/False when no search ran (exact mode, n_sel 0).
    evals: int | None = None
    budget_exhausted: bool = False
    restart: int | None = None


def default_quotas(problem: MatchProblem) -> tuple[int, ...]:
    """Per-bucket quota min(|treated|, |untreated|), scaled down by the
    largest common factor alpha such that the selected untreated patients'
    mean risk can reach the trial target within tolerance."""
    K = problem.buckets.n_buckets
    T, C = _bucket_members(problem)
    caps = np.array([min(len(t), len(c)) for t, c in zip(T, C)])
    target = problem.risk_target
    tol = problem.target.tolerance_outcome
    per_bucket_sorted = [np.sort(problem.risks[1][c]) for c in C]

    def feasible(quotas) -> bool:
        total = int(sum(quotas))
        if total == 0:
            return False
        lo = sum(float(per_bucket_sorted[k][: quotas[k]].sum()) for k in range(K))
        hi = sum(
            float(per_bucket_sorted[k][len(per_bucket_sorted[k]) - quotas[k]:].sum())
            for k in range(K)
        )
        return lo / total - tol <= target <= hi / total + tol

    for step in range(20, 0, -1):
        alpha = step / 20.0
        quotas = np.floor(alpha * caps).astype(int)
        if feasible(quotas):
            return tuple(int(q) for q in quotas)
    raise TargetInfeasibleError(
        "no quota scaling reaches the outcome target; redesign buckets "
        f"(target mean risk {target:.3f} +/- {tol})"
    )


def _distance_scale(problem, n_sel) -> float:
    L = max(1, len(problem.distance_covariates))
    return 1.0 / (max(1, n_sel) * L)


def _covariate_term(dev):
    """dev's covariate deviations, summed from 0.0 in term order."""
    return sum((dev[..., j] for j in range(1, dev.shape[-1])), 0.0)


def _objective(problem, dev, dist_sum, n_sel):
    """dev[s] holds side s's deviations, risk first, on the last axis."""
    cov = _covariate_term(dev[0]) + _covariate_term(dev[1])
    return (problem.lambda_outcome * (dev[0][..., 0] + dev[1][..., 0])
            + problem.lambda_covariate * cov
            + problem.lambda_distance * dist_sum * _distance_scale(problem, n_sel))


def evaluate_objective(problem: MatchProblem, solution: MatchSolution) -> dict:
    """Validate constraints, then return the per-term objective breakdown
    and, given any pairs, each side's mean risk and covariate means."""
    index = [{pid: i for i, pid in enumerate(ids)} for ids in problem.ids]
    quotas = problem.buckets.quotas or (0,) * problem.buckets.n_buckets
    seen, sel = (set(), set()), ([], [])
    per_bucket = [0] * problem.buckets.n_buckets
    for tid, cid in solution.pairs:
        if tid not in index[0] or cid not in index[1]:
            raise InvalidSolutionError(f"unknown patient in pair ({tid}, {cid})")
        for s, (side, pid) in enumerate((("treated", tid), ("untreated", cid))):
            if pid in seen[s]:
                raise InvalidSolutionError(f"{side} {pid} matched more than once")
            seen[s].add(pid)
            sel[s].append(index[s][pid])
        bk_t, bk_c = (problem.bucket[s][sel[s][-1]] for s in (0, 1))
        if bk_t != bk_c:
            raise InvalidSolutionError(
                f"pair ({tid}, {cid}) crosses buckets {bk_t} and {bk_c}")
        per_bucket[bk_t] += 1
    for k, (got, want) in enumerate(zip(per_bucket, quotas)):
        if got != want:
            raise InvalidSolutionError(
                f"bucket {k}: {got} pairs, quota requires {want}")

    if not solution.pairs:
        return {
            "outcome_treated": 0.0, "outcome_untreated": 0.0,
            "covariate_treated": 0.0, "covariate_untreated": 0.0,
            "pair_distance": 0.0, "total": 0.0, "n_sel": 0,
        }
    sel = [np.array(rows) for rows in sel]
    n_sel = len(solution.pairs)
    # each term is averaged over its own 1-D slice: a column mean of the
    # 2-D table would add the rows in another order
    means = [np.array([problem.term_values[s][sel[s], j].mean()
                       for j in range(len(problem.term_names))]) for s in (0, 1)]
    dev = [abs(problem.term_targets[s] - means[s]) for s in (0, 1)]
    dist_sum = float(problem.pair_distances(*sel).sum())
    breakdown = {"pair_distance": dist_sum * _distance_scale(problem, n_sel),
                 "total": _objective(problem, dev, dist_sum, n_sel), "n_sel": n_sel}
    for s, side in enumerate(("treated", "untreated")):
        covariate_means = dict(zip(problem.term_names[1:], means[s][1:].tolist()))
        breakdown |= {f"outcome_{side}": dev[s][0], f"mean_risk_{side}": means[s][0],
                      f"covariate_{side}": _covariate_term(dev[s]),
                      f"covariate_means_{side}": covariate_means}
    return breakdown


def _build_solution(problem, buckets=()):
    """The solution of per-bucket (treated, untreated) patient arrays that
    are aligned pair by pair; one evaluate_objective pass over the sorted
    pairs gives its breakdown and achieved means."""
    pairs = tuple(sorted((problem.ids[0][t], problem.ids[1][c])
                         for tk, ck in buckets for t, c in zip(tk, ck)))
    breakdown = evaluate_objective(problem, MatchSolution(pairs, 0.0, {}, {}))
    achieved = {key: breakdown.pop(key, empty) for key, empty in (
        ("mean_risk_treated", None), ("mean_risk_untreated", None),
        ("covariate_means_treated", {}), ("covariate_means_untreated", {}))}
    return MatchSolution(pairs, breakdown["total"], breakdown, achieved)


def _bucket_members(problem):
    """Per side, each bucket's rows in ascending order."""
    K = problem.buckets.n_buckets
    return tuple([np.flatnonzero(b == k) for k in range(K)] for b in problem.bucket)


def _check_quota_feasibility(problem):
    quotas = problem.buckets.quotas
    if not quotas:
        raise ConfigError("bucket quotas not set; call default_quotas first")
    T, C = _bucket_members(problem)
    for k, q in enumerate(quotas):
        if q > min(len(T[k]), len(C[k])):
            raise TargetInfeasibleError(
                f"bucket {k}: quota {q} exceeds available "
                f"{len(T[k])} treated / {len(C[k])} untreated")
    return T, C, quotas


def solve(problem: MatchProblem, mode: str = "heuristic", seed: int = 0,
          move_budget: int = 10**6) -> MatchSolution:
    if mode == "exact":
        return _solve_exact(problem)
    if mode == "heuristic":
        return _solve_heuristic(problem, seed, move_budget)
    raise ConfigError(f"unknown solve mode {mode!r}")


# --- exact: one mixed-integer program --------------------------------------

def _solve_exact(problem: MatchProblem) -> MatchSolution:
    """Solve the matching problem to optimality as one MILP (after
    Zubizarreta 2012). With the quotas fixed, n_sel is fixed, so each
    absolute deviation |sum(v) - n_sel*target| / n_sel is linear once split
    into two nonnegative parts p and m. Only the selections s (treated) and
    u (untreated) are binary: for fixed selections the pair variables x
    range over a transportation polytope with integral vertices, so the
    pairs are read back as the optimal assignment between each bucket's
    selected patients."""
    T, C, quotas = _check_quota_feasibility(problem)
    K = problem.buckets.n_buckets
    n_pairs = sum(len(T[k]) * len(C[k]) for k in range(K) if quotas[k])
    if n_pairs > EXACT_SIZE_CAP:
        raise ConfigError(
            f"exact mode refused: {n_pairs} pair columns exceed the "
            f"{EXACT_SIZE_CAP} cap; use heuristic mode")

    n_sel = int(sum(quotas))
    if n_sel == 0:
        return _build_solution(problem)

    # columns: x per same-bucket pair in a bucket with a quota, s per
    # treated, u per untreated, then p and m per absolute-deviation term
    grids = [np.meshgrid(T[k], C[k], indexing="ij") for k in range(K) if quotas[k]]
    ti = np.concatenate([t.ravel() for t, _ in grids])
    cj = np.concatenate([c.ravel() for _, c in grids])
    n_x, n_t, n_c = ti.size, *map(len, problem.ids)
    n_bin = n_x + n_t + n_c  # x, s and u lie in [0, 1]
    sel_col = (n_x + np.arange(n_t), n_x + n_t + np.arange(n_c))  # s, u
    terms = [(sel_col[s], problem.term_values[s][:, j], problem.term_targets[s][j],
              problem.lambda_covariate if j else problem.lambda_outcome)
             for j in range(len(problem.term_names)) for s in (0, 1)]

    # rows: each patient's pairs sum to its s or u, each bucket selects its
    # quota of treated (its pairs then select as many untreated), and
    # sum(v*s) - p + m = n_sel*target per term
    rows = [ti, n_t + cj, np.arange(n_t + n_c), n_t + n_c + problem.bucket[0]]
    cols = [np.arange(n_x), np.arange(n_x), n_x + np.arange(n_t + n_c), sel_col[0]]
    vals = [np.ones(2 * n_x), -np.ones(n_t + n_c), np.ones(n_t)]
    rhs = [np.zeros(n_t + n_c), quotas]
    cost = [problem.lambda_distance * _distance_scale(problem, n_sel)
            * problem.pair_distances(ti, cj), np.zeros(n_t + n_c)]
    for r, (term_col, v, target, lam) in enumerate(terms):
        rows.append(np.full(term_col.size + 2, n_t + n_c + K + r))
        cols += [term_col, [n_bin + 2 * r, n_bin + 2 * r + 1]]
        vals += [v, [-1.0, 1.0]]
        rhs.append([n_sel * target])
        cost.append([lam / n_sel] * 2)
    n_pm = 2 * len(terms)
    A = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_t + n_c + K + len(terms), n_bin + n_pm))
    rhs = np.concatenate(rhs)
    res = milp(np.concatenate(cost),
               integrality=np.r_[np.zeros(n_x), np.ones(n_t + n_c), np.zeros(n_pm)],
               bounds=Bounds(0.0, np.r_[np.ones(n_bin), np.full(n_pm, np.inf)]),
               constraints=LinearConstraint(A, rhs, rhs),
               options={"mip_rel_gap": 0})
    if res.status != 0:
        raise TargetInfeasibleError(f"exact solver found no optimum: {res.message}")

    chosen = [res.x[c] > 0.5 for c in sel_col]
    buckets = []
    for k in range(K):
        tk, ck = (rows[k][picked[rows[k]]] for rows, picked in zip((T, C), chosen))
        _, col = linear_sum_assignment(problem.distance_matrix(tk, ck))
        buckets.append((tk, ck[col]))
    return _build_solution(problem, buckets)


# --- heuristic: greedy construction + local search --------------------------

SWAP_CHUNK = 64  # pairs whose swaps one swap_objectives call scores


def _greedy_pairs(block, q):
    """(rows, columns) of the first q pairs that a greedy walk over block's
    entries in ascending (distance, flat index) order takes, a pair being
    taken when its row and column are both free; in walk order.

    Under that strict order, a free pair that is the smallest entry of both
    its row and its column among free patients (a "locally dominant" pair;
    Preis 1999, Hoepman 2004) is taken by the walk, so the walk's matching
    is built in rounds: each free row keeps its best free column (ties to
    the lowest column) and each free column its best free row (ties to the
    lowest row); every row and column that pick each other are taken, and
    only the rows and columns whose best partner was just taken look for a
    new one. The walk meets the taken pairs in (distance, flat) order."""
    n1, n0 = block.shape
    free_r, free_c = np.ones(n1, bool), np.ones(n0, bool)
    best_c, best_r = block.argmin(axis=1), block.argmin(axis=0)
    fr, rows, cols = np.arange(n1), [], []
    while True:
        r = fr[best_r[best_c[fr]] == fr]
        c = best_c[r]
        rows.append(r)
        cols.append(c)
        free_r[r] = False
        free_c[c] = False
        fr, fc = np.flatnonzero(free_r), np.flatnonzero(free_c)
        if not (fr.size and fc.size):
            break
        stale_r = fr[~free_c[best_c[fr]]]
        stale_c = fc[~free_r[best_r[fc]]]
        best_c[stale_r] = fc[block[np.ix_(stale_r, fc)].argmin(axis=1)]
        best_r[stale_c] = fr[block[np.ix_(fr, stale_c)].argmin(axis=0)]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((rows * n0 + cols, block[rows, cols]))[:q]
    return rows[order], cols[order]


class _HeurState:
    """Selection state of one heuristic restart, indexed by side s: 0 for
    treated, 1 for untreated, so each move is written once, for side s and
    its partner side 1 - s. Every index is a position within a bucket.

    ``pools[s][k]`` lists bucket k's side-s patients; ``blocks[0][k]`` holds
    their pair distances, treated ``pools[0][k]`` as rows and untreated
    ``pools[1][k]`` as columns, and ``blocks[1][k]`` is its transpose.
    ``slots[s][k]`` holds the positions in ``pools[s][k]`` of bucket k's
    selected side-s patients; pair i of bucket k is treated slot i with
    untreated slot i. A swap writes into one slot, and a re-pairing
    permutes ``slots[1][k]``. ``values[s][k]`` holds the term table rows of
    ``pools[s][k]``, and ``sums[s]`` their running sums over the selection;
    with the running pair-distance sum they give a swap's objective without
    a full re-evaluation.
    ``swap_objectives`` scores every candidate for a chunk of pairs, one row
    each, in one numpy expression. ``fill`` adds the greedy pairs in the
    order a walk by ascending distance meets them, so the running sums are
    added in that order. Blocks are read only by ``fill``,
    ``swap_objectives``, ``apply_swap`` and ``repair_bucket``.
    """

    def __init__(self, problem: MatchProblem, pools, quotas, blocks):
        self.p = problem
        self.pools = pools
        self.blocks = (blocks, [b.T for b in blocks])
        self.quotas = quotas
        self.n_sel = int(sum(quotas))
        self.values = tuple([problem.term_values[s][m] for m in pools[s]] for s in (0, 1))
        empty = np.zeros(0, int)
        self.slots = ([empty] * len(quotas), [empty] * len(quotas))
        self.sums = np.zeros((2, len(problem.term_names)))
        self.dist_sum = 0.0

    def fill(self, rng) -> None:
        """Select each bucket's quota of pairs: without rng, the pairs a
        greedy walk over the block in ascending (distance, flat index)
        order would take, found in rounds by ``_greedy_pairs`` and added
        in walk order; with rng, a random draw from each side."""
        for k, q in enumerate(self.quotas):
            if q == 0:
                continue
            if rng is not None:
                rows = rng.choice(len(self.pools[0][k]), q, replace=False)
                cols = rng.choice(len(self.pools[1][k]), q, replace=False)
            else:
                rows, cols = _greedy_pairs(self.blocks[0][k], q)
            self.slots[0][k], self.slots[1][k] = rows, cols
            for r, c in zip(rows.tolist(), cols.tolist()):
                self.sums[0] += self.values[0][k][r]
                self.sums[1] += self.values[1][k][c]
                self.dist_sum += float(self.blocks[0][k][r, c])

    def _objective_from_sums(self, sums, dist_sum):
        """Scalar sums give one objective. A side's sums of shape (..., m),
        with dist_sum of shape (...), give one objective per entry: a 2-D
        side one per candidate, a 3-D side one per (pair, candidate). Every
        entry is bitwise equal to the scalar evaluation of its own sums,
        since each step is elementwise."""
        dev = [abs(self.p.term_targets[s] - sums[s] / self.n_sel) for s in (0, 1)]
        return _objective(self.p, dev, dist_sum, self.n_sel)

    def objective(self) -> float:
        return float(self._objective_from_sums(self.sums, self.dist_sum))

    def swap_objectives(self, s: int, k: int, slots, news) -> np.ndarray:
        """Objectives after swapping bucket k's side-s patient of each pair
        in slots for each unselected side-s position in news, one row per
        pair; each swapped sum is (sum + new) - old, and the pair-distance
        sum (dist_sum + d_new) - d_old."""
        olds = self.slots[s][k][slots]
        d = self.blocks[1 - s][k][self.slots[1 - s][k][slots]]
        sums = list(self.sums)
        sums[s] = (sums[s] + self.values[s][k][news]) - self.values[s][k][olds][:, None]
        dist = ((self.dist_sum + d[:, news])
                - d[np.arange(olds.size), olds][:, None])
        return self._objective_from_sums(sums, dist)

    def apply_swap(self, s: int, k: int, slot: int, new: int) -> int:
        """Swap the side-s patient of bucket k's pair slot for position
        new; returns the position it replaced."""
        old = int(self.slots[s][k][slot])
        self.slots[s][k][slot] = new
        self.sums[s] += self.values[s][k][new] - self.values[s][k][old]
        d = self.blocks[1 - s][k][self.slots[1 - s][k][slot]]
        self.dist_sum += float(d[new]) - float(d[old])
        return old

    def repair_bucket(self, k: int) -> bool:
        """Optimally re-pair bucket k's current selection; True if improved."""
        if self.quotas[k] < 2:
            return False
        sub = self.blocks[0][k][np.ix_(self.slots[0][k], self.slots[1][k])]
        ri, ci = linear_sum_assignment(sub)  # ri is 0, 1, ...
        new_cost = float(sub[ri, ci].sum())
        old_cost = float(np.trace(sub))
        if new_cost < old_cost - 1e-15:
            self.slots[1][k] = self.slots[1][k][ci]
            self.dist_sum += new_cost - old_cost
            return True
        return False


def _solve_heuristic(problem: MatchProblem, seed: int, move_budget: int) -> MatchSolution:
    """Greedy construction plus local search, with extra seeded random
    restarts on small instances where single-swap search is most prone to
    local optima of the absolute-deviation terms. The best restart wins by
    (objective, lexicographically smallest pair list)."""
    T, C, quotas = _check_quota_feasibility(problem)
    n_sel = int(sum(quotas))
    if n_sel == 0:
        return _build_solution(problem)
    blocks = [problem.distance_matrix(T[k], C[k]) for k in range(len(quotas))]
    n_restarts = max(1, min(8, 200 // n_sel))
    best = None
    for restart in range(n_restarts):
        rng = None if restart == 0 else np.random.default_rng([seed, restart])
        sol = _heuristic_once(_HeurState(problem, (T, C), quotas, blocks), rng,
                              move_budget)
        key = (sol.objective, sol.pairs)
        if best is None or key < best[0]:
            best = (key, replace(sol, restart=restart))
    return best[1]


def _heuristic_once(state: _HeurState, rng, move_budget: int) -> MatchSolution:
    """One restart: fill, then sweep single swaps and bucket re-pairings
    until a sweep finds no improvement or move_budget evaluations are
    spent. Each pair's side-s patient takes the best improving swap, where
    a candidate replaces the running best only when it is better by more
    than 1e-12; an evaluation past the budget ends the search. The swaps
    of up to SWAP_CHUNK pairs are scored in one call and taken in order; a
    swap changes the state, so scoring restarts after it."""
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
                unselected = np.setdiff1d(np.arange(len(state.pools[s][k])),
                                          state.slots[s][k])
                start, q = 0, state.quotas[k]
                while start < q and evals <= move_budget:
                    chunk = np.arange(start, min(start + SWAP_CHUNK, q))
                    scores = state.swap_objectives(s, k, chunk, unselected)
                    for row, slot in enumerate(chunk.tolist()):
                        start += 1
                        n_scored = min(unselected.size, move_budget - evals)
                        # the one evaluation past the budget counts, unscored
                        evals += n_scored + (n_scored < unselected.size)
                        trials = scores[row, :n_scored]
                        best_pos, best_obj = None, current
                        for pos in np.flatnonzero(trials < current - 1e-12).tolist():
                            if trials[pos] < best_obj - 1e-12:
                                best_pos, best_obj = pos, float(trials[pos])
                        if best_pos is not None:
                            unselected[best_pos] = state.apply_swap(
                                s, k, slot, int(unselected[best_pos]))
                            current = best_obj
                            sweep_improved = True
                            break  # the later rows were scored before the swap
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
