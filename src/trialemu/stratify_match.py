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
search scores every candidate swap of up to SWAP_CHUNK selected patients
in one vectorized expression. The heuristic's state is indexed by side
(0 treated, 1 untreated), so each move is written once and serves both
arms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp

from .cohort import TrialTarget
from .errors import ConfigError, InvalidSolutionError, TargetInfeasibleError

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
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
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
    if np.any((risks < 0) | (risks > 1)):
        raise ConfigError("risks must lie in [0, 1]")
    idx = np.searchsorted(np.asarray(spec.boundaries), risks, side="right") - 1
    return np.minimum(idx, spec.n_buckets - 1)


@dataclass
class MatchProblem:
    treated_ids: tuple[str, ...]
    treated_risks: np.ndarray
    treated_X: np.ndarray
    untreated_ids: tuple[str, ...]
    untreated_risks: np.ndarray
    untreated_X: np.ndarray
    buckets: BucketSpec
    target: TrialTarget
    covariate_names: tuple[str, ...]
    distance_covariates: tuple[str, ...] = ()
    lambda_outcome: float = 1.0
    lambda_covariate: float = 1.0
    lambda_distance: float = 1.0

    treated_bucket: np.ndarray = field(init=False)
    untreated_bucket: np.ndarray = field(init=False)

    def __post_init__(self):
        self.treated_risks = np.asarray(self.treated_risks, dtype=float)
        self.untreated_risks = np.asarray(self.untreated_risks, dtype=float)
        self.treated_X = np.asarray(self.treated_X, dtype=float)
        self.untreated_X = np.asarray(self.untreated_X, dtype=float)
        self.treated_bucket = assign_buckets(self.treated_risks, self.buckets)
        self.untreated_bucket = assign_buckets(self.untreated_risks, self.buckets)
        for name in self.distance_covariates:
            if name not in self.covariate_names:
                raise ConfigError(f"distance covariate {name!r} not in schema")
        for name in self.target.covariate_targets:
            if name not in self.covariate_names:
                raise ConfigError(f"covariate target {name!r} not in schema")

    # event-risk target: trial targets are event-free rates, risks are event
    # probabilities, so the matcher aims mean risk at 1 - mu0.
    @property
    def risk_target(self) -> float:
        return 1.0 - self.target.mu0

    def target_columns(self):
        """(column index, arm0 target, arm1 target) per targeted covariate."""
        out = []
        for name, (a0, a1) in sorted(self.target.covariate_targets.items()):
            out.append((self.covariate_names.index(name), a0, a1))
        return out

    def _scaled_distance_columns(self):
        """Treated and untreated distance covariates, standardized to unit
        variance over the pooled problem population."""
        cols = [self.covariate_names.index(c) for c in self.distance_covariates]
        pooled = np.vstack([self.treated_X[:, cols], self.untreated_X[:, cols]])
        sd = pooled.std(axis=0)
        sd[sd == 0] = 1.0
        return self.treated_X[:, cols] / sd, self.untreated_X[:, cols] / sd

    def distance_matrix(self, treated=None, untreated=None) -> np.ndarray:
        """Squared Euclidean pair distances over the standardized distance
        covariates between the ``treated`` rows and the ``untreated`` rows
        (index arrays; each defaults to every row)."""
        a, b = self._scaled_distance_columns()
        if treated is not None:
            a = a[treated]
        if untreated is not None:
            b = b[untreated]
        return _squared_distances(a[:, None, :], b[None, :, :])

    def pair_distances(self, treated, untreated) -> np.ndarray:
        """The distance_matrix entries [treated[i], untreated[i]] alone."""
        a, b = self._scaled_distance_columns()
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
    n1 = np.array([(problem.treated_bucket == k).sum() for k in range(K)])
    n0 = np.array([(problem.untreated_bucket == k).sum() for k in range(K)])
    caps = np.minimum(n1, n0)
    target = problem.risk_target
    tol = problem.target.tolerance_outcome

    per_bucket_sorted = [
        np.sort(problem.untreated_risks[problem.untreated_bucket == k])
        for k in range(K)
    ]

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


def _selection_terms(problem, sel_t_idx, sel_c_idx):
    """Outcome and covariate absolute-deviation terms for a selection."""
    n_sel = len(sel_t_idx)
    wt = problem.treated_risks[sel_t_idx].mean()
    wc = problem.untreated_risks[sel_c_idx].mean()
    tgt = problem.risk_target
    outcome_t = abs(tgt - wt)
    outcome_c = abs(tgt - wc)
    cov_t = cov_c = 0.0
    for col, a0, a1 in problem.target_columns():
        cov_t += abs(a1 - problem.treated_X[sel_t_idx, col].mean())
        cov_c += abs(a0 - problem.untreated_X[sel_c_idx, col].mean())
    return outcome_t, outcome_c, cov_t, cov_c, wt, wc, n_sel


def _distance_scale(problem, n_sel) -> float:
    L = max(1, len(problem.distance_covariates))
    return 1.0 / (max(1, n_sel) * L)


def _objective_from_terms(problem, outcome_t, outcome_c, cov_t, cov_c, dist_sum, n_sel):
    return (
        problem.lambda_outcome * (outcome_t + outcome_c)
        + problem.lambda_covariate * (cov_t + cov_c)
        + problem.lambda_distance * dist_sum * _distance_scale(problem, n_sel)
    )


def evaluate_objective(problem: MatchProblem, solution: MatchSolution) -> dict:
    """Validate constraints, then return the per-term objective breakdown."""
    t_index = {pid: i for i, pid in enumerate(problem.treated_ids)}
    c_index = {pid: j for j, pid in enumerate(problem.untreated_ids)}
    quotas = problem.buckets.quotas or (0,) * problem.buckets.n_buckets
    seen_t, seen_c = set(), set()
    per_bucket = [0] * problem.buckets.n_buckets
    for tid, cid in solution.pairs:
        if tid not in t_index or cid not in c_index:
            raise InvalidSolutionError(f"unknown patient in pair ({tid}, {cid})")
        if tid in seen_t:
            raise InvalidSolutionError(f"treated {tid} matched more than once")
        if cid in seen_c:
            raise InvalidSolutionError(f"untreated {cid} matched more than once")
        seen_t.add(tid)
        seen_c.add(cid)
        bk_t = problem.treated_bucket[t_index[tid]]
        bk_c = problem.untreated_bucket[c_index[cid]]
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
    sel_t = np.array([t_index[tid] for tid, _ in solution.pairs])
    sel_c = np.array([c_index[cid] for _, cid in solution.pairs])
    ot, oc, ct, cc, wt, wc, n_sel = _selection_terms(problem, sel_t, sel_c)
    dist_sum = float(problem.pair_distances(sel_t, sel_c).sum())
    total = _objective_from_terms(problem, ot, oc, ct, cc, dist_sum, n_sel)
    return {
        "outcome_treated": ot,
        "outcome_untreated": oc,
        "covariate_treated": ct,
        "covariate_untreated": cc,
        "pair_distance": dist_sum * _distance_scale(problem, n_sel),
        "total": total,
        "n_sel": n_sel,
        "mean_risk_treated": wt,
        "mean_risk_untreated": wc,
    }


def _build_solution(problem, sel_t, sel_c, pairing):
    """pairing maps position in sel_t -> position in sel_c."""
    pairs = sorted(
        (problem.treated_ids[sel_t[i]], problem.untreated_ids[sel_c[pairing[i]]])
        for i in range(len(sel_t))
    )
    sol = MatchSolution(tuple(pairs), 0.0, {}, {})
    breakdown = evaluate_objective(problem, sol)
    achieved = {
        "mean_risk_treated": breakdown.pop("mean_risk_treated", None),
        "mean_risk_untreated": breakdown.pop("mean_risk_untreated", None),
        "covariate_means_treated": {},
        "covariate_means_untreated": {},
    }
    if len(sel_t):
        for col, _a0, _a1 in problem.target_columns():
            name = problem.covariate_names[col]
            achieved["covariate_means_treated"][name] = float(
                problem.treated_X[sel_t, col].mean())
            achieved["covariate_means_untreated"][name] = float(
                problem.untreated_X[sel_c, col].mean())
    return MatchSolution(tuple(pairs), breakdown["total"], breakdown, achieved)


def _bucket_members(problem):
    K = problem.buckets.n_buckets
    T = [np.nonzero(problem.treated_bucket == k)[0] for k in range(K)]
    C = [np.nonzero(problem.untreated_bucket == k)[0] for k in range(K)]
    return T, C


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
        return _build_solution(problem, np.array([], int), np.array([], int), [])

    # columns: x per same-bucket pair in a bucket with a quota, s per
    # treated, u per untreated, then p and m per absolute-deviation term
    grids = [np.meshgrid(T[k], C[k], indexing="ij") for k in range(K) if quotas[k]]
    ti = np.concatenate([t.ravel() for t, _ in grids])
    cj = np.concatenate([c.ravel() for _, c in grids])
    n_x, n_t, n_c = ti.size, len(problem.treated_ids), len(problem.untreated_ids)
    n_bin = n_x + n_t + n_c  # x, s and u lie in [0, 1]
    s_col, u_col = n_x + np.arange(n_t), n_x + n_t + np.arange(n_c)
    tgt, lam_o = problem.risk_target, problem.lambda_outcome
    terms = [(s_col, problem.treated_risks, tgt, lam_o),
             (u_col, problem.untreated_risks, tgt, lam_o)]
    for col, a0, a1 in problem.target_columns():
        terms.append((s_col, problem.treated_X[:, col], a1, problem.lambda_covariate))
        terms.append((u_col, problem.untreated_X[:, col], a0, problem.lambda_covariate))

    # rows: each patient's pairs sum to its s or u, each bucket selects its
    # quota of treated (its pairs then select as many untreated), and
    # sum(v*s) - p + m = n_sel*target per term
    rows = [ti, n_t + cj, np.arange(n_t + n_c), n_t + n_c + problem.treated_bucket]
    cols = [np.arange(n_x), np.arange(n_x), n_x + np.arange(n_t + n_c), s_col]
    vals = [np.ones(2 * n_x), -np.ones(n_t + n_c), np.ones(n_t)]
    rhs = [np.zeros(n_t + n_c), quotas]
    cost = [problem.lambda_distance * _distance_scale(problem, n_sel)
            * problem.pair_distances(ti, cj), np.zeros(n_t + n_c)]
    for r, (sel_col, v, target, lam) in enumerate(terms):
        rows.append(np.full(sel_col.size + 2, n_t + n_c + K + r))
        cols += [sel_col, [n_bin + 2 * r, n_bin + 2 * r + 1]]
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

    chosen = res.x[n_x:n_bin] > 0.5  # s, then u
    sel_t, sel_c, pairing = [], [], []
    for k in range(K):
        tk, ck = T[k][chosen[T[k]]], C[k][chosen[n_t + C[k]]]
        _, pos = linear_sum_assignment(problem.distance_matrix(tk, ck))
        pairing += (len(sel_c) + pos).tolist()
        sel_t += tk.tolist()
        sel_c += ck.tolist()
    return _build_solution(problem, np.array(sel_t, int), np.array(sel_c, int), pairing)


# --- heuristic: greedy construction + local search --------------------------

SWAP_CHUNK = 64  # selected patients whose swaps one swap_objectives call scores


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
    its partner side 1 - s.

    ``pools[s][k]`` lists bucket k's side-s patients; ``blocks[0][k]`` holds
    their pair distances, treated ``pools[0][k]`` as rows and untreated
    ``pools[1][k]`` as columns, and ``blocks[1][k]`` is its transpose, so
    ``pos[s]`` gives each patient's row in its side's block. ``sel[s]``
    lists the selected side-s patients in selection order and
    ``partner[s]`` maps each to its partner on side 1 - s; ``chosen[k]``
    lists bucket k's selected treated patients in the order of ``sel[0]``.
    ``values[s]`` holds each patient's risk and targeted covariates, and
    ``sums[s]`` their running sums over the selection; with the running
    pair-distance sum they give a swap's objective without a full
    re-evaluation.
    ``swap_objectives`` scores every candidate for one selected patient, or
    for a chunk of them, one row each, in one numpy expression. ``fill``
    adds the greedy pairs in the order a walk by ascending distance meets
    them, so the running sums are added in that order. Blocks are read only
    by ``_distances``, ``swap_objectives``, ``fill`` and ``repair_bucket``.
    """

    def __init__(self, problem: MatchProblem, pools, quotas, blocks):
        self.p = problem
        self.pools = pools
        self.blocks = (blocks, [b.T for b in blocks])
        self.bucket = (problem.treated_bucket.tolist(),
                       problem.untreated_bucket.tolist())
        self.pos = (np.empty(len(problem.treated_ids), int),
                    np.empty(len(problem.untreated_ids), int))
        for s in (0, 1):
            for members in pools[s]:
                self.pos[s][members] = np.arange(len(members))
        self.quotas = quotas
        self.n_sel = int(sum(quotas))
        cols = problem.target_columns()
        arms = ((problem.treated_risks, problem.treated_X),
                (problem.untreated_risks, problem.untreated_X))
        self.values = tuple(np.column_stack([risks] + [X[:, c] for c, _, _ in cols])
                            for risks, X in arms)
        tgt = problem.risk_target
        self.targets = (np.array([tgt] + [a1 for _, _, a1 in cols]),
                        np.array([tgt] + [a0 for _, a0, _ in cols]))
        self.sel: tuple[list[int], list[int]] = ([], [])
        self.partner: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.chosen: list[list[int]] = [[] for _ in quotas]
        self.sums = np.zeros((2, len(cols) + 1))
        self.dist_sum = 0.0

    def _distances(self, s: int, j: int) -> np.ndarray:
        """The distances from each side-s patient of j's bucket to j, a
        patient of side 1 - s, indexed by ``pos[s]``."""
        return self.blocks[1 - s][self.bucket[1 - s][j]][self.pos[1 - s][j]]

    def _add_pair(self, ti: int, ci: int) -> None:
        for s, (i, j) in enumerate(((ti, ci), (ci, ti))):
            self.sel[s].append(i)
            self.partner[s][i] = j
            self.sums[s] += self.values[s][i]
        self.chosen[self.bucket[0][ti]].append(ti)
        self.dist_sum += float(self._distances(0, ci)[self.pos[0][ti]])

    def fill(self, rng) -> None:
        """Select each bucket's quota of pairs: without rng, the pairs a
        greedy walk over the block in ascending (distance, flat index)
        order would take, found in rounds by ``_greedy_pairs`` and added
        in walk order; with rng, a random draw from each side."""
        for k, q in enumerate(self.quotas):
            if q == 0:
                continue
            tk, ck = self.pools[0][k], self.pools[1][k]
            if rng is not None:
                pairs = zip(rng.choice(tk, size=q, replace=False).tolist(),
                            rng.choice(ck, size=q, replace=False).tolist())
            else:
                rows, cols = _greedy_pairs(self.blocks[0][k], q)
                pairs = zip(tk[rows].tolist(), ck[cols].tolist())
            for ti, ci in pairs:
                self._add_pair(ti, ci)

    def _objective_from_sums(self, sums, dist_sum):
        """Scalar sums give one objective. A side's sums of shape (..., m),
        with dist_sum of shape (...), give one objective per entry: a 2-D
        side one per candidate, a 3-D side one per (selected patient,
        candidate). Every entry is bitwise equal to the scalar evaluation
        of its own sums, since each step is elementwise."""
        dev = [abs(self.targets[s] - sums[s] / self.n_sel) for s in (0, 1)]
        ct, cc = (sum((d[..., i] for i in range(1, d.shape[-1])), 0.0) for d in dev)
        return _objective_from_terms(self.p, dev[0][..., 0], dev[1][..., 0],
                                     ct, cc, dist_sum, self.n_sel)

    def objective(self) -> float:
        return float(self._objective_from_sums(self.sums, self.dist_sum))

    def selected(self, s: int, k: int) -> list[int]:
        """Bucket k's selected side-s patients, in treated selection order."""
        members = self.chosen[k]
        return [self.partner[0][t] for t in members] if s else list(members)

    def swap_objectives(self, s: int, old, news: np.ndarray) -> np.ndarray:
        """Objective after swapping selected side-s patient old for each
        unselected patient in news; each swapped sum is (sum + new) - old,
        and the pair-distance sum (dist_sum + d_new) - d_old. An array old,
        all of one bucket, gives one row of objectives per patient, each
        entry bitwise equal to the one its own call gives."""
        olds = np.atleast_1d(old)
        sums = list(self.sums)
        sums[s] = (sums[s] + self.values[s][news]) - self.values[s][olds][:, None]
        j = self.pos[1 - s][[self.partner[s][i] for i in olds.tolist()]]
        d = self.blocks[1 - s][self.bucket[s][olds[0]]][j]
        dist = ((self.dist_sum + d[:, self.pos[s][news]])
                - d[np.arange(olds.size), self.pos[s][olds]][:, None])
        out = self._objective_from_sums(sums, dist)
        return out if np.ndim(old) else out[0]

    def apply_swap(self, s: int, old: int, new: int) -> None:
        j = self.partner[s].pop(old)
        self.sel[s][self.sel[s].index(old)] = new
        if s == 0:
            members = self.chosen[self.bucket[0][old]]
            members[members.index(old)] = new
        self.partner[s][new] = j
        self.partner[1 - s][j] = new
        self.sums[s] += self.values[s][new] - self.values[s][old]
        d = self._distances(s, j)
        self.dist_sum += float(d[self.pos[s][new]]) - float(d[self.pos[s][old]])

    def repair_bucket(self, k: int) -> bool:
        """Optimally re-pair bucket k's current selection; True if improved."""
        ts, cs = self.selected(0, k), self.selected(1, k)
        if len(ts) < 2:
            return False
        sub = self.blocks[0][k][np.ix_(self.pos[0][ts], self.pos[1][cs])]
        ri, ci = linear_sum_assignment(sub)
        new_cost = float(sub[ri, ci].sum())
        old_cost = float(np.trace(sub))
        if new_cost < old_cost - 1e-15:
            for a, b in zip(ri, ci):
                self.partner[0][ts[a]] = cs[b]
                self.partner[1][cs[b]] = ts[a]
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
        return _build_solution(problem, np.array([], int), np.array([], int), [])
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
    spent. Each selected patient takes the best improving swap, where a
    candidate replaces the running best only when it is better by more
    than 1e-12; an evaluation past the budget ends the search. The swaps
    of up to SWAP_CHUNK selected patients are scored in one call and taken
    in order; a swap changes the state, so scoring restarts after it."""
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
                pool = state.pools[s][k]
                selected = state.selected(s, k)
                unselected = pool[~np.isin(pool, selected)]
                start = 0
                while start < len(selected) and evals <= move_budget:
                    chunk = selected[start:start + SWAP_CHUNK]
                    scores = state.swap_objectives(s, np.array(chunk), unselected)
                    for row, old in enumerate(chunk):
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
                            state.apply_swap(s, old, int(unselected[best_pos]))
                            unselected[best_pos] = old
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

    st, sc = (np.array(sel, int) for sel in state.sel)
    slot = {ci: i for i, ci in enumerate(state.sel[1])}
    pairing = [slot[state.partner[0][t]] for t in state.sel[0]]
    return replace(_build_solution(state.p, st, sc, pairing), evals=evals,
                   budget_exhausted=evals > move_budget or sweep_improved)
