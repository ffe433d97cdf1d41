"""Solution procedures for the trilevel robust kidney exchange problem.

The outer loop is column-and-constraint generation: the restricted master
optimizes the initial solution against a growing set of attacks, and the
attacker-side subproblem searches for an attack that beats the master's
current value.  Two subproblem methods are provided (interdiction-cut
generation and a combinatorial branch-and-bound), plus exhaustive
brute-force oracles used for verification.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import (
    Attack,
    CompatibilityGraph,
    Exchange,
    ExchangeKind,
    ExchangePool,
    KepSolution,
    Policy,
    build_pool,
    enforced_under_attack,
    exchange_weight,
)
from .formulations import (
    Encoding,
    add_interdiction_cut,
    build_master,
    build_recourse,
    build_subproblem,
    extend_master_with_attack,
    extract_attack,
    extract_cut_solution,
    extract_initial_solution,
)
from .milp import SolveStatus

METHOD_CUT = "cut"
METHOD_BB = "bb"
METHOD_ORACLE = "oracle"


class TimeBudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class RobustConfig:
    """Parameters of one robust solve."""

    max_cycle_len: int
    max_chain_len: int
    budget: int
    policy: Policy = Policy.FULL_RECOURSE
    encoding: Encoding = Encoding.CC
    subproblem_method: str = METHOD_CUT
    lifting: bool = True
    early_exit: bool = True
    time_limit: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.max_cycle_len < 0 or self.max_chain_len < 0 or self.budget < 0:
            raise ValueError("cycle length, chain length and budget must be >= 0")
        if self.subproblem_method not in (METHOD_CUT, METHOD_BB, METHOD_ORACLE):
            raise ValueError(f"unknown subproblem method {self.subproblem_method!r}")


@dataclass
class RobustStats:
    master_iterations: int = 0
    n_attacks: int = 0
    n_subproblems: int = 0
    bb_nodes: int = 0
    time_total: float = 0.0
    time_stage2: float = 0.0
    time_stage3: float = 0.0


@dataclass
class RobustResult:
    value: int
    initial: KepSolution
    worst_attack: Attack
    status: str
    stats: RobustStats
    attack_set: List[Attack] = field(default_factory=list)


class _Clock:
    def __init__(self, limit: Optional[float]):
        self.start = time.perf_counter()
        self.limit = limit

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def remaining(self) -> Optional[float]:
        if self.limit is None:
            return None
        left = self.limit - self.elapsed()
        if left <= 0:
            raise TimeBudgetExceeded
        return left


def _check(outcome) -> None:
    if outcome.status is SolveStatus.TIME_LIMIT:
        raise TimeBudgetExceeded
    if outcome.status is not SolveStatus.OPTIMAL:
        raise RuntimeError(f"unexpected solve status {outcome.status}")


def solve_robust(graph: CompatibilityGraph, cfg: RobustConfig) -> RobustResult:
    """Optimal initial solution maximizing the worst-case recourse value."""
    pool = build_pool(graph, cfg.max_cycle_len, cfg.max_chain_len)
    clock = _Clock(cfg.time_limit)
    stats = RobustStats()
    master = build_master(
        pool,
        graph,
        cfg.policy,
        cfg.encoding,
        [Attack.of((), cfg.budget)],
        max_chain_len=cfg.max_chain_len,
    )
    best = RobustResult(
        0, KepSolution.empty(), Attack.of((), cfg.budget), "timelimit", stats
    )
    try:
        while True:
            stats.master_iterations += 1
            outcome = master.model.solve(clock.remaining())
            _check(outcome)
            stats.bb_nodes += outcome.nodes_explored
            z_bar = outcome.int_objective()
            if z_bar == 0:
                # the robust optimum is 0; the empty plan is certified by the
                # empty attack, which x_bar need not be
                best = RobustResult(
                    0,
                    KepSolution.empty(),
                    Attack.of((), cfg.budget),
                    "optimal",
                    stats,
                )
                break
            x_bar = extract_initial_solution(master, outcome)
            s_val, u_star = _solve_subproblem(
                x_bar, pool, graph, cfg, z_bar, clock, stats
            )
            if s_val < z_bar:
                extend_master_with_attack(master, u_star)
                stats.n_attacks = len(master.blocks)
                continue
            best = RobustResult(z_bar, x_bar, u_star, "optimal", stats)
            break
    except TimeBudgetExceeded:
        best.status = "timelimit"
    stats.n_attacks = len(master.blocks)
    stats.time_total = clock.elapsed()
    best.attack_set = [b.attack for b in master.blocks]
    return best


def _solve_subproblem(
    initial: KepSolution,
    pool: ExchangePool,
    graph: CompatibilityGraph,
    cfg: RobustConfig,
    master_value: int,
    clock: _Clock,
    stats: RobustStats,
) -> Tuple[int, Attack]:
    if cfg.subproblem_method == METHOD_CUT:
        return solve_attack_subproblem_cuttingplane(
            initial,
            pool,
            graph,
            cfg.policy,
            cfg.encoding,
            cfg.budget,
            max_chain_len=cfg.max_chain_len,
            lifting=cfg.lifting,
            early_exit=cfg.early_exit,
            master_value=master_value,
            clock=clock,
            stats=stats,
        )
    if cfg.subproblem_method == METHOD_BB:
        return solve_attack_subproblem_bb(
            initial,
            pool,
            graph,
            cfg.policy,
            cfg.budget,
            max_chain_len=cfg.max_chain_len,
            early_exit=cfg.early_exit,
            master_value=master_value,
            clock=clock,
            stats=stats,
        )
    stats.n_subproblems += 1
    value, attack = brute_force_attack(initial, pool, graph, cfg.policy, cfg.budget)
    return value, attack


def solve_attack_subproblem_cuttingplane(
    initial: KepSolution,
    pool: ExchangePool,
    graph: CompatibilityGraph,
    policy: Policy,
    encoding: Encoding,
    budget: int,
    max_chain_len: int,
    lifting: bool = True,
    early_exit: bool = False,
    master_value: Optional[int] = None,
    clock: Optional[_Clock] = None,
    stats: Optional[RobustStats] = None,
) -> Tuple[int, Attack]:
    """Exact attack value s(x) by interdiction-cut generation.

    With ``early_exit`` the search stops at the first attack proven to beat
    ``master_value``; the returned value is then an upper bound on s(x) that
    still certifies the master solution suboptimal.
    """
    clock = clock or _Clock(None)
    stats = stats or RobustStats()
    sub = build_subproblem(initial, pool, graph, policy, encoding, budget)
    add_interdiction_cut(sub, initial)
    while True:
        stats.n_subproblems += 1
        t0 = time.perf_counter()
        outcome = sub.model.solve(clock.remaining())
        stats.time_stage2 += time.perf_counter() - t0
        _check(outcome)
        stats.bb_nodes += outcome.nodes_explored
        z_sub = outcome.int_objective()
        u = extract_attack(sub, outcome)
        t0 = time.perf_counter()
        rec = build_recourse(
            initial,
            u,
            pool,
            graph,
            policy,
            encoding,
            lifted=lifting,
            max_chain_len=max_chain_len,
        )
        rec_out = rec.model.solve(clock.remaining())
        stats.time_stage3 += time.perf_counter() - t0
        _check(rec_out)
        stats.bb_nodes += rec_out.nodes_explored
        cut_sol, r = extract_cut_solution(rec, rec_out)
        if early_exit and master_value is not None and r < master_value:
            return r, u
        if r > z_sub:
            add_interdiction_cut(sub, cut_sol)
            continue
        return r, u


def solve_attack_subproblem_bb(
    initial: KepSolution,
    pool: ExchangePool,
    graph: CompatibilityGraph,
    policy: Policy,
    budget: int,
    max_chain_len: int,
    early_exit: bool = False,
    master_value: Optional[int] = None,
    clock: Optional[_Clock] = None,
    stats: Optional[RobustStats] = None,
) -> Tuple[int, Attack]:
    """Exact attack value by depth-first search over vertex fixings.

    Nodes carry a set of vertices fixed attacked and fixed protected; each
    node's attack is completed greedily, evaluated exactly, and the first
    greedily chosen vertex is branched on (attacked child first).
    """
    clock = clock or _Clock(None)
    stats = stats or RobustStats()
    stats.n_subproblems += 1
    initial_pairs = initial.initial_pairs(pool, graph)
    init_exchanges = initial.exchanges(pool)
    weights = [exchange_weight(e, initial_pairs) for e in init_exchanges]
    total = sum(weights)
    nv = graph.num_vertices

    best_val = total + 1
    best_u = Attack.of((), budget)

    # stack of (attacked fixings, protected fixings)
    stack: List[Tuple[Set[int], Set[int]]] = [(set(), set())]
    while stack:
        clock.remaining()
        a1, a0 = stack.pop()
        stats.bb_nodes += 1
        # lower bound: surviving initial weight under the worst completion
        hit = sum(
            w for e, w in zip(init_exchanges, weights) if any(v in a1 for v in e.vertices)
        )
        open_weights = sorted(
            (
                w
                for e, w in zip(init_exchanges, weights)
                if not any(v in a1 for v in e.vertices)
                and any(v not in a0 for v in e.vertices)
            ),
            reverse=True,
        )
        bound = total - hit - sum(open_weights[: budget - len(a1)])
        if bound >= best_val:
            continue
        attack_set, first_added = _greedy_fill(
            a1, a0, budget, nv, init_exchanges, weights
        )
        u = Attack.of(attack_set, budget)
        t0 = time.perf_counter()
        rec = build_recourse(
            initial,
            u,
            pool,
            graph,
            policy,
            Encoding.CC,
            lifted=False,
            max_chain_len=max_chain_len,
        )
        out = rec.model.solve(clock.remaining())
        stats.time_stage3 += time.perf_counter() - t0
        _check(out)
        val = out.int_objective()
        if val < best_val:
            best_val = val
            best_u = u
            if early_exit and master_value is not None and best_val < master_value:
                return best_val, best_u
        if first_added is None:
            continue
        stack.append((a1, a0 | {first_added}))
        stack.append((a1 | {first_added}, a0))  # explored first
    return best_val, best_u


def _greedy_fill(
    a1: Set[int],
    a0: Set[int],
    budget: int,
    nv: int,
    init_exchanges: Sequence[Exchange],
    weights: Sequence[int],
) -> Tuple[Set[int], Optional[int]]:
    """Complete a partial attack: repeatedly hit the heaviest untouched
    initial exchange through its smallest unfixed vertex, falling back to the
    smallest unfixed vertex overall."""
    attack = set(a1)
    first_added: Optional[int] = None
    while len(attack) < budget:
        cand: Optional[int] = None
        cand_w = -1
        for e, w in zip(init_exchanges, weights):
            if any(v in attack for v in e.vertices):
                continue
            free = [v for v in e.vertices if v not in a0]
            if free and w > cand_w:
                cand_w = w
                cand = min(free)
        if cand is None:
            rest = [v for v in range(nv) if v not in attack and v not in a0]
            if not rest:
                break
            cand = rest[0]
        attack.add(cand)
        if first_added is None:
            first_added = cand
    return attack, first_added


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def brute_force_recourse(
    initial: KepSolution,
    u: Attack,
    pool: ExchangePool,
    graph: CompatibilityGraph,
    policy: Policy,
) -> int:
    """Best recourse value under attack u by exhaustive packing search."""
    initial_pairs = initial.initial_pairs(pool, graph)
    base = 0
    blocked: Set[int] = set()
    if policy is Policy.FIX_SUCCESSFUL:
        for e in enforced_under_attack(initial, u, pool):
            base += exchange_weight(e, initial_pairs)
            blocked.update(e.vertices)
    cands = [
        (exchange_weight(e, initial_pairs), tuple(e.vertices))
        for e in pool.exchanges
        if not u.hits(e)
        and not any(v in blocked for v in e.vertices)
        and exchange_weight(e, initial_pairs) > 0
    ]
    cands.sort(reverse=True)
    suffix = [0] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + cands[i][0]

    best = 0

    def search(i: int, used: Set[int], acc: int) -> None:
        nonlocal best
        if acc > best:
            best = acc
        if i == len(cands) or acc + suffix[i] <= best:
            return
        w, verts = cands[i]
        if not any(v in used for v in verts):
            search(i + 1, used | set(verts), acc + w)
        search(i + 1, used, acc)

    search(0, set(), 0)
    return base + best


def brute_force_attack(
    initial: KepSolution,
    pool: ExchangePool,
    graph: CompatibilityGraph,
    policy: Policy,
    budget: int,
    stop_below: Optional[int] = None,
) -> Tuple[int, Attack]:
    """Exact worst attack by enumerating all vertex subsets within budget.

    With ``stop_below`` the search returns as soon as the incumbent value
    reaches that threshold; the result is then an upper bound on the true
    worst case, which suffices to discard the initial solution.
    """
    initial_pairs = initial.initial_pairs(pool, graph)
    init_exchanges = initial.exchanges(pool)
    weights = [exchange_weight(e, initial_pairs) for e in init_exchanges]
    total = sum(weights)
    best_val = total  # the empty attack leaves everything in place
    best_u = Attack.of((), budget)
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(graph.num_vertices), size):
            hit = sum(
                w
                for e, w in zip(init_exchanges, weights)
                if any(v in combo for v in e.vertices)
            )
            if total - hit >= best_val:
                continue  # cannot beat the incumbent: survivors alone match it
            u = Attack.of(combo, budget)
            val = brute_force_recourse(initial, u, pool, graph, policy)
            if val < best_val:
                best_val = val
                best_u = u
                if stop_below is not None and best_val <= stop_below:
                    return best_val, best_u
    return best_val, best_u


def brute_force_robust(
    graph: CompatibilityGraph,
    max_cycle_len: int,
    max_chain_len: int,
    budget: int,
    policy: Policy,
    max_solutions: int = 500_000,
) -> Tuple[int, KepSolution]:
    """Exact robust optimum by enumerating every feasible initial solution.

    For unrestricted recourse the value is monotone in the covered pair set,
    so only maximal solutions are scored there.
    """
    pool = build_pool(graph, max_cycle_len, max_chain_len)
    exchanges = pool.exchanges
    maximal_only = policy is Policy.FULL_RECOURSE

    best_val = -1
    best_sol = KepSolution.empty()
    count = 0

    def score(chosen: List[int]) -> None:
        nonlocal best_val, best_sol, count
        count += 1
        if count > max_solutions:
            raise RuntimeError(
                f"more than {max_solutions} feasible solutions; instance too large"
            )
        sol = KepSolution.of(chosen)
        if len(sol.initial_pairs(pool, graph)) <= best_val:
            return  # the value cannot exceed the number of covered pairs
        val, _ = brute_force_attack(
            sol, pool, graph, policy, budget, stop_below=best_val
        )
        if val > best_val:
            best_val = val
            best_sol = sol

    def search(i: int, used: Set[int], chosen: List[int]) -> None:
        extendable = False
        for k in range(i, len(exchanges)):
            e = exchanges[k]
            if any(v in used for v in e.vertices):
                continue
            extendable = True
            chosen.append(e.index)
            used.update(e.vertices)
            search(k + 1, used, chosen)
            used.difference_update(e.vertices)
            chosen.pop()
        if not maximal_only or not extendable:
            score(chosen)

    search(0, set(), [])
    return best_val, best_sol
