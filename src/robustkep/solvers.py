"""Solution procedures for the trilevel robust kidney exchange problem.

The robust solve is column-and-constraint generation run as branch and
check: the restricted master optimizes the initial solution against a
growing set of attacks in one branch-and-bound tree, and at each integer
node its lazy hook has the attacker-side subproblem find the worst attack on
the node's plan, whose block the master takes when the attack leaves less
than the master promised.  Two subproblem methods are provided
(interdiction-cut generation and a combinatorial branch-and-bound), plus
exhaustive brute-force oracles used for verification.

The master solve takes a cutoff, the value of the empty plan, and the
incumbent then follows the best plan certified so far, so the tree looks
only for better plans; when it ends, the best plan is optimal.  The cut
attacker is one branch-and-cut solve per plan: the attacker MILP's lazy
hook separates interdiction cuts at its integer nodes and values each node
at its attack's recourse value, so the search ends on the exact attack
value and a worst attack.

A time limit ends a solve one way.  A ``MilpModel`` solve that meets it
reports ``TIME_LIMIT``; each layer above returns None, and a lazy hook that
gets None passes it on, which ends its tree as a time limit does (see
``milp``).  Each solve, at the limit or not, charges its nodes and its own
seconds, wall time less what nested solves charged, to its role in
``RobustStats`` (``_solve``, ``_charged``).
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .core import (
    Attack,
    CompatibilityGraph,
    Exchange,
    ExchangePool,
    KepSolution,
    Policy,
    build_pool,
    enforced_under_attack,
    exchange_weight,
)
from .formulations import (
    Encoding,
    RecourseHandle,
    add_interdiction_cut,
    attack_at,
    build_master,
    build_recourse,
    build_subproblem,
    extend_master_with_attack,
    extract_attack,
    extract_cut_solution,
    extract_initial_solution,
)
from .milp import GAP_TOL, SolveStatus

METHOD_CUT = "cut"
METHOD_BB = "bb"
ROLES = ("master", "attacker", "recourse")


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
    time_limit: Optional[float] = None

    def __post_init__(self):
        for name in ("max_cycle_len", "max_chain_len", "budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if not isinstance(self.policy, Policy):
            raise ValueError(f"unknown policy {self.policy!r}: expected a Policy member")
        if not isinstance(self.encoding, Encoding):
            raise ValueError(f"unknown encoding {self.encoding!r}: expected an Encoding member")
        if self.subproblem_method not in (METHOD_CUT, METHOD_BB):
            raise ValueError(f"unknown subproblem method {self.subproblem_method!r}")
        if self.time_limit is not None and not self.time_limit > 0:  # NaN fails too
            raise ValueError(f"time limit must be a positive number, got {self.time_limit!r}")


@dataclass
class RobustStats:
    n_attacks: int = 0  # attack blocks the master took, not its seed block
    n_subproblems: int = 0  # attacker calls, one per plan the master checked
    # per role: nodes explored (bb's search nodes as the attacker's), own seconds
    nodes: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(ROLES, 0))
    seconds: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(ROLES, 0.0))
    time_total: float = 0.0


@dataclass
class RobustResult:
    value: int
    initial: KepSolution
    worst_attack: Attack
    status: str
    stats: RobustStats
    exchanges: List[Exchange] = field(default_factory=list)  # the plan's, in order


class _Clock:
    def __init__(self, limit: Optional[float]):
        self.start = time.perf_counter()
        self.limit = limit

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def remaining(self) -> Optional[float]:
        """Seconds left, 0.0 once the limit is spent; None without a limit."""
        if self.limit is None:
            return None
        return max(self.limit - self.elapsed(), 0.0)


@contextmanager
def _charged(stats: RobustStats, role: str):
    """Charge the block's wall time, less what blocks nested in it charged, to ``role``."""
    t0, nested = time.perf_counter(), sum(stats.seconds.values())
    yield
    stats.seconds[role] += time.perf_counter() - t0 - (sum(stats.seconds.values()) - nested)


def _solve(model, role: str, clock: _Clock, stats: RobustStats, **kwargs):
    """Solve ``model`` on ``clock``, charging its nodes and own seconds to ``role``."""
    with _charged(stats, role):
        outcome = model.solve(clock.remaining(), **kwargs)
    stats.nodes[role] += outcome.nodes_explored
    return outcome


def _check(outcome) -> bool:  # True if optimal, False at the time limit
    if outcome.status not in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT):
        raise RuntimeError(f"unexpected solve status {outcome.status}")
    return outcome.status is SolveStatus.OPTIMAL


def _recourse(
    initial: KepSolution, u: Attack, pool: ExchangePool, policy: Policy,
    lifted: bool, clock: _Clock, stats: RobustStats,
) -> Optional[Tuple[KepSolution, int]]:
    """Build and solve the recourse model under u, charged to the recourse:
    the cut solution and the recourse value, or None when the solve meets
    the time limit.  The solve's nodes count either way.

    The cut attacker's hook builds a new model, solved cold, for each attack
    it meets: solving the lifted recourse warm, or on one model with the hit
    columns pinned, picks other optimal cut solutions, and the cut search
    grows."""
    with _charged(stats, "recourse"):
        rec = build_recourse(initial, u, pool, policy, lifted=lifted)
        outcome = _solve(rec.model, "recourse", clock, stats)
    return extract_cut_solution(rec, outcome) if _check(outcome) else None


def solve_robust(graph: CompatibilityGraph, cfg: RobustConfig) -> RobustResult:
    """Optimal initial solution maximizing the worst-case recourse value.

    ``best`` holds the best plan certified so far, with its exact value and
    worst attack; the empty plan, worth 0 under any attack, starts it.  The
    master is solved once, with ``best``'s value as its cutoff, by branch and
    check: at each integer node, plan x̄ with master value z̄, the lazy hook
    runs the attacker, which gives s(x̄) and a worst attack u*.  A better s
    makes x̄ ``best``; s < z̄ adds u*'s block, which holds x̄'s exact recourse,
    so the node is solved again with x̄ worth at most s.  Otherwise the node
    closes: s > z̄ happens where branching fixed block binaries that x̄'s
    recourse needs, and then no master point left in the node beats z̄ < s.
    Blocks only lower master values, and each stays at least s(x) for every
    plan x, so a search that ends leaves no plan better than ``best``.  A
    time limit, the master's or one an attacker call meets, returns ``best``
    as it stands, with the master's nodes counted.
    """
    clock = _Clock(cfg.time_limit)  # the limit and time_total include enumeration
    pool = build_pool(graph, cfg.max_cycle_len, cfg.max_chain_len)
    stats = RobustStats()
    no_attack = Attack.of((), cfg.budget)
    master = build_master(pool, cfg.policy, cfg.encoding, [no_attack])
    best = RobustResult(0, KepSolution.empty(), no_attack, "timelimit", stats)
    rec = None  # bb's recourse model, shared by every plan it attacks
    if cfg.subproblem_method == METHOD_BB:
        rec = build_recourse(KepSolution.empty(), no_attack, pool, Policy.FULL_RECOURSE)

    def check(x) -> Optional[int]:
        nonlocal best
        x_bar = extract_initial_solution(master, x)
        if cfg.subproblem_method == METHOD_CUT:
            worst = solve_attack_subproblem_cuttingplane(
                x_bar, pool, cfg.policy, cfg.encoding, cfg.budget,
                lifting=cfg.lifting, clock=clock, stats=stats,
            )
        else:
            worst = solve_attack_subproblem_bb(
                x_bar, pool, cfg.policy, cfg.budget, clock=clock, stats=stats, rec=rec,
            )
        if worst is None:
            return None  # the master stops as on its own limit, its nodes counted
        s_val, u_star = worst
        if s_val > best.value:
            best = RobustResult(s_val, x_bar, u_star, "timelimit", stats)
        if s_val < round(x[master.z_var]):
            extend_master_with_attack(master, u_star)
        return s_val

    outcome = _solve(master.model, "master", clock, stats, cutoff=best.value, lazy=check)
    if outcome.status is not SolveStatus.TIME_LIMIT:
        best.status = "optimal"
    stats.n_attacks = len(master.blocks) - 1  # not the seed block
    stats.time_total = clock.elapsed()
    best.exchanges = best.initial.exchanges(pool)
    return best


def solve_attack_subproblem_cuttingplane(
    initial: KepSolution,
    pool: ExchangePool,
    policy: Policy,
    encoding: Encoding,
    budget: int,
    lifting: bool = True,
    clock: Optional[_Clock] = None,
    stats: Optional[RobustStats] = None,
) -> Optional[Tuple[int, Attack]]:
    """Attack value s(x) and a worst attack by interdiction-cut generation in
    one branch-and-cut tree, or None when ``clock`` runs out.

    The attacker MILP is solved once.  At each integer node its lazy hook
    solves the recourse under the node's attack u, once per attack; when the
    recourse value r exceeds the node's Z, the interdiction cut of the
    recourse solution joins the model and the node is solved again.  The
    hook values the node at r either way, so the incumbent is the least
    recourse value found, and once the search ends it is s(x), with the
    attack that gave it as the worst attack.  A time limit met in a recourse
    solve stops the tree as its own limit would, with its nodes counted.
    """
    clock = clock or _Clock(None)
    stats = stats or RobustStats()
    stats.n_subproblems += 1
    sub = build_subproblem(initial, pool, policy, encoding, budget)
    add_interdiction_cut(sub, initial)
    added = {initial}  # the solutions whose cuts the model holds
    recourses: Dict[Attack, Tuple[KepSolution, int]] = {}  # cut solution, value

    def separate(x) -> Optional[int]:
        u = attack_at(sub, x)
        if u not in recourses:
            recourse = _recourse(initial, u, pool, policy, lifting, clock, stats)
            if recourse is None:
                return None  # the tree stops as on its own limit, its nodes counted
            recourses[u] = recourse
        cut_sol, r = recourses[u]
        z = x[sub.z_var]
        if r > z + GAP_TOL:
            if cut_sol in added:
                # its cut should already hold Z >= r at u; adding it again
                # would change nothing, and the node would never close
                raise RuntimeError(
                    f"cut loop stalled at attack {sorted(u.attacked)}: a repeated cut "
                    f"solution has recourse value {r} above the attacker's {z:g}"
                )
            added.add(cut_sol)
            add_interdiction_cut(sub, cut_sol)
        return r

    outcome = _solve(sub.model, "attacker", clock, stats, lazy=separate)
    if not _check(outcome):
        return None
    return outcome.int_objective(), extract_attack(sub, outcome)


def solve_attack_subproblem_bb(
    initial: KepSolution,
    pool: ExchangePool,
    policy: Policy,
    budget: int,
    clock: Optional[_Clock] = None,
    stats: Optional[RobustStats] = None,
    rec: Optional[RecourseHandle] = None,
) -> Optional[Tuple[int, Attack]]:
    """Attack value s(x) and a worst attack by depth-first search, or None
    when ``clock`` runs out, which each node checks.

    A node fixes vertices attacked (``a1``) and protected (``a0``).  Its open
    list, the plan's exchanges that ``a1`` spares and that have a vertex
    outside ``a0``, heaviest first with ties in plan order, gives both the
    node's lower bound and its greedy attack ``a1 + [f1..fk]``: the smallest
    unprotected vertex of each open exchange in turn, then the smallest free
    vertices.  That attack is scored.  Branching is unrolled: child i fixes
    ``f1..f(i-1)`` attacked and ``fi`` protected, the last explored first, so
    the attacked child of a two-way branch on ``f1``, which would complete to
    the same attack, is never scored again.

    Any recourse solution S bounds the value of every attack u from below:
    u's enforced weight plus the weight of S's exchanges that avoid what u
    blocks.  ``known`` holds the distinct solutions found so far, the plan
    first; an attack one of them shows to be worth at least the incumbent
    is skipped (``_rules_out``), and every other one is solved exactly
    (``_attack_value``), its solution joining ``known``.  So the search
    visits the same nodes and returns the same value and worst attack as
    one that solved every attack.

    Attacks are solved on one recourse model, ``rec``: the FR recourse of the
    whole pool, given the plan's weights as costs and each attack by bounds
    alone.  A robust solve passes the model it built for all its plans; a
    call without one builds it.
    """
    clock = clock or _Clock(None)
    stats = stats or RobustStats()
    stats.n_subproblems += 1
    initial_pairs = initial.initial_pairs(pool)
    weight = [exchange_weight(e, initial_pairs) for e in pool.exchanges]
    plan = [(e, weight[e.index]) for e in initial.exchanges(pool)]
    nv = pool.graph.num_vertices
    if rec is None:
        rec = build_recourse(initial, Attack.of((), budget), pool, Policy.FULL_RECOURSE)
    for i, var in rec.y_vars.items():
        rec.model.set_objective(var, weight[i])
    known = [_known(plan)]
    # the exchanges the last scored attack turned off, maybe in an earlier call
    off = {i for i, var in rec.y_vars.items() if rec.model.ub[var] == 0.0}

    best_val = sum(w for _, w in plan) + 1
    best_u = Attack.of((), budget)

    # stack of (attacked fixings, protected fixings)
    stack: List[Tuple[Set[int], Set[int]]] = [(set(), set())]
    with _charged(stats, "attacker"):
        while stack:
            if clock.remaining() == 0.0:
                return None
            a1, a0 = stack.pop()
            stats.nodes["attacker"] += 1
            slots = budget - len(a1)
            alive = [(e, w) for e, w in plan if not any(v in a1 for v in e.vertices)]
            open_ = sorted(
                ((e, w) for e, w in alive if any(v not in a0 for v in e.vertices)),
                key=lambda ew: ew[1], reverse=True,  # stable: ties stay in plan order
            )[:slots]
            # lower bound: surviving plan weight under the worst completion
            bound = sum(w for _, w in alive) - sum(w for _, w in open_)
            if bound >= best_val:
                continue
            # the plan's exchanges are disjoint, so each fi hits only its own
            fill = [min(v for v in e.vertices if v not in a0) for e, _ in open_]
            fixed = a1 | a0 | set(fill)
            fill += [v for v in range(nv) if v not in fixed][: slots - len(fill)]
            u = Attack.of(a1.union(fill), budget)
            blocked, base = _blocked(initial, u, pool, policy, weight)
            if not _rules_out(known, blocked, base, best_val):
                val = _attack_value(initial, u, rec, blocked, base, off, known, clock, stats)
                if val is None:
                    return None
                if val < best_val:
                    best_val = val
                    best_u = u
            for i, f in enumerate(fill):
                stack.append((a1.union(fill[:i]), a0 | {f}))
    return best_val, best_u


# A recourse solution known to bb: its weight under the plan, and per vertex
# it covers, the pool index and weight of its exchange through that vertex;
# exchanges of weight 0 are left out.
_Known = Tuple[int, Dict[int, Tuple[int, int]]]


def _known(exchanges: List[Tuple[Exchange, int]]) -> _Known:
    """The known solution of the given exchanges and their weights."""
    through = {v: (e.index, w) for e, w in exchanges if w for v in e.vertices}
    return sum(w for _, w in exchanges), through


def _blocked(
    initial: KepSolution, u: Attack, pool: ExchangePool, policy: Policy,
    weight: List[int],
) -> Tuple[Set[int], int]:
    """The vertices u blocks, its own and under FSE those of the structures
    it enforces, and the weight of those structures under the plan's
    ``weight``, indexed by pool index."""
    enforced = enforced_under_attack(initial, u, pool, policy)
    blocked = u.attacked.union(*(e.vertices for e in enforced))
    return blocked, sum(weight[e.index] for e in enforced)


def _rules_out(known: List[_Known], blocked: Set[int], base: int, target: int) -> bool:
    """Whether a known recourse solution shows that an attack is worth at
    least ``target``: the attack's enforced weight ``base`` plus the weight
    of the solution's exchanges that avoid the ``blocked`` vertices reaches
    it.  Those exchanges are a packing the attack leaves feasible.  The
    scan stops at the first solution that rules the attack out, which moves
    to the front."""
    need = target - base
    for k, (total, through) in enumerate(known):
        if total < need:
            continue
        hit = {through[v] for v in blocked if v in through}
        if total - sum(w for _, w in hit) >= need:
            if k:
                known.insert(0, known.pop(k))
            return True
    return False


def _attack_value(
    initial: KepSolution, u: Attack, rec: RecourseHandle, blocked: Set[int],
    base: int, off: Set[int], known: List[_Known], clock: _Clock, stats: RobustStats,
) -> Optional[int]:
    """Recourse value under u on ``rec``, the FR recourse of the whole pool
    with the plan's weights as costs, or None when the solve meets the time
    limit; the bound changes and the solve charge the recourse.  ``blocked``
    and ``base`` are ``_blocked``'s for u: the exchanges through the blocked
    vertices get upper bound 0, and the optimum plus ``base`` is the value.
    ``off`` holds the exchanges the previous attack turned off: those u
    spares are turned back on, and ``off`` ends holding u's.  The optimal
    recourse solution joins ``known`` unless it is there already."""
    pool, model = rec.pool, rec.model
    with _charged(stats, "recourse"):
        now = {i for v in blocked for i in pool.involving(v)}
        for i in off - now:
            model.set_bounds(rec.y_vars[i], 0.0, 1.0)
        for i in now - off:
            model.set_bounds(rec.y_vars[i], 0.0, 0.0)
        off.clear()
        off.update(now)
        outcome = _solve(model, "recourse", clock, stats)
    if not _check(outcome):
        return None
    x = outcome.assignment
    sol = _known([
        (pool.exchange(i), round(model.obj[var]))
        for i, var in rec.y_vars.items()
        if x[var] > 0.5
    ])
    if sol not in known:
        known.append(sol)
    return outcome.int_objective() + base


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
    """Best recourse value under attack u by exhaustive packing search;
    ``graph`` is the reference, and a pool of another graph is rejected."""
    if pool.graph != graph:
        raise ValueError("the exchange pool was enumerated from a different graph")
    initial_pairs = initial.initial_pairs(pool)
    base = 0
    blocked: Set[int] = set()
    for e in enforced_under_attack(initial, u, pool, policy):
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
    worst case, which suffices to discard the initial solution.  As in
    ``brute_force_recourse``, a pool of another graph is rejected.
    """
    if pool.graph != graph:
        raise ValueError("the exchange pool was enumerated from a different graph")
    initial_pairs = initial.initial_pairs(pool)
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
        if len(sol.initial_pairs(pool)) <= best_val:
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
