"""MILP formulations for the trilevel robust kidney exchange problem.

Builds the restricted master (one variable/constraint block per registered
attack), the attacker-side subproblem with lazily separated interdiction
cuts, and the recourse problems used to separate those cuts (plain and
lifted), for both the cycle-chain (CC) and position-indexed chain-edge
(PICEF) encodings and both recourse policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import (
    Arc,
    Attack,
    CompatibilityGraph,
    Exchange,
    ExchangeKind,
    ExchangePool,
    KepSolution,
    PicefArc,
    Policy,
    arc_weight,
    enforced_under_attack,
    enforceable_set,
    exchange_weight,
    picef_positions,
    subchain_to,
    surviving_structures,
)
from .milp import (
    BINARY,
    CONTINUOUS,
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    MilpModel,
    SolveOutcome,
)


class Encoding(Enum):
    CC = "cc"
    PICEF = "picef"


ChainKey = Tuple[int, ...]


def _chain_prefix_vertices(vertices: ChainKey, j: int) -> ChainKey:
    """Vertices of the minimal prefix of a chain containing j."""
    if j == vertices[0]:
        return vertices[:2]
    return vertices[: vertices.index(j) + 1]


def assemble_chains(arcs: Sequence[PicefArc]) -> List[ChainKey]:
    """Rebuild vertex-disjoint chains from selected position-indexed arcs."""
    by_start: Dict[Tuple[int, int], PicefArc] = {}
    for a in arcs:
        key = (a.src, a.pos)
        if key in by_start:
            raise ValueError(f"two arcs out of {a.src} at position {a.pos}")
        by_start[key] = a
    chains: List[ChainKey] = []
    used = 0
    for a in sorted(arcs, key=lambda a: (a.pos, a.src, a.dst)):
        if a.pos != 1:
            continue
        verts = [a.src, a.dst]
        used += 1
        pos = 1
        while (verts[-1], pos + 1) in by_start:
            nxt = by_start[(verts[-1], pos + 1)]
            verts.append(nxt.dst)
            used += 1
            pos += 1
        chains.append(tuple(verts))
    if used != len(arcs):
        raise ValueError("selected position-indexed arcs do not form chains")
    return chains


# ---------------------------------------------------------------------------
# Master problem
# ---------------------------------------------------------------------------


@dataclass
class AttackBlock:
    attack: Attack
    y_vars: Dict[int, int]
    z_vars: Dict[int, int]
    psi_vars: Dict[PicefArc, int] = field(default_factory=dict)
    beta_vars: Dict[Arc, int] = field(default_factory=dict)


@dataclass
class MasterHandle:
    model: MilpModel
    graph: CompatibilityGraph
    pool: ExchangePool
    policy: Policy
    encoding: Encoding
    z_var: int
    x_vars: Dict[int, int]
    xi_vars: Dict[PicefArc, int]
    picef_arcs: List[PicefArc]
    max_chain_len: int
    blocks: List[AttackBlock] = field(default_factory=list)

    def registered(self, u: Attack) -> bool:
        return any(b.attack.attacked == u.attacked for b in self.blocks)


def build_master(
    pool: ExchangePool,
    graph: CompatibilityGraph,
    policy: Policy,
    encoding: Encoding,
    attacks: Sequence[Attack],
    max_chain_len: int = 0,
) -> MasterHandle:
    """Restricted master z_Pi(U-bar) over the given attack set.

    Seed with at least the zero attack; an empty attack set leaves Z
    unbounded by any block and is rejected.
    """
    if not attacks:
        raise ValueError("master needs at least one attack (seed with the zero attack)")
    model = MilpModel("max", integral_objective=True)
    z_var = model.add_variable(CONTINUOUS, 0.0, graph.num_pairs, obj=1.0)

    x_vars: Dict[int, int] = {}
    xi_vars: Dict[PicefArc, int] = {}
    arcs: List[PicefArc] = []

    if encoding is Encoding.CC:
        for e in pool.exchanges:
            x_vars[e.index] = model.add_variable(BINARY)
        for j in range(graph.num_vertices):
            involved = pool.involving(j)
            if involved:
                model.add_row([(x_vars[i], 1.0) for i in involved], LESS_EQUAL, 1.0)
    else:
        arcs = picef_positions(graph, max_chain_len)
        for c in pool.cycles:
            x_vars[c.index] = model.add_variable(BINARY)
        for a in arcs:
            xi_vars[a] = model.add_variable(BINARY)
        _picef_structure_rows(
            model, graph, pool, arcs, x_vars, xi_vars, max_chain_len, rhs=lambda j: 1.0
        )

    master = MasterHandle(
        model, graph, pool, policy, encoding, z_var, x_vars, xi_vars, arcs, max_chain_len
    )
    for u in attacks:
        extend_master_with_attack(master, u)
    return master


def _picef_structure_rows(model, graph, pool, arcs, cyc_vars, arc_vars, L, rhs):
    """Packing and precedence rows for one PICEF solution encoding."""
    for j in graph.pairs:
        coeffs = [(cyc_vars[c.index], 1.0) for c in pool.cycles if j in c.vertices]
        coeffs += [(arc_vars[a], 1.0) for a in arcs if a.dst == j]
        if coeffs:
            model.add_row(coeffs, LESS_EQUAL, rhs(j))
    for n in graph.ndds:
        coeffs = [(arc_vars[a], 1.0) for a in arcs if a.src == n and a.pos == 1]
        if coeffs:
            model.add_row(coeffs, LESS_EQUAL, rhs(n))
    for j in graph.pairs:
        for ell in range(1, L):
            out = [(arc_vars[a], 1.0) for a in arcs if a.src == j and a.pos == ell + 1]
            if not out:
                continue
            inc = [(arc_vars[a], -1.0) for a in arcs if a.dst == j and a.pos == ell]
            model.add_row(out + inc, LESS_EQUAL, 0.0)


def extend_master_with_attack(
    master: MasterHandle,
    u: Attack,
    policy: Optional[Policy] = None,
    encoding: Optional[Encoding] = None,
) -> MasterHandle:
    """Add the recourse variable/constraint block for one new attack."""
    if policy is not None and policy is not master.policy:
        raise ValueError("policy mismatch with master")
    if encoding is not None and encoding is not master.encoding:
        raise ValueError("encoding mismatch with master")
    if master.registered(u):
        raise ValueError(f"attack {sorted(u.attacked)} already registered")
    if master.encoding is Encoding.CC:
        block = _cc_attack_block(master, u)
    else:
        block = _picef_attack_block(master, u)
    master.blocks.append(block)
    return master


def _cc_attack_block(master: MasterHandle, u: Attack) -> AttackBlock:
    model, pool, graph = master.model, master.pool, master.graph
    survivors, enforcers = surviving_structures(pool, KepSolution.empty(), u)
    fse = master.policy is Policy.FIX_SUCCESSFUL

    if fse:
        y_vars = {i: model.add_variable(BINARY) for i in sorted(survivors)}
    else:
        y_vars = {e.index: model.add_variable(BINARY) for e in pool.exchanges}
    z_vars = {j: model.add_variable(CONTINUOUS, 0.0, 1.0) for j in graph.pairs}

    model.add_row(
        [(master.z_var, 1.0)] + [(z_vars[j], -1.0) for j in graph.pairs],
        LESS_EQUAL,
        0.0,
    )
    for j in graph.pairs:
        involved = pool.involving(j)
        model.add_row(
            [(z_vars[j], 1.0)] + [(master.x_vars[i], -1.0) for i in involved],
            LESS_EQUAL,
            0.0,
        )
    for j in range(graph.num_vertices):
        involved = pool.involving(j)
        if fse:
            x_part = sorted(enforcers.get(j, set()))
            y_part = [i for i in involved if i in survivors]
            cover = [(master.x_vars[i], 1.0) for i in x_part]
            cover += [(y_vars[i], 1.0) for i in y_part]
        else:
            cover = [(y_vars[i], 1.0) for i in involved]
        if graph.is_pair(j):
            model.add_row(
                [(z_vars[j], 1.0)] + [(v, -c) for v, c in cover], LESS_EQUAL, 0.0
            )
        if cover:
            model.add_row(cover, LESS_EQUAL, 0.0 if j in u.attacked else 1.0)
    return AttackBlock(u, y_vars, z_vars)


def _picef_attack_block(master: MasterHandle, u: Attack) -> AttackBlock:
    model, pool, graph = master.model, master.pool, master.graph
    arcs = master.picef_arcs
    fse = master.policy is Policy.FIX_SUCCESSFUL

    y_vars = {c.index: model.add_variable(BINARY) for c in pool.cycles}
    psi_vars = {a: model.add_variable(BINARY) for a in arcs}
    z_vars = {j: model.add_variable(CONTINUOUS, 0.0, 1.0) for j in graph.pairs}
    beta_vars: Dict[Arc, int] = {}

    model.add_row(
        [(master.z_var, 1.0)] + [(z_vars[j], -1.0) for j in graph.pairs],
        LESS_EQUAL,
        0.0,
    )
    for j in graph.pairs:
        initial_cover = [
            (master.x_vars[c.index], -1.0) for c in pool.cycles if j in c.vertices
        ]
        initial_cover += [(master.xi_vars[a], -1.0) for a in arcs if a.dst == j]
        model.add_row([(z_vars[j], 1.0)] + initial_cover, LESS_EQUAL, 0.0)

    def attacked(j: int) -> float:
        return 0.0 if j in u.attacked else 1.0

    if fse:
        beta_vars = {arc: model.add_variable(BINARY) for arc in master.graph.arcs}
        _picef_beta_rows(master, u, beta_vars)
        surviving_cycles = {c.index for c in pool.cycles if not u.hits(c)}
        for j in graph.pairs:
            cover = [
                (master.x_vars[i], 1.0)
                for i in surviving_cycles
                if j in pool.exchange(i).vertices
            ]
            cover += [(b, 1.0) for (i, k), b in beta_vars.items() if k == j]
            cover += [(y_vars[c.index], 1.0) for c in pool.cycles if j in c.vertices]
            cover += [(psi_vars[a], 1.0) for a in arcs if a.dst == j]
            model.add_row(
                [(z_vars[j], 1.0)] + [(v, -c) for v, c in cover], LESS_EQUAL, 0.0
            )
            model.add_row(cover, LESS_EQUAL, attacked(j))
        for n in graph.ndds:
            cover = [(b, 1.0) for (i, k), b in beta_vars.items() if i == n]
            cover += [(psi_vars[a], 1.0) for a in arcs if a.src == n and a.pos == 1]
            if cover:
                model.add_row(cover, LESS_EQUAL, attacked(n))
    else:
        for j in graph.pairs:
            cover = [(y_vars[c.index], 1.0) for c in pool.cycles if j in c.vertices]
            cover += [(psi_vars[a], 1.0) for a in arcs if a.dst == j]
            model.add_row(
                [(z_vars[j], 1.0)] + [(v, -c) for v, c in cover], LESS_EQUAL, 0.0
            )
            if cover:
                model.add_row(cover, LESS_EQUAL, attacked(j))
        for n in graph.ndds:
            cover = [(psi_vars[a], 1.0) for a in arcs if a.src == n and a.pos == 1]
            if cover:
                model.add_row(cover, LESS_EQUAL, attacked(n))
    for j in graph.pairs:
        for ell in range(1, master.max_chain_len):
            out = [(psi_vars[a], 1.0) for a in arcs if a.src == j and a.pos == ell + 1]
            if not out:
                continue
            inc = [(psi_vars[a], -1.0) for a in arcs if a.dst == j and a.pos == ell]
            model.add_row(out + inc, LESS_EQUAL, 0.0)
    return AttackBlock(u, y_vars, z_vars, psi_vars, beta_vars)


def _picef_beta_rows(master: MasterHandle, u: Attack, beta_vars: Dict[Arc, int]) -> None:
    """Rows pinning beta_ij = 1 exactly when arc (i,j) lies on an initial
    chain whose prefix up to j has no attacked vertex."""
    model, graph, arcs = master.model, master.graph, master.picef_arcs

    def u_of(v: int) -> float:
        return 1.0 if v in u.attacked else 0.0

    for (i, j) in graph.arcs:
        b = beta_vars[(i, j)]
        xi_all = [master.xi_vars[a] for a in arcs if (a.src, a.dst) == (i, j)]
        model.add_row([(b, 1.0)] + [(v, -1.0) for v in xi_all], LESS_EQUAL, 0.0)
        if graph.is_ndd(i):
            xi_first = [
                master.xi_vars[a]
                for a in arcs
                if (a.src, a.dst, a.pos) == (i, j, 1)
            ]
            model.add_row(
                [(b, 1.0)] + [(v, -1.0) for v in xi_first],
                GREATER_EQUAL,
                -u_of(i) - u_of(j),
            )
        else:
            pred = [beta_vars[(k, i)] for (k, ii) in graph.arcs if ii == i]
            model.add_row(
                [(b, 1.0)]
                + [(v, -1.0) for v in xi_all]
                + [(p, -1.0) for p in pred],
                GREATER_EQUAL,
                -1.0 - u_of(j),
            )
        model.add_row([(b, 1.0)], LESS_EQUAL, 1.0 - u_of(i))
        model.add_row([(b, 1.0)], LESS_EQUAL, 1.0 - u_of(j))
    for i in graph.pairs:
        out = [(beta_vars[(a, bb)], 1.0) for (a, bb) in graph.arcs if a == i]
        inc = [(beta_vars[(a, bb)], -1.0) for (a, bb) in graph.arcs if bb == i]
        if out:
            model.add_row(out + inc, LESS_EQUAL, 0.0)


def extract_initial_solution(master: MasterHandle, outcome: SolveOutcome) -> KepSolution:
    """Initial solution encoded by the master's x variables."""
    selected = [i for i, v in master.x_vars.items() if outcome.value(v) > 0.5]
    if master.encoding is Encoding.PICEF:
        chosen = [a for a, v in master.xi_vars.items() if outcome.value(v) > 0.5]
        for verts in assemble_chains(chosen):
            selected.append(master.pool.index_of(Exchange(ExchangeKind.CHAIN, verts)))
    sol = KepSolution.of(selected)
    if not sol.is_feasible(master.pool):
        raise RuntimeError("master produced overlapping exchanges")
    return sol


# ---------------------------------------------------------------------------
# Attacker-defender subproblem
# ---------------------------------------------------------------------------


@dataclass
class SubproblemHandle:
    model: MilpModel
    graph: CompatibilityGraph
    pool: ExchangePool
    policy: Policy
    encoding: Encoding
    budget: int
    initial: KepSolution
    initial_pairs: Set[int]
    z_var: int
    u_vars: Dict[int, int]
    z_vars: Dict[int, int]
    zeta_vars: Dict[ChainKey, Dict[Arc, int]] = field(default_factory=dict)
    t_vars: Dict[int, int] = field(default_factory=dict)
    enf_chain_keys: Set[ChainKey] = field(default_factory=set)
    enf_cycle_idx: Set[int] = field(default_factory=set)
    cuts: List[KepSolution] = field(default_factory=list)


def build_subproblem(
    initial: KepSolution,
    pool: ExchangePool,
    graph: CompatibilityGraph,
    policy: Policy,
    encoding: Encoding,
    budget: int,
) -> SubproblemHandle:
    """min-Z attacker model; interdiction cuts are added afterwards."""
    model = MilpModel("min", integral_objective=True)
    z_var = model.add_variable(CONTINUOUS, 0.0, graph.num_pairs, obj=1.0)
    u_vars = {j: model.add_variable(BINARY) for j in range(graph.num_vertices)}
    model.add_row([(v, 1.0) for v in u_vars.values()], LESS_EQUAL, float(budget))

    initial_pairs = initial.initial_pairs(pool, graph)
    sub = SubproblemHandle(
        model,
        graph,
        pool,
        policy,
        encoding,
        budget,
        initial,
        initial_pairs,
        z_var,
        u_vars,
        {},
    )

    enf = enforceable_set(initial, pool) if policy is Policy.FIX_SUCCESSFUL else []
    sub.enf_cycle_idx = {e.index for e in enf if e.kind is ExchangeKind.CYCLE}
    sub.enf_chain_keys = {e.vertices for e in enf if e.kind is ExchangeKind.CHAIN}

    if encoding is Encoding.CC:
        _cc_subproblem_rows(sub, enf)
    else:
        _picef_subproblem_rows(sub)
    return sub


def _cc_subproblem_rows(sub: SubproblemHandle, enf: List[Exchange]) -> None:
    model, pool = sub.model, sub.pool
    for e in pool.exchanges:
        sub.z_vars[e.index] = model.add_variable(CONTINUOUS, 0.0, 1.0)
    if sub.policy is Policy.FULL_RECOURSE:
        for e in pool.exchanges:
            coeffs = [(sub.z_vars[e.index], 1.0)]
            coeffs += [(sub.u_vars[j], 1.0) for j in e.vertices]
            model.add_row(coeffs, GREATER_EQUAL, 1.0)
        return
    enf_idx = {e.index for e in enf}
    for e in pool.exchanges:
        coeffs = [(sub.z_vars[e.index], 1.0)]
        coeffs += [(sub.u_vars[j], 1.0) for j in e.vertices]
        if e.index not in enf_idx:
            overlap = [
                t.index for t in enf if set(t.vertices) & set(e.vertices)
            ]
            coeffs += [(sub.z_vars[i], 1.0) for i in overlap]
        model.add_row(coeffs, GREATER_EQUAL, 1.0)
        for j in e.vertices:
            model.add_row(
                [(sub.z_vars[e.index], 1.0), (sub.u_vars[j], 1.0)], LESS_EQUAL, 1.0
            )


def _picef_subproblem_rows(sub: SubproblemHandle) -> None:
    model, pool, graph = sub.model, sub.pool, sub.graph
    fse = sub.policy is Policy.FIX_SUCCESSFUL
    for c in pool.cycles:
        sub.z_vars[c.index] = model.add_variable(CONTINUOUS, 0.0, 1.0)
    if fse:
        initial_vertices = sub.initial.vertices(pool)
        for j in range(graph.num_vertices):
            cap = 1.0 if j in initial_vertices else 0.0
            sub.t_vars[j] = model.add_variable(CONTINUOUS, 0.0, cap)
    for c in pool.cycles:
        coeffs = [(sub.z_vars[c.index], 1.0)]
        coeffs += [(sub.u_vars[j], 1.0) for j in c.vertices]
        if fse and c.index in sub.enf_cycle_idx:
            model.add_row(coeffs, GREATER_EQUAL, 1.0)
            for j in c.vertices:
                model.add_row(
                    [(sub.z_vars[c.index], 1.0), (sub.u_vars[j], 1.0)], LESS_EQUAL, 1.0
                )
            model.add_row(
                [(sub.t_vars[j], 1.0) for j in c.vertices]
                + [(sub.z_vars[c.index], -float(len(c.vertices)))],
                EQUAL,
                0.0,
            )
        elif fse:
            coeffs += [(sub.t_vars[j], 1.0) for j in c.vertices]
            model.add_row(coeffs, GREATER_EQUAL, 1.0)
        else:
            model.add_row(coeffs, GREATER_EQUAL, 1.0)
    if fse:
        for key in sorted(sub.enf_chain_keys):
            _materialize_chain(sub, key)


def _materialize_chain(sub: SubproblemHandle, vertices: ChainKey) -> Dict[Arc, int]:
    """Chain-indexed edge variables zeta^d plus their policy rows."""
    if vertices in sub.zeta_vars:
        return sub.zeta_vars[vertices]
    model = sub.model
    fse = sub.policy is Policy.FIX_SUCCESSFUL
    enforced = vertices in sub.enf_chain_keys
    zvars: Dict[Arc, int] = {}
    for i, j in zip(vertices, vertices[1:]):
        zeta = model.add_variable(CONTINUOUS, 0.0, 1.0)
        zvars[(i, j)] = zeta
        prefix = _chain_prefix_vertices(vertices, j)
        coeffs = [(zeta, 1.0)] + [(sub.u_vars[k], 1.0) for k in prefix]
        if fse and not enforced:
            coeffs += [(sub.t_vars[k], 1.0) for k in prefix]
        model.add_row(coeffs, GREATER_EQUAL, 1.0)
        if fse and enforced:
            for k in prefix:
                model.add_row(
                    [(zeta, 1.0), (sub.u_vars[k], 1.0)], LESS_EQUAL, 1.0
                )
            model.add_row([(sub.t_vars[j], 1.0), (zeta, -1.0)], EQUAL, 0.0)
            if sub.graph.is_ndd(i):
                model.add_row([(sub.t_vars[i], 1.0), (zeta, -1.0)], EQUAL, 0.0)
    sub.zeta_vars[vertices] = zvars
    return zvars


def add_interdiction_cut(
    sub: SubproblemHandle, S: KepSolution, initial_pairs: Optional[Set[int]] = None
) -> int:
    """Row Z >= (surviving weight of S): the interdiction cut for one
    feasible full-graph solution S."""
    if not S.is_feasible(sub.pool):
        raise ValueError("cut solution has overlapping exchanges")
    pairs = sub.initial_pairs if initial_pairs is None else initial_pairs
    coeffs: List[Tuple[int, float]] = [(sub.z_var, 1.0)]
    for e in S.exchanges(sub.pool):
        if sub.encoding is Encoding.CC or e.kind is ExchangeKind.CYCLE:
            w = exchange_weight(e, pairs)
            if w:
                coeffs.append((sub.z_vars[e.index], -float(w)))
        else:
            zvars = _materialize_chain(sub, e.vertices)
            for (i, j), zeta in zvars.items():
                w = arc_weight(j, pairs)
                if w:
                    coeffs.append((zeta, -float(w)))
    handle = sub.model.add_row(coeffs, GREATER_EQUAL, 0.0)
    sub.cuts.append(S)
    return handle


def extract_attack(sub: SubproblemHandle, outcome: SolveOutcome) -> Attack:
    return Attack.of(
        (j for j, v in sub.u_vars.items() if outcome.value(v) > 0.5), sub.budget
    )


def solve_subproblem_at(
    sub: SubproblemHandle, u: Attack, time_limit: Optional[float] = None
) -> SolveOutcome:
    """Solve the subproblem with the attack fixed; used for cut validation."""
    saved = dict(sub.model.fixings)
    try:
        for j, v in sub.u_vars.items():
            sub.model.fix(v, 1.0 if j in u.attacked else 0.0)
        return sub.model.solve(time_limit)
    finally:
        sub.model.fixings = saved


# ---------------------------------------------------------------------------
# Recourse / separation problems
# ---------------------------------------------------------------------------


@dataclass
class RecourseHandle:
    model: MilpModel
    graph: CompatibilityGraph
    pool: ExchangePool
    policy: Policy
    encoding: Encoding
    lifted: bool
    u: Attack
    initial_pairs: Set[int]
    y_vars: Dict[int, int]
    psi_pos_vars: Dict[PicefArc, int] = field(default_factory=dict)
    psi_arc_vars: Dict[Arc, int] = field(default_factory=dict)
    eta_vars: Dict[PicefArc, int] = field(default_factory=dict)
    enforced: List[Exchange] = field(default_factory=list)


def build_recourse(
    initial: KepSolution,
    u: Attack,
    pool: ExchangePool,
    graph: CompatibilityGraph,
    policy: Policy,
    encoding: Encoding,
    lifted: bool = False,
    max_chain_len: int = 0,
) -> RecourseHandle:
    """Weighted KEP model whose optimum is the best recourse value under u.

    The lifted variant optimizes over full-graph solutions whose surviving
    part is an optimal recourse solution, yielding stronger cuts.
    """
    initial_pairs = initial.initial_pairs(pool, graph)
    enforced = (
        enforced_under_attack(initial, u, pool)
        if policy is Policy.FIX_SUCCESSFUL
        else []
    )
    if encoding is Encoding.CC:
        return _cc_recourse(
            initial_pairs, enforced, u, pool, graph, policy, lifted
        )
    return _picef_recourse(
        initial_pairs, enforced, u, pool, graph, policy, lifted, max_chain_len
    )


def _cc_recourse(initial_pairs, enforced, u, pool, graph, policy, lifted):
    model = MilpModel("max", integral_objective=True)
    nv = graph.num_vertices
    y_vars: Dict[int, int] = {}
    for e in pool.exchanges:
        w = exchange_weight(e, initial_pairs)
        if lifted:
            obj = float(w * nv + 1) if not u.hits(e) else 1.0
        else:
            obj = float(w)
        y_vars[e.index] = model.add_variable(BINARY, obj=obj)
    for j in range(graph.num_vertices):
        involved = pool.involving(j)
        if not involved:
            continue
        rhs = 1.0 if lifted else (0.0 if j in u.attacked else 1.0)
        model.add_row([(y_vars[i], 1.0) for i in involved], LESS_EQUAL, rhs)
    rec = RecourseHandle(
        model, graph, pool, policy, Encoding.CC, lifted, u, initial_pairs, y_vars
    )
    rec.enforced = enforced
    for e in enforced:
        model.fix(y_vars[e.index], 1.0)
    return rec


def _picef_recourse(initial_pairs, enforced, u, pool, graph, policy, lifted, L):
    model = MilpModel("max", integral_objective=True)
    nv = graph.num_vertices
    arcs = picef_positions(graph, L)
    y_vars: Dict[int, int] = {}
    for c in pool.cycles:
        w = exchange_weight(c, initial_pairs)
        if lifted:
            obj = float(w * nv + 1) if not u.hits(c) else 1.0
        else:
            obj = float(w)
        y_vars[c.index] = model.add_variable(BINARY, obj=obj)

    rec = RecourseHandle(
        model, graph, pool, policy, Encoding.PICEF, lifted, u, initial_pairs, y_vars
    )
    rec.enforced = enforced

    if not lifted:
        psi = {a: model.add_variable(BINARY, obj=float(arc_weight(a.dst, initial_pairs))) for a in arcs}
        rec.psi_pos_vars = psi
        _picef_structure_rows(
            model,
            graph,
            pool,
            arcs,
            y_vars,
            psi,
            L,
            rhs=lambda j: 0.0 if j in u.attacked else 1.0,
        )
    else:
        eta = {a: model.add_variable(BINARY, obj=1.0) for a in arcs}
        rec.eta_vars = eta
        psi_arc: Dict[Arc, int] = {}
        for (i, j) in graph.arcs:
            if not any((a.src, a.dst) == (i, j) for a in arcs):
                continue
            w = arc_weight(j, initial_pairs) * nv + (1 if graph.is_ndd(i) else 0)
            psi_arc[(i, j)] = model.add_variable(BINARY, obj=float(w))
        rec.psi_arc_vars = psi_arc
        _picef_structure_rows(
            model, graph, pool, arcs, y_vars, eta, L, rhs=lambda j: 1.0
        )
        for (i, j), pv in psi_arc.items():
            eta_here = [eta[a] for a in arcs if (a.src, a.dst) == (i, j)]
            model.add_row(
                [(pv, 1.0)] + [(v, -1.0) for v in eta_here], LESS_EQUAL, 0.0
            )
        for j in graph.pairs:
            inc = [(pv, 1.0) for (a, b), pv in psi_arc.items() if b == j]
            if inc:
                model.add_row(
                    inc, LESS_EQUAL, 0.0 if j in u.attacked else 1.0
                )
            out = [(pv, 1.0) for (a, b), pv in psi_arc.items() if a == j]
            if out:
                model.add_row(
                    out + [(pv, -1.0) for (a, b), pv in psi_arc.items() if b == j],
                    LESS_EQUAL,
                    0.0,
                )
        for n in graph.ndds:
            out = [(pv, 1.0) for (a, b), pv in psi_arc.items() if a == n]
            if out:
                model.add_row(out, LESS_EQUAL, 0.0 if n in u.attacked else 1.0)

    # FSE: lock in the enforced structures and forbid extending their chains
    for e in enforced:
        if e.kind is ExchangeKind.CYCLE:
            model.fix(y_vars[e.index], 1.0)
            continue
        last = e.vertices[-1]
        if not lifted:
            for pos, (i, j) in enumerate(e.arcs, start=1):
                model.fix(rec.psi_pos_vars[PicefArc(i, j, pos)], 1.0)
            for a in arcs:
                if a.src == last:
                    model.fix(rec.psi_pos_vars[a], 0.0)
        else:
            for (i, j) in e.arcs:
                model.fix(rec.psi_arc_vars[(i, j)], 1.0)
            for (i, j), pv in rec.psi_arc_vars.items():
                if i == last:
                    model.fix(pv, 0.0)
            # the cut solution must hold the enforced chain itself, not an
            # extension of it, or its cut credits nothing for the chain
            for a in arcs:
                if a.src == last:
                    model.fix(rec.eta_vars[a], 0.0)
    return rec


def extract_cut_solution(
    rec: RecourseHandle, outcome: SolveOutcome
) -> Tuple[KepSolution, int]:
    """Full solution for the next interdiction cut and its true recourse value
    (the weight of its non-attacked part)."""
    pool, u = rec.pool, rec.u
    selected = [i for i, v in rec.y_vars.items() if outcome.value(v) > 0.5]
    value = sum(
        exchange_weight(pool.exchange(i), rec.initial_pairs)
        for i in selected
        if not u.hits(pool.exchange(i))
    )
    if rec.encoding is Encoding.CC:
        sol = KepSolution.of(selected)
    else:
        if rec.lifted:
            chain_arcs = [a for a, v in rec.eta_vars.items() if outcome.value(v) > 0.5]
            value += sum(
                arc_weight(j, rec.initial_pairs)
                for (i, j), v in rec.psi_arc_vars.items()
                if outcome.value(v) > 0.5
            )
        else:
            chain_arcs = [
                a for a, v in rec.psi_pos_vars.items() if outcome.value(v) > 0.5
            ]
            value += sum(
                arc_weight(a.dst, rec.initial_pairs)
                for a, v in rec.psi_pos_vars.items()
                if outcome.value(v) > 0.5
            )
        for verts in assemble_chains(chain_arcs):
            selected.append(pool.index_of(Exchange(ExchangeKind.CHAIN, verts)))
        sol = KepSolution.of(selected)
    if not sol.is_feasible(pool):
        raise RuntimeError("recourse model produced overlapping exchanges")
    return sol, value
