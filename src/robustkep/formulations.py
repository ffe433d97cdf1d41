"""MILP formulations for the trilevel robust kidney exchange problem.

Builds the restricted master (one variable/constraint block per registered
attack) and the attacker-side subproblem with lazily separated interdiction
cuts, each in the cycle-chain (CC) or position-indexed chain-edge (PICEF)
encoding, and the recourse problems used to separate those cuts (plain and
lifted), for both recourse policies.  The recourse is one CC model for
either encoding: the pool holds every chain up to the length limit, so it is
exact, and the PICEF attacker takes the chains of its solutions as arc terms.
The FSE master is the CC master for either encoding too: its blocks must
know which plan chain still holds a vertex under an attack, and the pool's
chain variables say so directly, where PICEF arcs would need a linearised
AND per arc, which made the master several times costlier and its bound
weaker.

Master attack blocks and plain recourse models are built on G - u, the graph
an attack u leaves: variables only for the exchanges and arcs u does not hit.
The lifted recourse keeps full-graph y, which the lifted cut credits.  The
FSE recourse is the FR recourse on the vertices the enforced structures
leave free, plus those structures.

Every builder reads the instance through its exchange pool alone: the
exchanges through each vertex, the PICEF arcs by head or tail (and position),
and the graph the pool was enumerated from.  The builders share a few row
helpers: the cover of a vertex in either encoding, precedence (at-most) rows,
and the attacker's survival rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence, Set, Tuple

from .core import (
    Arc,
    Attack,
    Exchange,
    ExchangeKind,
    ExchangePool,
    KepSolution,
    PicefArc,
    Policy,
    arc_weight,
    enforced_under_attack,
    enforceable_set,
    enforcers,
    exchange_weight,
    picef_positions,  # noqa: F401  not called here; perfbench/tracer.py wraps it
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
# Shared row helpers
# ---------------------------------------------------------------------------


def _cover(
    pool: ExchangePool, j: int, x: Dict[int, int], arcs: Dict[PicefArc, int]
) -> List[int]:
    """Variables of one solution encoding that use vertex j.

    ``x`` maps pool indices to exchange variables: every exchange in CC, the
    cycles in PICEF, or a subset of them.  ``arcs`` maps PICEF arcs (all, or
    a subset) to their variables; the arcs into j and out of NDD j use it.
    """
    cover = [x[i] for i in pool.involving(j) if i in x]
    if arcs:
        cover += [arcs[a] for a in pool.arcs_into(j) if a in arcs]
        cover += [arcs[a] for a in pool.arcs_out_of(j, 1) if a in arcs]
    return cover


def _at_most(model: MilpModel, lhs: List[int], rhs: List[int]) -> None:
    """Row sum(lhs) <= sum(rhs), none when ``lhs`` is empty: the precedence
    rows (a vertex passes a chain on only if it got one) and linking rows."""
    if lhs:
        model.add_row(
            [(v, 1.0) for v in lhs] + [(v, -1.0) for v in rhs], LESS_EQUAL, 0.0
        )


def _position_rows(
    model: MilpModel, pool: ExchangePool, arcs: Dict[PicefArc, int]
) -> None:
    """PICEF precedence: pair j uses an arc at position l+1 only after an
    arc into j at position l."""
    for j in pool.graph.pairs:
        for pos in sorted({a.pos for a in pool.arcs_out_of(j)}):
            out = [arcs[a] for a in pool.arcs_out_of(j, pos) if a in arcs]
            inc = [arcs[a] for a in pool.arcs_into(j, pos - 1) if a in arcs]
            _at_most(model, out, inc)


def _packing_rows(
    model: MilpModel, pool: ExchangePool, x: Dict[int, int], arcs: Dict[PicefArc, int]
) -> None:
    """One solution encoding: each vertex used at most once and, in PICEF,
    its precedence rows."""
    for j in range(pool.graph.num_vertices):
        cover = _cover(pool, j, x, arcs)
        if cover:
            model.add_row([(v, 1.0) for v in cover], LESS_EQUAL, 1.0)
    if arcs:
        _position_rows(model, pool, arcs)


def _survival_rows(
    model: MilpModel,
    var: int,
    vertices: Sequence[int],
    u_vars: Dict[int, int],
    extra: Sequence[int] = (),
    exact: bool = False,
) -> None:
    """var >= 1 unless a vertex is attacked or an ``extra`` variable is set;
    with ``exact`` also var <= 1 - u_k, so var is 1 iff no vertex is attacked."""
    coeffs = [(var, 1.0)] + [(u_vars[k], 1.0) for k in vertices]
    model.add_row(coeffs + [(v, 1.0) for v in extra], GREATER_EQUAL, 1.0)
    if exact:
        for k in vertices:
            model.add_row([(var, 1.0), (u_vars[k], 1.0)], LESS_EQUAL, 1.0)


# ---------------------------------------------------------------------------
# Master problem
# ---------------------------------------------------------------------------


@dataclass
class MasterHandle:
    model: MilpModel
    pool: ExchangePool
    policy: Policy
    encoding: Encoding
    z_var: int
    x_vars: Dict[int, int]
    xi_vars: Dict[PicefArc, int]
    blocks: List[Attack] = field(default_factory=list)  # one block per attack

    def registered(self, u: Attack) -> bool:
        return any(b.attacked == u.attacked for b in self.blocks)


def build_master(
    pool: ExchangePool, policy: Policy, encoding: Encoding, attacks: Sequence[Attack]
) -> MasterHandle:
    """Restricted master z_Pi(U-bar) over the given attack set.

    Under FSE this is the CC master whatever ``encoding`` says, and the
    handle records CC (the module docstring says why); FR keeps the PICEF
    master, which solves faster there.

    Seed with at least the zero attack; an empty attack set leaves Z
    unbounded by any block and is rejected.
    """
    if not attacks:
        raise ValueError("master needs at least one attack (seed with the zero attack)")
    if policy is Policy.FIX_SUCCESSFUL:
        encoding = Encoding.CC
    model = MilpModel("max", integral_objective=True)
    z_var = model.add_variable(CONTINUOUS, 0.0, pool.graph.num_pairs, obj=1.0)
    picef = encoding is Encoding.PICEF
    structures = pool.cycles if picef else pool.exchanges
    x_vars = {e.index: model.add_variable(BINARY) for e in structures}
    xi_vars = {a: model.add_variable(BINARY) for a in pool.picef_arcs} if picef else {}
    _packing_rows(model, pool, x_vars, xi_vars)

    master = MasterHandle(model, pool, policy, encoding, z_var, x_vars, xi_vars)
    for u in attacks:
        extend_master_with_attack(master, u)
    return master


def extend_master_with_attack(master: MasterHandle, u: Attack) -> MasterHandle:
    """Add the recourse variable/constraint block for one new attack."""
    if master.registered(u):
        raise ValueError(f"attack {sorted(u.attacked)} already registered")
    _attack_block(master, u)
    master.blocks.append(u)
    return master


def _attack_block(master: MasterHandle, u: Attack) -> None:
    """Recourse solution under u, on G - u: y (and psi in PICEF) for the
    structures and arcs u leaves intact; z_j <= 1 when unattacked pair j is
    covered by both it and the initial solution, and Z <= sum of z.  Under
    FSE, always on a CC master, the plan's exchange variables cover each
    vertex their kept part holds, as ``enforcers`` reads them off x."""
    model, pool, graph = master.model, master.pool, master.pool.graph
    picef = master.encoding is Encoding.PICEF
    # the plan's own structures (x) that u leaves holding each vertex
    held = enforcers(pool, master.x_vars, u, master.policy)

    structures = pool.cycles if picef else pool.exchanges
    y_vars = {e.index: model.add_variable(BINARY) for e in structures if not u.hits(e)}
    arcs = [a for a in pool.picef_arcs if u.spares(a.src, a.dst)] if picef else []
    psi_vars = {a: model.add_variable(BINARY) for a in arcs}
    pairs = [j for j in graph.pairs if u.spares(j)]
    z_vars = {j: model.add_variable(CONTINUOUS, 0.0, 1.0) for j in pairs}

    _at_most(model, [master.z_var], list(z_vars.values()))
    for j, z in z_vars.items():
        _at_most(model, [z], _cover(pool, j, master.x_vars, master.xi_vars))

    for j in range(graph.num_vertices):
        cover = [master.x_vars[i] for i in held.get(j, ())]
        cover += _cover(pool, j, y_vars, psi_vars)
        if j in z_vars:
            _at_most(model, [z_vars[j]], cover)
        if cover:
            model.add_row([(v, 1.0) for v in cover], LESS_EQUAL, 1.0)
    if picef:
        _position_rows(model, pool, psi_vars)


def _chosen(x: Sequence[float], var_map: Dict) -> List:
    """Keys of ``var_map`` whose variables are 1 in the assignment ``x``."""
    return [key for key, v in var_map.items() if x[v] > 0.5]


def _decoded(
    pool: ExchangePool, selected: List[int], chain_arcs: List[PicefArc], source: str
) -> KepSolution:
    """The chosen pool exchanges plus the pool chains the chosen PICEF arcs
    form, checked to be vertex-disjoint."""
    chains = [Exchange(ExchangeKind.CHAIN, vs) for vs in assemble_chains(chain_arcs)]
    sol = KepSolution.of(selected + [pool.index_of(d) for d in chains])
    if not sol.is_feasible(pool):
        raise RuntimeError(f"{source} produced overlapping exchanges")
    return sol


def extract_initial_solution(master: MasterHandle, x: Sequence[float]) -> KepSolution:
    """Initial solution that an integer master point ``x`` encodes in its x
    (and, in PICEF, xi) variables."""
    selected = _chosen(x, master.x_vars)
    return _decoded(master.pool, selected, _chosen(x, master.xi_vars), "master")


# ---------------------------------------------------------------------------
# Attacker-defender subproblem
# ---------------------------------------------------------------------------


@dataclass
class SubproblemHandle:
    model: MilpModel
    pool: ExchangePool
    policy: Policy
    encoding: Encoding
    budget: int
    initial_pairs: Set[int]
    z_var: int
    u_vars: Dict[int, int]
    z_vars: Dict[int, int]
    # pool indices of the exchanges the policy can keep of the plan (FR: none)
    enforceable: Set[int]
    zeta_vars: Dict[int, Dict[Arc, int]] = field(default_factory=dict)  # by pool index
    t_vars: Dict[int, int] = field(default_factory=dict)


def build_subproblem(
    initial: KepSolution, pool: ExchangePool, policy: Policy, encoding: Encoding, budget: int
) -> SubproblemHandle:
    """min-Z attacker model; interdiction cuts are added afterwards."""
    model = MilpModel("min", integral_objective=True)
    z_var = model.add_variable(CONTINUOUS, 0.0, pool.graph.num_pairs, obj=1.0)
    u_vars = {j: model.add_variable(BINARY) for j in range(pool.graph.num_vertices)}
    model.add_row([(v, 1.0) for v in u_vars.values()], LESS_EQUAL, float(budget))

    fse = policy is Policy.FIX_SUCCESSFUL
    picef = encoding is Encoding.PICEF
    enf_idx = {e.index for e in enforceable_set(initial, pool, policy)}
    sub = SubproblemHandle(
        model, pool, policy, encoding, budget,
        initial.initial_pairs(pool), z_var, u_vars, {}, enf_idx,
    )

    structures = pool.cycles if picef else pool.exchanges
    for e in structures:
        sub.z_vars[e.index] = model.add_variable(CONTINUOUS, 0.0, 1.0)
    if fse and picef:
        initial_vertices = initial.vertices(pool)
        for j in range(pool.graph.num_vertices):
            cap = 1.0 if j in initial_vertices else 0.0
            sub.t_vars[j] = model.add_variable(CONTINUOUS, 0.0, cap)
    for e in structures:
        z = sub.z_vars[e.index]
        if not fse:
            _survival_rows(model, z, e.vertices, u_vars)
        elif not picef:
            touching = {t for v in e.vertices for t in pool.involving(v)}
            overlap = [] if e.index in enf_idx else [
                sub.z_vars[t] for t in sorted(touching & enf_idx)
            ]
            _survival_rows(model, z, e.vertices, u_vars, overlap, exact=True)
        elif e.index in enf_idx:
            _survival_rows(model, z, e.vertices, u_vars, exact=True)
            model.add_row(
                [(sub.t_vars[j], 1.0) for j in e.vertices]
                + [(z, -float(len(e.vertices)))],
                EQUAL,
                0.0,
            )
        else:
            t = [sub.t_vars[j] for j in e.vertices]
            _survival_rows(model, z, e.vertices, u_vars, t)
    if fse and picef:
        # in vertex order, not pool order: the order fixes the column order
        chains = [e for e in map(pool.exchange, enf_idx) if e.kind is ExchangeKind.CHAIN]
        for d in sorted(chains, key=lambda e: e.vertices):
            _materialize_chain(sub, d)
    return sub


def _materialize_chain(sub: SubproblemHandle, d: Exchange) -> Dict[Arc, int]:
    """Chain-indexed edge variables zeta^d plus their policy rows."""
    if d.index in sub.zeta_vars:
        return sub.zeta_vars[d.index]
    model = sub.model
    fse = sub.policy is Policy.FIX_SUCCESSFUL
    enforced = d.index in sub.enforceable
    vertices = d.vertices
    zvars: Dict[Arc, int] = {}
    for end in range(1, len(vertices)):
        i, j = vertices[end - 1], vertices[end]
        zeta = model.add_variable(CONTINUOUS, 0.0, 1.0)
        zvars[(i, j)] = zeta
        prefix = vertices[: end + 1]
        extra = [sub.t_vars[k] for k in prefix] if fse and not enforced else []
        _survival_rows(model, zeta, prefix, sub.u_vars, extra, exact=enforced)
        if enforced:
            model.add_row([(sub.t_vars[j], 1.0), (zeta, -1.0)], EQUAL, 0.0)
            if sub.pool.graph.is_ndd(i):
                model.add_row([(sub.t_vars[i], 1.0), (zeta, -1.0)], EQUAL, 0.0)
    sub.zeta_vars[d.index] = zvars
    return zvars


def add_interdiction_cut(sub: SubproblemHandle, S: KepSolution) -> int:
    """Row Z >= (surviving weight of S): the interdiction cut for one
    feasible full-graph solution S."""
    if not S.is_feasible(sub.pool):
        raise ValueError("cut solution has overlapping exchanges")
    pairs = sub.initial_pairs
    coeffs: List[Tuple[int, float]] = [(sub.z_var, 1.0)]
    for e in S.exchanges(sub.pool):
        if sub.encoding is Encoding.CC or e.kind is ExchangeKind.CYCLE:
            w = exchange_weight(e, pairs)
            if w:
                coeffs.append((sub.z_vars[e.index], -float(w)))
        else:
            zvars = _materialize_chain(sub, e)
            for (i, j), zeta in zvars.items():
                w = arc_weight(j, pairs)
                if w:
                    coeffs.append((zeta, -float(w)))
    return sub.model.add_row(coeffs, GREATER_EQUAL, 0.0)


def attack_at(sub: SubproblemHandle, x: Sequence[float]) -> Attack:
    """The attack an integer attacker point ``x`` encodes: the vertices
    whose u is 1."""
    return Attack.of((j for j, v in sub.u_vars.items() if x[v] > 0.5), sub.budget)


def extract_attack(sub: SubproblemHandle, outcome: SolveOutcome) -> Attack:
    return attack_at(sub, outcome.assignment)


# ---------------------------------------------------------------------------
# Recourse / separation problems
# ---------------------------------------------------------------------------


@dataclass
class RecourseHandle:
    model: MilpModel
    pool: ExchangePool
    u: Attack
    initial_pairs: Set[int]
    # the plan structures the policy keeps under u (FR: none); outside the model
    enforced: List[Exchange]
    y_vars: Dict[int, int]  # by pool index


def build_recourse(
    initial: KepSolution,
    u: Attack,
    pool: ExchangePool,
    policy: Policy,
    lifted: bool = False,
) -> RecourseHandle:
    """Weighted CC KEP model whose optimum is the best recourse value under u,
    for an attacker of either encoding.

    The plain variant is the KEP on G - u.  The lifted variant optimizes over
    full-graph solutions: an unattacked exchange weighs nv times its recourse
    weight plus 1 and a hit exchange 1, so its optimum is an optimal recourse
    solution holding as many exchanges as fit, which yields stronger cuts.
    Under FSE both are the FR model on the vertices the enforced structures
    leave free, and ``extract_cut_solution`` adds those structures back.
    """
    initial_pairs = initial.initial_pairs(pool)
    enforced = enforced_under_attack(initial, u, pool, policy)
    taken = {v for e in enforced for v in e.vertices}
    model = MilpModel("max", integral_objective=True)
    nv = pool.graph.num_vertices
    y_vars: Dict[int, int] = {}
    for e in pool.exchanges:
        if taken.isdisjoint(e.vertices) and (lifted or not u.hits(e)):
            w = 0 if u.hits(e) else exchange_weight(e, initial_pairs)
            y_vars[e.index] = model.add_variable(BINARY, obj=float(w * nv + 1 if lifted else w))
    _packing_rows(model, pool, y_vars, {})
    return RecourseHandle(model, pool, u, initial_pairs, enforced, y_vars)


def extract_cut_solution(
    rec: RecourseHandle, outcome: SolveOutcome
) -> Tuple[KepSolution, int]:
    """Full solution for the next interdiction cut, with the FSE enforced
    structures, and its true recourse value (the weight of its non-attacked
    part)."""
    pool = rec.pool
    selected = _chosen(outcome.assignment, rec.y_vars) + [e.index for e in rec.enforced]
    sol = _decoded(pool, selected, [], "recourse model")
    value = sum(
        exchange_weight(e, rec.initial_pairs)
        for e in sol.exchanges(pool)
        if not rec.u.hits(e)
    )
    return sol, value
