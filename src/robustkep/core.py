"""Combinatorial layer for kidney exchange programs.

Compatibility graphs over donor-recipient pairs and non-directed donors
(NDDs), enumeration of transplant cycles and NDD-rooted chains, the
position-indexed arc set used by the PICEF encoding, attack patterns, and
the weights of the recourse-aware objective (each exchange or PICEF arc
counts the initially covered pairs it serves).

``Attack.spares`` is the one test of whether vertices (an arc's ends, an
exchange's vertices) lie in G - u, the graph an attack u leaves.

``ExchangePool`` is the one index of an instance that every model builder
reads: the graph it was enumerated from, the exchanges through each vertex,
and the PICEF arcs derived from the pool's own chains on first use, looked up
by head or tail (and position).

Both recourse policies rest on one rule, written once in ``_kept``: how much
of a planned cycle or chain an attack leaves in place.  Full recourse (FR)
keeps nothing.  Fix-successful-exchanges (FSE) keeps a planned cycle only if
the cycle is untouched, and a planned chain's prefix up to its first attacked
vertex, provided that prefix still holds an arc.  ``enforcers``,
``enforced_under_attack`` and ``enforceable_set`` all derive from it, so under
FR each returns nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

Arc = Tuple[int, int]


class Policy(Enum):
    """Recourse policy: unrestricted re-matching, or fixing unharmed exchanges."""

    FULL_RECOURSE = "fr"
    FIX_SUCCESSFUL = "fse"


class ExchangeKind(Enum):
    CYCLE = "cycle"
    CHAIN = "chain"


@dataclass(frozen=True)
class CompatibilityGraph:
    """Directed compatibility graph.

    Vertices 0..num_pairs-1 are incompatible donor-recipient pairs; vertices
    num_pairs..num_pairs+num_ndds-1 are non-directed donors.  An arc (i, j)
    means the donor at i can donate to the recipient of pair j; arcs never
    enter an NDD.
    """

    num_pairs: int
    num_ndds: int
    arcs: Tuple[Arc, ...]

    def __post_init__(self):
        if self.num_pairs < 0 or self.num_ndds < 0:
            raise ValueError(
                f"negative vertex count: num_pairs={self.num_pairs}, "
                f"num_ndds={self.num_ndds}"
            )
        n = self.num_pairs + self.num_ndds
        seen = set()
        for (i, j) in self.arcs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"arc ({i},{j}) out of range for {n} vertices")
            if j >= self.num_pairs:
                raise ValueError(f"arc ({i},{j}) enters an NDD")
            if i == j:
                raise ValueError(f"self-loop ({i},{j})")
            if (i, j) in seen:
                raise ValueError(f"duplicate arc ({i},{j})")
            seen.add((i, j))

    @property
    def num_vertices(self) -> int:
        return self.num_pairs + self.num_ndds

    @property
    def pairs(self) -> range:
        return range(self.num_pairs)

    @property
    def ndds(self) -> range:
        return range(self.num_pairs, self.num_vertices)

    def is_pair(self, v: int) -> bool:
        return 0 <= v < self.num_pairs

    def is_ndd(self, v: int) -> bool:
        return self.num_pairs <= v < self.num_vertices

    @cached_property
    def out_adj(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {v: [] for v in range(self.num_vertices)}
        for (i, j) in self.arcs:
            adj[i].append(j)
        for v in adj:
            adj[v].sort()
        return adj


@dataclass(frozen=True)
class Exchange:
    """A transplant cycle (pairs only) or an NDD-rooted chain.

    Cycles are stored in canonical rotation (smallest vertex id first); the
    closing arc back to the first vertex is implicit.  ``index`` is the
    exchange's position in its pool's enumeration order, or -1 when the
    exchange is free-standing.
    """

    kind: ExchangeKind
    vertices: Tuple[int, ...]
    index: int = -1

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        vs = self.vertices
        path = tuple(zip(vs, vs[1:]))
        if self.kind is ExchangeKind.CYCLE:
            return path + ((vs[-1], vs[0]),)
        return path

    def key(self) -> Tuple[ExchangeKind, Tuple[int, ...]]:
        return (self.kind, self.vertices)


def enumerate_cycles(graph: CompatibilityGraph, K: int) -> List[Exchange]:
    """All simple directed cycles through pairs with at most K arcs.

    Each cycle appears once, rotated so its smallest vertex comes first.
    Ordered by (length, vertex list); K < 2 yields no cycles.
    """
    cycles: List[Tuple[int, ...]] = []
    adj = graph.out_adj

    def extend(start: int, path: List[int]) -> None:
        v = path[-1]
        for w in adj[v]:
            if w == start and len(path) >= 2:
                cycles.append(tuple(path))
            elif (
                w > start
                and graph.is_pair(w)
                and w not in path
                and len(path) < K
            ):
                path.append(w)
                extend(start, path)
                path.pop()

    for s in graph.pairs:
        extend(s, [s])
    cycles.sort(key=lambda vs: (len(vs), vs))
    return [Exchange(ExchangeKind.CYCLE, vs) for vs in cycles]


def enumerate_chains(graph: CompatibilityGraph, L: int) -> List[Exchange]:
    """All simple NDD-rooted paths with between 1 and L arcs.

    Ordered by (arc count, vertex list).
    """
    chains: List[Tuple[int, ...]] = []
    adj = graph.out_adj

    def extend(path: List[int]) -> None:
        if len(path) >= 2:
            chains.append(tuple(path))
        if len(path) - 1 >= L:
            return
        for w in adj[path[-1]]:
            if w not in path:
                path.append(w)
                extend(path)
                path.pop()

    if L >= 1:
        for n in graph.ndds:
            extend([n])
    chains.sort(key=lambda vs: (len(vs), vs))
    return [Exchange(ExchangeKind.CHAIN, vs) for vs in chains]


@dataclass(frozen=True)
class PicefArc:
    """Arc (src, dst) usable at chain position ``pos`` (1 = out of the NDD)."""

    src: int
    dst: int
    pos: int


def picef_positions(graph: CompatibilityGraph, L: int) -> List[PicefArc]:
    """Position-indexed arcs: (i, j, l) such that some NDD-rooted simple path
    of length l-1 reaches i while avoiding j, and (i, j) is an arc.

    Ordered by (pos, src, dst).
    """
    found: Set[Tuple[int, int, int]] = set()
    adj = graph.out_adj

    def walk(path: List[int]) -> None:
        i = path[-1]
        pos = len(path)  # arcs out of `i` would sit at this position
        if pos > L:
            return
        for j in adj[i]:
            if j not in path:
                found.add((i, j, pos))
                walk(path + [j])

    for n in graph.ndds:
        walk([n])
    return [PicefArc(i, j, p) for (i, j, p) in sorted(found, key=lambda t: (t[2], t[0], t[1]))]


@dataclass
class ExchangePool:
    """Index over all exchanges enumerated from ``graph``: ``exchanges`` lists
    the cycles first, then the chains, each at its pool index; ``cycles`` and
    ``chains`` are its two slices.

    ``per_vertex[j]`` lists the indices of exchanges whose vertex set
    contains j, cycles before chains.  ``picef_arcs`` holds every (arc,
    position) on the pool's chains, ordered by (pos, src, dst): for a pool of
    all chains with up to L arcs, ``picef_positions(graph, L)``.  The
    ``arcs_*`` methods look them up by head or tail (and position).  The
    PICEF arcs and their lookup are built on first use: only an FR PICEF
    master reads them, so CC and FSE solves never build them.
    """

    graph: CompatibilityGraph
    cycles: List[Exchange]
    chains: List[Exchange]
    exchanges: List[Exchange] = field(init=False)
    per_vertex: Dict[int, List[int]] = field(init=False)

    def __post_init__(self):
        n = len(self.cycles)
        self.exchanges = [
            Exchange(e.kind, e.vertices, i)
            for i, e in enumerate(self.cycles + self.chains)
        ]
        self.cycles, self.chains = self.exchanges[:n], self.exchanges[n:]
        self._by_key = {e.key(): e.index for e in self.exchanges}
        self.per_vertex = {}
        for e in self.exchanges:
            for v in e.vertices:
                self.per_vertex.setdefault(v, []).append(e.index)

    @cached_property
    def picef_arcs(self) -> List[PicefArc]:
        found = {
            PicefArc(i, j, pos)
            for d in self.chains
            for pos, (i, j) in enumerate(d.arcs, start=1)
        }
        return sorted(found, key=lambda a: (a.pos, a.src, a.dst))

    @cached_property
    def _arc_maps(self) -> Tuple[dict, dict]:
        """The PICEF arcs by (head or tail, position or None)."""
        into, out = {}, {}
        for a in self.picef_arcs:
            into.setdefault((a.dst, None), []).append(a)
            into.setdefault((a.dst, a.pos), []).append(a)
            out.setdefault((a.src, None), []).append(a)
            out.setdefault((a.src, a.pos), []).append(a)
        return into, out

    def __len__(self) -> int:
        return len(self.exchanges)

    def exchange(self, index: int) -> Exchange:
        return self.exchanges[index]

    def index_of(self, e: Exchange) -> int:
        """Pool index of an exchange given by kind and vertex tuple."""
        try:
            return self._by_key[e.key()]
        except KeyError:
            raise KeyError(f"exchange {e.kind.value} {e.vertices} not in pool") from None

    def involving(self, v: int) -> List[int]:
        return self.per_vertex.get(v, [])

    def arcs_into(self, j: int, pos: Optional[int] = None) -> List[PicefArc]:
        """PICEF arcs entering j, only those at position ``pos`` if given."""
        return self._arc_maps[0].get((j, pos), [])

    def arcs_out_of(self, i: int, pos: Optional[int] = None) -> List[PicefArc]:
        """PICEF arcs leaving i, only those at position ``pos`` if given."""
        return self._arc_maps[1].get((i, pos), [])


def build_pool(graph: CompatibilityGraph, K: int, L: int) -> ExchangePool:
    return ExchangePool(graph, enumerate_cycles(graph, K), enumerate_chains(graph, L))


@dataclass(frozen=True)
class KepSolution:
    """A set of pairwise vertex-disjoint exchanges, stored by pool index."""

    selected: FrozenSet[int]

    @staticmethod
    def empty() -> "KepSolution":
        return KepSolution(frozenset())

    @staticmethod
    def of(indices: Iterable[int]) -> "KepSolution":
        return KepSolution(frozenset(indices))

    def exchanges(self, pool: ExchangePool) -> List[Exchange]:
        return [pool.exchange(i) for i in sorted(self.selected)]

    def vertices(self, pool: ExchangePool) -> Set[int]:
        vs: Set[int] = set()
        for e in self.exchanges(pool):
            vs.update(e.vertices)
        return vs

    def initial_pairs(self, pool: ExchangePool) -> Set[int]:
        """Pairs covered by this solution (the recipients it serves)."""
        return {v for v in self.vertices(pool) if pool.graph.is_pair(v)}

    def is_feasible(self, pool: ExchangePool) -> bool:
        seen: Set[int] = set()
        for e in self.exchanges(pool):
            for v in e.vertices:
                if v in seen:
                    return False
                seen.add(v)
        return True


@dataclass(frozen=True)
class Attack:
    """A set of withdrawn vertices, at most ``budget`` of them."""

    attacked: FrozenSet[int]
    budget: int

    def __post_init__(self):
        if len(self.attacked) > self.budget:
            raise ValueError(
                f"attack of size {len(self.attacked)} exceeds budget {self.budget}"
            )

    @staticmethod
    def of(vertices: Iterable[int], budget: int) -> "Attack":
        return Attack(frozenset(vertices), budget)

    def spares(self, *vertices: int) -> bool:
        """Whether no given vertex is attacked, i.e. all of them lie in G - u."""
        return self.attacked.isdisjoint(vertices)

    def hits(self, e: Exchange) -> bool:
        return not self.spares(*e.vertices)


def _kept(e: Exchange, attacked: Collection[int], policy: Policy) -> int:
    """The survival rule: how many of ``e``'s leading vertices an attack
    leaves enforced under ``policy``, 0 for none.

    FR keeps nothing.  Under FSE a cycle is kept only whole, and a chain
    keeps its vertices before the first attacked one, provided they still
    hold an arc.
    """
    if policy is Policy.FULL_RECOURSE:
        return 0
    n = next((k for k, v in enumerate(e.vertices) if v in attacked), len(e.vertices))
    if n < 2 or (e.kind is ExchangeKind.CYCLE and n < len(e.vertices)):
        return 0
    return n


def enforceable_set(
    initial: KepSolution, pool: ExchangePool, policy: Policy
) -> List[Exchange]:
    """Everything the rule can keep of the initial exchanges under some
    attack: nothing under FR; under FSE the initial cycles and every prefix of
    an initial chain that ends at a pair.

    Exchanges carry their pool index.  Deterministic order (by pool index).
    """
    found: Set[int] = set()
    for e in initial.exchanges(pool):
        attacks = [()] + [(v,) for v in e.vertices]  # none, or one vertex
        for n in {_kept(e, a, policy) for a in attacks} - {0}:
            found.add(pool.index_of(Exchange(e.kind, e.vertices[:n])))
    return [pool.exchange(i) for i in sorted(found)]


def enforcers(
    pool: ExchangePool, indices: Iterable[int], u: Attack, policy: Policy
) -> Dict[int, List[int]]:
    """Per vertex j, the given exchanges whose part kept by the rule under u
    still holds j, in the order given: none under FR; under FSE untouched
    cycles, and chains whose prefix up to j (at least the first arc) has no
    attacked vertex.
    """
    held: Dict[int, List[int]] = {}
    for i in indices:
        e = pool.exchange(i)
        for j in e.vertices[: _kept(e, u.attacked, policy)]:
            held.setdefault(j, []).append(i)
    return held


def exchange_weight(e: Exchange, initial_pairs: Set[int]) -> int:
    """w_e(x): number of this exchange's vertices that are initially covered pairs."""
    return len(set(e.vertices) & initial_pairs)


def arc_weight(dst: int, initial_pairs: Set[int]) -> int:
    """PICEF arc weight: 1 iff the recipient is an initially covered pair."""
    return 1 if dst in initial_pairs else 0


def enforced_under_attack(
    initial: KepSolution, u: Attack, pool: ExchangePool, policy: Policy
) -> List[Exchange]:
    """Structures the policy fixes into the recourse solution under u: none
    under FR; under FSE unattacked initial cycles and each initial chain's
    longest unattacked prefix.
    """
    enforced: List[Exchange] = []
    for e in initial.exchanges(pool):
        n = _kept(e, u.attacked, policy)
        if n:
            kept = Exchange(e.kind, e.vertices[:n])
            enforced.append(pool.exchange(pool.index_of(kept)))
    return enforced
