import itertools
import random

import pytest

from robustkep import (
    Attack,
    CompatibilityGraph,
    Exchange,
    ExchangeKind,
    KepSolution,
    PicefArc,
    Policy,
    build_pool,
    enumerate_chains,
    enumerate_cycles,
    generate_instance,
    picef_positions,
)
from robustkep.core import (
    enforceable_set,
    enforced_under_attack,
    enforcers,
    exchange_weight,
)
from robustkep.solvers import brute_force_attack, brute_force_recourse

# 3 pairs (0,1,2), one NDD (3); the NDD feeds a path through all pairs and
# pairs 1,2 form a 2-cycle
CHAIN_GRAPH = CompatibilityGraph(3, 1, ((3, 0), (0, 1), (1, 2), (2, 1)))


class TestCompatibilityGraph:
    def test_counts(self):
        assert CHAIN_GRAPH.num_vertices == 4
        assert list(CHAIN_GRAPH.pairs) == [0, 1, 2]
        assert list(CHAIN_GRAPH.ndds) == [3]
        assert CHAIN_GRAPH.is_pair(0) and not CHAIN_GRAPH.is_pair(3)
        assert CHAIN_GRAPH.is_ndd(3) and not CHAIN_GRAPH.is_ndd(2)

    def test_arc_into_ndd_rejected(self):
        with pytest.raises(ValueError, match="enters an NDD"):
            CompatibilityGraph(2, 1, ((0, 2),))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CompatibilityGraph(2, 0, ((1, 1),))

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CompatibilityGraph(2, 0, ((0, 1), (0, 1)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CompatibilityGraph(2, 0, ((0, 5),))

    @pytest.mark.parametrize("pairs, ndds", [(-2, 0), (3, -1)])
    def test_negative_counts_rejected(self, pairs, ndds):
        with pytest.raises(ValueError, match=f"num_pairs={pairs}, num_ndds={ndds}"):
            CompatibilityGraph(pairs, ndds, ((0, 1), (1, 0)) if pairs > 0 else ())

    def test_adjacency(self):
        assert CHAIN_GRAPH.out_adj[1] == [2]


class TestEnumeration:
    def test_cycles(self):
        cycles = enumerate_cycles(CHAIN_GRAPH, 3)
        assert [c.vertices for c in cycles] == [(1, 2)]

    def test_cycles_need_two_vertices(self):
        assert enumerate_cycles(CHAIN_GRAPH, 1) == []

    def test_cycle_canonical_rotation(self):
        g = CompatibilityGraph(3, 0, ((0, 1), (1, 2), (2, 0)))
        cycles = enumerate_cycles(g, 3)
        assert [c.vertices for c in cycles] == [(0, 1, 2)]

    def test_chains(self):
        chains = enumerate_chains(CHAIN_GRAPH, 3)
        assert [c.vertices for c in chains] == [(3, 0), (3, 0, 1), (3, 0, 1, 2)]

    def test_chains_respect_length(self):
        chains = enumerate_chains(CHAIN_GRAPH, 1)
        assert [c.vertices for c in chains] == [(3, 0)]
        assert enumerate_chains(CHAIN_GRAPH, 0) == []

    def test_picef_positions(self):
        arcs = picef_positions(CHAIN_GRAPH, 3)
        assert arcs == [
            PicefArc(3, 0, 1),
            PicefArc(0, 1, 2),
            PicefArc(1, 2, 3),
        ]

    def test_picef_positions_cross_check(self):
        # the pool derives its PICEF arcs from its chains; that must be
        # exactly picef_positions, and each lookup a filter of that list
        positions = set()
        for seed in range(8):
            rng = random.Random(seed)
            graph = generate_instance(
                rng.randint(2, 7), rng.randint(1, 3), rng.uniform(0.2, 0.6), seed=seed
            )
            for L in range(0, 5):
                pool = build_pool(graph, 3, L)
                arcs = pool.picef_arcs
                assert arcs == picef_positions(graph, L)
                positions.update(a.pos for a in arcs)
                for v in range(graph.num_vertices):
                    assert pool.arcs_into(v) == [a for a in arcs if a.dst == v]
                    assert pool.arcs_out_of(v) == [a for a in arcs if a.src == v]
                    for pos in range(1, L + 2):
                        assert pool.arcs_out_of(v, pos) == [
                            a for a in arcs if a.src == v and a.pos == pos
                        ]
        assert positions == {1, 2, 3, 4}


class TestExchange:
    def test_cycle_arcs_include_closing(self):
        e = Exchange(ExchangeKind.CYCLE, (1, 2))
        assert e.arcs == ((1, 2), (2, 1))

    def test_chain_arcs(self):
        e = Exchange(ExchangeKind.CHAIN, (3, 0, 1))
        assert e.arcs == ((3, 0), (0, 1))


class TestPool:
    def test_indexing(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        assert len(pool) == 4
        assert pool.exchange(0).kind is ExchangeKind.CYCLE
        full = Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2))
        assert pool.exchange(pool.index_of(full)).vertices == (3, 0, 1, 2)
        with pytest.raises(KeyError):
            pool.index_of(Exchange(ExchangeKind.CYCLE, (0, 1)))
        n = len(pool.cycles)
        assert pool.cycles == pool.exchanges[:n]
        assert pool.chains == pool.exchanges[n:]
        for i in range(len(pool)):
            assert pool.exchange(i) is pool.exchanges[i]
            assert pool.exchange(i).index == i

    def test_involving(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        idx_cycle = pool.index_of(Exchange(ExchangeKind.CYCLE, (1, 2)))
        assert idx_cycle in pool.involving(2)
        assert pool.involving(3) == [
            pool.index_of(Exchange(ExchangeKind.CHAIN, v))
            for v in ((3, 0), (3, 0, 1), (3, 0, 1, 2))
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_arcs_into_by_position(self, seed):
        rng = random.Random(f"pool-index/{seed}")
        graph = generate_instance(
            rng.randint(3, 8), rng.randint(1, 3), rng.uniform(0.2, 0.6), seed=seed
        )
        for L in range(0, 5):
            pool = build_pool(graph, 3, L)
            assert pool.graph is graph
            for j in range(graph.num_vertices):
                for pos in range(0, L + 2):
                    assert pool.arcs_into(j, pos) == [
                        a for a in pool.arcs_into(j) if a.pos == pos
                    ]

    def test_oracles_reject_pool_of_another_graph(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        other = CompatibilityGraph(3, 1, ((3, 0), (0, 1), (1, 2)))
        x = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0)))])
        u = Attack.of([1], 1)
        for policy in Policy:
            with pytest.raises(ValueError, match="different graph"):
                brute_force_recourse(x, u, pool, other, policy)
            with pytest.raises(ValueError, match="different graph"):
                brute_force_attack(x, pool, other, policy, 1)
            # an equal graph, not only the same object, is accepted
            same = CompatibilityGraph(3, 1, CHAIN_GRAPH.arcs)
            assert brute_force_recourse(x, u, pool, same, policy) == 1
            assert brute_force_attack(x, pool, same, policy, 1)[0] == 0


class TestSolutionAndAttack:
    def test_solution_feasibility(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        i_cycle = pool.index_of(Exchange(ExchangeKind.CYCLE, (1, 2)))
        i_first = pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0)))
        i_full = pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))
        assert KepSolution.of([i_cycle, i_first]).is_feasible(pool)
        assert not KepSolution.of([i_cycle, i_full]).is_feasible(pool)

    def test_initial_pairs_excludes_ndds(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        sol = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0)))])
        assert sol.initial_pairs(pool) == {0}

    def test_attack_budget(self):
        with pytest.raises(ValueError, match="exceeds budget"):
            Attack.of([0, 1], 1)
        u = Attack.of([1], 2)
        assert u.hits(Exchange(ExchangeKind.CYCLE, (1, 2)))
        assert not u.hits(Exchange(ExchangeKind.CHAIN, (3, 0)))

    def test_spares_agrees_with_hits(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        for attacked in [(), (0,), (3,), (1, 2), (0, 3)]:
            u = Attack.of(attacked, 2)
            assert u.spares()
            for e in pool.exchanges:
                assert u.spares(*e.vertices) is not u.hits(e)
                assert u.spares(*e.vertices) is all(v not in attacked for v in e.vertices)
        assert not Attack.of([3], 1).spares(3, 0)
        assert Attack.of([3], 1).spares(0, 1)


class TestFixSuccessfulConstructs:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_rule_matches_definitions_on_random_graphs(self, policy):
        """One rule behind all three helpers, checked against definitions
        written out here: FR keeps nothing, so every helper returns empty on
        every plan and attack; under FSE a cycle survives only whole, and a
        chain keeps each prefix that ends at a pair and has no attacked
        vertex."""

        def prefixes(g, e):
            vs = e.vertices
            return [vs[:k] for k in range(1, len(vs) + 1) if g.is_pair(vs[k - 1])]

        def kept(g, e, attacked):
            if policy is Policy.FULL_RECOURSE:
                return []
            if e.kind is ExchangeKind.CYCLE:
                untouched = not set(e.vertices) & attacked
                return [e.vertices] if untouched else []
            return [p for p in prefixes(g, e) if not set(p) & attacked]

        for seed, L in itertools.product(range(20), range(5)):
            g = generate_instance(6, 2, 0.4, seed=seed)
            pool = build_pool(g, 3, L)
            rng = random.Random(f"fse-rule/{seed}/{L}")
            initials = []
            for _ in range(3):
                order = list(range(len(pool)))
                rng.shuffle(order)
                used, chosen = set(), []
                for i in order:
                    if not used & set(pool.exchange(i).vertices):
                        chosen.append(i)
                        used.update(pool.exchange(i).vertices)
                initials.append(KepSolution.of(chosen))
            attacks = [
                Attack.of(a, 2)
                for size in range(3)
                for a in itertools.combinations(range(g.num_vertices), size)
            ]
            # the whole pool (a CC master's x) and the cycles alone (PICEF's x)
            cycles = [e.index for e in pool.cycles]
            for u, indices in itertools.product(attacks, (range(len(pool)), cycles)):
                expected = {}
                for i in indices:
                    e = pool.exchange(i)
                    for j in {j for p in kept(g, e, u.attacked) for j in p}:
                        expected.setdefault(j, []).append(i)
                assert enforcers(pool, indices, u, policy) == expected
            for x in initials:
                enf = enforceable_set(x, pool, policy)
                # with no attack, every structure the rule can keep is kept
                assert [e.index for e in enf] == sorted(
                    pool.index_of(Exchange(e.kind, p))
                    for e in x.exchanges(pool)
                    for p in kept(g, e, set())
                )
                for u in attacks:
                    got = enforced_under_attack(x, u, pool, policy)
                    want = [
                        (e.kind, max(kept(g, e, u.attacked), key=len))
                        for e in x.exchanges(pool)
                        if kept(g, e, u.attacked)
                    ]
                    assert [(e.kind, e.vertices) for e in got] == want
                    assert all(pool.exchange(e.index) == e for e in got)

    def test_enforceable_set(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        full = pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))
        enf = enforceable_set(KepSolution.of([full]), pool, Policy.FIX_SUCCESSFUL)
        assert [e.vertices for e in enf] == [(3, 0), (3, 0, 1), (3, 0, 1, 2)]
        assert all(e.index >= 0 for e in enf)

    def test_enforced_under_attack(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        full = pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))
        enforced = enforced_under_attack(
            KepSolution.of([full]), Attack.of([2], 1), pool, Policy.FIX_SUCCESSFUL
        )
        assert [e.vertices for e in enforced] == [(3, 0, 1)]

    def test_enforcers(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        first, second, full = (
            pool.index_of(Exchange(ExchangeKind.CHAIN, vs))
            for vs in ((3, 0), (3, 0, 1), (3, 0, 1, 2))
        )
        cycle = pool.index_of(Exchange(ExchangeKind.CYCLE, (1, 2)))
        held = enforcers(
            pool, [full, cycle, second, first], Attack.of([2], 1), Policy.FIX_SUCCESSFUL
        )
        # the hit cycle holds nothing; each chain holds the vertices before
        # the hit, listed in the order given
        assert held == {
            3: [full, second, first], 0: [full, second, first], 1: [full, second]
        }


class TestWeightsAndObjective:
    def test_exchange_weight(self):
        e = Exchange(ExchangeKind.CHAIN, (3, 0, 1))
        assert exchange_weight(e, {0, 1, 2}) == 2
        assert exchange_weight(e, {2}) == 0
