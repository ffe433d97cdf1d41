import random

import pytest

from robustkep import (
    Attack,
    CompatibilityGraph,
    Encoding,
    Exchange,
    ExchangeKind,
    KepSolution,
    Policy,
    build_pool,
    generate_instance,
)
from robustkep.formulations import (
    add_interdiction_cut,
    assemble_chains,
    build_master,
    build_recourse,
    build_subproblem,
    extend_master_with_attack,
    extract_attack,
    extract_cut_solution,
    extract_initial_solution,
    solve_subproblem_at,
)
from robustkep.core import PicefArc
from robustkep.solvers import brute_force_recourse

CHAIN_GRAPH = CompatibilityGraph(3, 1, ((3, 0), (0, 1), (1, 2), (2, 1)))

ALL_POLICIES = [Policy.FULL_RECOURSE, Policy.FIX_SUCCESSFUL]
ALL_ENCODINGS = [Encoding.CC, Encoding.PICEF]


def random_solution(pool, rng):
    """A random feasible packing, greedily grown in shuffled order."""
    order = list(range(len(pool)))
    rng.shuffle(order)
    used = set()
    chosen = []
    for i in order:
        verts = pool.exchange(i).vertices
        if not any(v in used for v in verts):
            chosen.append(i)
            used.update(verts)
    keep = rng.randint(0, len(chosen))
    return KepSolution.of(chosen[:keep])


def random_attack(graph, budget, rng):
    size = rng.randint(0, budget)
    return Attack.of(rng.sample(range(graph.num_vertices), size), budget)


class TestAssembleChains:
    def test_two_chains(self):
        arcs = [PicefArc(5, 0, 1), PicefArc(0, 1, 2), PicefArc(6, 2, 1)]
        assert assemble_chains(arcs) == [(5, 0, 1), (6, 2)]

    def test_dangling_arc_rejected(self):
        with pytest.raises(ValueError, match="do not form chains"):
            assemble_chains([PicefArc(0, 1, 2)])


class TestMaster:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_zero_attack_is_plain_kep(self, policy, encoding):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        master = build_master(
            pool, CHAIN_GRAPH, policy, encoding, [Attack.of((), 1)], max_chain_len=3
        )
        out = master.model.solve()
        assert out.int_objective() == 3
        sol = extract_initial_solution(master, out)
        assert sol.initial_pairs(pool, CHAIN_GRAPH) == {0, 1, 2}

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_registered_attack_lowers_value(self, encoding):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        master = build_master(
            pool,
            CHAIN_GRAPH,
            Policy.FULL_RECOURSE,
            encoding,
            [Attack.of((), 1), Attack.of([0], 1)],
            max_chain_len=3,
        )
        # losing pair 0 always costs it, but pairs 1,2 survive via their cycle
        assert master.model.solve().int_objective() == 2

    def test_empty_attack_set_rejected(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        with pytest.raises(ValueError, match="zero attack"):
            build_master(
                pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, Encoding.CC, [], 3
            )

    def test_duplicate_attack_rejected(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        master = build_master(
            pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, Encoding.CC, [Attack.of((), 1)], 3
        )
        with pytest.raises(ValueError, match="already registered"):
            extend_master_with_attack(master, Attack.of((), 1))

    def test_policy_mismatch_rejected(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        master = build_master(
            pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, Encoding.CC, [Attack.of((), 1)], 3
        )
        with pytest.raises(ValueError, match="policy mismatch"):
            extend_master_with_attack(
                master, Attack.of([1], 1), policy=Policy.FIX_SUCCESSFUL
            )


class TestSubproblemStrength:
    """Worked instance: against the registry {full chain, 2-cycle} with B=1
    the cycle-chain relaxation is fooled down to 0, the position-indexed one
    keeps value 1 (an attacked chain still pays for its surviving prefix)."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_cc_value_zero_picef_value_one(self, policy):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = KepSolution.of(
            [pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))]
        )
        s2 = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CYCLE, (1, 2)))])
        values = {}
        for encoding in ALL_ENCODINGS:
            sub = build_subproblem(x, pool, CHAIN_GRAPH, policy, encoding, 1)
            add_interdiction_cut(sub, x)
            add_interdiction_cut(sub, s2)
            values[encoding] = sub.model.solve().int_objective()
        assert values[Encoding.CC] == 0
        assert values[Encoding.PICEF] == 1

    def test_overlapping_cut_rejected(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = KepSolution.of(
            [pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))]
        )
        sub = build_subproblem(
            x, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, Encoding.CC, 1
        )
        bad = KepSolution.of(
            [
                pool.index_of(Exchange(ExchangeKind.CYCLE, (1, 2))),
                pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2))),
            ]
        )
        with pytest.raises(ValueError, match="overlapping"):
            add_interdiction_cut(sub, bad)


class TestCutValidity:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_cut_value_never_exceeds_recourse(self, policy, encoding):
        """At any fixed attack, the max cut value stays below the true
        recourse optimum; so every cut is a valid underestimate."""
        rng = random.Random(hash((policy.value, encoding.value)) & 0xFFFF)
        for trial in range(12):
            graph = generate_instance(
                rng.randint(3, 6), rng.randint(0, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(graph, 3, 3)
            if len(pool) == 0:
                continue
            x = random_solution(pool, rng)
            sub = build_subproblem(x, pool, graph, policy, encoding, 2)
            add_interdiction_cut(sub, x)
            for _ in range(3):
                add_interdiction_cut(sub, random_solution(pool, rng))
            for _ in range(4):
                u = random_attack(graph, 2, rng)
                fixed = solve_subproblem_at(sub, u)
                exact = brute_force_recourse(x, u, pool, graph, policy)
                assert fixed.int_objective() <= exact

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_picef_dominates_cc(self, policy):
        rng = random.Random(99 if policy is Policy.FULL_RECOURSE else 173)
        for trial in range(15):
            graph = generate_instance(
                rng.randint(3, 6), rng.randint(0, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(graph, 3, 3)
            if len(pool) == 0:
                continue
            x = random_solution(pool, rng)
            cuts = [x] + [random_solution(pool, rng) for _ in range(2)]
            values = {}
            for encoding in ALL_ENCODINGS:
                sub = build_subproblem(x, pool, graph, policy, encoding, 1)
                for S in cuts:
                    add_interdiction_cut(sub, S)
                values[encoding] = sub.model.solve().int_objective()
            assert values[Encoding.PICEF] >= values[Encoding.CC]


class TestRecourse:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("lifted", [False, True])
    def test_matches_exhaustive_recourse(self, policy, encoding, lifted):
        rng = random.Random(hash((policy.value, encoding.value, lifted)) & 0xFFFF)
        for trial in range(10):
            graph = generate_instance(
                rng.randint(3, 6), rng.randint(0, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(graph, 3, 3)
            x = random_solution(pool, rng)
            u = random_attack(graph, 2, rng)
            rec = build_recourse(
                x, u, pool, graph, policy, encoding, lifted=lifted, max_chain_len=3
            )
            out = rec.model.solve()
            sol, value = extract_cut_solution(rec, out)
            assert sol.is_feasible(pool)
            assert value == brute_force_recourse(x, u, pool, graph, policy)
            # the cut from this solution is tight at u, so a cut round that
            # finds r > z_sub always raises z_sub at u
            sub = build_subproblem(x, pool, graph, policy, encoding, 2)
            add_interdiction_cut(sub, sol)
            assert solve_subproblem_at(sub, u).int_objective() == value

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("lifted", [False, True])
    def test_fse_cut_tight_at_enforced_chain(self, encoding, lifted):
        """The surviving initial chain (3,0) is enforced; the cut built from
        the recourse solution must credit it at u, or the cut loop stalls."""
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0)))])
        u = Attack.of([2], 1)
        policy = Policy.FIX_SUCCESSFUL
        rec = build_recourse(
            x, u, pool, CHAIN_GRAPH, policy, encoding, lifted=lifted, max_chain_len=3
        )
        sol, value = extract_cut_solution(rec, rec.model.solve())
        assert value == 1
        sub = build_subproblem(x, pool, CHAIN_GRAPH, policy, encoding, 1)
        add_interdiction_cut(sub, sol)
        assert solve_subproblem_at(sub, u).int_objective() == value

    def test_fse_keeps_surviving_prefix(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = KepSolution.of(
            [pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))]
        )
        u = Attack.of([2], 1)
        for encoding in ALL_ENCODINGS:
            rec = build_recourse(
                x,
                u,
                pool,
                graph=CHAIN_GRAPH,
                policy=Policy.FIX_SUCCESSFUL,
                encoding=encoding,
                lifted=False,
                max_chain_len=3,
            )
            sol, value = extract_cut_solution(rec, rec.model.solve())
            # the prefix (3,0,1) is locked in and cannot be extended
            assert value == 2
