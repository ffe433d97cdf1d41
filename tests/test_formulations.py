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
    extract_cut_solution,
    extract_initial_solution,
)
from robustkep.core import PicefArc, enforced_under_attack
from robustkep.solvers import brute_force_recourse

CHAIN_GRAPH = CompatibilityGraph(3, 1, ((3, 0), (0, 1), (1, 2), (2, 1)))

ALL_POLICIES = [Policy.FULL_RECOURSE, Policy.FIX_SUCCESSFUL]
ALL_ENCODINGS = [Encoding.CC, Encoding.PICEF]


def solve_subproblem_at(sub, u):
    """Solve the subproblem with the attack fixed to u, then restore the
    attack variables' bounds and the basis the next root starts from; used
    for cut validation."""
    model = sub.model
    saved = [(v, model.lb[v], model.ub[v]) for v in sub.u_vars.values()]
    start_basis = model.start_basis
    try:
        for j, v in sub.u_vars.items():
            val = 1.0 if j in u.attacked else 0.0
            model.set_bounds(v, val, val)
        return model.solve()
    finally:
        for v, lb, ub in saved:
            model.set_bounds(v, lb, ub)
        model.start_basis = start_basis


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
            pool, policy, encoding, [Attack.of((), 1)]
        )
        out = master.model.solve()
        assert out.int_objective() == 3
        sol = extract_initial_solution(master, out.assignment)
        assert sol.initial_pairs(pool) == {0, 1, 2}

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_registered_attack_lowers_value(self, encoding):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        master = build_master(
            pool,
            Policy.FULL_RECOURSE,
            encoding,
            [Attack.of((), 1), Attack.of([0], 1)],
        )
        # losing pair 0 always costs it, but pairs 1,2 survive via their cycle
        assert master.model.solve().int_objective() == 2

    def test_empty_attack_set_rejected(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        with pytest.raises(ValueError, match="zero attack"):
            build_master(
                pool, Policy.FULL_RECOURSE, Encoding.CC, []
            )

    def test_duplicate_attack_rejected(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        master = build_master(
            pool, Policy.FULL_RECOURSE, Encoding.CC, [Attack.of((), 1)]
        )
        with pytest.raises(ValueError, match="already registered"):
            extend_master_with_attack(master, Attack.of((), 1))


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
            sub = build_subproblem(x, pool, policy, encoding, 1)
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
            x, pool, Policy.FULL_RECOURSE, Encoding.CC, 1
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
        rng = random.Random(f"{policy.value}/{encoding.value}")
        for trial in range(12):
            graph = generate_instance(
                rng.randint(3, 6), rng.randint(0, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(graph, 3, 3)
            if len(pool) == 0:
                continue
            x = random_solution(pool, rng)
            sub = build_subproblem(x, pool, policy, encoding, 2)
            add_interdiction_cut(sub, x)
            for _ in range(3):
                add_interdiction_cut(sub, random_solution(pool, rng))
            for _ in range(4):
                u = random_attack(graph, 2, rng)
                fixed = solve_subproblem_at(sub, u)
                exact = brute_force_recourse(x, u, pool, graph, policy)
                assert fixed.int_objective() <= exact

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_solve_at_restores_model(self, policy, encoding):
        """Solving at a fixed attack leaves the subproblem as it found it."""
        rng = random.Random(f"restore/{policy.value}/{encoding.value}")
        graph = generate_instance(6, 1, 0.4, seed=3)
        pool = build_pool(graph, 3, 3)
        x = random_solution(pool, rng)
        sub = build_subproblem(x, pool, policy, encoding, 2)
        for S in [x] + [random_solution(pool, rng) for _ in range(3)]:
            add_interdiction_cut(sub, S)
        before = sub.model.solve()
        lb, ub = list(sub.model.lb), list(sub.model.ub)
        solve_subproblem_at(sub, Attack.of((), 2))
        assert (sub.model.lb, sub.model.ub) == (lb, ub)
        after = sub.model.solve()
        assert after.objective == before.objective
        assert after.assignment == before.assignment
        assert after.nodes_explored == before.nodes_explored

    def test_objective_does_not_depend_on_the_start_basis(self):
        """With an integral objective, a warm root reports the same objective
        as a cold one, though its continuous columns may differ by rounding:
        this case reads 0.9999999999999998 cold and 1.0 warm unrounded."""
        rng = random.Random("restore/fse/cc")
        graph = generate_instance(6, 1, 0.4, seed=3)
        pool = build_pool(graph, 3, 3)
        x = random_solution(pool, rng)
        sub = build_subproblem(x, pool, Policy.FIX_SUCCESSFUL, Encoding.CC, 2)
        for S in [x] + [random_solution(pool, rng) for _ in range(3)]:
            add_interdiction_cut(sub, S)
        cold = sub.model.solve()
        v = next(iter(sub.u_vars.values()))
        lb, ub = sub.model.lb[v], sub.model.ub[v]
        sub.model.set_bounds(v, 1.0, 1.0)
        sub.model.set_bounds(v, lb, ub)  # the next root starts warm
        warm = sub.model.solve()
        assert cold.objective == warm.objective == 1.0

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
                sub = build_subproblem(x, pool, policy, encoding, 1)
                for S in cuts:
                    add_interdiction_cut(sub, S)
                values[encoding] = sub.model.solve().int_objective()
            assert values[Encoding.PICEF] >= values[Encoding.CC]


class TestRecourse:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("lifted", [False, True])
    def test_matches_exhaustive_recourse(self, policy, encoding, lifted):
        rng = random.Random(f"{policy.value}/{encoding.value}/{lifted}")
        for trial in range(10):
            graph = generate_instance(
                rng.randint(3, 6), rng.randint(0, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(graph, 3, 3)
            x = random_solution(pool, rng)
            u = random_attack(graph, 2, rng)
            rec = build_recourse(x, u, pool, policy, lifted=lifted)
            out = rec.model.solve()
            sol, value = extract_cut_solution(rec, out)
            assert sol.is_feasible(pool)
            assert value == brute_force_recourse(x, u, pool, graph, policy)
            kept = enforced_under_attack(x, u, pool, policy)
            assert {e.index for e in kept} <= sol.selected
            # the cut from this solution is tight at u, so a cut round that
            # finds r > z_sub always raises z_sub at u
            sub = build_subproblem(x, pool, policy, encoding, 2)
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
        rec = build_recourse(x, u, pool, policy, lifted=lifted)
        sol, value = extract_cut_solution(rec, rec.model.solve())
        assert value == 1
        sub = build_subproblem(x, pool, policy, encoding, 1)
        add_interdiction_cut(sub, sol)
        assert solve_subproblem_at(sub, u).int_objective() == value

    def test_fse_keeps_surviving_prefix(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = KepSolution.of(
            [pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))]
        )
        u = Attack.of([2], 1)
        rec = build_recourse(x, u, pool, Policy.FIX_SUCCESSFUL)
        sol, value = extract_cut_solution(rec, rec.model.solve())
        # the prefix (3,0,1) is locked in and cannot be extended
        assert value == 2

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("lifted", [False, True])
    def test_no_pinned_columns(self, policy, encoding, lifted):
        """The policy reaches the recourse model only through the vertices it
        leaves free, and the master's attack block for the same attack only
        through its rows: no column of either has its bounds pinned to one
        value."""
        rng = random.Random(f"pinned/{policy.value}/{encoding.value}/{lifted}")
        for trial in range(10):
            graph = generate_instance(
                rng.randint(4, 8), rng.randint(1, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(graph, 3, 3)
            x = random_solution(pool, rng)
            u = random_attack(graph, 2, rng)
            model = build_recourse(x, u, pool, policy, lifted).model
            assert all(lo < hi for lo, hi in zip(model.lb, model.ub))
            if not u.attacked:
                continue
            master = build_master(pool, policy, encoding, [Attack.of((), 2)])
            model = extend_master_with_attack(master, u).model
            assert all(lo < hi for lo, hi in zip(model.lb, model.ub))


class TestBuiltOnGMinusU:
    """Attack blocks and plain recourse models hold variables only for what
    an attack u leaves of the graph (G - u); the lifted recourse keeps its
    full-graph y.  Both recourse models are CC in either encoding, and under
    FSE neither touches a vertex of an enforced structure."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_variables_avoid_attacked_vertices(self, policy, encoding):
        rng = random.Random(f"g-u/{policy.value}/{encoding.value}")
        fse = policy is Policy.FIX_SUCCESSFUL
        picef = encoding is Encoding.PICEF and not fse  # an FSE master is CC
        for trial in range(6):
            graph = generate_instance(
                rng.randint(5, 8), rng.randint(1, 2), 0.35, seed=rng.randint(0, 9999)
            )
            pool = build_pool(graph, 3, 3)
            x = random_solution(pool, rng)
            u = Attack.of(rng.sample(range(graph.num_vertices), rng.randint(1, 2)), 2)

            def spared(i, j):
                return i not in u.attacked and j not in u.attacked

            taken = set()
            for e in enforced_under_attack(x, u, pool, policy):
                taken.update(e.vertices)

            def free(*vertices):
                return taken.isdisjoint(vertices)

            structures = {e.index for e in (pool.cycles if picef else pool.exchanges)}
            kept = {i for i in structures if not u.hits(pool.exchange(i))}
            all_arcs = set(pool.picef_arcs) if picef else set()
            arcs = {a for a in all_arcs if spared(a.src, a.dst)}

            plain = build_recourse(x, u, pool, policy)
            assert set(plain.y_vars) == {
                e.index for e in pool.exchanges if not u.hits(e) and free(*e.vertices)
            }
            lifted = build_recourse(x, u, pool, policy, lifted=True)
            assert set(lifted.y_vars) == {e.index for e in pool.exchanges if free(*e.vertices)}

            master = build_master(pool, policy, encoding, [Attack.of((), 2)])
            before = master.model.num_variables
            extend_master_with_attack(master, u)
            pairs = [j for j in graph.pairs if j not in u.attacked]
            added = len(kept) + len(arcs) + len(pairs)
            assert master.model.num_variables - before == added


class TestPicefIndexOnFirstUse:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_cc_models_leave_it_unbuilt(self, policy):
        graph = generate_instance(8, 2, 0.3, seed=5)
        pool = build_pool(graph, 3, 3)
        assert pool.cycles and pool.chains
        master = build_master(pool, policy, Encoding.CC, [Attack.of((), 1)])
        x = extract_initial_solution(master, master.model.solve().assignment)
        # cut the plan's longest chain after its first arc: FSE keeps that arc
        chains = [e for e in x.exchanges(pool) if e.kind is ExchangeKind.CHAIN]
        chain = max(chains, key=lambda e: len(e.vertices))
        u = Attack.of([chain.vertices[2]], 1)
        extend_master_with_attack(master, u)
        extract_initial_solution(master, master.model.solve().assignment)
        sub = build_subproblem(x, pool, policy, Encoding.CC, 1)
        add_interdiction_cut(sub, x)
        sub.model.solve()
        for lifted in (False, True):
            rec = build_recourse(x, u, pool, policy, lifted)
            extract_cut_solution(rec, rec.model.solve())
        assert "picef_arcs" not in vars(pool)
        if policy is Policy.FIX_SUCCESSFUL:
            # nor does an FSE PICEF solve: its master is CC, and its attacker
            # takes chains as arc terms
            build_master(pool, policy, Encoding.PICEF, [u])
            sub = build_subproblem(x, pool, policy, Encoding.PICEF, 1)
            add_interdiction_cut(sub, x)
            sub.model.solve()
            assert "picef_arcs" not in vars(pool)
        # an FR PICEF master builds it on first use
        build_master(pool, Policy.FULL_RECOURSE, Encoding.PICEF, [u])
        assert "picef_arcs" in vars(pool)


class TestFseMasterIsCc:
    MODEL_ARRAYS = ("lb", "ub", "obj", "binaries", "indptr", "indices", "data",
                    "row_lo", "row_hi")

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_same_model_as_the_cc_master(self, encoding):
        """An FSE master is the FSE CC master in either encoding, attack
        blocks included; the FR PICEF master keeps its xi columns."""
        rng = random.Random(f"fse-cc/{encoding.value}")
        for trial in range(6):
            graph = generate_instance(
                rng.randint(5, 9), rng.randint(1, 2), 0.35, seed=rng.randint(0, 9999)
            )
            pool = build_pool(graph, 3, 3)
            attacks = [Attack.of((), 2)] + [
                Attack.of(rng.sample(range(graph.num_vertices), 2), 2) for _ in range(2)
            ]
            attacks = list(dict.fromkeys(attacks))
            fse = Policy.FIX_SUCCESSFUL
            master = build_master(pool, fse, encoding, attacks)
            cc = build_master(pool, fse, Encoding.CC, attacks)
            assert master.encoding is Encoding.CC
            assert master.xi_vars == {}
            assert master.x_vars == cc.x_vars
            for name in self.MODEL_ARRAYS:
                assert getattr(master.model, name) == getattr(cc.model, name), name
            if encoding is Encoding.PICEF:
                fr = build_master(pool, Policy.FULL_RECOURSE, encoding, attacks)
                assert set(fr.xi_vars) == set(pool.picef_arcs)


class TestWarmMaster:
    def test_grown_master_matches_a_fresh_one(self):
        """A master grown by one attack block re-solves to the value of one
        built afresh with that block."""
        graph = generate_instance(18, 2, 0.15, seed=0)
        pool = build_pool(graph, 3, 3)
        policy, encoding = Policy.FULL_RECOURSE, Encoding.PICEF
        attacks = [Attack.of((), 2)]
        master = build_master(pool, policy, encoding, attacks)
        x = extract_initial_solution(master, master.model.solve().assignment)
        attacks.append(Attack.of(sorted(x.vertices(pool))[:2], 2))
        extend_master_with_attack(master, attacks[-1])
        grown = master.model.solve()
        fresh = build_master(pool, policy, encoding, attacks).model.solve()
        assert grown.int_objective() == fresh.int_objective()
