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
    RobustConfig,
    build_pool,
    generate_instance,
    solve_robust,
)
from robustkep.solvers import (
    RobustStats,
    brute_force_attack,
    brute_force_recourse,
    brute_force_robust,
    solve_attack_subproblem_bb,
    solve_attack_subproblem_cuttingplane,
)

CHAIN_GRAPH = CompatibilityGraph(3, 1, ((3, 0), (0, 1), (1, 2), (2, 1)))

ALL_POLICIES = [Policy.FULL_RECOURSE, Policy.FIX_SUCCESSFUL]
ALL_ENCODINGS = [Encoding.CC, Encoding.PICEF]


def full_chain_solution(pool):
    return KepSolution.of(
        [pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))]
    )


class TestSolveRobust:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("method", ["cut", "bb", "oracle"])
    def test_worked_instance_budget_one(self, encoding, method):
        cfg = RobustConfig(3, 3, 1, Policy.FULL_RECOURSE, encoding, method)
        result = solve_robust(CHAIN_GRAPH, cfg)
        assert result.status == "optimal"
        assert result.value == 1

    def test_budget_zero_is_plain_kep(self):
        cfg = RobustConfig(3, 3, 0)
        assert solve_robust(CHAIN_GRAPH, cfg).value == 3

    def test_budget_covers_all_pairs(self):
        cfg = RobustConfig(3, 3, 4)
        assert solve_robust(CHAIN_GRAPH, cfg).value == 0

    def test_worst_attack_certifies_value(self):
        cfg = RobustConfig(3, 3, 1)
        result = solve_robust(CHAIN_GRAPH, cfg)
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        achieved = brute_force_recourse(
            result.initial, result.worst_attack, pool, CHAIN_GRAPH, cfg.policy
        )
        assert achieved == result.value

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_value_zero_attack_certifies_plan(self, encoding):
        g = generate_instance(5, 1, 0.4, seed=0)
        cfg = RobustConfig(3, 3, 1, Policy.FULL_RECOURSE, encoding)
        result = solve_robust(g, cfg)
        assert result.value == 0
        pool = build_pool(g, 3, 3)
        achieved = brute_force_recourse(
            result.initial, result.worst_attack, pool, g, cfg.policy
        )
        assert achieved == 0

    def test_determinism(self):
        cfg = RobustConfig(3, 3, 1, Policy.FIX_SUCCESSFUL, Encoding.PICEF)
        a = solve_robust(CHAIN_GRAPH, cfg)
        b = solve_robust(CHAIN_GRAPH, cfg)
        assert a.value == b.value
        assert a.initial == b.initial
        assert a.stats.master_iterations == b.stats.master_iterations

    def test_time_limit(self):
        g = generate_instance(8, 2, 0.4, seed=5)
        cfg = RobustConfig(3, 3, 2, time_limit=1e-6)
        assert solve_robust(g, cfg).status == "timelimit"

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="subproblem method"):
            RobustConfig(3, 3, 1, subproblem_method="simplex")


class TestSubproblemSolvers:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_cutting_plane_exact_value(self, encoding):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        s, u = solve_attack_subproblem_cuttingplane(
            x, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, encoding, 1, max_chain_len=3
        )
        assert s == 1
        assert brute_force_recourse(x, u, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE) == 1

    def test_bb_exact_value(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        s, u = solve_attack_subproblem_bb(
            x, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, 1, max_chain_len=3
        )
        assert s == 1
        assert brute_force_recourse(x, u, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE) == 1

    def test_bb_early_exit_is_counted(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        full, early = RobustStats(), RobustStats()
        solve_attack_subproblem_bb(
            x, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, 1, max_chain_len=3,
            stats=full,
        )
        s, _ = solve_attack_subproblem_bb(
            x, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, 1, max_chain_len=3,
            early_exit=True, master_value=3, stats=early,
        )
        assert s < 3
        assert early.bb_nodes < full.bb_nodes  # the search stopped early
        assert early.n_subproblems == full.n_subproblems == 1

    def test_budget_zero(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        s, u = solve_attack_subproblem_cuttingplane(
            x, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, Encoding.CC, 0, max_chain_len=3
        )
        assert s == 3 and u.attacked == frozenset()

    def test_empty_initial(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        s, _ = solve_attack_subproblem_cuttingplane(
            KepSolution.empty(),
            pool,
            CHAIN_GRAPH,
            Policy.FULL_RECOURSE,
            Encoding.CC,
            1,
            max_chain_len=3,
        )
        assert s == 0

    def test_bb_two_cycle_dies(self):
        g = CompatibilityGraph(2, 0, ((0, 1), (1, 0)))
        pool = build_pool(g, 2, 0)
        x = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CYCLE, (0, 1)))])
        s, _ = solve_attack_subproblem_bb(
            x, pool, g, Policy.FULL_RECOURSE, 1, max_chain_len=0
        )
        assert s == 0

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_methods_agree_on_randoms(self, policy, encoding):
        rng = random.Random(hash((policy.value, encoding.value)) & 0xFFFF)
        for _ in range(6):
            g = generate_instance(
                rng.randint(3, 6), rng.randint(0, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(g, 3, 3)
            # a maximum-coverage initial solution, like the master would pick
            order = sorted(
                range(len(pool)),
                key=lambda i: -len(pool.exchange(i).vertices),
            )
            used, chosen = set(), []
            for i in order:
                if not any(v in used for v in pool.exchange(i).vertices):
                    chosen.append(i)
                    used.update(pool.exchange(i).vertices)
            x = KepSolution.of(chosen)
            expected, _ = brute_force_attack(x, pool, g, policy, 2)
            s_cut, _ = solve_attack_subproblem_cuttingplane(
                x, pool, g, policy, encoding, 2, max_chain_len=3
            )
            s_bb, _ = solve_attack_subproblem_bb(
                x, pool, g, policy, 2, max_chain_len=3
            )
            assert s_cut == expected
            assert s_bb == expected


class TestBruteForce:
    def test_attack_example(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = KepSolution.of(
            [
                pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0))),
                pool.index_of(Exchange(ExchangeKind.CYCLE, (1, 2))),
            ]
        )
        value, _ = brute_force_attack(x, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, 1)
        assert value == 1

    def test_attack_budget_zero(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        value, u = brute_force_attack(x, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE, 0)
        assert value == 3 and u.attacked == frozenset()

    def test_fse_never_beats_fr(self):
        rng = random.Random(21)
        for _ in range(8):
            g = generate_instance(
                rng.randint(3, 6), rng.randint(0, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(g, 3, 3)
            order = list(range(len(pool)))
            rng.shuffle(order)
            used, chosen = set(), []
            for i in order:
                if not any(v in used for v in pool.exchange(i).vertices):
                    chosen.append(i)
                    used.update(pool.exchange(i).vertices)
            x = KepSolution.of(chosen)
            s_fr, _ = brute_force_attack(x, pool, g, Policy.FULL_RECOURSE, 1)
            s_fse, _ = brute_force_attack(x, pool, g, Policy.FIX_SUCCESSFUL, 1)
            assert s_fse <= s_fr

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_robust_worked_instance(self, policy):
        value, witness = brute_force_robust(CHAIN_GRAPH, 3, 3, 1, policy)
        assert value == 1
        assert witness.is_feasible(build_pool(CHAIN_GRAPH, 3, 3))

    def test_robust_budget_zero(self):
        value, _ = brute_force_robust(CHAIN_GRAPH, 3, 3, 0, Policy.FULL_RECOURSE)
        assert value == 3

    def test_enumeration_cap(self):
        g = generate_instance(7, 2, 0.6, seed=3)
        with pytest.raises(RuntimeError, match="too large"):
            brute_force_robust(g, 3, 3, 1, Policy.FIX_SUCCESSFUL, max_solutions=2)


class TestBudgetMonotonicity:
    def test_worked_instance(self):
        values = [
            solve_robust(CHAIN_GRAPH, RobustConfig(3, 3, b)).value for b in range(5)
        ]
        assert values[0] == 3
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[4] == 0
