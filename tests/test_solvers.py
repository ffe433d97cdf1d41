import collections
import dataclasses
import functools
import itertools
import random
import time
import types

import numpy as np
import pytest

from robustkep import (
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
from robustkep import milp, solvers
from robustkep.solvers import (
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


def max_coverage_plan(pool):
    """A maximum-coverage initial solution, like the master would pick."""
    order = sorted(range(len(pool)), key=lambda i: -len(pool.exchange(i).vertices))
    used, chosen = set(), []
    for i in order:
        if not any(v in used for v in pool.exchange(i).vertices):
            chosen.append(i)
            used.update(pool.exchange(i).vertices)
    return KepSolution.of(chosen)


def spy_bb_scores(monkeypatch):
    """Lists that fill as bb searches: ``reached``, each attack the search
    reaches with its ``_blocked`` result, and ``scored``, (attack, value)
    for each attack it solves.  ``_attack_value`` does not take the attack;
    ``_blocked`` runs for it just before, so the attack is ``reached[-1]``'s,
    and the spy checks that the call gets that attack's blocked set."""
    reached, scored = [], []
    real_blocked, real_value = solvers._blocked, solvers._attack_value

    def blocked(initial, u, *args):
        reached.append((u, real_blocked(initial, u, *args)))
        return reached[-1][1]

    def value(rec, blocked, base, *args):
        u, last = reached[-1]
        assert (blocked, base) == last, "scored an attack other than the last one reached"
        scored.append((u, real_value(rec, blocked, base, *args)))
        return scored[-1][1]

    monkeypatch.setattr(solvers, "_blocked", blocked)
    monkeypatch.setattr(solvers, "_attack_value", value)
    return reached, scored


class TestSolveRobust:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("method", ["cut", "bb"])
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
        assert a.stats.n_subproblems == b.stats.n_subproblems

    def test_time_limit(self):
        g = generate_instance(8, 2, 0.4, seed=5)
        cfg = RobustConfig(3, 3, 2, time_limit=1e-6)
        assert solve_robust(g, cfg).status == "timelimit"

    @pytest.mark.parametrize("method", ["cut", "bb"])
    def test_attacks_count_only_added_blocks(self, monkeypatch, method):
        """Each plan the master tree checks takes one attack block exactly
        when its attack value s falls below its master value z̄; the seed
        block of the empty attack is no attack."""
        masters, checks = [], []
        real_build, real_solve = solvers.build_master, milp.MilpModel.solve

        def build_master(*args, **kwargs):
            masters.append(real_build(*args, **kwargs))
            return masters[-1]

        def solve(model, time_limit=None, lazy=None, **kwargs):
            master = masters[-1] if masters and masters[-1].model is model else None

            def checking(x):
                blocks = len(master.blocks)
                s = lazy(x)
                checks.append((s < round(x[master.z_var]), len(master.blocks) - blocks))
                return s

            hook = checking if master is not None else lazy
            return real_solve(model, time_limit, lazy=hook, **kwargs)

        monkeypatch.setattr(solvers, "build_master", build_master)
        monkeypatch.setattr(milp.MilpModel, "solve", solve)
        seen = []
        for seed, budget, encoding in itertools.product(range(3), (1, 2), ALL_ENCODINGS):
            checks.clear()
            cfg = RobustConfig(3, 3, budget, encoding=encoding, subproblem_method=method)
            st = solve_robust(small_instance(seed), cfg).stats
            assert st.n_subproblems == len(checks)
            assert all(added == below for below, added in checks)
            assert st.n_attacks == sum(added for _, added in checks)
            seen += checks
        assert {below for below, _ in seen} == {True, False}  # both cases met
        cfg = RobustConfig(3, 3, 2, subproblem_method=method, time_limit=1e-6)
        result = solve_robust(small_instance(0), cfg)
        assert result.status == "timelimit"
        assert (result.stats.n_subproblems, result.stats.n_attacks) == (0, 0)

    @pytest.mark.parametrize("method", ["cut", "bb"])
    def test_plan_worth_more_than_its_node(self, monkeypatch, method):
        """At a master node where branching fixed block binaries to 0, a
        plan can be worth more than its master value z̄ there.  This master
        starts as such a node: it must take all three 2-cycles, and its seed
        block may cover only the third, so z̄ = 2, while under B = 1 the plan
        keeps two cycles, s = 4.  The check certifies the plan at 4 and adds
        no block, which closes the node."""
        graph = CompatibilityGraph(6, 0, ((0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)))
        real_build = solvers.build_master
        z_bars = []

        def build_master(*args, **kwargs):
            master = real_build(*args, **kwargs)
            model = master.model
            for x in master.x_vars.values():
                model.set_bounds(x, 1, 1)
            first = max(master.x_vars.values()) + 1
            y = [v for v in range(first, model.num_variables) if v in model.binaries]
            for v in y[:2]:  # the seed block's y of the cycles (0, 1) and (2, 3)
                model.set_bounds(v, 0, 0)
            real_solve = model.solve

            def solve(time_limit=None, cutoff=None, lazy=None):
                def hook(x):
                    z_bars.append(round(x[master.z_var]))
                    return lazy(x)
                return real_solve(time_limit, cutoff=cutoff, lazy=hook)

            model.solve = solve
            return master

        monkeypatch.setattr(solvers, "build_master", build_master)
        result = solve_robust(graph, RobustConfig(2, 0, 1, subproblem_method=method))
        assert z_bars == [2]
        assert (result.status, result.value) == ("optimal", 4)
        assert (result.stats.n_subproblems, result.stats.n_attacks) == (1, 0)
        pool = build_pool(graph, 2, 0)
        assert len(result.initial.exchanges(pool)) == 3
        replay = brute_force_recourse(
            result.initial, result.worst_attack, pool, graph, Policy.FULL_RECOURSE
        )
        assert replay == 4

    @pytest.mark.parametrize("method", ["cut", "bb"])
    def test_attacker_time_limit_keeps_master_nodes(self, monkeypatch, method):
        """A time limit met inside an attacker call ends the master's solve
        as its own limit would: the solve returns the plan certified so far,
        and the master's nodes count in ``nodes["master"]``."""
        masters, outcomes = [], []
        real_build, real_solve = solvers.build_master, milp.MilpModel.solve
        name = {"cut": "solve_attack_subproblem_cuttingplane",
                "bb": "solve_attack_subproblem_bb"}[method]
        real_attack, calls = getattr(solvers, name), itertools.count(1)

        def build_master(*args, **kwargs):
            masters.append(real_build(*args, **kwargs))
            return masters[-1]

        def solve(model, *args, **kwargs):
            out = real_solve(model, *args, **kwargs)
            if model is masters[-1].model:
                outcomes.append(out)
            return out

        def attack(*args, **kwargs):
            if next(calls) == 2:
                return None
            return real_attack(*args, **kwargs)

        monkeypatch.setattr(solvers, "build_master", build_master)
        monkeypatch.setattr(milp.MilpModel, "solve", solve)
        monkeypatch.setattr(solvers, name, attack)
        g = small_instance(1)  # three plans checked when untimed
        result = solve_robust(g, RobustConfig(3, 3, 1, subproblem_method=method))
        assert result.status == "timelimit"
        # the master checked two plans; the second call returned None
        # before the attacker ran, so it made one attacker call
        assert next(calls) == 3 and result.stats.n_subproblems == 1
        [outcome] = outcomes
        assert outcome.status is milp.SolveStatus.TIME_LIMIT
        assert 0 < outcome.nodes_explored == result.stats.nodes["master"]
        assert result.value <= outcome.best_bound < float("inf")
        replay = brute_force_recourse(
            result.initial, result.worst_attack, build_pool(g, 3, 3), g,
            Policy.FULL_RECOURSE,
        )
        assert replay == result.value

    @pytest.mark.parametrize("stop_at", [2, 3, None])
    def test_recourse_time_limit_keeps_every_node(self, monkeypatch, stop_at):
        """A time limit met in a recourse solve inside the cut attacker stops
        the attacker's tree as its own limit would: every node LP that ran,
        the master's, the attacker's and the recourse's, counts in its
        role's ``nodes``."""
        node_lps = []
        real_node_lp, real_solve = milp._warm_node_lp, solvers._solve
        calls = itertools.count(1)

        def node_lp(*args, **kwargs):
            solve_node = real_node_lp(*args, **kwargs)

            def counting(*node_args):
                node_lps.append(node_args)
                return solve_node(*node_args)

            return counting

        def solve(model, role, *args, **kwargs):
            out = real_solve(model, role, *args, **kwargs)
            if role == "recourse" and next(calls) == stop_at:  # it ran, then met the limit
                return dataclasses.replace(out, status=milp.SolveStatus.TIME_LIMIT)
            return out

        monkeypatch.setattr(milp, "_warm_node_lp", node_lp)
        monkeypatch.setattr(solvers, "_solve", solve)
        result = solve_robust(generate_instance(18, 2, 0.15, seed=0), RobustConfig(3, 3, 3))
        assert result.status == ("optimal" if stop_at is None else "timelimit")
        assert sum(result.stats.nodes.values()) == len(node_lps)

    def test_bb_counts_every_node_lp(self, monkeypatch):
        """Under bb every node LP that ran is the master's or the recourse's,
        and counts in its role's ``nodes``; the attacker's are search nodes."""
        node_lps = []
        real_node_lp = milp._warm_node_lp

        def node_lp(*args, **kwargs):
            solve_node = real_node_lp(*args, **kwargs)

            def counting(*node_args):
                node_lps.append(node_args)
                return solve_node(*node_args)

            return counting

        monkeypatch.setattr(milp, "_warm_node_lp", node_lp)
        cfg = RobustConfig(3, 3, 2, subproblem_method="bb")
        nodes = solve_robust(generate_instance(18, 2, 0.15, seed=0), cfg).stats.nodes
        assert nodes["recourse"] > 0 and nodes["attacker"] > 0
        assert nodes["master"] + nodes["recourse"] == len(node_lps)

    def test_bad_method_rejected(self):
        for method in ("simplex", "oracle"):
            with pytest.raises(ValueError, match=f"subproblem method '{method}'"):
                RobustConfig(3, 3, 1, subproblem_method=method)

    @pytest.mark.parametrize("field, value", [("policy", "fse"), ("encoding", "picef")])
    def test_string_policy_or_encoding_rejected(self, field, value):
        # a string is not identical to any member, so the builders' ``is``
        # tests would read "fse" as full recourse and "picef" as CC
        with pytest.raises(ValueError, match=f"unknown {field} '{value}'"):
            RobustConfig(3, 3, 2, **{field: value})

    def test_time_counts_pool_enumeration(self, monkeypatch):
        now = [0.0]
        clock = types.SimpleNamespace(perf_counter=lambda: now[0])
        monkeypatch.setattr(solvers, "time", clock)
        real_build_pool = solvers.build_pool

        def slow_build_pool(*args):
            now[0] += 5.0  # enumeration alone outlasts the limit
            return real_build_pool(*args)

        monkeypatch.setattr(solvers, "build_pool", slow_build_pool)
        result = solve_robust(CHAIN_GRAPH, RobustConfig(3, 3, 1, time_limit=1.0))
        assert result.status == "timelimit"
        assert result.stats.time_total >= 5.0

    @pytest.mark.parametrize("limit", [float("nan"), 0.0, -1.0, True, "5"])
    def test_bad_time_limit_rejected(self, limit):
        # True would read as a 1 s limit, and "5" failed `>` with a TypeError
        with pytest.raises(ValueError, match="time limit must be a positive"):
            RobustConfig(3, 3, 1, time_limit=limit)

    @pytest.mark.parametrize("limit", [2, 2.5, np.float64(2.5)])
    def test_real_time_limit_accepted(self, limit):
        assert RobustConfig(3, 3, 1, time_limit=limit).time_limit == limit

    @pytest.mark.parametrize("value", ["off", None, 1])
    def test_non_bool_lifting_rejected(self, value):
        # "off" is truthy, so the cut attacker would lift its cuts
        with pytest.raises(ValueError, match="lifting must be a bool"):
            RobustConfig(3, 3, 1, lifting=value)

    @pytest.mark.parametrize(
        "field, value",
        [("budget", 1.5), ("budget", True), ("max_cycle_len", 3.0),
         ("max_chain_len", "3"), ("max_chain_len", False), ("budget", -1)],
    )
    def test_non_integer_length_or_budget_rejected(self, field, value):
        # bb slices with the budget and cut would read 1.5 as 1
        kwargs = {"max_cycle_len": 3, "max_chain_len": 3, "budget": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
            RobustConfig(**kwargs)

    @pytest.mark.parametrize("method", ["cut", "bb"])
    @pytest.mark.parametrize("stop_at", [1, 2, 3, "after-block"])
    def test_model_time_limit_ends_solve(self, monkeypatch, method, stop_at):
        """The model solve numbered ``stop_at`` (master, then attacker or
        recourse) hits its limit on a clock that ticks once per reading.
        "after-block" gives the master a limit on a clock that moves only
        when the master takes an attack block, so the limit fires at the
        master's first node after its first block, and the solve returns
        the plan that the attacker certified."""
        ticks = itertools.count()
        blocks = []

        def now():
            return float(len(blocks) if stop_at == "after-block" else next(ticks))

        monkeypatch.setattr(milp, "time", types.SimpleNamespace(perf_counter=now))
        real_solve = milp.MilpModel.solve
        real_extend = solvers.extend_master_with_attack
        calls = itertools.count(1)

        def solve(model, time_limit=None, **kwargs):
            n = next(calls)
            if n == stop_at or (stop_at == "after-block" and n == 1):
                time_limit = 0.5  # stops before the root node, or after a block
            return real_solve(model, time_limit, **kwargs)

        def extend(master, u):
            blocks.append(u)
            return real_extend(master, u)

        monkeypatch.setattr(milp.MilpModel, "solve", solve)
        monkeypatch.setattr(solvers, "extend_master_with_attack", extend)
        cfg = RobustConfig(3, 3, 1, subproblem_method=method)
        result = solve_robust(CHAIN_GRAPH, cfg)
        assert result.status == "timelimit"
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        replay = brute_force_recourse(
            result.initial, result.worst_attack, pool, CHAIN_GRAPH, cfg.policy
        )
        assert replay == result.value
        if stop_at == "after-block":
            assert len(blocks) == result.stats.n_attacks == 1
            assert result.value > 0 and result.exchanges


def small_instance(seed):
    return generate_instance(8, 1, 0.35, seed=seed)


@functools.lru_cache(maxsize=None)
def robust_optimum(seed, policy, budget):
    return brute_force_robust(small_instance(seed), 3, 3, budget, policy)[0]


@pytest.fixture
def cutoff_paths(monkeypatch):
    """Counts the solves that a cutoff ended ``INFEASIBLE``, by model sense,
    of the solves that take a lazy hook too: "max" is a master tree that
    finds no plan better than the empty plan, its cutoff, which happens
    exactly when the robust value is 0.  "resolved" counts
    the attacker nodes whose lazy hook added a cut, which ``MilpModel.solve``
    then solves again; the master ("max") nodes that took a block are not
    counted."""
    taken = collections.Counter()
    real_solve = milp.MilpModel.solve

    def solve(model, time_limit=None, cutoff=None, lazy=None, **kwargs):
        def counting(x):
            rows = model.num_rows
            value = lazy(x)
            taken["resolved"] += model.sense == "min" and model.num_rows > rows
            return value

        hook = None if lazy is None else counting
        out = real_solve(model, time_limit, cutoff=cutoff, lazy=hook, **kwargs)
        ended = out.status is milp.SolveStatus.INFEASIBLE
        if lazy is not None and cutoff is not None and ended:
            taken[model.sense] += 1
        return out

    monkeypatch.setattr(milp.MilpModel, "solve", solve)
    return taken


class TestCutoffPaths:
    """The master takes a cutoff and both the master and the cut attacker a
    lazy hook; the paths where the cutoff leaves nothing to find, and where
    the attacker's hook cuts a node and solves it again, keep values and
    certificates."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("method", ["cut", "bb"])
    def test_paths_taken_and_values_exact(self, cutoff_paths, method, encoding, policy):
        zero_cells = 0
        for seed in range(12):
            g = small_instance(seed)
            pool = build_pool(g, 3, 3)
            for budget in (1, 2):
                cfg = RobustConfig(3, 3, budget, policy, encoding, method)
                r = solve_robust(g, cfg)
                assert r.status == "optimal"
                assert r.value == robust_optimum(seed, policy, budget)
                replay = brute_force_recourse(r.initial, r.worst_attack, pool, g, policy)
                assert replay == r.value
                zero_cells += r.value == 0
        assert cutoff_paths["max"] == zero_cells >= 1, "no cell of robust value 0"
        if method == "cut":
            assert cutoff_paths["resolved"] >= 1, "no attacker node was cut and re-solved"

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("method", ["cut", "bb"])
    def test_one_attacker_call_per_plan(self, monkeypatch, method, encoding, policy):
        """A robust solve makes one master solve, with the empty plan's
        value 0 as its cutoff, and attacks no plan twice."""
        attacked, masters, cutoffs = [], [], []
        real_build, real_solve = solvers.build_master, milp.MilpModel.solve

        def build_master(*args, **kwargs):
            handle = real_build(*args, **kwargs)
            masters.append(handle.model)
            return handle

        def solve(model, time_limit=None, cutoff=None, **kwargs):
            if model in masters:
                cutoffs.append(cutoff)
            return real_solve(model, time_limit, cutoff=cutoff, **kwargs)

        def recording(real):
            def attack(initial, *args, **kwargs):
                attacked.append(initial)
                return real(initial, *args, **kwargs)
            return attack

        monkeypatch.setattr(solvers, "build_master", build_master)
        monkeypatch.setattr(milp.MilpModel, "solve", solve)
        for name in ("solve_attack_subproblem_cuttingplane", "solve_attack_subproblem_bb"):
            monkeypatch.setattr(solvers, name, recording(getattr(solvers, name)))
        for seed in range(12):
            for budget in (1, 2):
                for seen in (attacked, masters, cutoffs):
                    seen.clear()
                cfg = RobustConfig(3, 3, budget, policy, encoding, method)
                result = solve_robust(small_instance(seed), cfg)
                assert result.status == "optimal"
                assert cutoffs == [0]
                assert len(set(attacked)) == len(attacked), "a plan was attacked twice"
                assert len(attacked) == result.stats.n_subproblems > 0

    @pytest.mark.parametrize("method", ["cut", "bb"])
    def test_cold_path_agrees(self, monkeypatch, cutoff_paths, method):
        """Robust values do not depend on warm starts: with every node LP
        started from a cleared solver, the values match the warm run's."""
        cells = [(seed, policy) for seed in (0, 1, 2) for policy in ALL_POLICIES]
        cfgs = [RobustConfig(3, 3, 2, policy, subproblem_method=method)
                for _, policy in cells]
        warm = [solve_robust(small_instance(seed), cfg).value
                for (seed, _), cfg in zip(cells, cfgs)]
        real_node_lp = milp._warm_node_lp
        cold_lps = []

        def cold_node_lp(c, model, resume=False):
            solve_node = real_node_lp(c, model, resume)

            def node(lb, ub, prune_at):
                model._lp.clearSolver()
                cold_lps.append(1)
                return solve_node(lb, ub, prune_at)

            return node

        monkeypatch.setattr(milp, "_warm_node_lp", cold_node_lp)
        cutoff_paths.clear()
        cold = [solve_robust(small_instance(seed), cfg).value
                for (seed, _), cfg in zip(cells, cfgs)]
        assert cold == warm
        assert cold_lps
        assert cutoff_paths["max"] >= 1  # the cold node LPs saw cutoffs too


class TestSubproblemSolvers:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_cutting_plane_exact_value(self, encoding):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        s, u = solve_attack_subproblem_cuttingplane(
            x, pool, Policy.FULL_RECOURSE, encoding, 1
        )
        assert s == 1
        assert brute_force_recourse(x, u, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE) == 1

    def test_stalled_cut_loop_raises(self, monkeypatch):
        """A recourse that keeps returning one cut solution with a value its
        cut does not hold would repeat that cut forever; the loop raises."""
        real = solvers.extract_cut_solution
        first = []

        def inflated(rec, outcome):
            if not first:
                first.append(real(rec, outcome)[0])
            return first[0], 1000

        monkeypatch.setattr(solvers, "extract_cut_solution", inflated)
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        with pytest.raises(RuntimeError, match="cut loop stalled at attack"):
            solve_attack_subproblem_cuttingplane(
                full_chain_solution(pool), pool, Policy.FULL_RECOURSE,
                Encoding.CC, 1, clock=solvers._Clock(3.0),
            )

    @pytest.mark.parametrize("method", ["cut", "bb"])
    def test_spent_clock_returns_none(self, method):
        """An attacker called directly with a clock that has run out returns
        None, having started its search but explored no node."""
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        stats = solvers.RobustStats()
        clock = solvers._Clock(1.0)
        clock.start -= 2.0
        if method == "cut":
            out = solve_attack_subproblem_cuttingplane(
                x, pool, Policy.FULL_RECOURSE, Encoding.CC, 1, clock=clock, stats=stats
            )
        else:
            out = solve_attack_subproblem_bb(
                x, pool, Policy.FULL_RECOURSE, 1, clock=clock, stats=stats
            )
        assert out is None
        assert (stats.n_subproblems, sum(stats.nodes.values())) == (1, 0)

    def test_bb_exact_value(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        s, u = solve_attack_subproblem_bb(
            x, pool, Policy.FULL_RECOURSE, 1
        )
        assert s == 1
        assert brute_force_recourse(x, u, pool, CHAIN_GRAPH, Policy.FULL_RECOURSE) == 1

    @pytest.mark.parametrize("method", ["cut", "bb"])
    def test_stage2_time_is_charged(self, method):
        """Either attacker charges its search to the attacker, less the
        recourse solves inside it, which charge the recourse; in a robust
        solve the master's own seconds join them, within ``time_total``."""
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        stats = solvers.RobustStats()
        t0 = time.perf_counter()
        if method == "cut":
            solve_attack_subproblem_cuttingplane(
                x, pool, Policy.FULL_RECOURSE, Encoding.CC, 1, stats=stats
            )
        else:
            solve_attack_subproblem_bb(x, pool, Policy.FULL_RECOURSE, 1, stats=stats)
        elapsed = time.perf_counter() - t0
        seconds = stats.seconds
        assert min(seconds.values()) >= 0
        assert seconds["attacker"] > 0 and seconds["recourse"] > 0
        assert seconds["attacker"] + seconds["recourse"] <= elapsed
        cfg = RobustConfig(3, 3, 1, subproblem_method=method)
        stats = solve_robust(CHAIN_GRAPH, cfg).stats
        assert min(stats.seconds.values()) >= 0 and stats.seconds["attacker"] > 0
        assert sum(stats.seconds.values()) <= stats.time_total

    def test_budget_zero(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        x = full_chain_solution(pool)
        s, u = solve_attack_subproblem_cuttingplane(
            x, pool, Policy.FULL_RECOURSE, Encoding.CC, 0
        )
        assert s == 3 and u.attacked == frozenset()

    def test_empty_initial(self):
        pool = build_pool(CHAIN_GRAPH, 3, 3)
        s, _ = solve_attack_subproblem_cuttingplane(
            KepSolution.empty(),
            pool,
            Policy.FULL_RECOURSE,
            Encoding.CC,
            1,
        )
        assert s == 0

    @pytest.mark.parametrize("lifting", [True, False])
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_cut_hook_meets_each_attack_once(self, monkeypatch, encoding, policy, lifting):
        """Once the hook values an attack at r, the incumbent is at most r
        and the cuts hold Z >= r there, so no later node reaches the hook on
        the same attack: no attack's recourse is built twice in a call."""
        attacks = []
        real = solvers.build_recourse

        def build_recourse(initial, u, *args, **kwargs):
            attacks.append(u)
            return real(initial, u, *args, **kwargs)

        monkeypatch.setattr(solvers, "build_recourse", build_recourse)
        rng = random.Random(f"{encoding.value}/{policy.value}/{lifting}")
        most = 0
        for _ in range(3):
            n, ndds = rng.randint(10, 14), rng.randint(0, 2)
            g = generate_instance(n - ndds, ndds, 0.3, seed=rng.randint(0, 9999))
            pool = build_pool(g, 3, 3)
            x = max_coverage_plan(pool)
            for budget in (1, 2, 3):
                attacks.clear()
                s, _ = solve_attack_subproblem_cuttingplane(
                    x, pool, policy, encoding, budget, lifting=lifting
                )
                assert len(set(attacks)) == len(attacks), "the hook met an attack twice"
                assert s == brute_force_attack(x, pool, g, policy, budget)[0]
                most = max(most, len(attacks))
        assert most >= 3  # some calls meet several attacks

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_bb_solves_each_attack_once(self, monkeypatch, policy, budget):
        _, scored = spy_bb_scores(monkeypatch)
        for seed in range(4):
            g = generate_instance(10, 2, 0.3, seed=seed)
            pool = build_pool(g, 3, 3)
            x = max_coverage_plan(pool)
            expected, _ = brute_force_attack(x, pool, g, policy, budget)
            scored.clear()
            s, u = solve_attack_subproblem_bb(x, pool, policy, budget)
            attacks = [a for a, _ in scored]
            assert len(set(attacks)) == len(attacks), "an attack was solved twice"
            assert brute_force_recourse(x, u, pool, g, policy) == s
            assert s == expected

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("budget", [1, 2])
    def test_bb_scores_on_one_model(self, monkeypatch, policy, budget):
        """bb re-bounds one recourse model per call from attack to attack:
        every value it scores is exact, so no bound of an earlier attack
        survives."""
        _, scored = spy_bb_scores(monkeypatch)
        rebounded = 0  # the attacks scored after another one in the same call
        for seed in range(8):
            g = generate_instance(6 + seed % 4, 1 + seed % 2, 0.35, seed=seed)
            pool = build_pool(g, 3, 3)
            x = max_coverage_plan(pool)
            scored.clear()
            solve_attack_subproblem_bb(x, pool, policy, budget)
            rebounded += len(scored) - 1
            for u, val in scored:
                assert val == brute_force_recourse(x, u, pool, g, policy)
        assert rebounded >= 8

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_bb_skips_only_attacks_worth_the_incumbent(self, monkeypatch, policy):
        """An attack that a known recourse solution rules out is worth at
        least the incumbent of that moment, so skipping it leaves the search
        as it was; and some attacks are ruled out."""
        reached, skipped = [], []  # attacks the search reached; (attack, incumbent)
        real_blocked, real_rules_out = solvers._blocked, solvers._rules_out

        def blocked(initial, u, *args):
            reached.append(u)
            return real_blocked(initial, u, *args)

        def rules_out(known, now, base, target):
            out = real_rules_out(known, now, base, target)
            if out:
                skipped.append((reached[-1], target))
            return out

        monkeypatch.setattr(solvers, "_blocked", blocked)
        monkeypatch.setattr(solvers, "_rules_out", rules_out)
        checked = 0
        for seed in range(6):
            g = generate_instance(8 + seed % 3, 1 + seed % 2, 0.3, seed=seed)
            pool = build_pool(g, 3, 3)
            x = max_coverage_plan(pool)
            for budget in (1, 2, 3):
                skipped.clear()
                s, _ = solve_attack_subproblem_bb(x, pool, policy, budget)
                assert s == brute_force_attack(x, pool, g, policy, budget)[0]
                for u, incumbent in skipped:
                    assert brute_force_recourse(x, u, pool, g, policy) >= incumbent
                checked += len(skipped)
        assert checked > 0

    def test_bb_solves_fewer_attacks_than_it_reaches(self, monkeypatch):
        """On a 20-vertex instance most attacks the search reaches are ruled
        out by a recourse solution bb already holds."""
        reached, scored = spy_bb_scores(monkeypatch)
        g = generate_instance(18, 2, 0.15, seed=0)
        pool = build_pool(g, 3, 3)
        x = max_coverage_plan(pool)
        for policy in ALL_POLICIES:
            reached.clear()
            scored.clear()
            stats = solvers.RobustStats()
            s, u = solve_attack_subproblem_bb(x, pool, policy, 3, stats=stats)
            assert len(scored) < stats.nodes["attacker"]
            assert 2 * len(scored) < len(reached)
            assert brute_force_recourse(x, u, pool, g, policy) == s

    def test_bb_builds_one_recourse_model_per_robust_solve(self, monkeypatch):
        built = []
        real = solvers.build_recourse

        def build_recourse(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(solvers, "build_recourse", build_recourse)
        for policy in ALL_POLICIES:
            built.clear()
            cfg = RobustConfig(3, 3, 2, policy, subproblem_method="bb")
            result = solve_robust(generate_instance(18, 2, 0.15, seed=0), cfg)
            assert result.stats.n_subproblems > 1
            assert len(built) == 1

    def test_bb_two_cycle_dies(self):
        g = CompatibilityGraph(2, 0, ((0, 1), (1, 0)))
        pool = build_pool(g, 2, 0)
        x = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CYCLE, (0, 1)))])
        s, _ = solve_attack_subproblem_bb(
            x, pool, Policy.FULL_RECOURSE, 1
        )
        assert s == 0

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_methods_agree_on_randoms(self, policy, encoding):
        rng = random.Random(f"{policy.value}/{encoding.value}")
        for _ in range(6):
            g = generate_instance(
                rng.randint(3, 6), rng.randint(0, 2), 0.4, seed=rng.randint(0, 9999)
            )
            pool = build_pool(g, 3, 3)
            x = max_coverage_plan(pool)
            expected, _ = brute_force_attack(x, pool, g, policy, 2)
            s_cut, _ = solve_attack_subproblem_cuttingplane(
                x, pool, policy, encoding, 2
            )
            s_bb, _ = solve_attack_subproblem_bb(
                x, pool, policy, 2
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
