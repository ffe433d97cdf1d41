"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line on
success (visible with ``pytest -s`` or in captured output on failure).
"""

import itertools
import random
import time

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
from robustkep.formulations import (
    add_interdiction_cut,
    build_recourse,
    build_subproblem,
    extract_attack,
    extract_cut_solution,
)
from robustkep.milp import (
    BINARY,
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    MilpModel,
    SolveStatus,
)
from robustkep.bench import shifted_geometric_mean
from robustkep.solvers import brute_force_robust

ALL_POLICIES = [Policy.FULL_RECOURSE, Policy.FIX_SUCCESSFUL]
ALL_ENCODINGS = [Encoding.CC, Encoding.PICEF]

WORKED_GRAPH = CompatibilityGraph(3, 1, ((3, 0), (0, 1), (1, 2), (2, 1)))


@pytest.fixture(scope="session")
def suite():
    """50 seeded instances (<= 10 vertices) with their exact robust values."""
    cases = []
    for seed in range(50):
        rng = random.Random(1000 + seed)
        n_pairs, n_ndds = rng.randint(4, 7), rng.randint(0, 2)
        graph = generate_instance(n_pairs, n_ndds, 0.35, seed=1000 + seed)
        L, B = seed % 4, seed % 3
        oracle = {
            policy: brute_force_robust(graph, 3, L, B, policy)[0]
            for policy in ALL_POLICIES
        }
        cases.append({"graph": graph, "L": L, "B": B, "oracle": oracle})
    return cases


def test_criterion_1_oracle_equivalence(suite):
    start = time.perf_counter()
    checked = 0
    for case in suite:
        for policy in ALL_POLICIES:
            for encoding in ALL_ENCODINGS:
                for method in ("cut", "bb"):
                    cfg = RobustConfig(
                        3, case["L"], case["B"], policy, encoding, method
                    )
                    result = solve_robust(case["graph"], cfg)
                    assert result.status == "optimal"
                    assert result.value == case["oracle"][policy]
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"criterion 1: PASS — {checked} solver runs match the exhaustive "
        f"oracle on {len(suite)} instances in {elapsed:.1f}s"
    )


def test_criterion_2_strength_instance():
    pool = build_pool(WORKED_GRAPH, 3, 3)
    x = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))])
    s2 = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CYCLE, (1, 2)))])
    for policy in ALL_POLICIES:
        values = {}
        for encoding in ALL_ENCODINGS:
            sub = build_subproblem(x, pool, policy, encoding, 1)
            add_interdiction_cut(sub, x)
            add_interdiction_cut(sub, s2)
            values[encoding] = sub.model.solve().int_objective()
        assert values[Encoding.CC] == 0
        assert values[Encoding.PICEF] == 1
    print(
        "criterion 2: PASS — against the two-cut registry the relaxation "
        "values are 0 (cycle-chain) and 1 (position-indexed), both policies"
    )


def _random_solution(pool, rng):
    order = list(range(len(pool)))
    rng.shuffle(order)
    used, chosen = set(), []
    for i in order:
        verts = pool.exchange(i).vertices
        if not any(v in used for v in verts):
            chosen.append(i)
            used.update(verts)
    return KepSolution.of(chosen[: rng.randint(0, len(chosen))])


def test_criterion_3_picef_dominates_cc():
    rng = random.Random(2024)
    triples = 0
    while triples < 100:
        graph = generate_instance(
            rng.randint(3, 7), rng.randint(0, 2), 0.35, seed=rng.randint(0, 10**6)
        )
        pool = build_pool(graph, 3, 3)
        if len(pool) == 0:
            continue
        x = _random_solution(pool, rng)
        registry = [x] + [_random_solution(pool, rng) for _ in range(rng.randint(0, 3))]
        budget = rng.randint(1, 2)
        for policy in ALL_POLICIES:
            values = {}
            for encoding in ALL_ENCODINGS:
                sub = build_subproblem(x, pool, policy, encoding, budget)
                for S in registry:
                    add_interdiction_cut(sub, S)
                values[encoding] = sub.model.solve().int_objective()
            assert values[Encoding.PICEF] >= values[Encoding.CC]
        triples += 1
    print(
        "criterion 3: PASS — position-indexed relaxation dominated the "
        "cycle-chain one on 100 random (instance, solution, registry) triples"
    )


def test_criterion_4_policy_ordering():
    gaps = []
    solved = 0
    for seed in range(30):
        graph = generate_instance(17, 3, 0.15, seed=4000 + seed)
        values = {}
        for policy in ALL_POLICIES:
            cfg = RobustConfig(3, 3, 1, policy, Encoding.CC, "cut", time_limit=60)
            result = solve_robust(graph, cfg)
            if result.status != "optimal":
                break
            values[policy] = result.value
        if len(values) < 2:
            continue
        solved += 1
        assert values[Policy.FIX_SUCCESSFUL] <= values[Policy.FULL_RECOURSE]
        gaps.append(values[Policy.FULL_RECOURSE] - values[Policy.FIX_SUCCESSFUL])
    assert solved > 0
    dist = {g: gaps.count(g) for g in sorted(set(gaps))}
    print(
        f"criterion 4: PASS — fixing-successful value never exceeded full "
        f"recourse on {solved}/30 solved 20-vertex instances; gap distribution "
        f"(report only): {dist}"
    )


def _cut_coefficients(sol, pool, initial_pairs, encoding):
    """Canonical (term key -> weight) map of an interdiction cut.

    Chain terms are keyed by the minimal prefix containing the recipient, so
    the same arc inside a chain and inside any of its prefixes share a key.
    """
    coeffs = {}
    for e in sol.exchanges(pool):
        if encoding is Encoding.CC or e.kind is ExchangeKind.CYCLE:
            w = len(set(e.vertices) & initial_pairs)
            if w:
                coeffs[("exchange", e.kind.value, e.vertices)] = w
        else:
            for pos, (i, j) in enumerate(e.arcs, start=1):
                if j in initial_pairs:
                    coeffs[("chain-arc", e.vertices[: pos + 1])] = 1
    return coeffs


def _surviving_restriction(sol, u, pool):
    kept = []
    for e in sol.exchanges(pool):
        if e.kind is ExchangeKind.CYCLE:
            if not u.hits(e):
                kept.append(e.index)
        else:
            # the longest prefix without an attacked vertex, if it holds an arc
            vs = e.vertices
            n = next((k for k, v in enumerate(vs) if v in u.attacked), len(vs))
            if n >= 2:
                kept.append(pool.index_of(Exchange(e.kind, vs[:n])))
    return KepSolution.of(kept)


def test_criterion_5_lifting(suite):
    # part 1: lifted and unlifted runs agree on the robust value
    for case in suite:
        for policy in ALL_POLICIES:
            for encoding in ALL_ENCODINGS:
                cfg = RobustConfig(
                    3, case["L"], case["B"], policy, encoding, "cut", lifting=False
                )
                result = solve_robust(case["graph"], cfg)
                assert result.status == "optimal"
                assert result.value == case["oracle"][policy]
    # part 2: every separated lifted cut dominates the plain cut of its own
    # surviving restriction, coefficient by coefficient
    cuts_checked = 0
    for case in suite[:15]:
        graph, L, B = case["graph"], case["L"], max(case["B"], 1)
        pool = build_pool(graph, 3, L)
        rng = random.Random(len(pool))
        x = _random_solution(pool, rng)
        initial_pairs = x.initial_pairs(pool)
        for policy in ALL_POLICIES:
            for encoding in ALL_ENCODINGS:
                sub = build_subproblem(x, pool, policy, encoding, B)
                add_interdiction_cut(sub, x)
                while True:
                    out = sub.model.solve()
                    z_sub = out.int_objective()
                    u = extract_attack(sub, out)
                    rec = build_recourse(x, u, pool, policy, lifted=True)
                    lifted_sol, r = extract_cut_solution(rec, rec.model.solve())
                    lifted = _cut_coefficients(
                        lifted_sol, pool, initial_pairs, encoding
                    )
                    plain = _cut_coefficients(
                        _surviving_restriction(lifted_sol, u, pool),
                        pool,
                        initial_pairs,
                        encoding,
                    )
                    assert all(
                        key in lifted and plain[key] <= lifted[key] for key in plain
                    )
                    cuts_checked += 1
                    if r > z_sub:
                        add_interdiction_cut(sub, lifted_sol)
                        continue
                    break
    assert cuts_checked > 0
    print(
        f"criterion 5: PASS — lifted runs reproduce every oracle value and "
        f"{cuts_checked} separated lifted cuts dominate their plain "
        f"counterparts coefficient-wise"
    )


def _max_covered_pairs(graph, K, L):
    """Exhaustive maximum number of pairs covered by any feasible solution."""
    pool = build_pool(graph, K, L)
    exchanges = pool.exchanges
    best = 0

    def search(i, used, covered):
        nonlocal best
        best = max(best, covered)
        for k in range(i, len(exchanges)):
            e = exchanges[k]
            if any(v in used for v in e.vertices):
                continue
            gain = sum(1 for v in e.vertices if graph.is_pair(v))
            search(k + 1, used | set(e.vertices), covered + gain)

    search(0, set(), 0)
    return best


def test_criterion_6_budget_monotonicity(suite):
    for case in suite:
        graph, L = case["graph"], case["L"]
        values = []
        for budget in range(5):
            cfg = RobustConfig(3, L, budget, Policy.FULL_RECOURSE, Encoding.CC, "cut")
            result = solve_robust(graph, cfg)
            assert result.status == "optimal"
            values.append(result.value)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == _max_covered_pairs(graph, 3, L)
    print(
        f"criterion 6: PASS — robust value non-increasing over budgets 0..4 "
        f"on all {len(suite)} instances, with the budget-0 value matching the "
        f"exhaustive maximum coverage"
    )


def _random_model(rng):
    """A random 0-1 model, its objective and its rows as (coeffs, relation, rhs)."""
    n = rng.randint(1, 15)
    m = MilpModel(rng.choice(["max", "min"]))
    obj = [rng.randint(-5, 5) for _ in range(n)]
    for c in obj:
        m.add_variable(BINARY, obj=c)
    rows = []
    for _ in range(rng.randint(0, 8)):
        support = rng.sample(range(n), rng.randint(1, min(4, n)))
        rows.append(
            (
                [(v, rng.randint(-4, 4)) for v in support],
                rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL]),
                rng.randint(-3, 6),
            )
        )
        m.add_row(*rows[-1])
    return m, obj, rows


def _enumerate_optimum(m, obj, rows):
    best = None
    for bits in itertools.product((0, 1), repeat=m.num_variables):
        feasible = True
        for coeffs, relation, rhs in rows:
            lhs = sum(coef * bits[var] for var, coef in coeffs)
            if (
                (relation == LESS_EQUAL and lhs > rhs + 1e-9)
                or (relation == GREATER_EQUAL and lhs < rhs - 1e-9)
                or (relation == EQUAL and abs(lhs - rhs) > 1e-9)
            ):
                feasible = False
                break
        if not feasible:
            continue
        val = sum(c * x for c, x in zip(obj, bits))
        if best is None:
            best = val
        else:
            best = max(best, val) if m.sense == "max" else min(best, val)
    return best


def test_criterion_7_milp_engine():
    rng = random.Random(31337)
    for _ in range(200):
        m, obj, rows = _random_model(rng)
        expected = _enumerate_optimum(m, obj, rows)
        out = m.solve()
        if expected is None:
            assert out.status is SolveStatus.INFEASIBLE
        else:
            assert out.status is SolveStatus.OPTIMAL
            assert out.int_objective() == expected
            repeat = m.solve()
            assert repeat.assignment == out.assignment
            assert repeat.nodes_explored == out.nodes_explored
    print(
        "criterion 7: PASS — 200 random 0-1 models match exhaustive "
        "enumeration, with bitwise-identical repeated solves"
    )


def test_criterion_8_shifted_geometric_mean():
    expected = (20 * 30 * 110) ** (1 / 3) - 10  # direct formula evaluation
    assert shifted_geometric_mean([10, 20, 100], 10) == pytest.approx(
        expected, abs=0.01
    )
    assert shifted_geometric_mean([7.25], 3.0) == pytest.approx(7.25)
    assert shifted_geometric_mean([4.0] * 5, 10) == pytest.approx(4.0)
    print(
        "criterion 8: PASS — shifted geometric mean matches the direct "
        "formula and its single/constant-value identities"
    )
