"""Solving a random instance robustly, end to end.

Generates a 12-vertex compatibility graph, then compares:
  * the plain maximum coverage (attack budget 0),
  * the robust value under 1 and 2 vertex withdrawals,
  * both recourse policies.

For the budget-1 solve the script also replays the worst attack and shows
which pairs the recourse manages to save.
"""

from robustkep import (
    Encoding,
    Policy,
    RobustConfig,
    build_pool,
    generate_instance,
    solve_robust,
)
from robustkep.solvers import brute_force_recourse

graph = generate_instance(num_pairs=10, num_ndds=2, density=0.3, seed=2024)
pool = build_pool(graph, 3, 3)
print(
    f"instance: {graph.num_pairs} pairs, {graph.num_ndds} NDDs, "
    f"{len(graph.arcs)} arcs, {len(pool.cycles)} cycles, "
    f"{len(pool.chains)} chains"
)
print()

for policy in (Policy.FULL_RECOURSE, Policy.FIX_SUCCESSFUL):
    values = []
    for budget in (0, 1, 2):
        cfg = RobustConfig(
            max_cycle_len=3,
            max_chain_len=3,
            budget=budget,
            policy=policy,
            encoding=Encoding.PICEF,
            subproblem_method="cut",
        )
        result = solve_robust(graph, cfg)
        values.append(result.value)
    print(f"{policy.value}: values for budgets 0,1,2 -> {values}")
print()

cfg = RobustConfig(3, 3, 1, Policy.FULL_RECOURSE, Encoding.PICEF, "cut")
result = solve_robust(graph, cfg)
print(f"budget 1, full recourse: guaranteed {result.value} transplants")
print("planned exchanges:")
for e in result.initial.exchanges(pool):
    print(f"  {e.kind.value}: {' -> '.join(str(v) for v in e.vertices)}")
print(f"worst attack: withdraw {sorted(result.worst_attack.attacked)}")
achieved = brute_force_recourse(
    result.initial, result.worst_attack, pool, graph, cfg.policy
)
print(f"recourse after that attack still saves {achieved} planned pairs")
st = result.stats
print(
    f"(plans checked by the master tree: {st.n_subproblems}, attacks "
    f"registered: {st.n_attacks}, "
    f"{st.time_total:.2f}s)"
)
