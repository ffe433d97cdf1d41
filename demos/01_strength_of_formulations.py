"""Why the position-indexed encoding gives stronger attacker subproblems.

A small instance: one non-directed donor (vertex 3) feeding a path through
all three pairs, and pairs 1,2 also form a 2-cycle.

    3 -> 0 -> 1 <-> 2

Suppose the planned solution is the full chain (3,0,1,2) and the attacker
may remove one vertex.  The attacker's relaxed subproblem is asked to price
two known fallback plans: the chain itself and the 2-cycle (1,2).

In the cycle-chain encoding an attacked chain is worth nothing, so removing
vertex 1 zeroes both plans at once and the relaxation reports 0.  The
position-indexed encoding still credits the surviving front of the chain,
so no single removal can push it below 1.
"""

from robustkep import (
    CompatibilityGraph,
    Encoding,
    Exchange,
    ExchangeKind,
    KepSolution,
    Policy,
    build_pool,
)
from robustkep.formulations import (
    add_interdiction_cut,
    build_subproblem,
    extract_attack,
)

graph = CompatibilityGraph(3, 1, ((3, 0), (0, 1), (1, 2), (2, 1)))
pool = build_pool(graph, 3, 3)

planned = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CHAIN, (3, 0, 1, 2)))])
fallback = KepSolution.of([pool.index_of(Exchange(ExchangeKind.CYCLE, (1, 2)))])

for policy in (Policy.FULL_RECOURSE, Policy.FIX_SUCCESSFUL):
    print(f"policy: {policy.value}")
    for encoding in (Encoding.CC, Encoding.PICEF):
        sub = build_subproblem(planned, pool, policy, encoding, budget=1)
        add_interdiction_cut(sub, planned)
        add_interdiction_cut(sub, fallback)
        outcome = sub.model.solve()
        attack = extract_attack(sub, outcome)
        print(
            f"  {encoding.value:>5}: relaxation value "
            f"{outcome.int_objective()} at attack {sorted(attack.attacked)}"
        )
    print()

print("The gap (0 vs 1) is what makes the position-indexed subproblem")
print("converge in fewer cutting-plane rounds on chain-heavy instances.")
