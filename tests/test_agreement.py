"""Agreement of the solver variants on instances beyond the exhaustive
oracle's reach: every cut and bb variant returns the same robust value,
fix-successful never beats full recourse, and each worst attack replays."""

from hypothesis import given, settings
from hypothesis import strategies as st

from robustkep import (
    Encoding,
    Policy,
    RobustConfig,
    build_pool,
    generate_instance,
    solve_robust,
)
from robustkep.solvers import brute_force_recourse

VARIANTS = [
    (Encoding.CC, "cut", True),
    (Encoding.CC, "cut", False),
    (Encoding.PICEF, "cut", True),
    (Encoding.PICEF, "cut", False),
    (Encoding.CC, "bb", False),
    (Encoding.PICEF, "bb", False),
]


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(
    num_vertices=st.integers(12, 16),
    num_ndds=st.integers(1, 2),
    density=st.sampled_from([0.2, 0.25]),
    budget=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_variants_agree(num_vertices, num_ndds, density, budget, seed):
    graph = generate_instance(num_vertices - num_ndds, num_ndds, density, seed=seed)
    pool = build_pool(graph, 3, 3)
    value = {}
    for policy in Policy:
        for encoding, method, lifting in VARIANTS:
            cfg = RobustConfig(
                3, 3, budget, policy=policy, encoding=encoding,
                subproblem_method=method, lifting=lifting,
            )
            r = solve_robust(graph, cfg)
            assert r.status == "optimal"
            replay = brute_force_recourse(r.initial, r.worst_attack, pool, graph, policy)
            assert replay == r.value
            assert value.setdefault(policy, r.value) == r.value
    assert value[Policy.FIX_SUCCESSFUL] <= value[Policy.FULL_RECOURSE]


def test_variants_agree_at_30_vertices():
    """A fixed 30-vertex budget-3 instance, past the hypothesis range: under
    each policy every variant proves the same value, each worst attack
    replays, and fix-successful never beats full recourse."""
    graph = generate_instance(27, 3, 0.1, seed=0)
    pool = build_pool(graph, 3, 3)
    expected = {Policy.FULL_RECOURSE: 14, Policy.FIX_SUCCESSFUL: 12}
    value = {}
    for policy, want in expected.items():
        for encoding, method, lifting in VARIANTS:
            cfg = RobustConfig(
                3, 3, 3, policy=policy, encoding=encoding,
                subproblem_method=method, lifting=lifting,
            )
            r = solve_robust(graph, cfg)
            assert (r.status, r.value) == ("optimal", want)
            replay = brute_force_recourse(r.initial, r.worst_attack, pool, graph, policy)
            assert replay == want
            value[policy] = r.value
    assert value[Policy.FIX_SUCCESSFUL] <= value[Policy.FULL_RECOURSE]
