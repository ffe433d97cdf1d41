import itertools
import random

import pytest

from robustkep import milp
from robustkep.milp import (
    BINARY,
    CONTINUOUS,
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    MilpModel,
    SolveStatus,
)


def knapsack_model():
    # max 5a + 4b + 3c  s.t.  2a + 3b + c <= 4
    m = MilpModel("max")
    a = m.add_variable(BINARY, obj=5)
    b = m.add_variable(BINARY, obj=4)
    c = m.add_variable(BINARY, obj=3)
    m.add_row([(a, 2), (b, 3), (c, 1)], LESS_EQUAL, 4)
    return m, (a, b, c)


class TestModelBuilding:
    def test_bad_bounds(self):
        m = MilpModel()
        with pytest.raises(ValueError, match="exceeds"):
            m.add_variable(CONTINUOUS, lb=2, ub=1)

    def test_bad_handle(self):
        m = MilpModel()
        m.add_variable(BINARY)
        with pytest.raises(ValueError, match="invalid variable handle"):
            m.add_row([(7, 1.0)], LESS_EQUAL, 1)

    def test_bad_relation(self):
        m = MilpModel()
        v = m.add_variable(BINARY)
        with pytest.raises(ValueError, match="relation"):
            m.add_row([(v, 1.0)], "<", 1)


class TestSolve:
    def test_knapsack(self):
        m, (a, b, c) = knapsack_model()
        out = m.solve()
        assert out.status is SolveStatus.OPTIMAL
        assert out.int_objective() == 8
        assert out.value(a) == 1 and out.value(c) == 1 and out.value(b) == 0

    def test_infeasible(self):
        m = MilpModel("max")
        v = m.add_variable(BINARY, obj=1)
        m.add_row([(v, 1.0)], GREATER_EQUAL, 2)
        assert m.solve().status is SolveStatus.INFEASIBLE

    def test_equality_row(self):
        m = MilpModel("min")
        a = m.add_variable(BINARY, obj=3)
        b = m.add_variable(BINARY, obj=1)
        m.add_row([(a, 1.0), (b, 1.0)], EQUAL, 1)
        out = m.solve()
        assert out.int_objective() == 1
        assert out.value(b) == 1

    def test_continuous_variables(self):
        m = MilpModel("max")
        x = m.add_variable(CONTINUOUS, 0, 10, obj=1)
        m.add_row([(x, 2.0)], LESS_EQUAL, 7)
        out = m.solve()
        assert out.objective == pytest.approx(3.5)

    def test_fixings(self):
        m, (a, b, c) = knapsack_model()
        m.fix(a, 0)
        out = m.solve()
        assert out.int_objective() == 7
        assert out.value(a) == 0

    def test_incremental_rows(self):
        m, (a, b, c) = knapsack_model()
        assert m.solve().int_objective() == 8
        m.add_row([(a, 1.0), (c, 1.0)], LESS_EQUAL, 1)
        assert m.solve().int_objective() == 7

    def test_min_sense(self):
        m = MilpModel("min")
        a = m.add_variable(BINARY, obj=2)
        b = m.add_variable(BINARY, obj=5)
        m.add_row([(a, 1.0), (b, 1.0)], GREATER_EQUAL, 1)
        assert m.solve().int_objective() == 2


def random_model(rng):
    n = rng.randint(1, 15)
    sense = rng.choice(["max", "min"])
    m = MilpModel(sense)
    for _ in range(n):
        m.add_variable(BINARY, obj=rng.randint(-5, 5))
    for _ in range(rng.randint(0, 8)):
        support = rng.sample(range(n), rng.randint(1, min(4, n)))
        coeffs = [(v, rng.randint(-4, 4)) for v in support]
        relation = rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL])
        m.add_row(coeffs, relation, rng.randint(-3, 6))
    return m


def enumerate_optimum(m):
    n = m.num_variables
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        ok = True
        for row in m.rows:
            lhs = sum(coef * bits[var] for var, coef in row.coeffs)
            if row.relation == LESS_EQUAL and lhs > row.rhs + 1e-9:
                ok = False
            elif row.relation == GREATER_EQUAL and lhs < row.rhs - 1e-9:
                ok = False
            elif row.relation == EQUAL and abs(lhs - row.rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        val = sum(c * x for c, x in zip(m.obj, bits))
        if best is None:
            best = val
        elif m.sense == "max":
            best = max(best, val)
        else:
            best = min(best, val)
    return best


@pytest.fixture(params=["warm", "linprog"])
def lp_path(request, monkeypatch):
    """Node LPs on one warm HiGHS instance per solve, or cold ``linprog``."""
    if request.param == "warm" and milp._highs is None:
        pytest.skip("scipy's HiGHS binding is not importable")
    if request.param == "linprog":
        monkeypatch.setattr(milp, "_highs", None)
    return request.param


class TestAgainstEnumeration:
    def test_random_models(self, lp_path):
        rng = random.Random(7)
        for _ in range(60):
            m = random_model(rng)
            expected = enumerate_optimum(m)
            out = m.solve()
            if expected is None:
                assert out.status is SolveStatus.INFEASIBLE
            else:
                assert out.status is SolveStatus.OPTIMAL
                assert out.int_objective() == expected

    def test_determinism(self, lp_path):
        rng = random.Random(11)
        for _ in range(10):
            m = random_model(rng)
            for _ in range(2):  # the second round follows a lazily added row
                first = m.solve()
                second = m.solve()
                assert first.status == second.status
                if first.status is SolveStatus.OPTIMAL:
                    assert first.assignment == second.assignment
                    assert first.nodes_explored == second.nodes_explored
                    assert first.lp_iterations == second.lp_iterations
                support = rng.sample(range(m.num_variables), min(3, m.num_variables))
                m.add_row([(v, 1.0) for v in support], LESS_EQUAL, 1)


class TestLpDump:
    def test_write_lp_mentions_all_parts(self):
        m, _ = knapsack_model()
        text = m.write_lp()
        assert text.startswith("Maximize")
        assert "Subject To" in text and "Binaries" in text and text.endswith("End\n")
