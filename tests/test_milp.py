import importlib.machinery
import itertools
import random
import re
import sys
import types
from pathlib import Path

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

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
        assert out.assignment[a] == 1 and out.assignment[c] == 1 and out.assignment[b] == 0

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
        assert out.assignment[b] == 1

    def test_continuous_variables(self):
        m = MilpModel("max")
        x = m.add_variable(CONTINUOUS, 0, 10, obj=1)
        m.add_row([(x, 2.0)], LESS_EQUAL, 7)
        out = m.solve()
        assert out.objective == pytest.approx(3.5)

    def test_fixings(self):
        m, (a, b, c) = knapsack_model()
        m.set_bounds(a, 0, 0)
        out = m.solve()
        assert out.int_objective() == 7
        assert out.assignment[a] == 0

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


def random_model(rng, max_vars=15):
    """A random 0-1 model, its objective and its rows as (coeffs, relation, rhs)."""
    n = rng.randint(1, max_vars)
    sense = rng.choice(["max", "min"])
    m = MilpModel(sense)
    obj = []
    for _ in range(n):
        obj.append(rng.randint(-5, 5))
        m.add_variable(BINARY, obj=obj[-1])
    rows = []
    for _ in range(rng.randint(0, 8)):
        support = rng.sample(range(n), rng.randint(1, min(4, n)))
        coeffs = [(v, rng.randint(-4, 4)) for v in support]
        relation = rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL])
        rows.append((coeffs, relation, rng.randint(-3, 6)))
        m.add_row(*rows[-1])
    return m, obj, rows


def random_knapsack(rng, n):
    """max of positive weights over one to three random <= rows that each
    hold half their coefficient sum: the dual simplex of a node LP in such
    models often stops at the prune threshold, where ``random_model``'s
    rarely do."""
    m = MilpModel("max")
    obj = [rng.randint(1, 9) for _ in range(n)]
    for c in obj:
        m.add_variable(BINARY, obj=c)
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [(v, rng.randint(1, 6)) for v in range(n)]
        rows.append((coeffs, LESS_EQUAL, sum(c for _, c in coeffs) // 2))
        m.add_row(*rows[-1])
    return m, obj, rows


def enumerate_optimum(m, obj, rows):
    """Best objective over the 0-1 points within the model's column bounds."""
    best = None
    ranges = [range(round(lo), round(hi) + 1) for lo, hi in zip(m.lb, m.ub)]
    for bits in itertools.product(*ranges):
        ok = True
        for coeffs, relation, rhs in rows:
            lhs = sum(coef * bits[var] for var, coef in coeffs)
            if relation == LESS_EQUAL and lhs > rhs + 1e-9:
                ok = False
            elif relation == GREATER_EQUAL and lhs < rhs - 1e-9:
                ok = False
            elif relation == EQUAL and abs(lhs - rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        val = sum(c * x for c, x in zip(obj, bits))
        if best is None:
            best = val
        elif m.sense == "max":
            best = max(best, val)
        else:
            best = min(best, val)
    return best


@pytest.fixture(params=["warm"])
def lp_path(request):
    """The one LP path: node LPs on the model's warm HiGHS LP.  The tests
    that take it keep their ``[warm]`` ids from when a cold ``linprog``
    path ran beside it."""
    return request.param


@pytest.fixture
def ticking_clock(monkeypatch):
    """milp's clock reads 0, 1, 2, ... seconds: one tick per reading, so a
    solve with limit t + 0.5 explores t nodes and stops."""
    ticks = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
    monkeypatch.setattr(milp, "time", clock)


class TestTimeLimit:
    def model(self):
        # max 4a + 5b + 7c + 8d + 9e + 11f  s.t.  3a + 4b + 5c + 6d + 7e + 8f <= 15;
        # the optimum 20 takes 41 nodes
        m = MilpModel("max")
        xs = [m.add_variable(BINARY, obj=v) for v in (4, 5, 7, 8, 9, 11)]
        m.add_row(list(zip(xs, (3, 4, 5, 6, 7, 8))), LESS_EQUAL, 15)
        return m

    def test_stops_before_an_incumbent(self, lp_path, ticking_clock):
        """Limit 0 stops before the root, which stays open; 1.5 stops after it."""
        for limit, nodes in ((0, 0), (1.5, 1)):
            out = self.model().solve(limit)
            assert out.status is SolveStatus.TIME_LIMIT
            assert out.objective is None and out.assignment is None
            assert out.nodes_explored == nodes
            assert out.best_bound >= 20  # the root LP bound, inf with it open

    def test_stops_with_an_incumbent(self, lp_path, ticking_clock):
        m = self.model()
        out = m.solve(12.5)
        assert out.status is SolveStatus.TIME_LIMIT
        assert out.nodes_explored == 12
        assert out.objective == 19  # found, but not yet proven or improved
        assert out.objective == sum(c * x for c, x in zip(m.obj, out.assignment))
        assert all(x in (0.0, 1.0) for x in out.assignment)
        assert out.best_bound >= 20 > out.objective


class TestEmptyRow:
    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize(
        "relation, rhs, status",
        [
            (LESS_EQUAL, 1, SolveStatus.OPTIMAL),
            (LESS_EQUAL, -1, SolveStatus.INFEASIBLE),
            (GREATER_EQUAL, 1, SolveStatus.INFEASIBLE),
            (GREATER_EQUAL, 0, SolveStatus.OPTIMAL),
            (EQUAL, 0, SolveStatus.OPTIMAL),
            (EQUAL, 1, SolveStatus.INFEASIBLE),
        ],
    )
    def test_empty_row(self, lp_path, n, relation, rhs, status):
        """A row without variables has activity 0, with or without columns."""
        m = MilpModel("max")
        for _ in range(n):
            m.add_variable(BINARY, obj=1)
        m.add_row([], relation, rhs)
        out = m.solve()
        assert out.status is status
        if status is SolveStatus.OPTIMAL:
            assert out.int_objective() == n


class TestAgainstEnumeration:
    def test_random_models(self, lp_path):
        rng = random.Random(7)
        for _ in range(60):
            m, obj, rows = random_model(rng)
            expected = enumerate_optimum(m, obj, rows)
            out = m.solve()
            if expected is None:
                assert out.status is SolveStatus.INFEASIBLE
            else:
                assert out.status is SolveStatus.OPTIMAL
                assert out.int_objective() == expected

    def test_determinism(self, lp_path):
        rng = random.Random(11)
        for _ in range(10):
            m, _, _ = random_model(rng)
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


def grow_block(m, rng, obj, rows):
    """Append a block the way a master attack block grows a model: new
    columns first, then rows that each reach at least one new column."""
    old = list(range(m.num_variables))
    new = []
    for _ in range(rng.randint(1, 3)):
        obj.append(rng.randint(-5, 5))
        new.append(m.add_variable(BINARY, obj=obj[-1]))
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(new, rng.randint(1, len(new)))
        support += rng.sample(old, rng.randint(0, min(2, len(old))))
        coeffs = [(v, rng.randint(-4, 4)) for v in support]
        relation = rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL])
        rows.append((coeffs, relation, rng.randint(-3, 6)))
        m.add_row(*rows[-1])


def assert_lp_holds(m):
    """The model's live HiGHS LP holds the model: its costs in minimization
    form, its row bounds and its matrix, in whichever format HiGHS keeps it."""
    lp = m._lp.getLp()
    sign = -1.0 if m.sense == "max" else 1.0
    assert (lp.num_col_, lp.num_row_) == (m.num_variables, m.num_rows)
    assert list(lp.col_cost_) == [sign * v for v in m.obj]
    assert (list(lp.row_lower_), list(lp.row_upper_)) == (m.row_lo, m.row_hi)
    held = [[0.0] * m.num_variables for _ in range(m.num_rows)]
    a = lp.a_matrix_
    rowwise = a.format_ == milp._highs.MatrixFormat.kRowwise
    for k in range(len(a.start_) - 1):
        for p in range(a.start_[k], a.start_[k + 1]):
            i, j = (k, a.index_[p]) if rowwise else (a.index_[p], k)
            held[i][j] += a.value_[p]
    model = [[0.0] * m.num_variables for _ in range(m.num_rows)]
    for i in range(m.num_rows):
        for p in range(m.indptr[i], m.indptr[i + 1]):
            model[i][m.indices[p]] += m.data[p]
    assert held == model


def random_bounds(m, rng):
    """Set one to three random variables' bounds to 0, to 1 or back to both."""
    for var in rng.sample(range(m.num_variables), rng.randint(1, min(3, m.num_variables))):
        m.set_bounds(var, *rng.choice([(0, 0), (1, 1), (0, 1)]))


class TestWarmRoot:
    """Each re-solve of a re-bounded model starts its root from the basis the
    previous optimal root ended in; a model that grew starts its next root
    cold.  Values never depend on it."""

    def test_grown_models(self, lp_path):
        rng = random.Random(13)
        for _ in range(25):
            m, obj, rows = random_model(rng, max_vars=6)
            for _ in range(3):
                expected = enumerate_optimum(m, obj, rows)
                out = m.solve()
                assert m.solve() == out  # every field, LP iterations included
                if expected is None:
                    assert out.status is SolveStatus.INFEASIBLE
                else:
                    assert out.status is SolveStatus.OPTIMAL
                    assert out.int_objective() == expected
                random_bounds(m, rng)
                grow_block(m, rng, obj, rows)

    def test_unchanged_model_replays(self, lp_path):
        """A re-solve of an unchanged model starts its root cold again, not
        from the basis the previous solve's last node left."""
        m = TestTimeLimit().model()  # 41 nodes
        out = m.solve()
        assert m.solve() == out

    def test_one_highs_object_per_model(self, monkeypatch):
        built = []
        real = milp._highs._Highs

        def counting():
            built.append(real())
            return built[-1]

        monkeypatch.setattr(milp._highs, "_Highs", counting)
        m, (a, b, c) = knapsack_model()
        obj, rows = [5, 4, 3], [([(a, 2), (b, 3), (c, 1)], LESS_EQUAL, 4)]
        assert m.solve().int_objective() == 8
        assert_lp_holds(m)  # the first fill
        d = m.add_variable(BINARY, obj=6)  # grow
        obj.append(6)
        rows.append(([(c, 1), (d, 1)], LESS_EQUAL, 1))
        m.add_row(*rows[-1])
        assert m.solve().int_objective() == enumerate_optimum(m, obj, rows)
        assert_lp_holds(m)  # growth between solves
        m.set_bounds(a, 0, 0)  # re-bound
        out = m.solve()
        assert out.int_objective() == enumerate_optimum(m, obj, rows)
        assert m.solve() == out  # re-solve
        assert_lp_holds(m)

        def hook(x):  # grows the model once, by a column and a row
            if len(obj) == 4:
                obj.append(-1)
                e = m.add_variable(BINARY, obj=-1)
                rows.append(([(b, 1), (d, 1), (e, -1)], LESS_EQUAL, 0))
                m.add_row(*rows[-1])
            x = list(x) + [0.0] * (len(obj) - len(x))  # new columns at 0
            if violated(rows, x):
                return -float("inf")
            return sum(o * v for o, v in zip(obj, x))

        grown = m.solve(lazy=hook)
        assert len(obj) == 5
        assert grown.int_objective() == enumerate_optimum(m, obj, rows)
        assert_lp_holds(m)  # growth inside a solve
        assert len(built) == 1

    def test_grown_then_rebounded(self, lp_path):
        """Growth clears the recorded basis, so a model re-bounded after it
        grew starts its root cold; re-bounded again after that solve, it
        starts from the grown model's root basis."""
        rng = random.Random(17)
        warm_starts = 0
        for _ in range(25):
            m, obj, rows = random_model(rng, max_vars=6)
            m.solve()
            grow_block(m, rng, obj, rows)
            for rebound in range(2):
                random_bounds(m, rng)
                if rebound == 0:
                    assert m.start_basis is None
                warm_starts += m.start_basis is not None
                expected = enumerate_optimum(m, obj, rows)
                out = m.solve()
                assert m.solve() == out  # every field, LP iterations included
                if expected is None:
                    assert out.status is SolveStatus.INFEASIBLE
                else:
                    assert out.status is SolveStatus.OPTIMAL
                    assert out.int_objective() == expected
        assert warm_starts > 0

    def test_recosted_model_replays(self, lp_path):
        """``set_objective`` warms the next root, as ``set_bounds`` does; the
        live LP takes the new costs, and a re-solve replays bit for bit."""
        rng = random.Random(19)
        warm_starts = 0
        for _ in range(25):
            m, obj, rows = random_model(rng, max_vars=8)
            m.solve()
            for _ in range(3):
                for var in rng.sample(range(m.num_variables), rng.randint(1, m.num_variables)):
                    obj[var] = rng.randint(-5, 5)
                    m.set_objective(var, obj[var])
                warm_starts += m.start_basis is not None
                out = m.solve()
                assert m.solve() == out  # every field, LP iterations included
                assert_lp_holds(m)
        assert warm_starts > 0

    def test_recosted_model_matches_fresh_model(self, lp_path):
        """A model re-costed, and re-bounded, between solves has the optimum
        of a model built afresh with those costs and bounds."""
        rng = random.Random(23)
        for _ in range(25):
            m, obj, rows = random_model(rng, max_vars=8)
            for _ in range(3):
                m.solve()
                for var in rng.sample(range(m.num_variables), rng.randint(1, m.num_variables)):
                    obj[var] = rng.randint(-5, 5)
                    m.set_objective(var, obj[var])
                random_bounds(m, rng)
                fresh = MilpModel(m.sense)
                for c, lo, hi in zip(obj, m.lb, m.ub):
                    fresh.add_variable(BINARY, lo, hi, obj=c)
                for row in rows:
                    fresh.add_row(*row)
                out, expected = m.solve(), fresh.solve()
                assert out.status is expected.status
                if out.status is SolveStatus.OPTIMAL:
                    assert out.int_objective() == expected.int_objective()
                    assert out.int_objective() == enumerate_optimum(m, obj, rows)

    def test_column_arrays_kept_until_growth(self):
        """The cost and bound arrays outlive a solve; the setters write into
        them, and only an added column makes them anew."""
        m, (a, b, c) = knapsack_model()
        m.solve()
        arrays = m._column_arrays()
        m.set_bounds(a, 0, 0)
        m.set_objective(b, 7)
        assert m._column_arrays() is arrays
        assert (arrays[0][b], arrays[1][a], arrays[2][a]) == (-7.0, 0.0, 0.0)
        assert m.solve().int_objective() == 10  # b and c
        m.add_row([(b, 1), (c, 1)], LESS_EQUAL, 1)
        assert m._column_arrays() is arrays
        m.add_variable(BINARY, obj=1)
        assert m._column_arrays() is not arrays
        with pytest.raises(ValueError, match="invalid variable handle"):
            m.set_objective(9, 1)

    def test_infeasible_root_is_not_recorded(self):
        m, (a, b, c) = knapsack_model()
        obj, rows = [5, 4, 3], [([(a, 2), (b, 3), (c, 1)], LESS_EQUAL, 4)]
        m.solve()
        recorded = m.root_basis
        assert recorded is not None
        m.set_bounds(a, 1, 1)
        m.set_bounds(b, 1, 1)  # 2a + 3b > 4: the root LP, started warm, is infeasible
        assert m.start_basis is recorded
        assert m.solve().status is SolveStatus.INFEASIBLE
        assert m.root_basis is recorded
        m.set_bounds(b, 0, 1)  # the next root starts from `recorded`
        assert m.start_basis is recorded
        warm = m.solve()
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.int_objective() == enumerate_optimum(m, obj, rows)


def root_check_model():
    """max z over z <= 2(a + b + c) and 2(a + b + c) <= 3, its rows, the row
    z <= a + b + c held back, and a lazy hook that adds that row when a point
    violates it.  The first integer node, at depth two, is worth 1 under the
    row, and the grown root's bound 1.5 cannot beat that by a whole unit."""
    m = MilpModel("max", integral_objective=True)
    z = m.add_variable(CONTINUOUS, 0, 10, obj=1)
    xs = [m.add_variable(BINARY) for _ in range(3)]
    rows = [([(z, 1)] + [(v, -2) for v in xs], LESS_EQUAL, 0),
            ([(v, 2) for v in xs], LESS_EQUAL, 3)]
    for row in rows:
        m.add_row(*row)
    held = ([(z, 1)] + [(v, -1) for v in xs], LESS_EQUAL, 0)

    def hook(x):
        value = min(x[z], sum(x[v] for v in xs))
        if value < x[z]:
            m.add_row(*held)
        return value

    return m, rows, held, hook


def violated(rows, x):
    """The rows (coeffs, relation, rhs) that the 0-1 point x violates."""
    out = []
    for coeffs, relation, rhs in rows:
        lhs = sum(coef * x[var] for var, coef in coeffs)
        if (relation != GREATER_EQUAL and lhs > rhs + 1e-9) or (
            relation != LESS_EQUAL and lhs < rhs - 1e-9
        ):
            out.append((coeffs, relation, rhs))
    return out


class TestLazy:
    """``solve(lazy=hook)``: the hook values each integer node solution and
    may add rows, or columns and rows, after which the node is solved again."""

    def test_held_back_rows(self, lp_path):
        """Each solve of a model whose hook adds a held-back row only when x
        violates it matches the solve of the model that holds every row."""
        rng = random.Random(23)
        grown = 0
        for _ in range(40):
            full, obj, rows = random_model(rng, max_vars=6)
            m = MilpModel(full.sense)
            for c in obj:
                m.add_variable(BINARY, obj=c)
            held = [row for row in rows if rng.random() < 0.6]
            for row in rows:
                if row not in held:
                    m.add_row(*row)
            worst = -float("inf") if m.sense == "max" else float("inf")

            def hook(x):
                cuts = violated(held, x)
                for row in cuts:
                    held.remove(row)
                    m.add_row(*row)
                return worst if cuts else sum(c * v for c, v in zip(obj, x))

            rows_before = m.num_rows
            out = m.solve(lazy=hook)
            grown += m.num_rows > rows_before
            expected = full.solve()
            assert out.status is expected.status
            assert out.objective == expected.objective
            if out.status is SolveStatus.OPTIMAL:
                assert out.int_objective() == enumerate_optimum(full, obj, rows)
        assert grown >= 10  # most models needed a held-back row

    def test_column_and_row(self, lp_path):
        """max 5a + 4b + 3c: the root point (1, 1, 1) breaks a + b + c <= 2,
        which the hook adds through a new column d >= a + b - 1 and the row
        c + d <= 1; the re-solved root is the second node."""
        m = MilpModel("max")
        a, b, c = (m.add_variable(BINARY, obj=v) for v in (5, 4, 3))
        m.add_row([(a, 1), (b, 1), (c, 1)], LESS_EQUAL, 3)
        seen = []

        def hook(x):
            seen.append(list(x))
            if x[a] + x[b] + x[c] <= 2:
                return 5 * x[a] + 4 * x[b] + 3 * x[c]
            d = m.add_variable(CONTINUOUS, 0.0, 1.0)
            m.add_row([(d, 1), (a, -1), (b, -1)], GREATER_EQUAL, -1)
            m.add_row([(c, 1), (d, 1)], LESS_EQUAL, 1)
            return -float("inf")

        out = m.solve(lazy=hook)
        assert out.status is SolveStatus.OPTIMAL
        assert out.int_objective() == 9
        assert seen[0] == [1.0, 1.0, 1.0]
        assert out.nodes_explored == 2
        assert len(out.assignment) == m.num_variables == 4
        assert out.assignment[:3] == [1.0, 1.0, 0.0]

    def test_root_check_ends_search(self, lp_path, monkeypatch):
        """The first integer node of ``root_check_model`` grows the model, and
        the root check that follows closes every open node, the grown node
        included, so the search ends."""
        lps = []  # per node LP: (after growth, at the root's bounds)
        real = milp._warm_node_lp

        def spy(c, model, resume=False):
            solve_node = real(c, model, resume)

            def node(lb, ub, prune_at):
                lps.append((resume, list(lb) == model.lb and list(ub) == model.ub))
                return solve_node(lb, ub, prune_at)

            return node

        monkeypatch.setattr(milp, "_warm_node_lp", spy)
        m, rows, held, hook = root_check_model()
        out = m.solve(lazy=hook)
        assert lps[0] == (False, True) and (True, True) not in lps[:-1]
        assert lps[-1] == (True, True)  # the grown node was never solved again
        assert out.nodes_explored == len(lps) > 3
        full = root_check_model()[0]
        full.add_row(*held)
        assert out.status is SolveStatus.OPTIMAL is full.solve().status
        assert out.int_objective() == full.solve().int_objective() == 1
        assert enumerate_optimum(full, [1, 0, 0, 0], rows + [held]) == 1

    def test_interrupted_root_check_keeps_a_bound(self, lp_path, ticking_clock):
        """A limit that ends the solve before its pending root check returns
        the incumbent and a finite best bound, between the incumbent's value
        and the first root's bound of 3."""
        m, _, _, hook = root_check_model()
        nodes = m.solve(lazy=hook).nodes_explored - 1  # all but the root check
        m, _, _, hook = root_check_model()
        out = m.solve(nodes + 0.5, lazy=hook)
        assert out.status is SolveStatus.TIME_LIMIT
        assert out.nodes_explored == nodes
        assert out.int_objective() == 1
        assert 1 <= out.best_bound <= 3

    def test_broken_contract_raises(self, lp_path):
        """A hook that adds nothing must not value the point below its
        objective; the solve raises rather than close the node on it."""
        m, _ = knapsack_model()
        with pytest.raises(RuntimeError, match="lazy hook added nothing"):
            m.solve(lazy=lambda x: -100)

    def test_value_above_objective_closes_node(self, lp_path):
        """A hook that adds nothing may value the point above its objective:
        the first integer point, worth 10 more, becomes the incumbent, and
        no node can beat it, since the root's bound is 9 1/3."""
        m, _ = knapsack_model()
        seen = []

        def hook(x):
            value = 5 * x[0] + 4 * x[1] + 3 * x[2]
            seen.append(list(x))
            return value + 10 if len(seen) == 1 else value

        out = m.solve(lazy=hook)
        assert out.status is SolveStatus.OPTIMAL
        assert len(seen) == 1
        assert out.assignment == seen[0]
        assert out.objective == 5 * seen[0][0] + 4 * seen[0][1] + 3 * seen[0][2] + 10

    def test_hook_returning_none_stops_solve(self, lp_path):
        """A hook that returns ``None`` ends the solve as a time limit does:
        its node stays open, so the best bound stays finite."""
        m, _ = knapsack_model()
        out = m.solve(lazy=lambda x: None)
        assert out.status is SolveStatus.TIME_LIMIT
        assert out.objective is None
        assert 8 <= out.best_bound < float("inf")


class TestCutoff:
    """``cutoff`` seeds the incumbent value: only strictly better solutions
    are searched, and ``INFEASIBLE`` means none exists."""

    @pytest.mark.parametrize("integral", [False, True])
    def test_random_models(self, lp_path, integral):
        rng = random.Random(17)
        for _ in range(40):
            m, obj, rows = random_model(rng, max_vars=8)
            m.integral_objective = integral
            expected = enumerate_optimum(m, obj, rows)
            if expected is None:
                assert m.solve(cutoff=0).status is SolveStatus.INFEASIBLE
                continue
            worse = 1 if m.sense == "max" else -1  # one unit worse than the optimum
            for cutoff, beaten in [
                (expected - worse, True), (expected, False), (expected + worse, False),
            ]:
                out = m.solve(cutoff=cutoff)
                if beaten:
                    assert out.status is SolveStatus.OPTIMAL
                    assert out.int_objective() == expected
                    assert sum(c * x for c, x in zip(obj, out.assignment)) == expected
                else:
                    assert out.status is SolveStatus.INFEASIBLE
                    assert out.objective is None and out.assignment is None

    @pytest.mark.parametrize("cutoff, status", [(-1, SolveStatus.OPTIMAL),
                                                (0, SolveStatus.INFEASIBLE)])
    def test_no_columns(self, cutoff, status):
        m = MilpModel("max", integral_objective=True)
        m.add_row([], LESS_EQUAL, 1)
        assert m.solve(cutoff=cutoff).status is status

    @pytest.mark.parametrize("cutoff", [0, 19, 20])
    def test_time_limit_is_not_infeasible(self, lp_path, ticking_clock, cutoff):
        # the root LP bound is above 20, so no cutoff here prunes the root
        out = TestTimeLimit().model().solve(1.5, cutoff=cutoff)
        assert out.status is SolveStatus.TIME_LIMIT
        assert out.objective is None and out.assignment is None
        assert out.nodes_explored == 1
        assert out.best_bound >= 20

    def test_knapsack_at_and_below_optimum(self, lp_path):
        model = TestTimeLimit().model
        assert model().solve(cutoff=19).int_objective() == 20
        assert model().solve(cutoff=20).status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("integral", [False, True])
    def test_node_lps_stop_at_the_threshold(self, monkeypatch, integral):
        """A node LP stops once its dual objective shows it cannot beat the
        prune threshold; the solve still finds the optimum when the cutoff is
        below it, and nothing when the cutoff is at or above it."""
        stopped = []
        real = milp._warm_node_lp

        def spy(c, model, resume=False):
            solve_node = real(c, model, resume)

            def node(lb, ub, prune_at):
                result = solve_node(lb, ub, prune_at)
                status = model._lp.getModelStatus()
                stopped.append(status == milp._highs.HighsModelStatus.kObjectiveBound)
                return result

            return node

        monkeypatch.setattr(milp, "_warm_node_lp", spy)
        rng = random.Random(29)
        for _ in range(20):
            m, obj, rows = random_knapsack(rng, 8)
            m.integral_objective = integral
            expected = enumerate_optimum(m, obj, rows)
            out = m.solve(cutoff=expected - 1)
            assert (out.status, out.objective) == (SolveStatus.OPTIMAL, expected)
            for cutoff in (expected, expected + 1):
                assert m.solve(cutoff=cutoff).status is SolveStatus.INFEASIBLE
        assert any(stopped), "no node LP stopped at the threshold"

    def test_repeated_solves_are_identical(self, lp_path):
        rng = random.Random(19)
        for _ in range(15):
            m, obj, rows = random_model(rng, max_vars=8)
            expected = enumerate_optimum(m, obj, rows)
            cutoff = 0 if expected is None else expected - (1 if m.sense == "max" else -1)
            for _ in range(2):  # the second round follows a grown block
                assert m.solve(cutoff=cutoff) == m.solve(cutoff=cutoff)
                grow_block(m, rng, obj, rows)


class TestLoadHighs:
    def test_registered_binding_is_reused(self, monkeypatch):
        stand_in = types.ModuleType(milp._CORE)
        monkeypatch.setitem(sys.modules, milp._CORE, stand_in)
        monkeypatch.setattr(milp, "_core_file", lambda: pytest.fail("file lookup"))
        assert milp._load_highs() is stand_in

    @pytest.mark.parametrize("found", ["no file", "unloadable file"])
    def test_missing_binding_names_the_floor(self, monkeypatch, tmp_path, found):
        """Without a binding that loads, the loader raises ``ImportError``
        naming pyproject.toml's scipy floor, and registers nothing."""
        path = None
        if found == "unloadable file":
            broken = tmp_path / ("_core" + importlib.machinery.EXTENSION_SUFFIXES[0])
            broken.write_bytes(b"not a shared library")
            path = str(broken)
        monkeypatch.delitem(sys.modules, milp._CORE)
        monkeypatch.setattr(milp, "_core_file", lambda: path)
        floor = re.search(r'"(scipy>=[0-9.]+)"', PYPROJECT.read_text()).group(1)
        with pytest.raises(ImportError, match=re.escape(floor)):
            milp._load_highs()
        assert milp._CORE not in sys.modules


def test_cold_path_calls_linprog_through_the_module():
    """``milp.linprog`` stays as the name perfbench's tracer patches, though
    no solve calls it now: a cold ``scipy.optimize.linprog`` call through it
    still works beside the binding robustkep loaded from its file, and its
    LP relaxation bounds the integer optimum that ``MilpModel.solve`` finds."""
    m = MilpModel("max")
    a, b = m.add_variable(obj=2), m.add_variable(obj=3)
    m.add_row([(a, 1.0), (b, 1.0)], LESS_EQUAL, 1)
    res = milp.linprog(
        [-2.0, -3.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], bounds=[(0, 1)] * 2,
        method="highs",
    )
    assert res.status == 0
    assert -res.fun == m.solve().int_objective() == 3
    assert sys.modules[milp._CORE] is milp._highs
