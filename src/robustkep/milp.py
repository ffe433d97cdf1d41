"""Small exact 0-1 MILP solver.

LP relaxations are solved with HiGHS; integrality is enforced by a
deterministic depth-first branch-and-bound on fractional binaries.  Each
solve builds one HiGHS LP and only changes column bounds from node to node,
so the dual simplex restarts from the basis the previous node left.  Rows
can be appended between solves (lazy cuts).  Solves stay reproducible: the
LP is built afresh in every solve and never kept, and the node order is
fixed, so a repeated solve replays the same warm-start sequence.  When
scipy's private HiGHS binding cannot be imported, every node is solved cold
with ``scipy.optimize.linprog`` instead, which is also the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, diags

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # pragma: no cover - depends on the scipy build
    _highs = None

BINARY = "binary"
CONTINUOUS = "continuous"

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="

FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-6
GAP_TOL = 1e-6


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "timelimit"


@dataclass
class SolveOutcome:
    status: SolveStatus
    objective: Optional[float]
    assignment: Optional[List[float]]
    best_bound: float
    nodes_explored: int
    lp_iterations: int

    def value(self, var: int) -> float:
        assert self.assignment is not None
        return self.assignment[var]

    def int_objective(self) -> int:
        """Objective rounded to the nearest integer (all-integer model data)."""
        assert self.objective is not None
        rounded = round(self.objective)
        if abs(self.objective - rounded) > 1e-4:
            raise ValueError(f"objective {self.objective} not near-integral")
        return int(rounded)


@dataclass
class _Row:
    coeffs: List[Tuple[int, float]]
    relation: str
    rhs: float


class MilpModel:
    """A 0-1 mixed-integer linear model with incrementally addable rows."""

    def __init__(self, sense: str = "max", integral_objective: bool = False):
        if sense not in ("max", "min"):
            raise ValueError(f"unknown sense {sense!r}")
        self.sense = sense
        # when every attainable objective value is integral, nodes whose LP
        # bound cannot improve the incumbent by a whole unit are pruned
        self.integral_objective = integral_objective
        self.kinds: List[str] = []
        self.lb: List[float] = []
        self.ub: List[float] = []
        self.obj: List[float] = []
        self.rows: List[_Row] = []
        self.fixings: Dict[int, float] = {}

    @property
    def num_variables(self) -> int:
        return len(self.kinds)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def add_variable(
        self, kind: str = BINARY, lb: float = 0.0, ub: float = 1.0, obj: float = 0.0
    ) -> int:
        if kind not in (BINARY, CONTINUOUS):
            raise ValueError(f"unknown variable kind {kind!r}")
        if lb > ub:
            raise ValueError(f"lower bound {lb} exceeds upper bound {ub}")
        self.kinds.append(kind)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        return len(self.kinds) - 1

    def add_row(
        self, coeffs: Iterable[Tuple[int, float]], relation: str, rhs: float
    ) -> int:
        if relation not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
            raise ValueError(f"unknown relation {relation!r}")
        clean: List[Tuple[int, float]] = []
        for var, coef in coeffs:
            if not 0 <= var < self.num_variables:
                raise ValueError(f"invalid variable handle {var}")
            clean.append((var, float(coef)))
        self.rows.append(_Row(clean, relation, float(rhs)))
        return len(self.rows) - 1

    def fix(self, var: int, value: float) -> None:
        if not 0 <= var < self.num_variables:
            raise ValueError(f"invalid variable handle {var}")
        self.fixings[var] = float(value)

    # -- solving ---------------------------------------------------------

    def _constraint_matrix(self):
        """All rows as one CSR matrix with row lower and upper bounds."""
        data, indices, indptr = [], [], [0]
        row_lo = np.full(self.num_rows, -np.inf)
        row_hi = np.full(self.num_rows, np.inf)
        for k, r in enumerate(self.rows):
            for var, coef in r.coeffs:
                indices.append(var)
                data.append(coef)
            indptr.append(len(data))
            if r.relation != GREATER_EQUAL:
                row_hi[k] = r.rhs
            if r.relation != LESS_EQUAL:
                row_lo[k] = r.rhs
        shape = (self.num_rows, self.num_variables)
        return csr_matrix((data, indices, indptr), shape=shape), row_lo, row_hi

    def solve(self, time_limit: Optional[float] = None) -> SolveOutcome:
        """Exact optimum via depth-first branch and bound.

        Branching: most-fractional binary, ties by lowest index; the value-1
        child is explored first when the variable's objective coefficient
        pushes toward 1 under the model sense.
        """
        start = time.perf_counter()
        n = self.num_variables
        if n == 0:
            feasible = all(
                (r.relation == LESS_EQUAL and r.rhs >= -FEASIBILITY_TOL)
                or (r.relation == GREATER_EQUAL and r.rhs <= FEASIBILITY_TOL)
                or (r.relation == EQUAL and abs(r.rhs) <= FEASIBILITY_TOL)
                for r in self.rows
            )
            if feasible:
                return SolveOutcome(SolveStatus.OPTIMAL, 0.0, [], 0.0, 1, 0)
            return SolveOutcome(SolveStatus.INFEASIBLE, None, None, 0.0, 1, 0)
        sign = -1.0 if self.sense == "max" else 1.0
        c = sign * np.asarray(self.obj, dtype=float)
        node_lp = _warm_node_lp if _highs is not None else _cold_node_lp
        solve_lp = node_lp(c, *self._constraint_matrix())

        base_lb = np.asarray(self.lb, dtype=float)
        base_ub = np.asarray(self.ub, dtype=float)
        for var, val in self.fixings.items():
            base_lb[var] = val
            base_ub[var] = val

        binaries = [i for i, k in enumerate(self.kinds) if k == BINARY]

        incumbent: Optional[np.ndarray] = None
        incumbent_val = np.inf  # internal minimization space
        improvement = 1.0 - 1e-6 if self.integral_objective else GAP_TOL
        nodes = 0
        lp_iters = 0
        hit_limit = False

        # stack entries: (bound overrides, parent LP bound)
        stack: List[Tuple[Dict[int, float], float]] = [({}, -np.inf)]

        while stack:
            if time_limit is not None and time.perf_counter() - start > time_limit:
                hit_limit = True
                break
            overrides, parent_bound = stack.pop()
            if parent_bound >= incumbent_val - improvement:
                continue
            nodes += 1
            lb = base_lb.copy()
            ub = base_ub.copy()
            for var, val in overrides.items():
                lb[var] = val
                ub[var] = val
            bound, x, iters = solve_lp(lb, ub)
            lp_iters += iters
            if x is None:  # infeasible node
                continue
            if bound >= incumbent_val - improvement:
                continue
            frac_var = -1
            frac_dist = INTEGRALITY_TOL
            for i in binaries:
                d = abs(x[i] - round(x[i]))
                if d > frac_dist + 1e-12:
                    # most fractional: largest distance from the nearest integer
                    frac_dist = d
                    frac_var = i
            if frac_var < 0:
                sol = x.copy()
                for i in binaries:
                    sol[i] = round(sol[i])
                val = float(np.dot(c, sol))
                if val < incumbent_val:
                    incumbent_val = val
                    incumbent = sol
                continue
            one_first = c[frac_var] <= 0  # coefficient rewards value 1
            children = [
                ({**overrides, frac_var: 0.0}, bound),
                ({**overrides, frac_var: 1.0}, bound),
            ]
            if not one_first:
                children.reverse()
            stack.extend(children)  # last pushed is explored first

        if hit_limit:
            open_bounds = [pb for (_, pb) in stack]
            best_bound = min([incumbent_val] + open_bounds)
            return SolveOutcome(
                SolveStatus.TIME_LIMIT,
                None if incumbent is None else sign * incumbent_val,
                None if incumbent is None else list(incumbent),
                sign * best_bound,
                nodes,
                lp_iters,
            )
        if incumbent is None:
            return SolveOutcome(
                SolveStatus.INFEASIBLE, None, None, sign * np.inf, nodes, lp_iters
            )
        return SolveOutcome(
            SolveStatus.OPTIMAL,
            sign * incumbent_val,
            list(incumbent),
            sign * incumbent_val,
            nodes,
            lp_iters,
        )

    # -- debugging -------------------------------------------------------

    def write_lp(self) -> str:
        """Model in LP text format, for external cross-checking."""
        out = ["Maximize" if self.sense == "max" else "Minimize"]
        terms = " + ".join(
            f"{self.obj[i]} x{i}" for i in range(self.num_variables) if self.obj[i]
        )
        out.append(f" obj: {terms if terms else '0 x0'}")
        out.append("Subject To")
        rel = {LESS_EQUAL: "<=", GREATER_EQUAL: ">=", EQUAL: "="}
        for k, row in enumerate(self.rows):
            lhs = " + ".join(f"{coef} x{var}" for var, coef in row.coeffs) or "0 x0"
            out.append(f" r{k}: {lhs} {rel[row.relation]} {row.rhs}")
        out.append("Bounds")
        for i in range(self.num_variables):
            lo = self.fixings.get(i, self.lb[i])
            hi = self.fixings.get(i, self.ub[i])
            out.append(f" {lo} <= x{i} <= {hi}")
        bins = [i for i, k in enumerate(self.kinds) if k == BINARY]
        if bins:
            out.append("Binaries")
            out.append(" " + " ".join(f"x{i}" for i in bins))
        out.append("End")
        return "\n".join(out) + "\n"


# -- node LPs ---------------------------------------------------------------
#
# A node LP solver is made once per solve from the objective and the rows; it
# is called with one node's column bounds and returns (objective, x, simplex
# iterations), with x None when the node is infeasible.


def _warm_node_lp(c, a, row_lo, row_hi):
    """Node LPs on one HiGHS instance: each node changes only column bounds,
    so the dual simplex restarts from the previous node's basis."""
    n = len(c)
    csc = a.tocsc()
    lp = _highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = a.shape[0]
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(n)  # every node sets its own column bounds
    lp.col_upper_ = np.zeros(n)
    lp.row_lower_ = row_lo
    lp.row_upper_ = row_hi
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = a.shape[0]
    lp.a_matrix_.start_ = csc.indptr
    lp.a_matrix_.index_ = csc.indices
    lp.a_matrix_.value_ = csc.data
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(lp)
    cols = np.arange(n, dtype=np.int32)

    def solve_node(lb, ub):
        highs.changeColsBounds(n, cols, lb, ub)
        highs.run()
        status = highs.getModelStatus()
        info = highs.getInfo()
        iters = info.simplex_iteration_count
        if status == _highs.HighsModelStatus.kOptimal:
            x = np.array(highs.getSolution().col_value)
            return info.objective_function_value, x, iters
        if status == _highs.HighsModelStatus.kInfeasible:
            return None, None, iters
        raise RuntimeError(
            f"LP solve failed with status {highs.modelStatusToString(status)}"
        )

    return solve_node


def _cold_node_lp(c, a, row_lo, row_hi):
    """Node LPs by one cold ``linprog`` call each; the reference path."""
    eq = row_lo == row_hi
    ineq = ~eq
    # >= rows are negated into <= rows
    flip = np.where(np.isfinite(row_hi[ineq]), 1.0, -1.0)
    a_ub = diags(flip) @ a[ineq]
    b_ub = np.where(flip > 0, row_hi[ineq], -row_lo[ineq])
    a_eq, b_eq = a[eq], row_lo[eq]

    def solve_node(lb, ub):
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )
        iters = int(getattr(res, "nit", 0) or 0)
        if res.status == 2:
            return None, None, iters
        if res.status != 0:
            raise RuntimeError(f"LP solve failed with status {res.status}")
        return res.fun, res.x, iters

    return solve_node
