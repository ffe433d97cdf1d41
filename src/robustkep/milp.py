"""Small exact 0-1 MILP solver.

LP relaxations are solved with HiGHS; integrality is enforced by a
deterministic depth-first branch-and-bound on fractional binaries.  Rows are
stored once, as they are added, in the compressed-sparse-row form the LP
takes (column indices, coefficients and row starts, plus a lower and an upper
bound per row), and can be appended between solves (lazy cuts);
``set_bounds`` changes a variable's column bounds.

The model owns one HiGHS LP, made empty by its first solve.  Every solve
appends the columns and rows the LP does not hold yet (``addCols``/
``addRows``), so a new model and a grown one are filled the same way.
Nodes change only column bounds, so the dual simplex restarts from the basis
the previous node left.  After ``set_bounds`` the root starts from the basis
the last optimal root ended in; otherwise, and always after the model grew,
it starts cold, from a cleared solver.  Solves stay reproducible: that start
basis changes only with the model, and the node order is fixed, so
re-solving an unchanged model replays the same solve, LP iterations
included.  The HiGHS LP comes from scipy's private binding, which is loaded
from its file, so that importing this module imports no ``scipy.optimize``;
on a scipy without that binding the import fails (see ``_load_highs``).

A solve may take a ``cutoff``, the objective of a solution the caller already
holds.  It starts as the incumbent value, so nodes that cannot beat it are
pruned, and ``INFEASIBLE`` then means that no solution beats the cutoff, not
that the model has none.  Each node LP gets the prune threshold, the
incumbent value less the improvement a solution must bring, as HiGHS's
``objective_bound``: the dual simplex stops once its objective shows that
the node cannot beat the threshold, and the node is closed as pruned.

A solve may also take a ``lazy`` hook, called at each node whose LP solution
is integral, for constraints too many to state up front.  The hook returns
that integer point's true objective, which makes it the incumbent when it is
better, and may add rows, or columns and rows, that the point violates.  A
node whose hook added something is solved again, and the re-solve counts as a
node: the live HiGHS LP takes the new rows and columns and keeps its basis.
Each node's LP bound must stay a bound on the true objective of the integer
points in the node, so additions may only tighten the relaxation; nodes pruned
before them then stay validly pruned.  A point that violates what the hook
adds may be valued at the worst objective (``-inf`` under ``max``, ``inf``
under ``min``), so it never becomes the incumbent.  A hook that adds nothing
closes the node, whose LP bound is the point's objective.  It must not value
the point below that objective, or the node's other integer points would be
skipped unexamined, so the solve raises.  It may value the point above it: the
point can stand for a solution worth more than the node lets it show, as a
branch-and-check master's plan does when branching fixed some of its recourse
binaries to 0.  That value becomes the incumbent, and nothing left in the node
can beat it.  A hook that returns ``None``, having run out of time before it
could value the point, ends the solve as a time limit does, with the node left
open.

When a hook grows the model at a node other than the root, the solve first
checks the grown root: it solves the root LP of the grown model, counted as
a node, and when that bound cannot beat the incumbent no open node can, so
the search ends.  A tree whose hook keeps adding blocks, such as a
branch-and-check master, so closes its stale nodes at once instead of one at
a time.  Until the check runs it holds the least open bound, so a solve its
time limit ends there still reports a valid ``best_bound``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

_CORE = "scipy.optimize._highspy._core"


def _core_file() -> Optional[str]:
    """The file of scipy's HiGHS extension, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_highs():
    """scipy's private HiGHS binding, loaded from its file.

    Importing it by name first runs ``scipy.optimize``'s ``__init__``, which
    pulls in ``scipy.linalg``, ``scipy.sparse`` and the rest of
    ``scipy.optimize``: most of a process's start-up time and memory, and
    nothing this module uses.  It is registered under its full name before it
    runs, so a later ``import scipy.optimize`` reuses it and pybind11 does not
    register its types twice.  Because it is loaded before its package, the
    package ``scipy.optimize._highspy`` has no ``_core`` attribute after
    ``import robustkep``, even once ``scipy.optimize`` is imported:
    ``from scipy.optimize._highspy import _core`` and
    ``import scipy.optimize._highspy._core`` find the binding in
    ``sys.modules``, but the attribute chain raises ``AttributeError``.
    Setting the attribute would mean importing ``scipy.optimize``.

    Raises ``ImportError``, naming the scipy floor, when the file is missing
    or will not load."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    missing = (
        "robustkep needs scipy's HiGHS binding optimize/_highspy/_core, "
        "which scipy ships from 1.15 on (pyproject.toml: scipy>=1.15)"
    )
    path = _core_file()
    if path is None:
        raise ImportError(missing)
    spec = importlib.util.spec_from_file_location(_CORE, path)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[_CORE] = module
        spec.loader.exec_module(module)
    except ImportError as err:
        sys.modules.pop(_CORE, None)
        raise ImportError(f"{missing}; {path} does not load: {err}") from err
    return module


_highs = _load_highs()


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.  robustkep
    never calls it; it stays because perfbench/tracer.py patches this name."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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

    def int_objective(self) -> int:
        """Objective rounded to the nearest integer (all-integer model data)."""
        assert self.objective is not None
        rounded = round(self.objective)
        if abs(self.objective - rounded) > 1e-4:
            raise ValueError(f"objective {self.objective} not near-integral")
        return int(rounded)


class MilpModel:
    """A 0-1 mixed-integer linear model with incrementally addable rows."""

    def __init__(self, sense: str = "max", integral_objective: bool = False):
        if sense not in ("max", "min"):
            raise ValueError(f"unknown sense {sense!r}")
        self.sense = sense
        # when every attainable objective value is integral, nodes whose LP
        # bound cannot improve the incumbent by a whole unit are pruned, and
        # integer points are valued at the nearest integer
        self.integral_objective = integral_objective
        self.binaries: List[int] = []  # the binary columns, in index order
        self.lb: List[float] = []
        self.ub: List[float] = []
        self.obj: List[float] = []
        # the rows in CSR form: row k holds indices/data[indptr[k]:indptr[k + 1]]
        self.indptr: List[int] = [0]
        self.indices: List[int] = []
        self.data: List[float] = []
        self.row_lo: List[float] = []
        self.row_hi: List[float] = []
        # the basis the last optimal root LP ended in, and the basis the next
        # root starts from: a copy of the former, taken only when bounds are
        # set, so re-solving an unchanged model replays the same solve; growth
        # clears both, so a grown model's next root starts cold
        self.root_basis = None
        self.start_basis = None
        self._lp = None  # the HiGHS LP of the warm path, made by its first solve

    @property
    def num_variables(self) -> int:
        return len(self.lb)

    @property
    def num_rows(self) -> int:
        return len(self.row_lo)

    def add_variable(
        self, kind: str = BINARY, lb: float = 0.0, ub: float = 1.0, obj: float = 0.0
    ) -> int:
        if kind not in (BINARY, CONTINUOUS):
            raise ValueError(f"unknown variable kind {kind!r}")
        if lb > ub:
            raise ValueError(f"lower bound {lb} exceeds upper bound {ub}")
        if kind == BINARY:
            self.binaries.append(len(self.lb))
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        self.root_basis = self.start_basis = None
        return len(self.lb) - 1

    def add_row(
        self, coeffs: Iterable[Tuple[int, float]], relation: str, rhs: float
    ) -> int:
        if relation not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
            raise ValueError(f"unknown relation {relation!r}")
        n = self.num_variables
        indices: List[int] = []
        data: List[float] = []
        for var, coef in coeffs:
            if not 0 <= var < n:
                raise ValueError(f"invalid variable handle {var}")
            indices.append(var)
            data.append(float(coef))
        self.indices += indices
        self.data += data
        self.indptr.append(len(self.indices))
        self.row_lo.append(-np.inf if relation == LESS_EQUAL else float(rhs))
        self.row_hi.append(np.inf if relation == GREATER_EQUAL else float(rhs))
        self.root_basis = self.start_basis = None
        return self.num_rows - 1

    def set_bounds(self, var: int, lb: float, ub: float) -> None:
        if not 0 <= var < self.num_variables:
            raise ValueError(f"invalid variable handle {var}")
        if lb > ub:
            raise ValueError(f"lower bound {lb} exceeds upper bound {ub}")
        self.lb[var] = float(lb)
        self.ub[var] = float(ub)
        self.start_basis = self.root_basis

    def _column_arrays(self):
        """The costs in minimization form, the column bounds and the binary
        columns, as arrays: made at the start of a solve and again when a
        lazy hook grew the model."""
        sign = -1.0 if self.sense == "max" else 1.0
        return (
            sign * np.asarray(self.obj, dtype=float),
            np.asarray(self.lb, dtype=float),
            np.asarray(self.ub, dtype=float),
            np.array(self.binaries, dtype=np.intp),
        )

    # -- solving ---------------------------------------------------------

    def solve(
        self,
        time_limit: Optional[float] = None,
        cutoff: Optional[float] = None,
        lazy: Optional[Callable[[np.ndarray], Optional[float]]] = None,
    ) -> SolveOutcome:
        """Exact optimum via depth-first branch and bound.

        Branching: most-fractional binary, ties by lowest index; the value-1
        child is explored first when the variable's objective coefficient
        pushes toward 1 under the model sense.

        ``cutoff`` is a value the caller already holds: it seeds the
        incumbent value, so only solutions strictly better than it are
        searched; with ``integral_objective`` they must beat it by a whole
        unit, so the cutoff must then be integral.  When the
        search ends without one, the status is ``INFEASIBLE``: nothing beats
        the cutoff.  The best bound then counts the cutoff as an incumbent.

        ``lazy(x)`` is called with each integer node solution and returns its
        true objective, or ``None`` to stop (see the module docstring).  The
        incumbent is then the point the hook valued best, with that value as
        the objective; its assignment is padded with the lower bounds of
        columns added later.
        """
        start = time.perf_counter()
        sign = -1.0 if self.sense == "max" else 1.0
        # internal minimization space
        incumbent_val = np.inf if cutoff is None else sign * cutoff
        improvement = 1.0 - 1e-6 if self.integral_objective else GAP_TOL
        if self.num_variables == 0:
            # every row is empty, so its activity is 0
            feasible = all(
                lo <= FEASIBILITY_TOL and hi >= -FEASIBILITY_TOL
                for lo, hi in zip(self.row_lo, self.row_hi)
            )
            if feasible and 0.0 < incumbent_val - improvement:
                return SolveOutcome(SolveStatus.OPTIMAL, 0.0, [], 0.0, 1, 0)
            return SolveOutcome(SolveStatus.INFEASIBLE, None, None, 0.0, 1, 0)
        c, base_lb, base_ub, binaries = self._column_arrays()
        solve_lp = _warm_node_lp(c, self)

        incumbent: Optional[np.ndarray] = None
        nodes = 0
        lp_iters = 0

        # stack entries: (bound overrides, parent LP bound); overrides None
        # marks a root check, whose bound is the least open bound
        stack: List[Tuple[Optional[Dict[int, float]], float]] = [({}, -np.inf)]

        while stack:
            if time_limit is not None and time.perf_counter() - start >= time_limit:
                break  # the open nodes stay on the stack; limit 0 keeps the root
            overrides, parent_bound = stack.pop()
            if parent_bound >= incumbent_val - improvement:
                continue
            nodes += 1
            lb = base_lb.copy()
            ub = base_ub.copy()
            for var, val in (overrides or {}).items():
                lb[var] = val
                ub[var] = val
            bound, x, iters = solve_lp(lb, ub, incumbent_val - improvement)
            lp_iters += iters
            if overrides is None:  # a root check: close every node or none
                if x is None or bound >= incumbent_val - improvement:
                    stack.clear()
                continue
            if x is None:  # infeasible, or stopped at the prune threshold
                continue
            if bound >= incumbent_val - improvement:
                continue
            xb = x[binaries]
            rounded = np.round(xb) + 0.0  # + 0.0 turns -0.0 into 0.0
            dist = np.abs(xb - rounded)
            frac_var = -1
            frac_dist = INTEGRALITY_TOL
            for k in np.flatnonzero(dist > INTEGRALITY_TOL + 1e-12).tolist():
                if dist[k] > frac_dist + 1e-12:
                    # most fractional: largest distance from the nearest
                    # integer, the first of near-equal distances
                    frac_dist = dist[k]
                    frac_var = int(binaries[k])
            if frac_var < 0:
                sol = x.copy()
                sol[binaries] = rounded
                val = float(np.dot(c, sol))
                if self.integral_objective:  # the LP's error varies with its basis
                    val = float(round(val))
                grew = False
                if lazy is not None:
                    size = self.num_variables, self.num_rows
                    value = lazy(sol)
                    if value is None:  # the hook ran out of time
                        stack.append((overrides, bound))
                        break
                    value *= sign
                    grew = (self.num_variables, self.num_rows) != size
                    if not grew and value > val + GAP_TOL:
                        raise RuntimeError(
                            f"lazy hook added nothing but valued an integer point "
                            f"at {sign * value}, worse than its objective {sign * val}"
                        )
                    val = value
                if val < incumbent_val:
                    incumbent_val = val
                    incumbent = sol
                if grew:  # solve the node again, on the grown model
                    c, base_lb, base_ub, binaries = self._column_arrays()
                    solve_lp = _warm_node_lp(c, self, resume=True)
                    stack.append((overrides, bound))
                    if overrides:  # but first check the grown root
                        stack.append((None, min(pb for _, pb in stack)))
                continue
            one_first = c[frac_var] <= 0  # coefficient rewards value 1
            children = [
                ({**overrides, frac_var: 0.0}, bound),
                ({**overrides, frac_var: 1.0}, bound),
            ]
            if not one_first:
                children.reverse()
            stack.extend(children)  # last pushed is explored first

        found = incumbent is not None
        if stack:
            status = SolveStatus.TIME_LIMIT
        else:
            status = SolveStatus.OPTIMAL if found else SolveStatus.INFEASIBLE
        return SolveOutcome(
            status,
            sign * incumbent_val if found else None,
            list(incumbent) + list(base_lb[len(incumbent):]) if found else None,
            # the best open bound; the incumbent's value once no node is open
            sign * min([incumbent_val] + [pb for (_, pb) in stack]),
            nodes,
            lp_iters,
        )


# -- node LPs ---------------------------------------------------------------
#
# A node LP solver is made once per solve from the objective and the rows,
# and made again with ``resume`` when a lazy hook grew the model; it is called
# with one node's column bounds and the prune threshold, and returns
# (objective, x, simplex iterations), with x None when the node is infeasible
# or its LP stopped at the threshold.


def _warm_node_lp(c, model, resume=False):
    """Node LPs on the model's HiGHS LP: each node changes only column bounds,
    so the dual simplex restarts from the previous node's basis.  The root
    starts from ``model.start_basis`` when there is one, a basis of the model
    as it stands, else cold, and an optimal root leaves its final basis in
    ``model.root_basis``.  ``resume`` appends what the model gained in the
    solve and keeps the basis, with the new rows basic.  Each node sets its
    prune threshold as HiGHS's ``objective_bound``, so the dual simplex stops
    once its objective shows the node cannot beat it."""
    n = len(c)
    highs = _live_lp(c, model)
    if not resume:
        if model.start_basis is not None:
            highs.setBasis(model.start_basis)
        else:
            highs.clearSolver()
    cols = np.arange(n, dtype=np.int32)
    root = not resume

    def solve_node(lb, ub, prune_at):
        nonlocal root
        highs.setOptionValue("objective_bound", prune_at)
        highs.changeColsBounds(n, cols, lb, ub)
        highs.run()
        status = highs.getModelStatus()
        info = highs.getInfo()
        iters = info.simplex_iteration_count
        optimal = status == _highs.HighsModelStatus.kOptimal
        if root and optimal:
            basis = highs.getBasis()
            if basis.valid:
                model.root_basis = basis
        root = False
        if optimal:
            x = np.array(highs.getSolution().col_value)
            return info.objective_function_value, x, iters
        if status in (
            _highs.HighsModelStatus.kInfeasible, _highs.HighsModelStatus.kObjectiveBound
        ):
            return None, None, iters
        raise RuntimeError(
            f"LP solve failed with status {highs.modelStatusToString(status)}"
        )

    return solve_node


def _live_lp(c, model):
    """The model's HiGHS LP, made empty on first use, with the columns and
    rows it does not hold yet appended: all of them at first, then those the
    model gained since.  Column bounds are left to the nodes; costs and row
    bounds are set as the columns and rows arrive."""
    highs = model._lp
    if highs is None:
        highs = model._lp = _highs._Highs()
        highs.setOptionValue("output_flag", False)
    cols, rows = highs.getNumCol(), highs.getNumRow()
    new = len(c) - cols
    if new:
        # rows are stored rowwise, so the new columns arrive empty
        zeros = np.zeros(new)
        none = np.zeros(0, dtype=np.int32)
        highs.addCols(new, c[cols:], zeros, zeros, 0, none, none, np.zeros(0))
    if model.num_rows > rows:
        first = model.indptr[rows]
        highs.addRows(
            model.num_rows - rows, model.row_lo[rows:], model.row_hi[rows:],
            len(model.data) - first,
            np.asarray(model.indptr[rows:-1], dtype=np.int32) - first,
            model.indices[first:], model.data[first:],
        )
    return highs
