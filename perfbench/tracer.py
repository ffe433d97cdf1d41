"""Per-layer spans and counters for robustkep, recorded from outside.

A ``Tracer`` replaces module attributes of robustkep with wrappers that
record one span per call: name, start, end, parent span and cell id.  The
span name is the metric prefix of the layer the call enters, e.g.
``formulations.build_recourse`` or ``milp.attacker``.  Spans stay in memory;
``write_spans`` saves them at the end of a run.

Only calls that go through a wrapped attribute are seen.  ``solvers`` binds
the functions it imports from ``core`` and ``formulations`` into its own
namespace, so those are wrapped there; ``formulations`` calls
``picef_positions`` and ``extend_master_with_attack`` through its own
namespace, so those are wrapped there too.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

ROLES = ("master", "attacker", "recourse")
FORMULATION_CALLS = (
    "build_master",
    "extend_master_with_attack",
    "build_subproblem",
    "add_interdiction_cut",
    "build_recourse",
)
EXTRACT_CALLS = ("extract_initial_solution", "extract_attack", "extract_cut_solution")
ROOT_SPAN = "solvers.solve_robust"
BB_SPAN = "solvers.bb"


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    cell: str
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Records spans and counters between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.master_rows: Dict[str, int] = {}  # cell -> master rows at its last solve
        self._open: List[int] = []
        self._cell = ""
        self._roles: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        span = Span(name, self._open[-1] if self._open else -1, self._cell)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def solve_cell(self, cell: str, solve_robust, *args):
        """Run one cell under a root span carrying the cell id."""
        self._cell = cell
        return self._call(ROOT_SPAN, solve_robust, args, {})

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _tag(self, role):
        def after(handle):
            self._roles[handle.model] = role

        return after

    def _count_pool(self, pool) -> None:
        self.counts["core.pool_exchanges"] += len(pool.exchanges)

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _milp_solve(self, solve):
        tracer = self

        def wrapper(model, *args, **kwargs):
            role = tracer._roles.get(model, "other")
            if role == "master":
                tracer.master_rows[tracer._cell] = model.num_rows
            outcome = tracer._call("milp." + role, solve, (model,) + args, kwargs)
            tracer.counts[f"milp.{role}.nodes"] += outcome.nodes_explored
            tracer.counts[f"milp.{role}.lp_iters"] += outcome.lp_iterations
            return outcome

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from robustkep import formulations, milp, solvers

        self._patch(
            solvers, "build_pool",
            self._timed("core.build_pool", solvers.build_pool, self._count_pool),
        )
        self._patch(
            formulations, "picef_positions",
            self._timed("core.picef_positions", formulations.picef_positions),
        )
        roles = {"build_master": "master", "build_subproblem": "attacker",
                 "build_recourse": "recourse"}
        for name in FORMULATION_CALLS:
            fn = getattr(solvers, name)
            after = self._tag(roles[name]) if name in roles else None
            self._patch(solvers, name, self._timed("formulations." + name, fn, after))
        self._patch(
            formulations, "extend_master_with_attack",
            self._timed("formulations.extend_master_with_attack",
                        formulations.extend_master_with_attack),
        )
        for name in EXTRACT_CALLS:
            self._patch(solvers, name,
                        self._timed("formulations.extract", getattr(solvers, name)))
        self._patch(
            solvers, "solve_attack_subproblem_bb",
            self._counted("solvers.subproblems",
                          self._timed(BB_SPAN, solvers.solve_attack_subproblem_bb)),
        )
        self._patch(
            solvers, "solve_attack_subproblem_cuttingplane",
            self._counted("solvers.subproblems",
                          solvers.solve_attack_subproblem_cuttingplane),
        )
        self._patch(milp.MilpModel, "solve", self._milp_solve(milp.MilpModel.solve))
        self._patch(milp, "linprog", self._timed("milp.lp", milp.linprog))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded; see NOTES.md."""
        spans = self.spans
        dur = [s.end - s.start for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s.parent >= 0:
                child[s.parent] += d
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        for i, s in enumerate(spans):
            calls[s.name] += 1
            total[s.name] += dur[i]
            self_s[s.name] += dur[i] - child[i]
        parent_name = [spans[s.parent].name if s.parent >= 0 else "" for s in spans]

        out: Dict[str, float] = {}
        for role in ROLES:
            key = "milp." + role
            out[key + ".calls"] = calls[key]
            out[key + ".s"] = total[key]
            out[key + ".nodes"] = self.counts[key + ".nodes"]
            out[key + ".lp_iters"] = self.counts[key + ".lp_iters"]
        solve_names = ["milp." + r for r in ROLES + ("other",)]
        nodes = sum(self.counts[n + ".nodes"] for n in solve_names)
        out["milp.s_per_node"] = sum(total[n] for n in solve_names) / max(nodes, 1)
        out["milp.lp.calls"] = calls["milp.lp"]
        out["milp.lp.s"] = total["milp.lp"]
        out["milp.self_s"] = sum(self_s[n] for n in solve_names)

        for name in FORMULATION_CALLS + ("extract",):
            key = "formulations." + name
            out[key + ".calls"] = calls[key]
            out[key + ".s"] = total[key]
        out["formulations.master_rows"] = max(self.master_rows.values(), default=0)
        out["formulations.self_s"] = _layer_sum(self_s, "formulations.")

        for name in ("build_pool", "picef_positions"):
            key = "core." + name
            out[key + ".calls"] = calls[key]
            out[key + ".s"] = total[key]
        out["core.pool_exchanges"] = self.counts["core.pool_exchanges"]
        out["core.self_s"] = _layer_sum(self_s, "core.")

        attacks = sum(
            1 for s, p in zip(spans, parent_name)
            if s.name == "formulations.extend_master_with_attack" and p == ROOT_SPAN
        )
        out["solvers.master_iterations"] = calls["milp.master"]
        out["solvers.attacks"] = attacks
        out["solvers.cut_rounds"] = calls["milp.attacker"]
        out["solvers.attack_yield"] = attacks / max(self.counts["solvers.subproblems"], 1)
        out["solvers.bb.evals"] = sum(
            1 for s, p in zip(spans, parent_name)
            if s.name == "milp.recourse" and p == BB_SPAN
        )
        out["solvers.bb.self_s"] = self_s[BB_SPAN]
        out["solvers.self_s"] = self_s[ROOT_SPAN]
        out["trace.spans"] = len(spans)
        # every span nests inside a root span, so the layer self times add up
        # to the root spans' total
        out["trace.layer_self_s"] = (
            out["core.self_s"] + out["formulations.self_s"] + out["milp.self_s"]
            + out["milp.lp.s"] + out["solvers.bb.self_s"] + out["solvers.self_s"]
        )
        return out

    def write_spans(self, path) -> None:
        """Append the spans as JSON lines; ``parent`` is an ``id`` in the same pass."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "cell": s.cell,
                    "start": s.start, "end": s.end,
                }) + "\n")


def _layer_sum(self_s: Counter, prefix: str) -> float:
    return sum(v for k, v in self_s.items() if k.startswith(prefix))
