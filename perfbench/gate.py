"""Correctness gate for the benchmark's solves; it runs outside the timed region.

Each solved cell must pass:

* replay: the recourse value of the returned plan under the returned worst
  attack, found by ``brute_force_recourse`` (an exhaustive packing search
  that shares no code with the MILP path), equals the reported value;
* FSE <= FR on the same graph, encoding and budget;
* the value does not increase with the budget;
* CC and PICEF agree where a workload solves both;
* every pass of a run returns the same value for the same cell.

A cell that raised, hit its time limit or broke a check fails.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass
class Outcome:
    pass_index: int
    instance: int
    policy: Any  # robustkep.Policy
    budget: int
    encoding: Any  # robustkep.Encoding
    graph: Any  # robustkep.CompatibilityGraph
    cfg: Any  # robustkep.RobustConfig
    seconds: float
    result: Optional[Any] = None  # robustkep.RobustResult
    error: Optional[str] = None


def check(outcomes: List[Outcome]) -> Dict[int, List[str]]:
    """Reasons each failed outcome failed, keyed by its index in ``outcomes``."""
    from robustkep import Encoding, Policy, brute_force_recourse, build_pool

    failures: Dict[int, List[str]] = defaultdict(list)
    values: Dict[tuple, int] = {}
    for i, o in enumerate(outcomes):
        if o.error is not None:
            failures[i].append(o.error)
            continue
        r = o.result
        if r.status != "optimal":
            failures[i].append(f"status {r.status}")
            continue
        pool = build_pool(o.graph, o.cfg.max_cycle_len, o.cfg.max_chain_len)
        if not r.initial.is_feasible(pool):
            failures[i].append("plan has overlapping exchanges")
            continue
        if len(r.worst_attack.attacked) > o.budget:
            failures[i].append("worst attack exceeds the budget")
            continue
        replay = brute_force_recourse(r.initial, r.worst_attack, pool, o.graph, o.policy)
        if replay != r.value:
            failures[i].append(f"value {r.value} but its worst attack leaves {replay}")
            continue
        values[(o.pass_index, o.instance, o.policy, o.budget, o.encoding)] = i

    def compare(a: tuple, b: tuple, holds, reason: str) -> None:
        if a in values and b in values:
            ia, ib = values[a], values[b]
            if not holds(outcomes[ia].result.value, outcomes[ib].result.value):
                failures[ia].append(reason)
                failures[ib].append(reason)

    first_pass: Dict[tuple, tuple] = {}
    for key in values:
        p, inst, policy, budget, enc = key
        if policy is Policy.FIX_SUCCESSFUL:
            fr = (p, inst, Policy.FULL_RECOURSE, budget, enc)
            compare(key, fr, lambda fse, fr_: fse <= fr_, "FSE value exceeds FR value")
        compare(key, (p, inst, policy, budget + 1, enc), lambda lo, hi: lo >= hi,
                "value increases with the budget")
        if enc is Encoding.CC:
            compare(key, key[:4] + (Encoding.PICEF,), lambda a, b: a == b,
                    "CC and PICEF disagree")
        first = first_pass.setdefault(key[1:], key)
        if first != key:
            compare(first, key, lambda a, b: a == b, "value differs between passes")
    return dict(failures)


def self_test(outcome: Outcome) -> None:
    """Raise unless the gate passes ``outcome`` and trips on a wrong value."""
    failures = check([outcome])
    if failures:
        raise RuntimeError(f"gate rejects a correct solve: {failures}")
    wrong = dataclasses.replace(
        outcome, result=dataclasses.replace(outcome.result, value=outcome.result.value + 1)
    )
    if not check([wrong]):
        raise RuntimeError("gate accepts a wrong value")
