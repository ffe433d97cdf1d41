"""Benchmark harness: experiment matrix execution and result aggregation."""

from __future__ import annotations

import csv
import io as _io
import math
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from .core import CompatibilityGraph, Policy
from .formulations import Encoding
from .solvers import METHOD_BB, METHOD_CUT, RobustConfig, solve_robust

DEFAULT_SHIFT = 10.0

# the values a text column may hold
_CHOICES = {
    "policy": [p.value for p in Policy],
    "encoding": [e.value for e in Encoding],
    "method": [METHOD_CUT, METHOD_BB],
    "status": ["optimal", "timelimit"],
}


@dataclass
class BenchRecord:
    """One (instance, config) benchmark cell, in CSV column order."""

    instance_name: str
    n_pairs: int
    n_ndds: int
    n_arcs: int
    max_cycle_len: int
    max_chain_len: int
    budget: int
    policy: str
    encoding: str
    method: str
    lifting: bool
    status: str
    objective: Optional[int]
    time_total_s: float
    time_stage2_s: float  # the attacker's own seconds, its recourse solves left out
    time_stage3_s: float  # the recourse's own seconds, model builds included
    n_attacks: int
    n_subproblems: int  # attacker calls, one per attacked plan
    bb_nodes: int  # every role's nodes summed; under bb the attacker's are search nodes

    @property
    def n_vertices(self) -> int:
        return self.n_pairs + self.n_ndds

    def __post_init__(self):
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(
                    f"column {name}: expected {'|'.join(allowed)}, got {getattr(self, name)!r}"
                )
        if (self.objective is not None) != (self.status == "optimal"):
            raise ValueError("objective must be present exactly when optimal")
        for name in ("time_total_s", "time_stage2_s", "time_stage3_s"):
            t = getattr(self, name)
            if not (math.isfinite(t) and t >= 0):  # NaN fails too
                raise ValueError(f"column {name}: expected a finite time >= 0, got {t!r}")


CSV_FIELDS = [f.name for f in fields(BenchRecord)]


def _text(val: object, digits: int, none: str = "") -> str:
    """One CSV or table cell: booleans as on|off, floats to ``digits``."""
    if val is None:
        return none
    if isinstance(val, bool):
        return "on" if val else "off"
    if isinstance(val, float):
        return f"{val:.{digits}f}"
    return str(val)


def record_to_row(rec: BenchRecord) -> List[str]:
    return [_text(getattr(rec, name), 6) for name in CSV_FIELDS]


def _on_off(raw: str) -> bool:
    if raw not in ("on", "off"):
        raise ValueError(f"expected on|off, got {raw!r}")
    return raw == "on"


# how a CSV cell is read back, by its field's declared type
_PARSERS = {"str": str, "int": int, "float": float, "bool": _on_off,
            "Optional[int]": lambda raw: None if raw == "" else int(raw)}


def record_from_row(row: Sequence[str]) -> BenchRecord:
    if len(row) != len(CSV_FIELDS):
        raise ValueError(f"expected {len(CSV_FIELDS)} columns, got {len(row)}")
    values = {}
    for f, raw in zip(fields(BenchRecord), row):
        try:
            values[f.name] = _PARSERS[f.type](raw)
        except ValueError as exc:
            raise ValueError(f"column {f.name}: {exc}") from None
    return BenchRecord(**values)


def write_records(records: Iterable[BenchRecord], stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_FIELDS)
    for rec in records:
        writer.writerow(record_to_row(rec))


def read_records(stream: TextIO) -> List[BenchRecord]:
    """Records of a CSV that starts with its header, as written here."""
    rows = [r for r in csv.reader(stream) if r]
    if not rows:
        return []
    header = rows.pop(0)
    if header != CSV_FIELDS:
        missing = [f for f in CSV_FIELDS if f not in header]
        unexpected = [f for f in header if f not in CSV_FIELDS]
        raise ValueError(
            f"CSV header differs from {len(CSV_FIELDS)} columns: "
            f"missing {missing}, unexpected {unexpected}"
        )
    return [record_from_row(r) for r in rows]


def run_matrix(
    instances: Sequence[Tuple[str, CompatibilityGraph]],
    configs: Sequence[RobustConfig],
    stream: Optional[TextIO] = None,
) -> List[BenchRecord]:
    """Solve every (instance, config) cell; records are written to ``stream``
    as they complete so partial runs remain usable."""
    writer = None
    if stream is not None:
        writer = csv.writer(stream)
        writer.writerow(CSV_FIELDS)
    records: List[BenchRecord] = []
    for name, graph in instances:
        for cfg in configs:
            result = solve_robust(graph, cfg)
            rec = BenchRecord(
                instance_name=name,
                n_pairs=graph.num_pairs,
                n_ndds=graph.num_ndds,
                n_arcs=len(graph.arcs),
                max_cycle_len=cfg.max_cycle_len,
                max_chain_len=cfg.max_chain_len,
                budget=cfg.budget,
                policy=cfg.policy.value,
                encoding=cfg.encoding.value,
                method=cfg.subproblem_method,
                lifting=cfg.lifting,
                status=result.status,
                objective=result.value if result.status == "optimal" else None,
                time_total_s=result.stats.time_total,
                time_stage2_s=result.stats.seconds["attacker"],
                time_stage3_s=result.stats.seconds["recourse"],
                n_attacks=result.stats.n_attacks,
                n_subproblems=result.stats.n_subproblems,
                bb_nodes=sum(result.stats.nodes.values()),
            )
            records.append(rec)
            if writer is not None:
                writer.writerow(record_to_row(rec))
                stream.flush()
    return records


def _check_shift(shift: float) -> None:
    if not (math.isfinite(shift) and shift >= 0):  # NaN fails too
        raise ValueError(f"shift must be a finite number >= 0, got {shift!r}")


def shifted_geometric_mean(values: Sequence[float], shift: float = DEFAULT_SHIFT) -> float:
    """prod(v + shift)^(1/n) - shift."""
    _check_shift(shift)
    if not values:
        raise ValueError("empty value list")
    log_sum = 0.0
    for v in values:
        if v + shift <= 0:
            raise ValueError(f"value {v} with shift {shift} is not positive")
        log_sum += math.log(v + shift)
    return math.exp(log_sum / len(values)) - shift


GROUP_KEYS = [
    "n_vertices",
    "max_cycle_len",
    "max_chain_len",
    "budget",
    "policy",
    "encoding",
    "method",
    "lifting",
]

SUMMARY_FIELDS = GROUP_KEYS + [
    "n_instances",
    "n_optimal",
    "sgm_time_s",
    "mean_attacks",
    "mean_subproblems",
    "mean_bb_nodes",
]


def aggregate(
    records: Sequence[BenchRecord], shift: float = DEFAULT_SHIFT
) -> List[Dict[str, object]]:
    """Per-group summary: count solved, shifted geometric mean of total times,
    arithmetic means over solved cells of the attacks, the attacker calls
    (``mean_subproblems``, one call per attacked plan) and the nodes."""
    _check_shift(shift)  # also when no group has a solved cell
    groups: Dict[Tuple, List[BenchRecord]] = {}
    for rec in records:
        key = tuple(getattr(rec, name) for name in GROUP_KEYS)
        groups.setdefault(key, []).append(rec)
    rows: List[Dict[str, object]] = []
    for key in sorted(groups, key=lambda k: tuple(str(t) for t in k)):
        cells = groups[key]
        solved = [r for r in cells if r.status == "optimal"]
        row: Dict[str, object] = dict.fromkeys(SUMMARY_FIELDS)  # None without a solved cell
        row.update(zip(GROUP_KEYS, key), n_instances=len(cells), n_optimal=len(solved))
        if solved:
            row["sgm_time_s"] = shifted_geometric_mean(
                [r.time_total_s for r in solved], shift
            )
            row["mean_attacks"] = sum(r.n_attacks for r in solved) / len(solved)
            row["mean_subproblems"] = sum(r.n_subproblems for r in solved) / len(solved)
            row["mean_bb_nodes"] = sum(r.bb_nodes for r in solved) / len(solved)
        rows.append(row)
    return rows


def summary_to_csv(rows: Sequence[Dict[str, object]]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SUMMARY_FIELDS)
    for row in rows:
        writer.writerow([_text(row[f], 2) for f in SUMMARY_FIELDS])
    return buf.getvalue()


def summary_to_table(rows: Sequence[Dict[str, object]]) -> str:
    """Aligned text table with one line per group."""
    headers = ["|V|", "K", "L", "B", "policy", "enc", "method", "lift",
               "n", "opt", "sgm time", "#att", "#sub", "#nodes"]
    body = [
        [_text(row[f], 2, "—") for f in SUMMARY_FIELDS]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in body), default=0))
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(r) for r in body]
    return "\n".join(out) + "\n"
