"""Instance serialization and synthetic instance generation.

Two interchangeable formats: a line-oriented text format (header
"nPairs nNDDs nArcs" followed by one "src dst" arc per line, 0-based,
pairs numbered before NDDs) and a JSON object
{"pairs": n, "ndds": m, "arcs": [[i, j], ...]}.  In both, the counts and
arc ends are integers: JSON numbers with a fraction, strings and booleans
are rejected.
"""

from __future__ import annotations

import json
import random
from typing import Optional

from .core import CompatibilityGraph


def parse_instance(text: str) -> CompatibilityGraph:
    """Graph from either supported format (auto-detected)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_kep(text)


def _parse_json(text: str) -> CompatibilityGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON instance: {exc}") from None
    for key in ("pairs", "ndds", "arcs"):
        if key not in data:
            raise ValueError(f"JSON instance missing key {key!r}")
    pairs, ndds = data["pairs"], data["ndds"]
    # ``type(...) is int`` rejects floats, strings and bools alike
    if not (type(pairs) is int and type(ndds) is int):
        raise ValueError(f"non-integer JSON vertex counts {pairs!r} {ndds!r}")
    if not isinstance(data["arcs"], list):
        raise ValueError(f"JSON 'arcs' must be a list, got {data['arcs']!r}")
    arcs = []
    for entry in data["arcs"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"malformed JSON arc {entry!r}: expected [src, dst]")
        if not all(type(v) is int for v in entry):
            raise ValueError(f"non-integer JSON arc {entry!r}")
        arcs.append(tuple(entry))
    return CompatibilityGraph(pairs, ndds, tuple(arcs))


def _parse_kep(text: str) -> CompatibilityGraph:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty instance")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"malformed header {lines[0]!r}: expected 'nPairs nNDDs nArcs'")
    try:
        n_pairs, n_ndds, n_arcs = (int(t) for t in header)
    except ValueError:
        raise ValueError(f"non-integer header {lines[0]!r}") from None
    if len(lines) - 1 != n_arcs:
        raise ValueError(f"expected {n_arcs} arc lines, found {len(lines) - 1}")
    arcs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed arc line {ln!r}")
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"non-integer arc line {ln!r}") from None
    return CompatibilityGraph(n_pairs, n_ndds, tuple(arcs))


def render_instance(graph: CompatibilityGraph, fmt: str = "kep") -> str:
    """Text form of a graph; parse_instance(render_instance(G)) == G."""
    if fmt == "kep":
        lines = [f"{graph.num_pairs} {graph.num_ndds} {len(graph.arcs)}"]
        lines += [f"{i} {j}" for (i, j) in graph.arcs]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return (
            json.dumps(
                {
                    "pairs": graph.num_pairs,
                    "ndds": graph.num_ndds,
                    "arcs": [list(a) for a in graph.arcs],
                },
                indent=2,
            )
            + "\n"
        )
    raise ValueError(f"unknown format {fmt!r}")


def generate_instance(
    num_pairs: int,
    num_ndds: int,
    density: float = 0.15,
    seed: Optional[int] = None,
) -> CompatibilityGraph:
    """Uniform random digraph: each candidate arc (into a pair, no self-loop)
    is present independently with probability ``density``."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    if num_pairs < 0 or num_ndds < 0:
        raise ValueError("vertex counts must be >= 0")
    rng = random.Random(seed)
    arcs = []
    for i in range(num_pairs + num_ndds):
        for j in range(num_pairs):
            if i != j and rng.random() < density:
                arcs.append((i, j))
    return CompatibilityGraph(num_pairs, num_ndds, tuple(arcs))
