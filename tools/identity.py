"""Do two checkouts of robustkep solve the benchmark cells alike?

    python3 tools/identity.py --root DIR --write REF.json
    python3 tools/identity.py --root DIR --check REF.json

Solves every cell of the benchmark's three workloads, 72 in all, with the
robustkep under ``DIR/src``.  The workloads, their cells and configs and the
instance ladder come from ``DIR/perfbench/run.py``, which is read, never
changed.  For each cell it records the value, the status, the plan's pool
indices, the worst attack and every integer counter of ``RobustStats``, a
per-role map flattened as ``nodes.master``.  Times are left out, so two
solves on the same search path record the same.

``--write`` saves the record.  ``--check`` solves again and compares with
the reference: when anything differs, it lists each differing cell and key,
and each key that only one side has, and exits 1.  To show that a change
keeps the search, write the reference with ``--root`` at a checkout of the
parent commit, then check the change against it.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from pathlib import Path
from typing import Dict, List

Record = Dict[str, Dict[str, object]]


def load_run(root: Path):
    """``root/perfbench/run.py``, imported as run.py imports its siblings."""
    sys.path.insert(0, str(root / "perfbench"))
    return importlib.import_module("run")


def cell_record(result) -> Dict[str, object]:
    out: Dict[str, object] = {
        "value": result.value,
        "status": result.status,
        "plan": sorted(result.initial.selected),
        "worst_attack": sorted(result.worst_attack.attacked),
    }
    for name, value in dataclasses.asdict(result.stats).items():
        if isinstance(value, dict):
            out.update({f"{name}.{k}": v for k, v in value.items() if isinstance(v, int)})
        elif isinstance(value, int):
            out[name] = value
    return out


def solve_cells(root: Path) -> Record:
    run = load_run(root)
    rk = run.import_robustkep()  # from root/src, or it exits
    record: Record = {}
    for name, w in run.WORKLOADS.items():
        ladder = [
            rk.generate_instance(run.NUM_PAIRS, run.NUM_NDDS, run.DENSITY, seed=i)
            for i in range(w.instances)
        ]
        for inst, policy, budget, enc in run.cells(rk, w):
            result = rk.solve_robust(ladder[inst], run.config(rk, w, policy, budget, enc))
            cell = f"{name}/{inst}/{policy.value}/B{budget}/{enc.value}"
            record[cell] = cell_record(result)
    return record


def differences(ref: Record, now: Record) -> List[str]:
    lines = []
    for cell in sorted(ref.keys() | now.keys()):
        if cell not in now or cell not in ref:
            lines.append(f"{cell}: only {'in the reference' if cell in ref else 'now'}")
            continue
        a, b = ref[cell], now[cell]
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                lines.append(f"{cell} {key}: only in the reference, {a[key]}")
            elif key not in a:
                lines.append(f"{cell} {key}: only now, {b[key]}")
            elif a[key] != b[key]:
                lines.append(f"{cell} {key}: {a[key]} in the reference, {b[key]} now")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout to solve with (default: this one)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", type=Path, metavar="REF.json")
    mode.add_argument("--check", type=Path, metavar="REF.json")
    args = parser.parse_args(argv)
    if args.check is not None:
        ref = json.loads(args.check.read_text(encoding="utf-8"))  # before the solves
    record = solve_cells(args.root.resolve())
    if args.write is not None:
        args.write.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
        print(f"wrote {len(record)} cells to {args.write}")
        return 0
    # compare as the reference was read: through JSON
    lines = differences(ref, json.loads(json.dumps(record)))
    for line in lines:
        print(line)
    print(f"{len(lines)} difference(s) on {len(record)} cells")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
