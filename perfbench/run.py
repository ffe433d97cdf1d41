"""Robust-solve benchmark for robustkep.

    python3 perfbench/run.py --workload cut-cc --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop: one process solves the cells of a fixed
instance ladder one after another with ``solve_robust``, pass after pass,
until ``--seconds`` have elapsed (at least one pass).  ``--seed`` and the
pass number fix the order of the cells in a pass; the ladder itself is
fixed (NOTES.md says why).  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics.  Lines before the last print every metric by
name with its unit; the last line is one JSON object.  See NOTES.md for the
workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import gate
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

NUM_PAIRS = 18
NUM_NDDS = 2  # 10% of the 20 vertices are non-directed donors
DENSITY = 0.15
MAX_CYCLE_LEN = 3
MAX_CHAIN_LEN = 3
CELL_TIME_LIMIT = 60.0
SGM_SHIFT = 10.0
TAIL_BEYOND = 10  # the tail percentile keeps this many cells beyond it
SETUP_SAMPLES = 3  # this process plus two fresh ones


@dataclass(frozen=True)
class Workload:
    method: str
    encodings: Tuple[str, ...]
    budgets: Tuple[int, ...]
    instances: int


WORKLOADS: Dict[str, Workload] = {
    # the attacker MILP grows by lazy cut rows between its solves
    "cut-cc": Workload("cut", ("cc",), (1, 2, 3), 4),
    # the large PICEF master and lifted PICEF recourse dominate
    "cut-picef": Workload("cut", ("picef",), (1, 2, 3), 4),
    # no attacker MILP: many throw-away one-node recourse models
    "bb": Workload("bb", ("cc", "picef"), (1, 2), 3),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s_total": "s",
    "solve_s_sgm": "s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "failed_frac": "frac",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_robustkep():
    """Import robustkep from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "robustkep" / "__init__.py").is_file():
        fail(f"no robustkep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import robustkep

    if Path(robustkep.__file__).resolve().parent != SRC / "robustkep":
        fail(f"imported robustkep from {robustkep.__file__}, not from {SRC}")
    return robustkep


def cells(rk, w: Workload):
    """Every (instance, policy, budget, encoding) of the workload."""
    return [
        (i, policy, budget, rk.Encoding(enc))
        for i in range(w.instances)
        for policy in (rk.Policy.FULL_RECOURSE, rk.Policy.FIX_SUCCESSFUL)
        for budget in w.budgets
        for enc in w.encodings
    ]


def config(rk, w: Workload, policy, budget: int, encoding):
    return rk.RobustConfig(
        MAX_CYCLE_LEN, MAX_CHAIN_LEN, budget, policy=policy, encoding=encoding,
        subproblem_method=w.method, time_limit=CELL_TIME_LIMIT,
    )


def set_up(w: Workload):
    """Import, generate the ladder and run one tiny warm-up solve per encoding.

    The warm-up loads scipy's lazily imported HiGHS code, so the first cell
    is not charged for it.  Returns the module, the ladder, the warm-up
    outcomes and the seconds taken.
    """
    start = time.perf_counter()
    rk = import_robustkep()
    ladder = [
        rk.generate_instance(NUM_PAIRS, NUM_NDDS, DENSITY, seed=i)
        for i in range(w.instances)
    ]
    # a positive value, so the gate's self-test starts from a solve it accepts
    tiny = rk.generate_instance(5, 1, 0.4, seed=1)
    warm = []
    for enc in w.encodings:
        cfg = config(rk, w, rk.Policy.FULL_RECOURSE, 1, rk.Encoding(enc))
        t0 = time.perf_counter()
        result = rk.solve_robust(tiny, cfg)
        warm.append(gate.Outcome(-1, -1, cfg.policy, 1, cfg.encoding, tiny, cfg,
                                 time.perf_counter() - t0, result))
    return rk, ladder, warm, time.perf_counter() - start


def setup_in_fresh_process(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def run_pass(rk, w: Workload, ladder, order_key: str, pass_index: int, tracer=None):
    """Solve every cell once, back to back, in an order drawn from ``order_key``."""
    order = cells(rk, w)
    random.Random(order_key).shuffle(order)
    outcomes = []
    for n, (inst, policy, budget, enc) in enumerate(order):
        cfg = config(rk, w, policy, budget, enc)
        o = gate.Outcome(pass_index, inst, policy, budget, enc, ladder[inst], cfg, 0.0)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                o.result = rk.solve_robust(ladder[inst], cfg)
            else:
                o.result = tracer.solve_cell(f"{pass_index}/{n}", rk.solve_robust,
                                             ladder[inst], cfg)
        except Exception as exc:  # a cell that raises fails; the run goes on
            o.error = f"{type(exc).__name__}: {exc}"
        o.seconds = time.perf_counter() - t0
        outcomes.append(o)
    return outcomes


def pass_metrics(rk, times: List[float]) -> Dict[str, float]:
    ordered = sorted(times)
    return {
        "solve_s_total": sum(times),
        "solve_s_sgm": rk.shifted_geometric_mean(times, SGM_SHIFT),
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": ordered[len(ordered) - TAIL_BEYOND - 1],
    }


def median_of(dicts: List[Dict[str, float]], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def report(metrics: Dict[str, Tuple[float, str]], json_keys, outcomes,
           failures: Dict[int, List[str]]) -> None:
    """Print every metric, then the JSON result line.

    ``correct`` is false when a solve returned a wrong answer; a cell that
    raised or hit its time limit is failed but not wrong.
    """
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    wrong = [i for i in failures if outcomes[i].error is None
             and outcomes[i].result.status == "optimal"]
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in json_keys},
    }))


def gate_all(outcomes) -> Dict[int, List[str]]:
    """Run the correctness gate and print what failed."""
    failures = gate.check(outcomes)
    for i, reasons in sorted(failures.items()):
        o = outcomes[i]
        print(f"FAILED pass {o.pass_index} instance {o.instance} {o.policy.value} "
              f"B={o.budget} {o.encoding.value}: {'; '.join(reasons)}", file=sys.stderr)
    return failures


def run_untraced(args, w: Workload) -> None:
    rk, ladder, warm, setup_s = set_up(w)
    setups = [setup_s] + [
        setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    for o in warm:
        gate.self_test(o)

    outcomes, per_pass = [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < args.seconds:
        p = len(per_pass)
        done = run_pass(rk, w, ladder, f"{args.seed}/{p}", p)
        outcomes += done
        per_pass.append(pass_metrics(rk, [o.seconds for o in done]))
    failures = gate_all(outcomes)

    n = len(cells(rk, w))
    print(f"# {args.workload}: {len(per_pass)} passes of {n} cells, medians over passes; "
          f"tail is p{100 * (n - TAIL_BEYOND) // n} of a pass ({TAIL_BEYOND} of {n} "
          f"cells beyond it); setup is the median of {len(setups)} set-ups")
    values = {"setup_s": statistics.median(setups)}
    for key in ("solve_s_total", "solve_s_sgm", "solve_s_p50", "solve_s_tail"):
        values[key] = median_of(per_pass, key)
    values["failed_frac"] = len(failures) / len(outcomes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    # failed_frac is 0 on a healthy run, so the JSON line carries it as
    # attempted/failed instead of as a metric
    report(metrics, [k for k in metrics if k != "failed_frac"], outcomes, failures)


def run_traced(args, w: Workload) -> None:
    rk, ladder, warm, _ = set_up(w)
    for o in warm:
        gate.self_test(o)

    outcomes, untraced, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        # the traced pass repeats the untraced one in the same order
        k = len(traced)
        done = run_pass(rk, w, ladder, f"{args.seed}/{k}", 2 * k)
        untraced.append(sum(o.seconds for o in done))
        tracer = Tracer()
        tracer.install()
        try:
            done_traced = run_pass(rk, w, ladder, f"{args.seed}/{k}", 2 * k + 1, tracer)
        finally:
            tracer.uninstall()
        outcomes += done + done_traced
        traced.append((tracer, sum(o.seconds for o in done_traced)))
    failures = gate_all(outcomes)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    for tracer, _ in traced:
        tracer.write_spans(spans_path)

    per_pass = []
    for tracer, total in traced:
        m = tracer.metrics()
        m["trace.solve_s_total"] = total
        m["trace.accounted_frac"] = m.pop("trace.layer_self_s") / total
        per_pass.append(m)
    traced_total = median_of(per_pass, "trace.solve_s_total")
    untraced_total = statistics.median(untraced)
    counts = [k for k, unit in PER_LAYER_UNITS.items() if unit == "count"]
    steady = all(m[k] == per_pass[0][k] for m in per_pass for k in counts)
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        if key == "trace.untraced_solve_s_total":
            value = untraced_total
        elif key == "trace.overhead_frac":
            value = traced_total / untraced_total - 1.0
        elif unit == "count":
            value = per_pass[0][key]
        else:
            value = median_of(per_pass, key)
        metrics[key] = (value, unit)
    print(f"# {args.workload}: {len(traced)} untraced and {len(traced)} traced passes of "
          f"{len(cells(rk, w))} cells; times are medians over traced passes, counts are "
          f"per pass; counts identical in every traced pass: {'yes' if steady else 'NO'}; "
          f"spans in {spans_path.relative_to(ROOT)}")
    report(metrics, list(metrics), outcomes, failures)


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for role in ("master", "attacker", "recourse"):
        for field, unit in (("calls", "count"), ("s", "s"), ("nodes", "count"),
                            ("lp_iters", "count")):
            units[f"milp.{role}.{field}"] = unit
    units.update({"milp.s_per_node": "s", "milp.lp.calls": "count", "milp.lp.s": "s",
                  "milp.self_s": "s"})
    for name in ("build_master", "extend_master_with_attack", "build_subproblem",
                 "add_interdiction_cut", "build_recourse", "extract"):
        units[f"formulations.{name}.calls"] = "count"
        units[f"formulations.{name}.s"] = "s"
    units.update({"formulations.master_rows": "count", "formulations.self_s": "s"})
    for name in ("build_pool", "picef_positions"):
        units[f"core.{name}.calls"] = "count"
        units[f"core.{name}.s"] = "s"
    units.update({
        "core.pool_exchanges": "count", "core.self_s": "s",
        "solvers.master_iterations": "count", "solvers.attacks": "count",
        "solvers.cut_rounds": "count", "solvers.attack_yield": "frac",
        "solvers.bb.evals": "count", "solvers.bb.self_s": "s", "solvers.self_s": "s",
        "trace.solve_s_total": "s", "trace.untraced_solve_s_total": "s",
        "trace.overhead_frac": "frac", "trace.accounted_frac": "frac",
        "trace.spans": "count",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print its seconds")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads; inherited by set-up processes
    w = WORKLOADS[args.workload]
    if args.setup_only:
        print(f"setup_s {set_up(w)[3]!r}")
    elif args.trace:
        run_traced(args, w)
    else:
        run_untraced(args, w)


if __name__ == "__main__":
    main()
