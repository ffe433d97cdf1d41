"""Command-line surface: solve, generate, bench, aggregate."""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from typing import ContextManager, Iterator, List, Optional, TextIO

from .bench import (
    DEFAULT_SHIFT,
    _on_off,
    aggregate,
    read_records,
    run_matrix,
    summary_to_csv,
    summary_to_table,
)
from .core import Policy
from .formulations import Encoding
from .io import generate_instance, parse_instance, render_instance
from .solvers import ROLES, RobustConfig, solve_robust


@contextlib.contextmanager
def _input_errors(command: str) -> Iterator[None]:
    """End the command on bad input or an unwritable output path with one
    stderr line and exit status 1."""
    try:
        yield
    except (ValueError, OSError) as exc:
        print(f"robustkep {command}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _open_output(path: Optional[str], newline: Optional[str] = None) -> ContextManager[TextIO]:
    """The output stream, opened before any work: stdout for None or -."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline=newline)


# the config flags' argparse destinations; bench takes a list in each
CONFIG_FLAGS = (
    "cycle_len", "chain_len", "budget", "policy", "formulation", "method", "lifting",
)


def _add_config_flags(p: argparse.ArgumentParser, multi: bool) -> None:
    """Config flags; in matrix mode each accepts a comma-separated list."""
    note = " (comma-separated list allowed)" if multi else ""
    p.add_argument("--cycle-len", default="3", help=f"max arcs per cycle{note}")
    p.add_argument("--chain-len", default="3", help=f"max arcs per chain{note}")
    p.add_argument("--budget", default="1", help=f"attack budget{note}")
    p.add_argument("--policy", default="fr", help=f"fr|fse{note}")
    p.add_argument("--formulation", default="cc", help=f"cc|picef{note}")
    p.add_argument("--method", default="cut", help=f"cut|bb{note}")
    p.add_argument("--lifting", default="on", help=f"on|off{note}")
    p.add_argument("--time-limit", type=float, default=None, help="seconds per solve")


def _int(flag: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{flag}: expected an integer, got {raw!r}") from None


def _flag(raw: str) -> bool:
    try:
        return _on_off(raw)
    except ValueError as exc:
        raise ValueError(f"--lifting: {exc}") from None


def _configs(args: argparse.Namespace) -> List[RobustConfig]:
    lists = [getattr(args, name) for name in CONFIG_FLAGS]
    return [
        RobustConfig(
            max_cycle_len=_int("--cycle-len", k),
            max_chain_len=_int("--chain-len", length),
            budget=_int("--budget", b),
            policy=Policy(pol),
            encoding=Encoding(enc),
            subproblem_method=method,
            lifting=_flag(lift),
            time_limit=args.time_limit,
        )
        for k, length, b, pol, enc, method, lift in itertools.product(
            *(raw.split(",") for raw in lists)
        )
    ]


def _cmd_solve(args: argparse.Namespace) -> int:
    with _input_errors("solve"):
        listed = [name for name in CONFIG_FLAGS if "," in getattr(args, name)]
        if listed:
            flags = ", ".join("--" + name.replace("_", "-") for name in listed)
            raise ValueError(f"{flags}: solve takes one value per flag, bench takes lists")
        graph = parse_instance(_read_text(args.input))
        (cfg,) = _configs(args)
        out = _open_output(args.output)
    with out as fh:
        result = solve_robust(graph, cfg)
        lines = [f"status: {result.status}"]
        if result.status == "optimal":
            lines.append(f"objective: {result.value}")
        else:
            lines.append(f"certified value: {result.value}")
        for e in result.exchanges:
            lines.append(f"  {e.kind.value}: {' '.join(str(v) for v in e.vertices)}")
        lines.append(f"worst attack: {sorted(result.worst_attack.attacked)}")
        st = result.stats
        nodes = " ".join(f"{role} {st.nodes[role]}" for role in ROLES)
        lines.append(
            f"attacks: {st.n_attacks}  attacker calls: {st.n_subproblems}  "
            f"nodes: {nodes}  time: {st.time_total:.3f}s"
        )
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    with _input_errors("generate"):
        graph = generate_instance(args.pairs, args.ndds, args.density, args.seed)
        out = _open_output(args.output)
    with out as fh:
        fh.write(render_instance(graph, args.format))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    with _input_errors("bench"):
        instances = [(path, parse_instance(_read_text(path))) for path in args.input]
        configs = _configs(args)
        out = _open_output(args.output, newline="")
    with out as fh:
        run_matrix(instances, configs, fh)
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    with _input_errors("aggregate"):
        with open(args.input, encoding="utf-8", newline="") as fh:
            records = read_records(fh)
        rows = aggregate(records, args.shift)
        out = _open_output(args.output)
    with out as fh:
        fh.write(summary_to_csv(rows))
    if args.output and args.output != "-":
        sys.stdout.write(summary_to_table(rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="robustkep",
        description="Robust kidney exchange with recourse against vertex withdrawals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("--input", required=True, help="instance file, or - for stdin")
    p.add_argument("--output", default=None)
    _add_config_flags(p, multi=False)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--ndds", type=int, default=0)
    p.add_argument("--density", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("kep", "json"), default="kep")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="run an experiment matrix")
    p.add_argument("--input", nargs="+", required=True, help="instance files")
    p.add_argument("--output", default=None, help="CSV output path")
    _add_config_flags(p, multi=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("aggregate", help="summarize a benchmark CSV")
    p.add_argument("--input", required=True, help="CSV produced by bench")
    p.add_argument("--output", default=None, help="summary CSV path")
    p.add_argument("--shift", type=float, default=DEFAULT_SHIFT)
    p.set_defaults(func=_cmd_aggregate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
