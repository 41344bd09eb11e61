"""Command-line surface: evaluate strategies, sweep and sample worst cases,
and run the exact identity and bound checks.

The parser is the only description of the commands: each subparser declares
its options and defaults and sets ``handler``, the function that turns the
parsed namespace into an exit code, a record and a table.  A sweep is judged
against the structural bound of the plan its built rule plays, if it plays
one, and otherwise, like a sample, against the theorem.

Exit codes: 0 when the command ran and every checked guarantee held,
1 when a mathematical guarantee check failed, 2 on usage errors
(malformed distributions, inapplicable options, capacity limits).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Callable

from .analysis import (
    exhaustive_worst_case,
    identity_check,
    lower_bound_loss,
    monte_carlo,
    search_optimal,
)
from .core import (
    CapacityError,
    Color,
    ContractError,
    HatGameError,
    evaluate,
    make_distribution,
)
from .strategies import (
    PartialStrategyParams,
    _block_sizes,
    _structural_loss,
    canonical_pairing,
    composite_strategy,
    guarantee_bound,
    majority_strategy,
    make_partition,
    pairing_strategy,
    partial_profile,
)

STRATEGY_NAMES = ("pairing", "majority", "composite", "partial")
# --n of bounds, plan, sample and sweep; bounds sizes every even n: 22-39 ms at 4096 (2 vCPU)
MAX_N = 4096
MAX_TRIALS = 10**6  # a uniform trial takes 16-20 us at n = 4096 (2 vCPU): ~20 s at the caps


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _check_cap(command: str, option: str, value: int, cap: int) -> None:
    if value > cap:
        raise CapacityError(f"{command} is capped at {option} <= {cap}, got {value}")


def _parse_block(spec_text: str) -> frozenset[int]:
    try:
        if "-" in spec_text:
            lo_s, hi_s = spec_text.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            return frozenset(range(lo, hi + 1))
        return frozenset(int(tok) for tok in spec_text.split(","))
    except ValueError:
        raise ContractError(
            f"cannot parse block {spec_text!r}; use 'lo-hi' or 'i,j,...'"
        ) from None


def _build_strategy(args: argparse.Namespace, n: int):
    name = args.strategy
    if name != "majority" and args.tie_break is not None:
        raise ContractError("--tie-break applies only to the majority strategy")
    if name != "partial" and (
        args.blue_max is not None or args.red_min is not None or args.block is not None
    ):
        raise ContractError("--a, --b and --block apply only to the partial strategy")
    if name == "pairing":
        return pairing_strategy(canonical_pairing(n))
    if name == "majority":
        tie = Color(args.tie_break) if args.tie_break else Color.RED
        return majority_strategy(n, tie)
    if name == "composite":
        return composite_strategy(n)
    if args.blue_max is None or args.red_min is None or args.block is None:
        raise ContractError("the partial strategy needs --a, --b and --block")
    members = _parse_block(args.block)
    if any(p < 1 or p > n for p in members):
        raise ContractError(f"block members out of range 1..{n}")
    params = PartialStrategyParams(members, args.blue_max, args.red_min)
    return partial_profile(params, n)


# A command returns its exit code, its record (the JSON document) and a
# zero-argument function building its CSV table, header row first.
Output = tuple[int, dict, Callable[[], list[tuple]]]


def _record_table(record: dict) -> Callable[[], list[tuple]]:
    """A one-row table of every record field but the command name."""
    keys = tuple(key for key in record if key != "command")
    return lambda: [keys, tuple(record[key] for key in keys)]


def _cmd_eval(args: argparse.Namespace) -> Output:
    distribution = make_distribution(args.omega)
    strategy = _build_strategy(args, distribution.n)
    result = evaluate(strategy, distribution)
    record = {
        "command": "eval",
        "strategy": strategy.name,
        "n": distribution.n,
        "omega": distribution.to_text(),
        **result.to_json_dict(),
    }

    def table() -> list[tuple]:
        players = range(1, distribution.n + 1)
        correct = (i in result.correct_set for i in players)
        return [("player", "hat", "guess", "correct"),
                *zip(players, record["omega"], record["guesses"], correct)]

    return 0, record, table


def _checked_bound(strategy):
    """The loss bound a sweep or sample is judged against: the structural
    bound of the plan the rule plays, if it plays one."""
    n = strategy.n
    bound = guarantee_bound(n, getattr(strategy.guess_rule, "plan", None))
    theorem = bound.theorem_loss_even if n % 2 == 0 else bound.theorem_loss_general
    checked = bound.structural_loss if bound.structural_loss is not None else theorem
    return bound, theorem, checked


def _cmd_sweep(args: argparse.Namespace) -> Output:
    _check_cap("sweep", "--n", args.n, MAX_N)
    strategy = _build_strategy(args, args.n)
    report = exhaustive_worst_case(strategy, args.n)
    bound, theorem, checked = _checked_bound(strategy)
    ok = report.worst_loss <= checked
    record = {
        "command": "sweep",
        "strategy": strategy.name,
        "n": args.n,
        "report": report.to_json_dict(),
        "structural_loss": bound.structural_loss,
        "theorem_loss_even": bound.theorem_loss_even,
        "theorem_loss_general": bound.theorem_loss_general,
        "checked_loss": checked,
        "bound_satisfied": ok,
    }
    return (0 if ok else 1), record, report.to_csv_rows


def _cmd_identity(args: argparse.Namespace) -> Output:
    result = identity_check(args.n)
    record = {
        "command": "identity",
        "n": args.n,
        "lhs": result.lhs,
        "rhs": result.rhs,
        "equal": result.equal,
    }
    return (0 if result.equal else 1), record, _record_table(record)


def _cmd_bounds(args: argparse.Namespace) -> Output:
    if args.n < 6 or args.n % 2:
        raise ContractError(f"bounds needs an even --n >= 6, got {args.n}")
    _check_cap("bounds", "--n", args.n, MAX_N)
    rows = []
    all_ok = True
    for n in range(6, args.n + 1, 2):
        # the plan's sizes are all a row reads: no plan of n players is built
        sizes = _block_sizes(n)
        structural = _structural_loss(sizes)
        bound = guarantee_bound(n)
        all_ok = all_ok and structural <= bound.theorem_loss_even
        rows.append(
            {
                "n": n,
                "k": len(sizes),
                "max_block": max(sizes),
                "structural_loss": structural,
                "theorem_loss_even": bound.theorem_loss_even,
                "theorem_loss_general": bound.theorem_loss_general,
                "lower_bound_loss": lower_bound_loss(n),
            }
        )
    record = {"command": "bounds", "n_max": args.n, "rows": rows, "all_within_theorem": all_ok}
    return (0 if all_ok else 1), record, lambda: [tuple(rows[0]), *(tuple(r.values()) for r in rows)]


def _cmd_search_optimal(args: argparse.Namespace) -> Output:
    report = search_optimal(args.n)
    record = {
        "command": "search-optimal",
        "n": report.n,
        "best_min_correct": report.best_min_correct,
        "best_worst_loss": report.best_worst_loss,
        "strategies_enumerated": report.strategies_enumerated,
    }
    return 0, record, _record_table(record)


def _cmd_sample(args: argparse.Namespace) -> Output:
    _check_cap("sample", "--n", args.n, MAX_N)
    _check_cap("sample", "--trials", args.trials, MAX_TRIALS)
    strategy = _build_strategy(args, args.n)
    report = monte_carlo(
        strategy,
        args.n,
        trials=args.trials,
        red_count=args.red_count,
        seed=args.seed,
        workers=args.workers,
    )
    _, theorem, _ = _checked_bound(strategy)
    ok = report.worst_loss <= theorem
    record = {
        "command": "sample",
        "strategy": strategy.name,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "red_count": "uniform" if args.red_count in (None, "uniform") else int(args.red_count),
        "report": report.to_json_dict(),
        "theorem_loss": theorem,
        "bound_satisfied": ok,
    }
    return (0 if ok else 1), record, report.to_csv_rows


def _cmd_plan(args: argparse.Namespace) -> Output:
    _check_cap("plan", "--n", args.n, MAX_N)
    plan = make_partition(args.n)

    def table() -> list[tuple]:
        return [("block", "size", "first", "last"),
                *((i, len(b), b[0], b[-1]) for i, b in enumerate(plan.blocks, start=1))]

    return 0, plan.to_json_dict(), table


# The record fields each command prints as text, one "name: value" line
# each; "report.x" reaches into the nested report, and a list of rows
# prints one "k=v ..." line per row.
_TEXT_KEYS = {
    "eval": ("strategy", "omega", "guesses", "correct_count", "correct_set"),
    "sweep": (
        "strategy", "n", "report.evaluated", "report.min_correct", "report.worst_loss",
        "report.witness", "report.total_correct", "report.histogram", "structural_loss",
        "theorem_loss_even", "theorem_loss_general", "checked_loss", "bound_satisfied",
    ),
    "identity": ("n", "lhs", "rhs", "equal"),
    "bounds": ("rows", "all_within_theorem"),
    "search-optimal": ("n", "best_min_correct", "best_worst_loss", "strategies_enumerated"),
    "sample": (
        "strategy", "n", "trials", "seed", "red_count", "report.min_correct",
        "report.worst_loss", "report.witness", "theorem_loss", "bound_satisfied",
    ),
    "plan": ("n", "k", "l", "block_sizes", "blocks"),
}


def _text(value) -> str:
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_text(v)}" for k, v in value.items()) + "}"
    return str(value)


def _text_lines(record: dict, keys: tuple[str, ...]):
    for key in keys:
        value = record
        for name in key.split("."):
            value = value[name]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for row in value:
                yield " ".join(f"{k}={_text(v)}" for k, v in row.items())
        else:
            yield f"{name}: {_text(value)}"


def _render(args: argparse.Namespace, out, record: dict, table: Callable[[], list[tuple]]) -> None:
    if args.fmt == "json":
        print(json.dumps(record, indent=2), file=out)
    elif args.fmt == "csv":
        rows = ([_fmt_float(v) if isinstance(v, float) else v for v in row] for row in table())
        csv.writer(out, lineterminator="\n").writerows(rows)
    else:
        for line in _text_lines(record, _TEXT_KEYS[args.command]):
            print(line, file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatguess",
        description="Strategies and exhaustive verification for the simultaneous hat-guessing game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, *, strategy: bool = False, n: bool = True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if strategy:
            p.add_argument("--strategy", choices=STRATEGY_NAMES, required=True)
            p.add_argument("--tie-break", choices=("R", "B"))
            p.add_argument("--a", dest="blue_max", type=int)
            p.add_argument("--b", dest="red_min", type=int)
            p.add_argument("--block", help="partial block as 'lo-hi' or 'i,j,...'")
        if n:
            p.add_argument("--n", type=int, required=True)
        return p

    p = command("eval", _cmd_eval, "run one strategy on one distribution", strategy=True, n=False)
    p.add_argument("--omega", required=True, help="hat distribution as an {R,B} string")
    command("sweep", _cmd_sweep, "exhaustive worst-case report over all 2^n distributions",
            strategy=True)
    command("identity", _cmd_identity, "exact binomial-sum identity check")
    command("bounds", _cmd_bounds, "loss-bound table for even n from 6 up to --n")
    command("search-optimal", _cmd_search_optimal, "enumerate every strategy profile (n <= 3)")
    p = command("sample", _cmd_sample, "seeded Monte Carlo worst-case report", strategy=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--red-count",
                   help="fix the number of red hats (default: uniform over all distributions)")
    p.add_argument("--workers", type=int, default=1)
    command("plan", _cmd_plan, "partition plan used by the composite strategy")
    for p in sub.choices.values():
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="text")
    return parser


def run(args: argparse.Namespace, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        code, record, table = args.handler(args)
    except HatGameError as exc:
        print(f"error: {exc}", file=err)
        return 2
    _render(args, out, record, table)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
