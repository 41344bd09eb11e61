"""The three workloads of the hatguess benchmark, their inputs and their checks.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned.  Inputs are made from the seed alone, and
hatguess sees only the generated inputs, through its public functions.

* ``sweep``: the exact certificate ``exhaustive_worst_case(composite_strategy(21),
  21, workers=2)``.  Odd n runs the spectator wrapper around the k = 2
  composite at n = 20.  It is the only workload where the fork fan-out and
  merge do work.  It is exhaustive, so the seed changes nothing.
* ``sample``: ``monte_carlo`` on ``composite_strategy(1000)`` (k = 7) with one
  worker, in rounds of a uniform, a red_count=900 and a red_count=500 sub-run
  whose trials stand 20 : 1 : 1.  Drawing masks and bulk guessing then take
  about half the time each, so neither can hide a regression in the other.
* ``cli``: in-process ``hatguess.cli.main(argv)`` calls with stdout captured.
  It is the only workload on the per-player path (``evaluate``, the rule's
  ``__call__``), CLI rendering and repeated ``make_partition``.

Each workload has an untraced loop (``run_*``) for the end-to-end metrics
and a traced loop (``trace_*``) for the per-layer metrics.  Both
check every output they time; a call whose check fails counts as failed.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

from hatguess import (
    WorstCaseReport,
    composite_strategy,
    evaluate,
    exhaustive_worst_case,
    guarantee_bound,
    majority_target,
    monte_carlo,
)
from hatguess import cli, strategies

from speed import Timing, timed, timed_fanned_out
from tracing import Tracer, counted, patched, proxy_cost_ns, traced_profile

# Metric name -> (unit, better).  BENCHMARK.json lists the same names.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

CLI_COMMANDS = ("eval", "plan", "bounds", "identity", "sweep")
# Sample sub-runs (label, red count, weight): a round runs weight * SAMPLE_TRIALS
# trials of each.
SUBRUNS = (("uniform", None, 20), ("r900", 900, 1), ("r500", 500, 1))

# Per-pass counts and times from a traced run.  A layer the workload does not
# exercise reads 0.
PER_LAYER = {
    "strategies.bulk_calls": ("count", "lower"),
    "strategies.bulk_ns": ("ns", "lower"),
    "strategies.rule_calls": ("count", "lower"),
    "strategies.rule_us": ("us", "lower"),
    "strategies.partition_ms": ("ms", "lower"),
    "core.evaluate_calls": ("count", "lower"),
    "core.evaluate_self_ms": ("ms", "lower"),
    "analysis.sweep_self_s": ("s", "lower"),
    **{f"analysis.sample_self_ns.{label}": ("ns", "lower") for label, _, _ in SUBRUNS},
    "analysis.fanout_speedup": ("x", "higher"),
    **{f"cli.cmd_ms.{kind}": ("ms", "lower") for kind in CLI_COMMANDS},
    "cli.eval_render_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


@dataclass
class Loop:
    """What the checked calls of one run did."""

    timings: list[Timing] = field(default_factory=list)  # one per timed call
    work: int = 0  # distributions scored (sweep, sample) or commands run (cli)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)  # information only, never checked

    def add(self, timing: Timing, work: int, problems: list[str]) -> None:
        self.timings.append(timing)
        self.work += work
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def attempted(self) -> int:
        return len(self.timings)

    @property
    def timed_s(self) -> float:
        """Wall time of the timed calls; a run stops once it reaches ``--seconds``."""
        return sum(t.wall_s for t in self.timings)


@dataclass
class Traced:
    """Per-pass layer values of a traced run, its spans and its checks."""

    passes: list[dict[str, float]] = field(default_factory=list)
    tracers: list[Tracer] = field(default_factory=list)
    loop: Loop = field(default_factory=Loop)
    notes: list[str] = field(default_factory=list)

    def layer_metrics(self) -> dict[str, float]:
        """Median of each layer value over the passes; 0 where never measured."""
        out = {}
        for name in PER_LAYER:
            values = [p[name] for p in self.passes if name in p]
            out[name] = statistics.median(values) if values else 0.0
        return out


def _check_witness(strategy, report: WorstCaseReport) -> list[str]:
    """Re-score the witness on the per-player path; it must show the worst loss."""
    witness = report.witness
    loss = majority_target(witness) - evaluate(strategy, witness).correct_count
    if loss != report.worst_loss:
        return [
            f"{report.mode} witness re-scores per player to loss {loss}, "
            f"report says {report.worst_loss}"
        ]
    return []


def _in_span(tracer: Tracer, name: str, fn, *args, **kwargs):
    with tracer.span(name):
        return fn(*args, **kwargs)


def _traced_build(tracer: Tracer, build: Callable[[], object]):
    """Run ``build`` with every ``make_partition`` call counted, inside a span."""
    partition = counted(tracer, "strategies.make_partition", strategies.make_partition)
    with patched(strategies, "make_partition", partition), tracer.span("strategies.build") as span:
        built = build()
    calls, ns = tracer.counter("strategies.make_partition", [span])
    return built, ns / calls / 1e6


def _run_passes(seconds: float, one_pass: Callable[[Tracer, int, Traced], dict]) -> Traced:
    """Traced passes while one more is expected to end within ``seconds``
    (at least one)."""
    traced = Traced()
    spent = 0.0
    while not traced.passes or spent * (1 + 1 / len(traced.passes)) <= seconds:
        t0 = perf_counter()
        tracer = Tracer(proxy_cost_ns())
        traced.passes.append(one_pass(tracer, len(traced.passes), traced))
        spent += perf_counter() - t0
        tracer.close()
        traced.tracers.append(tracer)
    return traced


# --- sweep ---------------------------------------------------------------

SWEEP_N = 21
SWEEP_WORKERS = 2
# The n = 21 composite report, pinned from the code when the benchmark was
# defined.  The total and the distribution count are checked from first
# principles instead.
SWEEP_PINNED = {
    "min_correct": 5,
    "worst_loss": 6,
    "witness": "BBBBBRBRBRBBBBBBRRRRR",
    "histogram": {
        5: 462, 6: 16842, 7: 120990, 8: 318900, 9: 422210, 10: 357974,
        11: 232234, 12: 165830, 13: 156520, 14: 130580, 15: 95276,
        16: 53286, 17: 20040, 18: 5080, 19: 840, 20: 84, 21: 4,
    },
}


def check_sweep(strategy, report: WorstCaseReport) -> list[str]:
    n = SWEEP_N
    problems = []
    if report.evaluated != 1 << n or sum(report.histogram.values()) != 1 << n:
        problems.append(f"sweep scored {report.evaluated} distributions, expected {1 << n}")
    if report.total_correct != n << (n - 1):
        problems.append(f"sweep total {report.total_correct} != n * 2^(n-1) = {n << (n - 1)}")
    got = {
        "min_correct": report.min_correct,
        "worst_loss": report.worst_loss,
        "witness": report.witness.to_text(),
        "histogram": report.histogram,
    }
    for key, want in SWEEP_PINNED.items():
        if got[key] != want:
            problems.append(f"sweep {key} {got[key]!r} != pinned {want!r}")
    return problems + _check_witness(strategy, report)


def run_sweep(seconds: float, seed: int, strategy=None) -> Loop:
    strategy = strategy or composite_strategy(SWEEP_N)
    loop = Loop()
    while not loop.timings or loop.timed_s < seconds:
        report, timing = timed_fanned_out(
            exhaustive_worst_case, strategy, SWEEP_N, workers=SWEEP_WORKERS
        )
        loop.add(timing, report.evaluated, check_sweep(strategy, report))
    return loop


def trace_sweep(seconds: float, seed: int) -> Traced:
    def one_pass(tracer: Tracer, index: int, traced: Traced) -> dict:
        strategy, partition_ms = _traced_build(tracer, lambda: composite_strategy(SWEEP_N))
        serial, serial_t = timed(exhaustive_worst_case, strategy, SWEEP_N, workers=1)
        fanned, fanned_t = timed_fanned_out(
            exhaustive_worst_case, strategy, SWEEP_N, workers=SWEEP_WORKERS
        )
        name = "analysis.exhaustive_worst_case"
        profile = traced_profile(strategy, tracer)
        report, traced_t = timed(_in_span, tracer, name, exhaustive_worst_case, profile, SWEEP_N)
        for rep, timing in ((serial, serial_t), (fanned, fanned_t), (report, traced_t)):
            traced.loop.add(timing, rep.evaluated, check_sweep(strategy, rep))
        span = tracer.named(name)[-1]
        calls, bulk_ns = tracer.counter("strategies.bulk", [span])
        bulk_s, self_s = bulk_ns / 1e9, tracer.self_ns(span) / 1e9
        proxy_s = tracer.proxy_ns(span) / 1e9
        # bulk + self, at nominal speed, against the untraced workers=1 sweep.
        nominal = (bulk_s + self_s) * traced_t.scaled_s / traced_t.wall_s
        traced.notes.append(
            f"pass {index}: traced workers=1 sweep {traced_t.wall_s:.3f} s = bulk {bulk_s:.3f} s"
            f" + analysis self {self_s:.3f} s + proxy {proxy_s:.3f} s (accounts for"
            f" {100 * (bulk_s + self_s + proxy_s) / traced_t.wall_s:.2f}%); bulk + self at"
            f" nominal speed is {100 * nominal / serial_t.scaled_s:.1f}% of the untraced sweep"
        )
        return {
            "strategies.partition_ms": partition_ms,
            "strategies.bulk_calls": calls,
            "strategies.bulk_ns": bulk_ns / calls,
            "analysis.sweep_self_s": self_s,
            "analysis.fanout_speedup": serial_t.wall_s / fanned_t.wall_s,
            "trace.overhead_pct": 100 * (traced_t.scaled_s / serial_t.scaled_s - 1),
        }

    return _run_passes(seconds, one_pass)


# --- sample --------------------------------------------------------------

SAMPLE_N = 1000
SAMPLE_TRIALS = 512


def sample_rounds(seed: int) -> Iterator[list[tuple[str, int | None, int, int]]]:
    """Rounds of sub-runs ``(label, red_count, trials, sampler_seed)``."""
    rng = random.Random(f"sample/{seed}")
    while True:
        yield [
            (label, red, weight * SAMPLE_TRIALS, rng.getrandbits(32))
            for label, red, weight in SUBRUNS
        ]


def check_sample(strategy, report: WorstCaseReport, red_count, trials: int) -> list[str]:
    problems = []
    if not report.evaluated == sum(report.histogram.values()) == trials:
        problems.append(
            f"sample evaluated {report.evaluated}, histogram sums to "
            f"{sum(report.histogram.values())}, trials {trials}"
        )
    if red_count is not None and report.witness.red_count != red_count:
        problems.append(f"sample witness has {report.witness.red_count} reds, asked {red_count}")
    theorem = guarantee_bound(report.n).theorem_loss_even
    if report.worst_loss > theorem:
        problems.append(f"sample worst loss {report.worst_loss} exceeds theorem {theorem:.3f}")
    return problems + _check_witness(strategy, report)


def report_digest(report: WorstCaseReport) -> str:
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_sample(seconds: float, seed: int, strategy=None) -> Loop:
    strategy = strategy or composite_strategy(SAMPLE_N)
    loop = Loop()
    for subruns in sample_rounds(seed):
        for label, red, trials, sampler_seed in subruns:
            report, timing = timed(
                monte_carlo, strategy, SAMPLE_N, trials, red_count=red, seed=sampler_seed
            )
            loop.add(timing, trials, check_sample(strategy, report, red, trials))
            loop.digests.append(f"{label}/{sampler_seed}:{report_digest(report)}")
        if loop.timed_s >= seconds:
            return loop


def trace_sample(seconds: float, seed: int) -> Traced:
    rounds = sample_rounds(seed)

    def one_pass(tracer: Tracer, index: int, traced: Traced) -> dict:
        strategy, partition_ms = _traced_build(tracer, lambda: composite_strategy(SAMPLE_N))
        profile = traced_profile(strategy, tracer)
        subruns = next(rounds)
        values = {"strategies.partition_ms": partition_ms}
        plain_s = traced_s = 0.0
        spans = []
        for label, red, trials, sampler_seed in subruns:
            report, timing = timed(
                monte_carlo, strategy, SAMPLE_N, trials, red_count=red, seed=sampler_seed
            )
            plain_s += timing.scaled_s
            traced.loop.add(timing, trials, check_sample(strategy, report, red, trials))
        for label, red, trials, sampler_seed in subruns:
            name = f"analysis.monte_carlo.{label}"
            report, timing = timed(
                _in_span, tracer, name, monte_carlo, profile, SAMPLE_N, trials,
                red_count=red, seed=sampler_seed,
            )
            traced_s += timing.scaled_s
            traced.loop.add(timing, trials, check_sample(strategy, report, red, trials))
            spans.append(tracer.named(name)[-1])
            values[f"analysis.sample_self_ns.{label}"] = tracer.self_ns(spans[-1]) / trials
        calls, bulk_ns = tracer.counter("strategies.bulk", spans)
        values["strategies.bulk_calls"] = calls
        values["strategies.bulk_ns"] = bulk_ns / calls
        values["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
        return values

    return _run_passes(seconds, one_pass)


# --- cli -----------------------------------------------------------------

CLI_STRATEGIES = ("composite", "majority", "pairing", "partial")
SWEEP_STRATEGIES = ("composite", "majority", "pairing")
FORMATS = ("text", "json", "csv")
PER_DECK = len(CLI_STRATEGIES) * len(FORMATS)  # commands of each kind in a deck
_BITS_TO_HATS = str.maketrans("01", "BR")


@dataclass(frozen=True)
class Command:
    kind: str
    args: tuple[str, ...]
    fmt: str

    def argv(self, fmt: str | None = None) -> list[str]:
        return [self.kind, *self.args, "--format", fmt or self.fmt]

    def option(self, name: str) -> str:
        return self.args[self.args.index(name) + 1]


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` values in [lo, hi], one from each of ``count`` equal strata,
    in random order; keeps a deck's size mix nearly the same for every seed."""
    width = (hi - lo + 1) / count
    values = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def _even(n: int) -> int:
    return n - n % 2


def _eval_command(rng: random.Random, strategy: str, n: int, fmt: str) -> Command:
    if strategy in ("pairing", "partial"):
        n = _even(n)
    omega = format(rng.getrandbits(n), f"0{n}b").translate(_BITS_TO_HATS)
    args = ["--strategy", strategy, "--omega", omega]
    if strategy == "majority":
        args += ["--tie-break", rng.choice("RB")]
    elif strategy == "partial":
        pairs = rng.randint(2, n // 4)
        first = 2 * rng.randint(0, n // 2 - pairs) + 1
        below, above = rng.choice(((0, 1), (1, 0), (1, 1), (0, 2), (2, 0)))
        args += [
            "--a", str(pairs - 1 - below),
            "--b", str(pairs + above),
            "--block", f"{first}-{first + 2 * pairs - 1}",
        ]
    return Command("eval", tuple(args), fmt)


def _formats(rng: random.Random) -> list[str]:
    """Every format equally often over ``PER_DECK`` commands, in random order."""
    fmts = list(FORMATS) * (PER_DECK // len(FORMATS))
    rng.shuffle(fmts)
    return fmts


def cli_deck(rng: random.Random) -> list[Command]:
    """One deck: ``PER_DECK`` commands of each kind, in random order.

    There is no usage data to weight the commands by, so each gets the same
    share.  ``PER_DECK`` is 12 so that a deck runs ``eval`` once per strategy
    and format.  Sizes come one from each of 12 equal strata of their range:
    ``eval`` at n in [200, 1000], ``plan`` up to 4096, ``bounds`` up to 512,
    ``identity`` up to 1000.  ``sweep`` runs at n = 12, four times per
    strategy it accepts without options.
    """
    deck = []
    evals = [(s, f) for s in CLI_STRATEGIES for f in FORMATS]
    for (strategy, fmt), n in zip(evals, _spread(rng, 200, 1000, PER_DECK)):
        deck.append(_eval_command(rng, strategy, n, fmt))
    for kind, lo, hi in (("plan", 4, 4096), ("bounds", 6, 512), ("identity", 2, 1000)):
        for n, fmt in zip(_spread(rng, lo, hi, PER_DECK), _formats(rng)):
            deck.append(Command(kind, ("--n", str(_even(n))), fmt))
    sweeps = SWEEP_STRATEGIES * (PER_DECK // len(SWEEP_STRATEGIES))
    for strategy, fmt in zip(sweeps, _formats(rng)):
        deck.append(Command("sweep", ("--strategy", strategy, "--n", "12"), fmt))
    rng.shuffle(deck)
    return deck


def cli_decks(seed: int) -> Iterator[list[Command]]:
    rng = random.Random(f"cli/{seed}")
    while True:
        yield cli_deck(rng)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _key_values(text: str) -> dict[str, str]:
    pairs = (line.partition(": ") for line in text.splitlines())
    return {key: value for key, sep, value in pairs if sep}


def _g(x: float) -> str:
    return f"{x:.12g}"


def cli_facts(kind: str, fmt: str, text: str) -> dict:
    """The numbers one command's output carries, keyed the same in every
    format; a format omits the facts it does not print."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
    elif fmt == "json":
        doc = json.loads(text)
    else:
        kv = _key_values(text)
    if kind == "eval":
        if fmt == "csv":
            correct = [int(r[0]) for r in rows if r[3] == "True"]
            return {
                "omega": "".join(r[1] for r in rows),
                "guesses": "".join(r[2] for r in rows),
                "correct_count": len(correct),
                "correct_set": correct,
            }
        if fmt == "json":
            return {k: doc[k] for k in ("omega", "guesses", "correct_count", "correct_set")}
        return {
            "omega": kv["omega"],
            "guesses": kv["guesses"],
            "correct_count": int(kv["correct_count"]),
            "correct_set": ast.literal_eval(kv["correct_set"]),
        }
    if kind == "plan":
        if fmt == "csv":
            sizes = [int(r[1]) for r in rows]
            return {
                "n": sum(sizes),
                "k": len(rows),
                "block_sizes": sizes,
                "ends": [(int(r[2]), int(r[3])) for r in rows],
            }
        if fmt == "json":
            n, k, sizes, blocks = doc["n"], doc["k"], doc["block_sizes"], doc["blocks"]
            large = doc["l"]
        else:
            n, k, large = int(kv["n"]), int(kv["k"]), int(kv["l"])
            sizes = ast.literal_eval(kv["block_sizes"])
            blocks = ast.literal_eval(kv["blocks"])
        return {
            "n": n,
            "k": k,
            "l": large,
            "block_sizes": sizes,
            "ends": [(b[0], b[-1]) for b in blocks],
        }
    if kind == "bounds":
        if fmt == "csv":
            return {"rows": [(*map(int, r[:4]), *r[4:]) for r in rows]}
        if fmt == "json":
            keys = ("theorem_loss_even", "theorem_loss_general", "lower_bound_loss")
            table = [
                (r["n"], r["k"], r["max_block"], r["structural_loss"], *(_g(r[k]) for k in keys))
                for r in doc["rows"]
            ]
            return {"rows": table, "all_within_theorem": doc["all_within_theorem"]}
        table = []
        for line in text.splitlines():
            if line.startswith("n="):
                values = [token.split("=", 1)[1] for token in line.split()]
                table.append((*map(int, values[:4]), *values[4:]))
        return {"rows": table, "all_within_theorem": kv["all_within_theorem"] == "True"}
    if kind == "identity":
        if fmt == "csv":
            n, lhs, rhs, equal = rows[0]
        elif fmt == "json":
            n, lhs, rhs, equal = doc["n"], doc["lhs"], doc["rhs"], str(doc["equal"])
        else:
            n, lhs, rhs, equal = kv["n"], kv["lhs"], kv["rhs"], kv["equal"]
        return {"n": int(n), "lhs": int(lhs), "rhs": int(rhs), "equal": equal == "True"}
    if kind == "sweep":
        if fmt == "csv":
            return {"histogram": {int(c): int(k) for c, k in rows}}
        if fmt == "json":
            rep = doc["report"]
            facts = {k: rep[k] for k in ("evaluated", "min_correct", "worst_loss", "witness")}
            facts["total_correct"] = rep["total_correct"]
            facts["histogram"] = {int(c): k for c, k in rep["histogram"].items()}
            facts["bound_satisfied"] = doc["bound_satisfied"]
            return facts
        facts = {k: int(kv[k]) for k in ("evaluated", "min_correct", "worst_loss", "total_correct")}
        facts["witness"] = kv["witness"]
        facts["histogram"] = ast.literal_eval(kv["histogram"])
        facts["bound_satisfied"] = kv["bound_satisfied"] == "True"
        return facts
    raise ValueError(f"no facts for command {kind!r}")


def _fact_problems(cmd: Command, facts: dict) -> list[str]:
    """Checks one output can make on its own, from the command's input."""
    problems = []

    def want(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{cmd.kind} --format {cmd.fmt}: {what}")

    if cmd.kind == "eval":
        omega = cmd.option("--omega")
        matches = sum(g == h for g, h in zip(facts["guesses"], omega))
        want(facts["omega"] == omega, "echoed omega differs from the input")
        want(len(facts["guesses"]) == len(omega), "guess string has the wrong length")
        want(facts["correct_count"] == matches, f"correct_count {facts['correct_count']} != {matches} re-counted")
        want(facts["correct_count"] == len(facts["correct_set"]), "correct_set size differs from correct_count")
    elif cmd.kind == "plan":
        n = int(cmd.option("--n"))
        want(facts["n"] == n == sum(facts["block_sizes"]), "blocks do not cover n")
        want(facts["k"] == len(facts["block_sizes"]), "k differs from the block count")
    elif cmd.kind == "bounds":
        n = int(cmd.option("--n"))
        want([r[0] for r in facts["rows"]] == list(range(6, n + 1, 2)), "rows do not cover 6..n")
        want(facts.get("all_within_theorem", True), "a structural loss exceeds the theorem")
    elif cmd.kind == "identity":
        want(facts["n"] == int(cmd.option("--n")), "echoed n differs from the input")
        want(facts["equal"] and facts["lhs"] == facts["rhs"], "identity does not hold")
    elif cmd.kind == "sweep":
        n = int(cmd.option("--n"))
        want(sum(facts["histogram"].values()) == 1 << n, "histogram does not sum to 2^n")
        want(facts.get("evaluated", 1 << n) == 1 << n, "evaluated != 2^n")
        want(facts.get("total_correct", n << (n - 1)) == n << (n - 1), "total != n * 2^(n-1)")
        want(facts.get("bound_satisfied", True), "worst loss exceeds the checked bound")
    return problems


def check_output(cmd: Command, fmt: str, code: int, out: str, err: str) -> tuple[dict, list[str]]:
    if code != 0:
        return {}, [f"{' '.join(cmd.argv(fmt))[:120]}... exited {code}: {err.strip()[:200]}"]
    try:
        facts = cli_facts(cmd.kind, fmt, out)
    except (ValueError, KeyError, IndexError, SyntaxError) as exc:
        return {}, [f"{cmd.kind} --format {fmt}: unreadable output ({exc!r})"]
    return facts, _fact_problems(Command(cmd.kind, cmd.args, fmt), facts)


def check_formats(cmd: Command) -> list[str]:
    """Run ``cmd`` in every format; the facts they share must agree."""
    facts = {}
    for fmt in FORMATS:
        facts[fmt], problems = check_output(cmd, fmt, *call_cli(cmd.argv(fmt)))
        if problems:
            return problems
    problems = []
    for a, b in (("json", "text"), ("json", "csv"), ("text", "csv")):
        shared = facts[a].keys() & facts[b].keys()
        if not shared:
            problems.append(f"{cmd.kind}: {a} and {b} share no facts")
        for key in sorted(shared):
            if facts[a][key] != facts[b][key]:
                problems.append(f"{cmd.kind}: {key} differs between {a} and {b}")
    return problems


def _check_command(cmd: Command, result: tuple[int, str, str], timing: Timing, loop: Loop,
                   cross_check: bool) -> None:
    _, problems = check_output(cmd, cmd.fmt, *result)
    if cross_check and not problems:
        problems = check_formats(cmd)
    loop.add(timing, 1, problems)


def run_cli(seconds: float, seed: int) -> Loop:
    """Whole decks until the timed calls reach ``seconds``; the first deck's
    commands are also re-run, untimed, in the other two formats."""
    loop = Loop()
    for index, deck in enumerate(cli_decks(seed)):
        for cmd in deck:
            result, timing = timed(call_cli, cmd.argv())
            _check_command(cmd, result, timing, loop, cross_check=index == 0)
        if loop.timed_s >= seconds:
            return loop


def _traced_call(tracer: Tracer, name: str, fn):
    """``fn(strategy, ...)`` run inside span ``name`` on a traced copy of the profile."""

    def wrapper(strategy, *args, **kwargs):
        profile = traced_profile(strategy, tracer)
        with tracer.span(name):
            return fn(profile, *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def _cli_traced(tracer: Tracer):
    """Trace the calls the CLI makes into core, analysis and strategies."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(cli, "evaluate", _traced_call(tracer, "core.evaluate", cli.evaluate)))
        stack.enter_context(
            patched(
                cli,
                "exhaustive_worst_case",
                _traced_call(tracer, "analysis.exhaustive_worst_case", cli.exhaustive_worst_case),
            )
        )
        for module in (cli, strategies):
            timed = counted(tracer, "strategies.make_partition", module.make_partition)
            stack.enter_context(patched(module, "make_partition", timed))
        yield


def trace_cli(seconds: float, seed: int) -> Traced:
    decks = cli_decks(seed)

    def one_pass(tracer: Tracer, index: int, traced: Traced) -> dict:
        deck = next(decks)
        plain: dict[str, list[float]] = {kind: [] for kind in CLI_COMMANDS}
        for cmd in deck:
            result, timing = timed(call_cli, cmd.argv())
            plain[cmd.kind].append(timing.scaled_s)
            _check_command(cmd, result, timing, traced.loop, cross_check=index == 0)
        traced_s = 0.0
        with _cli_traced(tracer):
            for cmd in deck:
                result, timing = timed(_in_span, tracer, f"cli.{cmd.kind}", call_cli, cmd.argv())
                traced_s += timing.scaled_s
                _check_command(cmd, result, timing, traced.loop, cross_check=False)
        evaluates = tracer.named("core.evaluate")
        render = [
            s.ns - sum(c.ns for c in tracer.children(s) if c.name == "core.evaluate")
            for s in tracer.named("cli.eval")
        ]
        values = {f"cli.cmd_ms.{kind}": 1e3 * statistics.median(v) for kind, v in plain.items()}
        values["cli.eval_render_ms"] = statistics.median(render) / 1e6
        values["core.evaluate_calls"] = len(evaluates)
        values["core.evaluate_self_ms"] = statistics.median(map(tracer.self_ns, evaluates)) / 1e6
        for counter, calls_key, time_key, scale in (
            ("strategies.rule", "strategies.rule_calls", "strategies.rule_us", 1e3),
            ("strategies.bulk", "strategies.bulk_calls", "strategies.bulk_ns", 1.0),
        ):
            calls, ns = tracer.counter(counter)
            values[calls_key] = calls
            values[time_key] = ns / calls / scale
        calls, ns = tracer.counter("strategies.make_partition", tracer.named("cli.plan"))
        values["strategies.partition_ms"] = ns / calls / 1e6
        values["trace.overhead_pct"] = 100 * (traced_s / sum(map(sum, plain.values())) - 1)
        return values

    return _run_passes(seconds, one_pass)


@dataclass(frozen=True)
class Workload:
    run: Callable[[float, int], Loop]
    trace: Callable[[float, int], Traced]
    # What set-up builds in a fresh interpreter, after ``import hatguess``.
    setup: str


WORKLOADS = {
    "sweep": Workload(run_sweep, trace_sweep, f"hatguess.composite_strategy({SWEEP_N})"),
    "sample": Workload(run_sample, trace_sample, f"hatguess.composite_strategy({SAMPLE_N})"),
    "cli": Workload(run_cli, trace_cli, "import hatguess.cli\nhatguess.cli.build_parser()"),
}
