"""Tests of the benchmark itself: seeded inputs, metric names and the gate.

Run from the root of a checkout:

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from collections import Counter
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from hatguess import StrategyProfile, composite_strategy  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class SkewedRule:
    """A rule whose bit path flips player 1's guess; its per-player path is honest."""

    def __init__(self, rule):
        self._rule = rule

    def __call__(self, observer, view):
        return self._rule(observer, view)

    def bulk_guesses(self, red_mask: int) -> int:
        return self._rule.bulk_guesses(red_mask) ^ 1


def _mix_key(cmd: workloads.Command) -> tuple[str, str, str]:
    if cmd.kind == "eval":
        return cmd.kind, cmd.option("--strategy"), cmd.fmt
    if cmd.kind == "sweep":
        return cmd.kind, cmd.option("--strategy"), ""
    return cmd.kind, "", ""


class InputsTest(unittest.TestCase):
    def test_cli_decks_repeat_per_seed(self):
        self.assertEqual(
            list(islice(workloads.cli_decks(7), 3)), list(islice(workloads.cli_decks(7), 3))
        )
        self.assertNotEqual(next(workloads.cli_decks(7)), next(workloads.cli_decks(8)))

    def test_sample_rounds_repeat_per_seed(self):
        self.assertEqual(
            list(islice(workloads.sample_rounds(7), 3)),
            list(islice(workloads.sample_rounds(7), 3)),
        )
        self.assertNotEqual(next(workloads.sample_rounds(7)), next(workloads.sample_rounds(8)))

    def test_every_deck_has_the_same_command_mix(self):
        mixes = {
            (
                tuple(sorted(Counter(map(_mix_key, deck)).items())),
                tuple(sorted(Counter((cmd.kind, cmd.fmt) for cmd in deck).items())),
            )
            for seed in range(5)
            for deck in islice(workloads.cli_decks(seed), 2)
        }
        self.assertEqual(len(mixes), 1)
        kinds = Counter(cmd.kind for cmd in next(workloads.cli_decks(0)))
        self.assertEqual(kinds, dict.fromkeys(workloads.CLI_COMMANDS, workloads.PER_DECK))


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_and_units_are_valid_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for metric in self.spec[section]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
                names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_what_the_runs_report(self):
        for section, table in (
            ("end_to_end", workloads.END_TO_END),
            ("per_layer", workloads.PER_LAYER),
        ):
            listed = {m["name"]: (m["unit"], m["better"]) for m in self.spec[section]}
            self.assertEqual(listed, table)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.WORKLOAD_NAMES, tuple(workloads.WORKLOADS))


# The layers each workload's traced pass measures; a run reports 0 for the rest.
LAYERS = {
    "sweep": {
        "strategies.partition_ms", "strategies.bulk_calls", "strategies.bulk_ns",
        "analysis.sweep_self_s", "analysis.fanout_speedup", "trace.overhead_pct",
    },
    "sample": {
        "strategies.partition_ms", "strategies.bulk_calls", "strategies.bulk_ns",
        "analysis.sample_self_ns.uniform", "analysis.sample_self_ns.r900",
        "analysis.sample_self_ns.r500", "trace.overhead_pct",
    },
    "cli": {
        *(f"cli.cmd_ms.{kind}" for kind in workloads.CLI_COMMANDS), "cli.eval_render_ms",
        "core.evaluate_calls", "core.evaluate_self_ms", "strategies.rule_calls",
        "strategies.rule_us", "strategies.bulk_calls", "strategies.bulk_ns",
        "strategies.partition_ms", "trace.overhead_pct",
    },
}


class TracedPassTest(unittest.TestCase):
    """One real traced pass of each workload (about 35 s in all)."""

    def test_each_workload_measures_its_layers(self):
        self.assertEqual(set().union(*LAYERS.values()), set(workloads.PER_LAYER))
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                traced = workload.trace(0, 1)
                self.assertEqual(len(traced.passes), 1)
                self.assertEqual(traced.loop.failed, 0, traced.loop.problems)
                values = traced.passes[0]
                self.assertEqual(set(values), LAYERS[name])
                for metric, value in values.items():
                    if metric != "trace.overhead_pct":
                        self.assertGreater(value, 0, metric)
                reported = traced.layer_metrics()
                self.assertEqual(set(reported), set(workloads.PER_LAYER))
                for metric, value in reported.items():
                    self.assertEqual(value, values.get(metric, 0.0), metric)


class GateTest(unittest.TestCase):
    def test_gate_passes_the_composite(self):
        loop = workloads.run_sample(0, seed=3)
        self.assertEqual((loop.attempted, loop.failed), (3, 0), loop.problems)

    def test_gate_catches_a_bulk_path_that_disagrees_with_the_rule(self):
        honest = composite_strategy(workloads.SAMPLE_N)
        skewed = StrategyProfile(honest.n, SkewedRule(honest.guess_rule), honest.name)
        loop = workloads.run_sample(0, seed=3, strategy=skewed)
        self.assertGreater(loop.failed / loop.attempted, 0)

    def test_cli_formats_agree(self):
        commands = [
            workloads.Command("eval", ("--strategy", "composite", "--omega", "RBBRRRBRBBRRBRBBBRRBR"), "text"),
            workloads.Command("plan", ("--n", "64"), "json"),
            workloads.Command("bounds", ("--n", "40"), "csv"),
            workloads.Command("identity", ("--n", "10"), "text"),
            workloads.Command("sweep", ("--strategy", "majority", "--n", "12"), "json"),
        ]
        for cmd in commands:
            self.assertEqual(workloads.check_formats(cmd), [], cmd.kind)

    def test_cli_check_catches_a_miscounted_eval(self):
        omega = "RBBRRB"
        cmd = workloads.Command("eval", ("--strategy", "pairing", "--omega", omega), "json")
        code, out, err = workloads.call_cli(cmd.argv())
        doc = json.loads(out)
        self.assertEqual(workloads.check_output(cmd, "json", code, out, err)[1], [])
        doc["correct_count"] += 1
        doc["correct_set"].append(0)
        problems = workloads.check_output(cmd, "json", code, json.dumps(doc), err)[1]
        self.assertTrue(any("re-counted" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
