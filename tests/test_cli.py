"""Command-line surface: output schemas, determinism, exit codes."""

import io
import json
import shlex
from pathlib import Path

import pytest

from hatguess import analysis, cli, strategies
from hatguess.cli import build_parser, main, run


def invoke(*argv):
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code), "", ""
    out, err = io.StringIO(), io.StringIO()
    code = run(ns, out, err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def test_eval_majority_balanced():
    code, payload = invoke_json("eval", "--strategy", "majority", "--omega", "RRBB")
    assert code == 0
    assert payload["correct_count"] == 0
    assert payload["guesses"] == "BBRR"
    assert payload["correct_set"] == []


def test_eval_text_carries_same_numbers():
    code, out, _ = invoke("eval", "--strategy", "majority", "--omega", "RRBB")
    assert code == 0
    assert "correct_count: 0" in out
    assert "guesses: BBRR" in out


def test_eval_csv():
    code, out, _ = invoke(
        "eval", "--strategy", "pairing", "--omega", "RB", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "player,hat,guess,correct"
    assert lines[1] == "1,R,B,False"
    assert lines[2] == "2,B,B,True"


def test_eval_partial_strategy():
    code, payload = invoke_json(
        "eval", "--strategy", "partial", "--omega", "RRRB",
        "--block", "1-4", "--a", "0", "--b", "3",
    )
    assert code == 0
    assert payload["guesses"] == "RBBR"
    assert payload["correct_count"] == 1


def test_eval_rejects_bad_omega():
    code, _, err = invoke("eval", "--strategy", "majority", "--omega", "RRXB")
    assert code == 2
    assert "invalid character" in err


def test_eval_rejects_odd_n_for_pairing():
    code, _, err = invoke("eval", "--strategy", "pairing", "--omega", "RRB")
    assert code == 2
    assert "even" in err


def test_inapplicable_options_are_rejected():
    # --trials belongs to sample, not eval: argparse usage error
    code, _, _ = invoke("eval", "--strategy", "majority", "--omega", "RRBB", "--trials", "5")
    assert code == 2
    # --a belongs to the partial strategy only
    code, _, err = invoke("sweep", "--strategy", "majority", "--n", "4", "--a", "1")
    assert code == 2
    assert "partial" in err
    # --tie-break belongs to the majority strategy only
    code, _, err = invoke("eval", "--strategy", "pairing", "--omega", "RB", "--tie-break", "B")
    assert code == 2


def test_partial_requires_thresholds():
    code, _, err = invoke("eval", "--strategy", "partial", "--omega", "RRBB")
    assert code == 2
    assert "--a" in err


def test_sweep_composite_json():
    code, payload = invoke_json("sweep", "--strategy", "composite", "--n", "12")
    assert code == 0
    assert payload["structural_loss"] == 4
    assert payload["report"]["worst_loss"] <= 4
    assert payload["report"]["evaluated"] == 4096
    assert payload["report"]["total_correct"] == 12 * 2**11
    assert payload["bound_satisfied"] is True
    assert payload["checked_loss"] == 4


def test_sweep_text_carries_same_numbers():
    code, out, _ = invoke("sweep", "--strategy", "composite", "--n", "12")
    assert code == 0
    assert "worst_loss: 4" in out
    assert "structural_loss: 4" in out
    assert "bound_satisfied: True" in out


def test_sweep_csv_histogram_rows():
    code, out, _ = invoke(
        "sweep", "--strategy", "pairing", "--n", "6", "--format", "csv"
    )
    assert code == 0
    assert out.strip().splitlines() == ["correct_count,omega_count", "3,64"]


def test_sweep_capacity_error():
    code, _, err = invoke("sweep", "--strategy", "composite", "--n", "4096")
    assert code == 2
    assert "monte_carlo" in err


def test_identity_command():
    code, payload = invoke_json("identity", "--n", "6")
    assert code == 0
    assert payload == {"command": "identity", "n": 6, "lhs": 192, "rhs": 192, "equal": True}
    code, _, err = invoke("identity", "--n", "5")
    assert code == 2
    assert "even" in err


def test_bounds_command():
    code, payload = invoke_json("bounds", "--n", "16")
    assert code == 0
    assert payload["all_within_theorem"] is True
    rows = {row["n"]: row for row in payload["rows"]}
    assert sorted(rows) == [6, 8, 10, 12, 14, 16]
    assert rows[16]["structural_loss"] == 5
    assert rows[16]["theorem_loss_even"] == pytest.approx(8.6195, abs=1e-4)
    # >= 10 significant digits in text mode floats
    code, out, _ = invoke("bounds", "--n", "6")
    assert code == 0
    assert "theorem_loss_even=4.96" in out and len(out.split("theorem_loss_even=")[1].split()[0]) >= 11


def test_search_optimal_command():
    code, payload = invoke_json("search-optimal", "--n", "2")
    assert code == 0
    assert payload["best_min_correct"] == 1
    assert payload["strategies_enumerated"] == 16
    code, _, err = invoke("search-optimal", "--n", "5")
    assert code == 2
    assert "capped" in err


def test_sample_command_deterministic():
    args = (
        "sample", "--strategy", "composite", "--n", "50",
        "--trials", "400", "--seed", "7",
    )
    code1, out1, _ = invoke(*args, "--format", "json")
    code2, out2, _ = invoke(*args, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["report"]["evaluated"] == 400
    assert payload["red_count"] == "uniform"
    assert payload["bound_satisfied"] is True


def test_sample_with_red_count():
    code, payload = invoke_json(
        "sample", "--strategy", "composite", "--n", "64",
        "--trials", "200", "--seed", "3", "--red-count", "58",
    )
    assert code == 0
    assert payload["red_count"] == 58
    assert payload["report"]["witness"].count("R") == 58


def test_sample_guarantee_violation_exits_one():
    # the majority strategy collapses on balanced draws: worst loss n/2
    # crushes the composite benchmark at n = 100
    code, out, _ = invoke(
        "sample", "--strategy", "majority", "--n", "100",
        "--trials", "50", "--seed", "1", "--red-count", "50",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["report"]["worst_loss"] == 50
    assert payload["bound_satisfied"] is False


def test_plan_command_schema():
    code, payload = invoke_json("plan", "--n", "64")
    assert code == 0
    assert payload == {
        "n": 64,
        "k": 3,
        "l": 2,
        "block_sizes": [22, 22, 20],
        "blocks": [list(range(1, 23)), list(range(23, 45)), list(range(45, 65))],
    }


def test_plan_csv():
    code, out, _ = invoke("plan", "--n", "6", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == [
        "block,size,first,last",
        "1,4,1,4",
        "2,2,5,6",
    ]


def test_main_returns_usage_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_main_runs_quietly(capsys):
    assert main(["identity", "--n", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True


def test_bounds_rows_follow_make_partition():
    # one size rule: each row's sizes and loss are those of the plan it stands for
    code, payload = invoke_json("bounds", "--n", "1024")
    assert code == 0
    for row in payload["rows"]:
        plan = strategies.make_partition(row["n"])
        bound = strategies.guarantee_bound(row["n"], plan)
        assert (row["k"], row["max_block"], row["structural_loss"]) == (
            plan.k, max(plan.block_sizes), bound.structural_loss
        ), row["n"]
    assert [row["n"] for row in payload["rows"]] == list(range(6, 1025, 2))


def test_bounds_builds_no_plan(monkeypatch):
    def no_plan(*args):
        raise AssertionError("bounds built a partition plan")

    monkeypatch.setattr(cli, "make_partition", no_plan)
    monkeypatch.setattr(strategies.PartitionPlan, "__post_init__", no_plan)
    code, payload = invoke_json("bounds", "--n", "4096")
    assert code == 0 and len(payload["rows"]) == 2046


def test_bounds_and_identity_caps_exit_2_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the command started working above its cap")

    # the first work each command does after its cap check
    monkeypatch.setattr(cli, "_block_sizes", no_work)
    monkeypatch.setattr(analysis, "_binomial_row", no_work)
    for command in ("bounds", "identity"):
        code, out, err = invoke(command, "--n", "4098")
        assert (code, out) == (2, "")
        assert "capped" in err and "4096" in err


def test_plan_and_sample_caps_exit_2_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started working above its cap")

    monkeypatch.setattr(cli, "make_partition", no_work)
    monkeypatch.setattr(cli, "monte_carlo", no_work)
    sample = ("sample", "--strategy", "composite")
    for argv, cap in [
        (("plan", "--n", "4098"), "--n <= 4096"),
        ((*sample, "--n", "4098"), "--n <= 4096"),
        ((*sample, "--n", "12", "--trials", "1000001"), "--trials <= 1000000"),
    ]:
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert "capped" in err and cap in err


def test_sweep_cap_exits_2_before_the_strategy_is_built(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started working above its cap")

    monkeypatch.setattr(cli, "composite_strategy", no_work)
    monkeypatch.setattr(cli, "exhaustive_worst_case", no_work)
    code, out, err = invoke("sweep", "--strategy", "composite", "--n", "4098")
    assert (code, out) == (2, "")
    assert "capped" in err and "--n <= 4096" in err


def readme_cli_lines():
    """The ``hatguess ...`` lines of the code block under the README's ## CLI."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("hatguess ")]
    assert lines, "no hatguess lines in the README's ## CLI block"
    return lines


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0
