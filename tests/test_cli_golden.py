"""Golden CLI output: stdout and exit code of every command in every format.

The files under ``tests/golden/`` hold the exact bytes each command prints;
``exit_codes.json`` holds its exit code.  Regenerate them only on purpose:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hatguess.cli import main

GOLDEN = Path(__file__).with_name("golden")
FORMATS = ("text", "json", "csv")
OMEGA = "RRBRBBRRRBRB"

CASES = {
    "eval-pairing": ["eval", "--strategy", "pairing", "--omega", OMEGA],
    "eval-majority": ["eval", "--strategy", "majority", "--omega", OMEGA, "--tie-break", "B"],
    "eval-composite": ["eval", "--strategy", "composite", "--omega", OMEGA],
    "eval-partial": [
        "eval", "--strategy", "partial", "--omega", OMEGA, "--block", "3-8", "--a", "1", "--b", "4",
    ],
    "sweep-pairing": ["sweep", "--strategy", "pairing", "--n", "10"],
    "sweep-majority": ["sweep", "--strategy", "majority", "--n", "10"],
    "sweep-composite": ["sweep", "--strategy", "composite", "--n", "10"],
    "sweep-partial": ["sweep", "--strategy", "partial", "--n", "10", "--block", "1-6", "--a", "1", "--b", "3"],
    "sample-uniform": ["sample", "--strategy", "composite", "--n", "100", "--trials", "1500", "--seed", "7"],
    "sample-fixed": [
        "sample", "--strategy", "composite", "--n", "100", "--trials", "1500", "--seed", "7",
        "--red-count", "60",
    ],
    "sample-majority-balanced": [
        "sample", "--strategy", "majority", "--n", "100", "--trials", "50", "--red-count", "50",
    ],
    "plan": ["plan", "--n", "64"],
    "bounds": ["bounds", "--n", "40"],
    "identity": ["identity", "--n", "20"],
    "search-optimal": ["search-optimal", "--n", "2"],
    "error-odd-pairing": ["eval", "--strategy", "pairing", "--omega", "RRB"],
}

GOLDEN_IDS = [f"{name}.{fmt}" for name in CASES for fmt in FORMATS]


def run_case(golden_id: str) -> tuple[int, str]:
    name, fmt = golden_id.rsplit(".", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*CASES[name], "--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("golden_id", GOLDEN_IDS)
def test_cli_output_matches_golden(golden_id):
    code, stdout = run_case(golden_id)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[golden_id]
    assert stdout == (GOLDEN / golden_id).read_text()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for golden_id in GOLDEN_IDS:
        codes[golden_id], stdout = run_case(golden_id)
        (GOLDEN / golden_id).write_text(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
