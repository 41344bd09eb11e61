"""Worker-count validation and the pool-size cap, checked without starting processes."""

import concurrent.futures
import multiprocessing
import subprocess
import sys

import pytest

from hatguess import (
    Color,
    ContractError,
    StrategyProfile,
    composite_strategy,
    exhaustive_worst_case,
    monte_carlo,
)
from hatguess import analysis
from hatguess.cli import main


@pytest.mark.parametrize(
    "workers,chunks,cpus,expected",
    [
        (1, 8, 4, 1),
        (2, 8, 4, 2),
        (100_000, 4, 64, 4),    # never more processes than chunks
        (100_000, 16384, 2, 2),  # never more processes than CPUs
        (8, 8, None, 1),         # unknown CPU count: run serially
    ],
)
def test_pool_size_is_capped(monkeypatch, workers, chunks, cpus, expected):
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
    assert analysis._pool_size(workers, chunks) == expected


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_run_chunks_starts_the_capped_pool(monkeypatch):
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.sizes.clear()
    strategy = composite_strategy(12)
    capped = monte_carlo(strategy, 12, trials=5000, workers=100_000)  # 5 chunks
    assert RecordingPool.sizes == [3]
    assert capped == monte_carlo(strategy, 12, trials=5000, workers=1)


@pytest.mark.parametrize("workers", [0, -1, 1.5, 2.0, True])
def test_sweep_and_sample_reject_fewer_than_one_worker(workers):
    strategy = composite_strategy(12)
    with pytest.raises(ContractError, match="worker"):
        exhaustive_worst_case(strategy, 12, workers=workers)
    with pytest.raises(ContractError, match="worker"):
        monte_carlo(strategy, 12, trials=10, workers=workers)


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--strategy", "composite", "--n", "12", "--trials", "10", "--workers", "0"],
        ["sample", "--strategy", "composite", "--n", "12", "--trials", "10", "--workers", "-3"],
    ],
)
def test_cli_exits_2_on_fewer_than_one_worker(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least one worker" in captured.err


def test_sweep_takes_no_workers_option(capsys):
    """Every rule the CLI builds is swept over orbits in one process, so the
    option would be ignored; it is rejected instead."""
    assert main(["sweep", "--strategy", "composite", "--n", "12", "--workers", "2"]) == 2
    assert capsys.readouterr().out == ""


class ContextRecordingPool(RecordingPool):
    """Records the multiprocessing context it is given; starts no process."""

    contexts = []

    def __init__(self, max_workers, mp_context):
        self.contexts.append(mp_context)


@pytest.mark.parametrize("fork_available,expected", [(True, "fork"), (False, "spawn")])
def test_run_chunks_picks_fork_else_spawn(monkeypatch, fork_available, expected):
    def get_context(method):
        if method == "fork" and not fork_available:
            raise ValueError("cannot find context for 'fork'")
        return f"{method} context"

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ContextRecordingPool)
    ContextRecordingPool.contexts.clear()
    strategy = composite_strategy(12)
    pooled = monte_carlo(strategy, 12, trials=5000, workers=2)
    assert ContextRecordingPool.contexts == [f"{expected} context"]
    assert pooled == monte_carlo(strategy, 12, trials=5000, workers=1)


class RefusingPool:
    """Stands in for ProcessPoolExecutor and fails if any pool is started."""

    def __init__(self, max_workers, mp_context):
        raise AssertionError("a pool started for a rule that cannot be pickled")


def test_unpicklable_rule_needs_one_worker(monkeypatch):
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusingPool)
    strategy = StrategyProfile(12, lambda obs, view: Color.RED, "always-red")
    with pytest.raises(ContractError, match="workers=1"):
        exhaustive_worst_case(strategy, 12, workers=2)  # 4 chunks of 1024
    with pytest.raises(ContractError, match="workers=1"):
        monte_carlo(strategy, 12, trials=5000, workers=2)  # 5 chunks of 1024


def test_import_loads_no_process_pool():
    code = (
        "import sys, hatguess, hatguess.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
