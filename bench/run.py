"""Benchmark of the hatguess package: one workload per run.

Usage, from the root of a checkout that holds ``src/hatguess``:

    python3 bench/run.py --workload sweep|sample|cli|all --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times the workload with tracing off and reports
the end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
of a traced run and writes its spans to ``.bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  See
``bench/README.md`` for the workloads, the metrics and the layer map.

Timing is process-local only: the benchmark pins no CPU, drops no cache and
changes no cgroup.  hatguess is imported from ``src/`` of the checkout and
from nowhere else; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from speed import Timing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "sample", "cli")
SETUP_REPEATS = 7
TIMING_NOTE = "process-local timing only: no CPU pinning, cache dropping or cgroup changes"

# A fresh interpreter times its own import of hatguess plus the builds a
# workload needs, between two samples of the speed reference, and prints
# the wall seconds and the seconds at nominal speed.
SETUP_PROBE = """\
import sys
sys.path.insert(0, {bench!r})
from time import perf_counter
from speed import reference_s, scaled
before = reference_s()
t0 = perf_counter()
sys.path.insert(0, {src!r})
import hatguess
{setup}
wall = perf_counter() - t0
print(*scaled(wall, before, reference_s()))
"""


def _import_hatguess() -> None:
    """Import hatguess from this checkout's ``src/``, or exit 2."""
    if not (SRC / "hatguess" / "__init__.py").is_file():
        _fail(f"{SRC / 'hatguess'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hatguess

    if Path(hatguess.__file__).resolve().parent != SRC / "hatguess":
        _fail(f"imported hatguess from {hatguess.__file__}, not from {SRC}")


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(setup: str) -> list[Timing]:
    """Time importing hatguess and building ``setup`` in fresh interpreters;
    one warm-up run first, so every timed one finds compiled bytecode."""
    probe = SETUP_PROBE.format(bench=str(BENCH), src=str(SRC), setup=setup)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
        )
        times.append(Timing(*map(float, done.stdout.split())))
    return times[1:]


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def p90(values: list[float]) -> float:
    """90th percentile, interpolated linearly between the two nearest values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
        "timing": TIMING_NOTE,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    _import_hatguess()
    import workloads
    from speed import NOMINAL_S

    meta = run_metadata(args)
    workload = workloads.WORKLOADS[args.workload]
    setup_times = measure_setup(workload.setup)
    lines = [
        f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}",
        f"  ({TIMING_NOTE})",
    ]
    if args.trace:
        traced = workload.trace(args.seconds, args.seed)
        loop = traced.loop
        values = traced.layer_metrics()
        metrics = {
            name: _metric(values[name], unit) for name, (unit, _) in workloads.PER_LAYER.items()
        }
        lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"  ({len(traced.passes)} traced passes; layer values are medians over them)")
        lines += [f"  {note}" for note in traced.notes]
    else:
        loop = workload.run(args.seconds, args.seed)
        metrics, raw = {}, {}
        for out, field in ((metrics, "scaled_s"), (raw, "wall_s")):
            seconds = [getattr(t, field) for t in loop.timings]
            ms = [1e3 * t for t in seconds]
            out["ops_per_s"] = _metric(loop.work / sum(seconds), "1/s")
            out["op_p50_ms"] = _metric(statistics.median(ms), "ms")
            out["op_p90_ms"] = _metric(p90(ms), "ms")
            out["setup_s"] = _metric(statistics.median(getattr(t, field) for t in setup_times), "s")
        metrics["peak_rss_mb"] = _metric(peak_rss_mb(), "MB")
        counts = {
            "ops_per_s": f"{loop.work} ops in {loop.timed_s:.3f} s",
            "op_p50_ms": f"{loop.attempted} calls",
            "op_p90_ms": f"{loop.attempted} calls",
            "setup_s": f"{len(setup_times)} fresh interpreters",
        }
        for name, m in metrics.items():
            line = f"  {name} = {m['value']:.6g} {m['unit']}"
            if name in raw:
                line += f" (wall {raw[name]['value']:.6g}; {counts[name]})"
            lines.append(line)
        lines.append(
            f"  (times at nominal speed: the speed kernel at {1e3 * NOMINAL_S:g} ms;"
            " peak RSS covers the process and its children)"
        )
    lines.append(f"  error_rate = {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.4g}")
    lines += [f"  FAILED: {problem}" for problem in loop.problems[:20]]
    meta["loadavg_end"] = os.getloadavg()
    meta["setup_wall_s"] = [t.wall_s for t in setup_times]
    meta["sample_report_digests"] = loop.digests
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        doc = {
            "meta": meta,
            "passes": traced.passes,
            "proxy_cost_ns": [t.proxy_cost for t in traced.tracers],
            "spans": [t.to_json_list() for t in traced.tracers],
        }
        path.write_text(json.dumps(doc) + "\n")
        lines.append(f"  spans written to {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"meta": meta}))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            return done.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
