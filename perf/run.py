#!/usr/bin/env python3
"""Wall-clock benchmark: four workloads, end-to-end metrics, an outside-in layer trace.

One workload; the last line of standard output is the result object:

    python3 perf/run.py --workload conn-sparse --seed 0 --seconds 15 --trace 0

All four workloads, each in a fresh process, gathered into one set file
stamped with the git SHA (compare two sets with ``perf/compare.py``):

    python3 perf/run.py --workload all --seed 0 --trace 0 --out perf/results/set.json

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  Every output is checked against the sequential
reference; any failure makes the exit code 1.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark package and the source tree from the checkout, not
# from this script's directory (which would shadow the stdlib ``trace``).
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perf.common import CLEAN_ENV, Outcome  # noqa: E402

WORKLOADS = ("conn-sparse", "conn-dense", "mst-sparse", "service-mix")
#: Where a traced run leaves its spans (one file per workload and seed).
TRACE_DIR = ROOT / "perf" / "traces"
#: A child of ``--workload all`` that runs longer than this has hung.
CHILD_TIMEOUT_S = 900


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    """Run one workload in this process."""
    if name == "service-mix":
        from perf import service_mix

        return service_mix.run(seed, seconds, traced)
    from perf import batch

    return batch.run(name, seed, seconds, traced)


def result_line(outcome: Outcome, traced: bool) -> dict:
    """The contract's result object: every metric of the chosen section."""
    section = _spec()["per_layer" if traced else "end_to_end"]
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]} for m in section
        },
    }


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = (line.split(":", 1)[1] for line in fh if line.startswith("model name"))
            cpu = next(names).strip()
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version()}


def run_set(seed: int, seconds: float, trace: int, out: str | None) -> int:
    """Every workload in a fresh child process; write the gathered set."""
    entries = {}
    code = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]  # fmt: skip
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        lines = proc.stdout.strip().splitlines()
        try:
            entries[name] = {**json.loads(lines[-2]), "result": json.loads(lines[-1])}
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}\n")
            return 1
        code = code or proc.returncode
        print(f"{name}: {json.dumps(entries[name]['result'])}", flush=True)
    record = {
        "sha": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "host": _host(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": entries,
    }
    if out:
        Path(out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    """Run one workload (or a set); print the result; return the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="set file for --workload all")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no source tree at {ROOT / 'src'}; run from a full checkout\n")
        return 2
    for var in CLEAN_ENV:
        os.environ.pop(var, None)
    seconds = args.seconds if args.seconds is not None else float(_spec()["run_seconds"])
    if args.workload == "all":
        return run_set(args.seed, seconds, args.trace, args.out)

    outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    if outcome.spans:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"spans": outcome.spans}))
        print(f"spans written to {path.relative_to(ROOT)}")
    line = result_line(outcome, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"{name:30s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"detail": outcome.detail}))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
