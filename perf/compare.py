#!/usr/bin/env python3
"""Repeatability check between two benchmark sets.

    python3 perf/compare.py perf/results/A.json perf/results/B.json

Both files come from ``perf/run.py --workload all --out ...``.  For every
workload and metric it prints both values, their difference relative to
the first, and the metric's bound from BENCHMARK.json (per-layer metrics,
and the workloads BENCHMARK.json does not list, have none and are printed
for reading).  It exits 1 when a bounded end-to-end
difference exceeds its bound, when either set has a failed op, or when the
model counts (rounds, phases, retry phases) of the ops both sets ran
differ: wall time may wander within its bound, the model may not move.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(a: dict, b: dict, bounds: dict[str, float], gated: set[str]) -> list[str]:
    """Print the comparison table; return the problems found.

    Only the workloads in ``gated`` have their metrics held to ``bounds``;
    the others are printed for reading.  Failures and model counts are
    checked on every workload.
    """
    problems = []
    print(f"{'workload':12s} {'metric':30s} {'A':>14s} {'B':>14s} {'diff':>8s} {'bound':>6s}")
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        pair = (a["workloads"].get(workload), b["workloads"].get(workload))
        if None in pair:
            problems.append(f"{workload}: missing from one set")
            continue
        for label, entry in zip("AB", pair):
            result = entry["result"]
            if not result["correct"] or result["failed"]:
                problems.append(
                    f"{workload}: set {label} failed {result['failed']}/{result['attempted']}"
                )
        metrics_a, metrics_b = (entry["result"]["metrics"] for entry in pair)
        for name, metric in metrics_a.items():
            if name not in metrics_b:
                problems.append(f"{workload}: {name} missing from set B")
                continue
            va, vb = metric["value"], metrics_b[name]["value"]
            diff = (vb - va) / abs(va) if va else (0.0 if vb == va else float("inf"))
            bound = bounds.get(name) if workload in gated else None
            flag = ""
            if bound is not None and abs(diff) > bound:
                flag = "  OVER"
                problems.append(f"{workload}: {name} differs by {diff:+.1%} (bound {bound:.0%})")
            shown = "" if bound is None else f"{bound:.0%}"
            print(f"{workload:12s} {name:30s} {va:14.6g} {vb:14.6g} {diff:+8.1%} {shown:>6s}{flag}")
        ops_a, ops_b = (entry["detail"]["ops"] for entry in pair)
        common = min(len(ops_a), len(ops_b))
        if ops_a[:common] != ops_b[:common]:
            problems.append(f"{workload}: model counts differ on the {common} ops both sets ran")
        else:
            print(f"{workload:12s} model counts equal on the {common} ops both sets ran")
    return problems


def main(argv: list[str]) -> int:
    """Compare the two set files named in ``argv``; return the exit code."""
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py A.json B.json\n")
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    print(f"A: {argv[0]} (sha {a['sha'][:12]}, seed {a['seed']}, trace {a['trace']})")
    print(f"B: {argv[1]} (sha {b['sha'][:12]}, seed {b['seed']}, trace {b['trace']})")
    problems = compare(a, b, bounds, gated)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("sets agree" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
