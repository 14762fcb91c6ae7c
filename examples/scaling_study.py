"""Scaling study: measure the O~(n/k^2) law on your own parameters.

A small CLI over :meth:`repro.runtime.Session.sweep`: sweeps k at fixed n,
fits power laws, and prints the speedup-vs-linear comparison that
distinguishes Theorem 1 from the prior O~(n/k) bound.  ``--processes``
fans the sweep out over a process pool; ``--mst`` switches the registry
name (the MST algorithm needs — and automatically gets — unique weights).

Run:  python examples/scaling_study.py [--n 4096] [--k-max 32] [--mst]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import generators
from repro.analysis import fit_power_law, print_table
from repro.runtime import RunConfig, Session


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2048, help="vertices (default 2048)")
    ap.add_argument("--avg-degree", type=int, default=6, help="edges per vertex (default 6)")
    ap.add_argument("--k-max", type=int, default=16, help="largest machine count (default 16)")
    ap.add_argument("--seed", type=int, default=1, help="master seed")
    ap.add_argument("--mst", action="store_true", help="run MST instead of connectivity")
    ap.add_argument(
        "--processes", type=int, default=None, help="process-pool width (default: sequential)"
    )
    args = ap.parse_args()

    n = args.n
    m = args.avg_degree * n // 2
    g = generators.gnm_random(n, m, seed=args.seed)
    if args.mst:
        g = generators.with_unique_weights(g, seed=args.seed)
    ks = [k for k in (2, 4, 8, 16, 32, 64) if k <= args.k_max]
    algorithm = "mst" if args.mst else "connectivity"

    label = "MST (Theorem 2)" if args.mst else "connectivity (Theorem 1)"
    print(f"Sweeping {label} on G(n={n}, m={m}) over k = {ks}...\n")
    with Session(g, config=RunConfig(seed=args.seed)) as session:
        reports = session.sweep(algorithm, ks=ks, processes=args.processes)
    rows = [(r.graph["k"], r.rounds, r.result["phases"]) for r in reports]
    base_k, base_rounds = rows[0][0], rows[0][1]
    table_rows = [
        (
            k,
            rounds,
            phases,
            f"{base_rounds / rounds:.1f}x",
            f"{(base_rounds / rounds) / (k / base_k):.2f}",
        )
        for k, rounds, phases in rows
    ]
    print_table(
        ["k", "rounds", "phases", "speedup", "speedup / linear"],
        table_rows,
        title="rounds vs machines",
    )
    fit = fit_power_law(
        np.array([r[0] for r in rows], float), np.array([r[1] for r in rows], float)
    )
    print(
        f"\nfitted: rounds ~ k^{fit.exponent:.2f} (R^2 = {fit.r_squared:.3f})\n"
        "paper: O~(n/k^2) - the speedup/linear column exceeding 1 is the\n"
        "superlinear regime the prior O~(n/k) bound cannot reach."
    )


if __name__ == "__main__":
    main()
