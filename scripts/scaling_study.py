"""Branch-node growth on planted instances.

Solves a ladder of planted YES instances at fixed n and increasing budget,
writes one CSV row per run, and fits ln(branch_nodes) against k. The fitted
slope should stay well under ln(1 + phi^2), the worst-case growth rate of
the branching engine.

Usage:
    python scripts/scaling_study.py --n 60 --kmin 4 --kmax 12 --out scaling.csv
"""
import argparse
import csv
import math
import statistics
import sys
import time

from ifvs.generators import planted_ifvs
from ifvs.pipeline import BOUND_BASE, leaf_bound, solve_ifvs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=60)
    ap.add_argument("--kmin", type=int, default=4)
    ap.add_argument("--kmax", type=int, default=12)
    ap.add_argument("--seed", type=int, default=900, help="base seed, run k uses seed+k")
    ap.add_argument("--out", default=None, help="CSV path, stdout when omitted")
    args = ap.parse_args(argv)
    if not 0 <= args.kmin < args.kmax:
        ap.error("need 0 <= --kmin < --kmax: a slope needs two budgets or more")
    if 3 * args.kmax > args.n:
        ap.error("need --n >= 3 * --kmax for disjoint planted triangles")

    rows = []
    for k in range(args.kmin, args.kmax + 1):
        plant = planted_ifvs(args.n, k, seed=args.seed + k)
        t0 = time.perf_counter()
        res = solve_ifvs(plant.graph, plant.k)
        dt = (time.perf_counter() - t0) * 1000.0
        mu0 = res.stats["max_mu"]
        rows.append(
            {
                "n": args.n,
                "k": k,
                "status": res.status,
                "branch_nodes": res.stats["branch_nodes"],
                "base_leaves_max": res.stats["base_leaves_max"],
                "mu0_max": mu0,
                "fib_bound": None if mu0 is None else leaf_bound(mu0),
                "time_ms": f"{dt:.2f}",
            }
        )

    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            fh.close()

    ks = [r["k"] for r in rows]
    logs = [math.log(max(r["branch_nodes"], 1)) for r in rows]
    slope = statistics.linear_regression(ks, logs).slope
    print(
        f"slope of ln(branch_nodes) vs k: {slope:.4f}"
        f" (growth-base limit ln({BOUND_BASE:.6f}) = {math.log(BOUND_BASE):.4f})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
