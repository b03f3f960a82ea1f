"""Populate a directory with solvable instance files for the bench command.

Every file carries a ``c k`` budget comment, so ``ifvs bench --suite DIR``
needs no extra flags, and every file answers "yes" at its budget. Three
families are produced: small random multigraphs with the budget set to the
brute-force optimum (seeds whose graph has no independent FVS at all are
skipped), planted YES instances, and subdivided graphs whose optimum equals
the plain feedback vertex number of the base graph.

Usage:
    python scripts/make_suite.py --out suite --random 10 --planted 5 --subdivided 5
"""
import argparse
import sys
from pathlib import Path

from ifvs.formats import emit_graph
from ifvs.generators import planted_ifvs, random_multigraph
from ifvs.oracle import ORACLE_MAX_N, brute_min_fvs, oracle_min_ifvs
from ifvs.pipeline import subdivide_once

# about a third of the random graphs at m = 2n have an independent FVS;
# give up when this many seeds in a row have none
SEED_TRIES = 50


def solvable_random(n: int, seed: int):
    """(seed, graph, optimum) for the first seed from seed on whose random
    graph has an independent FVS, or None after SEED_TRIES seeds."""
    for s in range(seed, seed + SEED_TRIES):
        g = random_multigraph(n, 2 * n, seed=s)
        best = oracle_min_ifvs(g)
        if best is not None:
            return s, g, len(best)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--random", type=int, default=10)
    ap.add_argument("--planted", type=int, default=5)
    ap.add_argument("--subdivided", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=10, help="vertex count for random graphs")
    ap.add_argument("--planted-n", type=int, default=40)
    ap.add_argument("--planted-k", type=int, default=5)
    args = ap.parse_args(argv)
    if min(args.random, args.planted, args.subdivided) < 0:
        ap.error("--random, --planted and --subdivided count files and must be nonnegative")
    if not 0 <= args.n <= ORACLE_MAX_N:
        ap.error(f"need 0 <= --n <= {ORACLE_MAX_N}: brute-force enumeration sets the budgets")
    if args.planted_k < 0 or args.planted_n < max(1, 3 * args.planted_k):
        ap.error("need --planted-n >= 3 * --planted-k >= 0 and --planted-n >= 1"
                 " for disjoint planted triangles")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = 0

    seed = args.seed
    for _ in range(args.random):
        found = solvable_random(args.n, seed)
        if found is None:
            print(
                f"no random graph with an independent FVS among seeds"
                f" {seed}..{seed + SEED_TRIES - 1}",
                file=sys.stderr,
            )
            return 1
        seed, g, k = found
        path = out / f"random-{seed:04d}.gr"
        path.write_text(emit_graph(g, [f"seed {seed}", f"k {k}"]))
        written += 1
        seed += 1

    for i in range(args.planted):
        seed = args.seed + i
        plant = planted_ifvs(args.planted_n, args.planted_k, seed=seed)
        witness = " ".join(str(v + 1) for v in sorted(plant.witness))
        path = out / f"planted-{seed:04d}.gr"
        path.write_text(
            emit_graph(plant.graph, [f"seed {seed}", f"k {plant.k}", f"witness {witness}"])
        )
        written += 1

    for i in range(args.subdivided):
        seed = args.seed + i
        base = random_multigraph(args.n, 2 * args.n, seed=seed)
        k = len(brute_min_fvs(base))
        sub = subdivide_once(base)
        path = out / f"subdivided-{seed:04d}.gr"
        path.write_text(emit_graph(sub, [f"seed {seed}", f"k {k}"]))
        written += 1

    print(f"wrote {written} instances to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
