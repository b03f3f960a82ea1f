"""Print one sha256 digest over the minimum FVS sets of a fixed corpus.

``min_fvs`` returns the first minimum set in DFS order, so which of several
minimum sets comes back depends on the reductions' edits and on the order
in which the shortest-cycle search walks each neighbour set. The size alone
does not pin that choice; this digest pins the sets themselves. The corpus
holds random multigraphs with loops and parallel edges at n = 8-47, five
graphs on which the neighbour-set order decides the set, planted graphs and
subdivided graphs. The one output line is ``min_fvs N sha256``,
N the number of graphs, hashed over each graph's sorted set in corpus order.

tests/fvs_digests.txt holds the expected line; the test suite and CI diff
this script's output against it.

Usage:
    python scripts/fvs_digest.py > fvs_digests.txt
"""
import hashlib
import sys

from ifvs.fvs import min_fvs
from ifvs.generators import planted_ifvs, random_multigraph
from ifvs.pipeline import subdivide_once


def corpus():
    """The graphs, in a fixed order."""
    for n in range(8, 48):
        for seed in range(4):
            yield random_multigraph(n, n + n // 3 + seed * n // 6, 1000 * n + seed)
    # sparse graphs whose set changes when the cycle search walks neighbour
    # sets built by set(adjacency map), whose hash table is presized, so
    # they iterate in another order than sets built one vertex at a time
    for n, m, seed, multi in ((33, 56, 152848, True), (34, 68, 82, False), (38, 71, 113193, False),
                              (43, 68, 475, False), (47, 94, 143, False)):
        yield random_multigraph(n, m, seed, loops=False, multi=multi)
    for seed in range(4):
        yield planted_ifvs(30 + 10 * seed, 4 + seed, seed).graph
        yield subdivide_once(random_multigraph(10 + 2 * seed, 16 + 3 * seed, seed, loops=False))


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for g in corpus():
        digest.update(repr(sorted(min_fvs(g))).encode() + b"\n")
        count += 1
    print("min_fvs", count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
