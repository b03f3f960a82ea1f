"""Exact feedback vertex set provider for the compression pipeline.

Plain FVS, no independence requirement. One depth-first branch and bound
over the vertices of a shortest cycle, after the standard degree
reductions, which run off a worklist: only the neighbours of a removed or
bypassed vertex are looked at again. The shortest cycle comes from a BFS
per root that stops once no deeper cycle can beat the best one found, so
the minimum over all roots is still the girth. The search keeps the best
set found so far and prunes a node when its forced vertices plus the
cycle-rank bound (deleting a vertex of degree d lowers m - n + c by at
most d - 1) cannot beat it, and a child already before its graph is
copied, by the same count over its parent's degrees. It returns the
first minimum set in DFS order: every node above that set has
forced + bound <= opt, which no incumbent prunes until a set of size opt
is in hand. Which one depends on the order the BFS walks neighbour sets
in, so edits keep the key orders add_edge and remove_vertex would leave.
"""
from __future__ import annotations

from collections.abc import Iterable
from heapq import heappop, heappush

from .multigraph import MultiGraph


def _reduce(g: MultiGraph, acc: list[int], dirty: Iterable[int] | None = None) -> None:
    """Shrink g in place; vertices forced into every FVS land in acc.

    A loop forces its vertex. Degree <= 1 vertices are irrelevant. A
    degree-2 vertex is smoothed away in place, tying its two edge endpoints
    together, which may create a loop or a parallel edge; both matter.

    The checks run in sweeps in id order, starting with the dirty vertices
    (default: all). Removing or bypassing a vertex changes the edges of its
    neighbours only, so only they are checked again: later in this sweep if
    their id is larger, else in the next one. Checking any other vertex
    would change nothing, so this is the fixpoint of full sweeps in id
    order. When g was reduced before and only the dirty vertices lost edges
    since, on return g again has no loop and every degree is at least 3.
    """
    adj, deg = g._adj, g._deg
    sweep = sorted(adj if dirty is None else dirty)  # a sorted list is a heap
    queued = set(sweep)
    later: set[int] = set()
    while sweep or later:
        if not sweep:
            sweep, queued, later = sorted(later), later, set()
        v = heappop(sweep)  # pops ascend, so a queued u > v is still on the heap
        nbrs = adj.get(v)
        if nbrs is None or (deg[v] >= 3 and v not in nbrs):
            continue
        if v in nbrs:
            acc.append(v)
            ends = g.remove_vertex(v)
        elif deg[v] == 2:
            keep = next(iter(nbrs))  # either end: smooth leaves the same graph
            ends = keep, g.smooth(v, keep)
        else:
            ends = g.remove_vertex(v)
        for u in ends:
            if u < v:
                later.add(u)
            elif u > v and u not in queued:
                queued.add(u)
                heappush(sweep, u)


def _shortest_cycle(g: MultiGraph) -> list[int] | None:
    """Vertices of some shortest cycle, None on a forest.

    Assumes no loops (reduced graph). A parallel edge is a 2-cycle, and the
    smallest such pair wins. Longer cycles come from a BFS per root. A
    non-tree edge xy met at depth d closes a walk of length
    depth[x] + depth[y] + 1 >= 2d + 1, so the BFS stops at the first depth
    where that cannot beat the best cycle, and a cycle is built only for an
    edge whose walk is shorter than the best.
    """
    adj, deg = g._adj, g._deg
    roots = sorted(adj)
    for u in roots:
        if deg[u] > len(adj[u]):  # no loops, so some edge at u is doubled
            return [u, min(v for v, m in adj[u].items() if m >= 2)]
    # built by neighbors() on a vertex's first expansion; set(map) presizes
    # its table and so may iterate in another order, and find another cycle
    sets: dict[int, set[int]] = {}
    best: list[int] | None = None
    best_len = len(g) + 1
    for s in roots:
        parent: dict[int, int | None] = {s: None}
        depth = {s: 0}
        queue = [s]
        for x in queue:  # queue grows while it is walked
            dx = depth[x]
            if 2 * dx + 1 >= best_len:
                break
            if x not in sets:
                sets[x] = g.neighbors(x)
            for y in sets[x]:
                if y not in depth:
                    parent[y] = x
                    depth[y] = dx + 1
                    queue.append(y)
                elif y != parent[x] and dx + depth[y] + 1 < best_len:
                    best = _tree_cycle(parent, depth, x, y)
                    best_len = len(best)
        if best_len == 3:
            break
    return best


def _tree_cycle(parent: dict, depth: dict, x: int, y: int) -> list[int]:
    """The cycle closed by the non-tree edge xy: both tree paths up to
    their meeting vertex, walked in lockstep once level."""
    up_x, up_y = [x], [y]
    while depth[x] > depth[y]:
        x = parent[x]
        up_x.append(x)
    while depth[y] > depth[x]:
        y = parent[y]
        up_y.append(y)
    while x != y:
        x, y = parent[x], parent[y]
        up_x.append(x)
        up_y.append(y)
    return up_x + up_y[-2::-1]  # the meeting vertex ends both lists


def cover_count(need: int, degs: list[int]) -> int | None:
    """Fewest of degs whose degrees minus one add up to need, or None.

    degs is sorted largest first. Deleting a vertex of degree d lowers the
    cycle rank m - n + c by at most d - 1, and by nothing when d <= 1, and
    degrees only fall as vertices go. So breaking every cycle of a graph of
    rank need takes at least this many vertices of these degrees, and None
    means that all of them together fall short.
    """
    count = 0
    for d in degs:
        if need <= 0:
            break
        need -= d - 1
        count += 1
    return count if need <= 0 else None


def _rank_and_degrees(g: MultiGraph) -> tuple[int, list[int]]:
    """m - n + 1 of a loop-free g (0 when g is empty), and its degrees
    largest first."""
    degs = sorted(g._deg.values(), reverse=True)
    return sum(degs) // 2 - len(degs) + bool(degs), degs


def _delete(g: MultiGraph, vs: list[int]) -> set[int]:
    """Remove vs from g; returns the vertices left that lost edges."""
    return set().union(*map(g.remove_vertex, vs)).difference(vs)


def _bnb(
    g: MultiGraph, cap: int, acc: list[int], dirty: Iterable[int] | None = None
) -> list[int] | None:
    """The smallest FVS of g plus acc with fewer than cap vertices, or None.

    Consumes g and extends acc. Depth first over the vertices of a shortest
    cycle; each set a child finds lowers cap to its size, so later children
    must beat it. The last child takes g itself, the others a copy.
    """
    _reduce(g, acc, dirty)
    need, degs = _rank_and_degrees(g)
    # the bound is 0 on an empty g, so a finished set must be below cap too
    if len(acc) + cover_count(need, degs) >= cap:
        return None
    if not len(g):
        return acc  # a reduced graph is empty exactly when it was a forest
    best = None
    cycle = sorted(_shortest_cycle(g))
    for v in cycle:
        # bound the child before copying it: g - v has cycle rank at least
        # need - (deg(v) - 1) and no degree above g's
        d = g.deg(v)
        rest = list(degs)
        rest.remove(d)
        if len(acc) + 1 + cover_count(need - d + 1, rest) >= cap:
            continue
        child = g if v == cycle[-1] else g.copy()
        res = _bnb(child, cap, acc + [v], _delete(child, [v]))
        if res is not None:
            best, cap = res, len(res)
    return best


def min_fvs(g: MultiGraph, cap: int | None = None) -> set[int] | None:
    """Minimum feedback vertex set; the whole vertex set is one.

    With a cap, None when the minimum has more than cap vertices. A cap at
    or above the optimum returns the same set as no cap, since no node
    above the first minimum set in DFS order is pruned by either.
    """
    res = _bnb(g.copy(), (len(g) if cap is None else cap) + 1, [])
    return set(res) if res is not None else None
