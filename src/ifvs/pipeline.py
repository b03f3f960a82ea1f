"""Top level solver: compression over an FVS into disjoint subproblems.

The set-up runs in this order. Any solution must contain every loop
vertex, so the loop vertices are taken into the solution first, which
restricts their neighbors. The rest is peeled once: the vertices of degree
at most one outside an --fvs override's Z go until none is left, as they
lie on no cycle. An exact FVS Z of what stays is searched for only up to
the budget left: any independent solution is an FVS, so when none fits the
answer is "no" with no Z. The root DisInstance is built on the peeled graph.

Every guess Z' of the solution part inside Z is read off that root. What
every guess reads of Z is found once per solve, what only the refutation
reads of the root on its first use (_GuessFacts). A guess is
skipped when Z' meets R or is not independent, or the edges inside Z
minus Z' close a cycle. A guess that passes these tests is refuted before
its instance is built when a cycle of its undeletable part, the vertices
that part forces into every solution, or the cycle-rank cut on the 2-core
of G - Z' show on the shared root that it has no solution (see
_run_guess). Each other guess is built once on that 2-core, with Z minus
Z' as the undeletable forest W, and the engine answers it exactly, so
the first feasible guess settles the decision. A minimize scan keeps
going at a budget one below its best hit, so only a strictly smaller
solution counts, until a hit meets its lower bound (see solve_ifvs).
Every scan runs the guesses largest Z' first, in combinations order within
a size. A larger Z' leaves less budget and fewer components in W, so its
root measure mu = k + rho - (eta + tau), which caps the engine's leaves at
fib(mu + 2), is smaller, and it is feasible more often: a Z that is
independent, misses R and fits the budget answers at Z' = Z, at its root.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice

from .branching import BranchNode, DisjointStats, fib, search_disjoint
from .branching import solve_disjoint  # noqa: F401  perfbench/spans.py wraps this name
from .fvs import min_fvs
from .instance import DisInstance, InternalSolverError, check_solution, rank_cut
from .multigraph import MultiGraph

GOLDEN_RATIO = (1 + 5 ** 0.5) / 2
BOUND_BASE = 1 + GOLDEN_RATIO ** 2  # < 3.619, the branching growth base


@dataclass
class GuessRecord:
    z_prime: tuple[int, ...]
    status: str  # "yes" | "no" | "skipped", the last never run
    stats: DisjointStats
    trace: object | None = None
    solution: set[int] | None = None


@dataclass
class SolveResult:
    status: str  # "yes" | "no"
    solution: set[int] | None
    stats: dict = field(default_factory=dict)
    guesses: list[GuessRecord] = field(default_factory=list)


def _stats(fvs_size: int | None, records: list[GuessRecord]) -> dict:
    """Solve statistics; skipped guesses carry no nodes, leaves or mu0."""
    stats = [rec.stats for rec in records]
    return {
        "fvs_size": fvs_size,
        "guesses_tried": sum(rec.status != "skipped" for rec in records),
        "branch_nodes": sum(s.nodes for s in stats),
        "max_mu": max((s.mu0 for s in stats if s.mu0 is not None), default=None),
        "base_leaves_max": max((s.base_leaves for s in stats), default=0),
    }


def _forced(g: MultiGraph, keep: set[int], free: set[int]) -> set[int] | None:
    """Vertices of free with two edge occurrences into one tree of G[keep],
    or None when G[keep] has a cycle. Reads only the edges out of keep."""
    todo, forced = set(keep), set()
    while todo:
        stack, size, inner, seen = [todo.pop()], 0, 0, set()  # seen: hit by this tree
        while stack:
            v = stack.pop()
            size += 1
            for u, m in g.incident(v):
                if u in keep:
                    inner += m
                    if u in todo:
                        todo.remove(u)
                        stack.append(u)
                elif u in free:
                    if m > 1 or u in seen:
                        forced.add(u)
                    seen.add(u)
        if inner > 2 * (size - 1):  # inner counts each edge from both ends
            return None
    return forced


class _GuessFacts:
    """What the guesses' tests read of Z and the root.

    The root's graph and R stay as they are while its guesses run, so these
    hold for all of them. Every guess reads Z, each Z-vertex's neighbours,
    the Z-vertices in R and the edges inside Z as (u, v, mult) with u < v.
    Only _refuted reads the rest, built on its first read: the root's cycle
    rank m - n + c, the label of each vertex's component, and (degree,
    vertex) for every vertex outside Z, largest first.
    """

    def __init__(self, g: MultiGraph, z: set[int], r: set[int]) -> None:
        self.g, self.z, self.z_in_r = g, z, z & r
        self.nbrs = {v: g.neighbors(v) for v in z}
        self.z_edges = [(u, v, m) for u in z for v, m in g.incident(u) if v in z and u < v]

    @cached_property
    def comp(self) -> dict[int, int]:
        return self.g.component_labels()

    @cached_property
    def rank(self) -> int:
        return self.g.num_edges - len(self.g) + len(set(self.comp.values()))

    @cached_property
    def order(self) -> list[tuple[int, int]]:
        return sorted(((self.g.deg(v), v) for v in self.g.vertices - self.z), reverse=True)


def _skipped(facts: _GuessFacts, z_prime: tuple[int, ...]) -> bool:
    """True when guess Z' cannot be built: Z' meets R or its own
    neighbours, or the edges inside Z minus Z' close a cycle."""
    zp = set(z_prime)
    if not facts.z_in_r.isdisjoint(zp) or any(not facts.nbrs[v].isdisjoint(zp) for v in zp):
        return True
    parent: dict[int, int] = {}  # a union-find over the few vertices of Z
    for u, v, m in facts.z_edges:
        if u in zp or v in zp:
            continue
        if m > 1:
            return True
        while u in parent:
            u = parent[u]
        while v in parent:
            v = parent[v]
        if u == v:
            return True
        parent[u] = v
    return False


def _cut(need: int, degs: Iterator[int], k: int) -> bool:
    """rank_cut on the first k of degs, which come largest first."""
    return need > 0 and rank_cut(need, islice(degs, max(k, 0)), k)


def _core(
    g: MultiGraph, facts: _GuessFacts, z_prime: tuple[int, ...]
) -> tuple[int, dict[int, int]]:
    """A lower bound on the cycle rank of G - Z', and the degrees in the
    2-core of G - Z' that differ from the root's, 0 off the core.

    The root has no loop and Z' is independent, so G - Z' has m - sum deg(z)
    edge occurrences. Outside Z every root vertex has degree two or more, so
    the peel starts at the neighbours of Z' only. A Z-vertex of degree at
    most one, which an --fvs override can name, starts no peel; the degrees
    it leaves too high only weaken the cut.

    Each piece of G - Z' that is not a whole root component holds a
    neighbour of Z'. Every vertex the peel takes is a leaf or isolated in
    what is left of its piece, so the peel empties a piece exactly when it
    takes one of its vertices at degree 0, and a piece it leaves keeps a
    vertex whose degree it changed. So the root components that meet Z'
    split into at least as many pieces as there are vertices taken at
    degree 0, plus the ones among them that keep a changed vertex; the
    bound is exact unless one of them splits into two pieces with cycles.
    """
    gone = set(z_prime)
    deg: dict[int, int] = {}
    for z in z_prime:
        for u, m in g.incident(z):
            deg[u] = deg.get(u, g.deg(u)) - m
    stack = [u for u, d in deg.items() if d < 2]
    emptied = 0
    while stack:
        v = stack.pop()
        gone.add(v)
        emptied += deg[v] == 0
        deg[v] = 0
        for u, m in g.incident(v):
            if u not in gone:
                d = deg[u] = deg.get(u, g.deg(u)) - m
                if d < 2 <= d + m:  # each vertex falls below two once
                    stack.append(u)
    met = {facts.comp[z] for z in z_prime}
    kept = {facts.comp[v] for v in deg if v not in gone}
    lost = sum(g.deg(z) - 1 for z in z_prime)
    return facts.rank - lost - len(met) + emptied + len(kept), deg


def _refuted(
    g: MultiGraph, facts: _GuessFacts, z_prime: tuple[int, ...], blocked: set[int], k: int
) -> set[int] | None:
    """None when guess Z' has no solution, else the vertices that the peel
    of G - Z' to its 2-core removed, empty at Z' = {}; see _run_guess."""
    need = facts.rank - sum(max(g.deg(v) - 1, 0) for v in z_prime)
    k -= len(z_prime)
    # the deletable vertices are those outside Z and U, so outside Z and blocked
    if _cut(need, (d for d, v in facts.order if v not in blocked), k):
        return None
    keep = blocked | facts.z.difference(z_prime)  # U
    free = {v for _, v in facts.order if v not in keep}  # deletable, not yet forced
    # (degree, vertex) largest first; at Z' = {} the root is its own 2-core,
    # else the degrees are those in the 2-core of G - Z'
    core: dict[int, int] = {}
    order = facts.order
    if z_prime:
        need, core = _core(g, facts, z_prime)
        order = sorted(((core.get(v, d), v) for d, v in order if v in free), reverse=True)
        if _cut(need, (d for d, _ in order), k):
            return None
    while True:
        forced = _forced(g, keep, free)
        if forced is None:
            return None
        if not forced:
            return {v for v, d in core.items() if not d}
        nbrs = set().union(*map(g.neighbors, forced))
        k -= len(forced)
        if k < 0 or not nbrs.isdisjoint(forced):
            return None
        need -= sum(max(core.get(x, g.deg(x)) - 1, 0) for x in forced)
        free -= forced | nbrs
        keep |= nbrs
        if _cut(need, (d for d, v in order if v in free), k):
            return None


def _run_guess(
    root: DisInstance, facts: _GuessFacts, z_prime: tuple[int, ...], keep_trace: bool
) -> GuessRecord:
    """Take Z' into the solution, protect Z minus Z' and solve the rest;
    a guess that _skipped rejects never runs.

    A guess that _refuted shows to have no solution S, before its instance
    is built, gets the record of a guess whose engine root was cut. The
    first cut reads the root's degrees, largest first off facts.order, and
    its rank lowered by deg - 1 per vertex of Z'; it is exact at Z' = {}.
    For a nonempty Z' a second cut reads the 2-core of G - Z' (see _core).
    A vertex off that core lies on no cycle of G - Z', so G - Z' has the
    core's cycle rank, and the part of S inside the core is an FVS of it.

    Each S avoids U = W ∪ R ∪ N(Z'), so G[U] is a forest, and a vertex
    outside Z ∪ U with two edge occurrences into one tree of G[U] is in S.
    These forced vertices are taken in rounds: they must be pairwise
    non-adjacent and fit the budget, and their neighbours join U. Each
    round lowers the rank by the core degree - 1 of each forced vertex and
    ends with the rank cut on the core degrees of the vertices still
    deletable. Taking a vertex of degree d lowers m - n + c by at most
    d - 1, and degrees only fall as vertices go. At Z' = Z, G - Z is a
    forest that holds U and the free vertices: the rank bound is at most 0,
    nothing is forced and the peel takes it all, so _refuted is skipped
    and the guess is built on a new empty graph.

    Any other guess is built on that 2-core: the root minus Z' and the
    peel, W the rest of Z, R the rest of R ∪ N(Z'). Taking Z', protecting
    Z minus Z' and draining rule 1, down to the one 2-core in any order,
    reach it too, W-labels aside, so the engine root loses only its leading
    rule-1 events, or, where need fell below the rank, cuts at once.
    """
    if _skipped(facts, z_prime):
        return GuessRecord(z_prime, "skipped", DisjointStats())
    k = root.k - len(z_prime)
    if len(z_prime) == len(facts.z):  # the peel takes every vertex outside Z
        inst = DisInstance(MultiGraph(), set(), set(), k, validate=False)
    else:
        blocked = root.r.union(*(facts.nbrs[v] for v in z_prime))
        peeled = _refuted(root.graph, facts, z_prime, blocked, root.k)
        if peeled is None:
            trace = BranchNode("reject", answer="no") if keep_trace else None
            return GuessRecord(z_prime, "no", DisjointStats(1), trace)
        gone = peeled.union(z_prime)
        inst = DisInstance(root.graph.copy_without(gone), facts.z - gone,
                           blocked - facts.z - gone, k, validate=False)
    res = search_disjoint(inst, keep_trace)
    return GuessRecord(z_prime, "yes" if res.feasible else "no", res.stats, res.trace, res.solution)


def solve_ifvs(
    g: MultiGraph,
    k: int,
    minimize: bool = False,
    fvs_override: set[int] | None = None,
    threads: int = 1,
    keep_traces: bool = False,
) -> SolveResult:
    """Decide or minimize an independent FVS of size at most k.

    Every scan runs largest Z' first (see the module docstring). With
    minimize=False it stops at the first feasible guess, and the answer
    holds in any order: every solution is found under the guess that matches
    its overlap with Z. An independent FVS is an FVS, so without
    fvs_override the FVS search stops at the budget left after the loop
    vertices, and a larger minimum answers "no" with stats["fvs_size"] None.
    With minimize=True the scan at budget min(|Z|, k) runs first, and the
    one at k only if it finds nothing, so a guess can be listed and counted
    twice. After each hit the budget drops to one below the hit's size, so
    a later guess answers only with a strictly smaller set. A scan stops
    once a hit meets its floor: in the first scan the loop vertices plus
    |Z|, since Z is a minimum FVS, or the loop vertices alone under
    fvs_override, which bounds nothing; in the scan at k the loop vertices
    plus |Z| + 1, since the scan at |Z| was exact. Each guess's engine
    answers with one of its smallest solutions, and the budget only falls,
    so no guess has a solution below the final one. The witness is the last
    hit. Without fvs_override and at an optimum of the loop vertices plus
    |Z|, it and the guess records are those of the decision at that
    optimum, in any guess order, and an fvs_override naming the solver's
    own Z returns the same witness. It is deterministic for a fixed input,
    not canonical: it depends on Z and on the solution each guess's engine
    returns. The final solution is re-verified against the untouched input;
    a failure there is a bug and raises InternalSolverError.
    """
    if k < 0:
        raise ValueError("budget must be nonnegative")
    # threads stays a keyword only because perfbench/run.py passes threads=1
    if threads != 1:
        raise ValueError("guesses run on one thread; threads must be 1")
    # loop vertices are taken first: each restricts its neighbours, so a
    # second one among them means two adjacent loops
    r: set[int] = set()
    taken: set[int] = set()
    for v in sorted(v for v, nbrs in g._adj.items() if v in nbrs):
        if v in r or len(taken) == k:
            # two loop vertices are adjacent, or there are more than k
            return SolveResult("no", None, _stats(None, []))
        r |= g.neighbors(v)
        taken.add(v)
    # the peel deletes no vertex on a cycle, so an override can be tested
    # after it; its Z is spared, so its guess list stays as it is
    z = set(fvs_override or ()).intersection(g.vertices).difference(taken)
    h = g.peeled(taken, z)
    r &= h.vertices
    if fvs_override is None:
        # any independent solution is also an FVS, so a minimum FVS above
        # the budget answers no; an oversized override proves nothing
        z = min_fvs(h, k - len(taken))
        if z is None:
            return SolveResult("no", None, _stats(None, []))
    elif not h.is_forest(h.vertices - z):
        raise ValueError("supplied vertex set is not an FVS of the loop-free graph")
    root = DisInstance(h, set(), r, k - len(taken), validate=False)
    facts = _GuessFacts(h, z, r)

    z_sorted = sorted(z)
    sizes = range(min(root.k, len(z)), -1, -1)
    # an independent FVS is an FVS, so minimize scans at |Z| first
    budgets = [len(z), root.k] if minimize and len(z) < root.k else [root.k]
    floor = len(z) if fvs_override is None else 0  # the first scan's least solution part
    best: set[int] | None = None
    records: list[GuessRecord] = []
    for budget in budgets:
        root.k = budget
        for z_prime in chain.from_iterable(combinations(z_sorted, n) for n in sizes):
            rec = _run_guess(root, facts, z_prime, keep_traces)
            records.append(rec)
            if rec.status != "yes":
                continue
            best = taken | set(z_prime) | rec.solution
            root.k = len(best) - len(taken) - 1  # only a smaller set counts now
            if not minimize or root.k < floor:
                break  # a decision stops at its first hit, minimize at its floor
        if best is not None:
            break
        floor = len(z) + 1  # the scan at |Z| was exact and found nothing

    if best is not None and not check_solution(g, best, k):
        raise InternalSolverError("final candidate failed verification")
    status = "yes" if best is not None else "no"
    return SolveResult(status, best, _stats(len(z), records), records)


def leaf_bound(mu0: int) -> int:
    """Fibonacci cap on solved base leaves for a root fixpoint measure."""
    return fib(mu0 + 2)


def subdivide_once(g: MultiGraph) -> MultiGraph:
    """Replace every edge occurrence by a length-2 path through a new vertex.

    Multiplicities unfold into parallel 2-paths, so a double edge becomes a
    4-cycle. A loop unfolds into a parallel pair between the old vertex and
    its fresh midpoint, a 2-cycle. The minimum independent FVS of the result
    equals the minimum plain FVS of the input.
    """
    out = MultiGraph()
    for v in sorted(g.vertices):
        out.add_vertex(v)
    for u, v, m in g.edge_items():
        for _ in range(m):
            mid = out.new_vertex()
            out.add_edge(u, mid)
            out.add_edge(mid, v)
    return out
