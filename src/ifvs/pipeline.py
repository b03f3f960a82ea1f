"""Top level solver: compression over an FVS into disjoint subproblems.

Any solution must contain every loop vertex, so the loop vertices are taken
into the solution first, which restricts their neighbors. An exact FVS Z of
the remaining graph is computed. Then the vertices of degree at most one
outside Z are peeled off the root until none is left, once for all guesses.
Every guess Z' of the solution part inside Z is built from that root
instance by taking Z' and protecting Z minus Z' into the undeletable
forest W. A guess is skipped when Z minus Z' holds a cycle, or Z' meets a
restricted vertex or is not independent. A guess that passes these tests
is refuted before its instance is built when a cycle of its undeletable
part, the vertices that part forces into every solution, or the cycle-rank
cut show on the shared root that it has no solution (see _run_guess). The
engine answers each other guess exactly on its one clone, so the first
feasible guess settles the decision. Minimization scans the guesses at the
lower bound |Z| first, and again at k only when that scan finds nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations

from .branching import BranchNode, DisjointStats, _better, fib, search_disjoint
from .branching import solve_disjoint  # noqa: F401  perfbench/spans.py wraps this name
from .fvs import min_fvs
from .instance import DisInstance, InternalSolverError, check_solution, rank_cut
from .multigraph import MultiGraph

GOLDEN_RATIO = (1 + 5 ** 0.5) / 2
BOUND_BASE = 1 + GOLDEN_RATIO ** 2  # < 3.619, the branching growth base


@dataclass
class GuessRecord:
    z_prime: tuple[int, ...]
    status: str  # "yes" | "no" | "skipped"
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


def _refuted(
    g: MultiGraph, z: set[int], z_prime: tuple[int, ...], blocked: set[int], rank: int, k: int
) -> bool:
    """True when guess Z' has no solution; see _run_guess."""
    keep = blocked | z.difference(z_prime)  # U
    free = g.vertices - z - keep  # deletable, not yet forced
    need = rank - sum(max(g.deg(v) - 1, 0) for v in z_prime)
    k -= len(z_prime)
    while not (need > 0 and rank_cut(need, map(g.deg, free), k)):
        forced = _forced(g, keep, free)
        if forced is None:
            return True
        if not forced:
            return False
        nbrs = set().union(*map(g.neighbors, forced))
        k -= len(forced)
        if k < 0 or not nbrs.isdisjoint(forced):
            return True
        need -= sum(max(g.deg(x) - 1, 0) for x in forced)
        free -= forced | nbrs
        keep |= nbrs
    return True


def _run_guess(
    root: DisInstance, z: set[int], z_prime: tuple[int, ...], keep_trace: bool, rank: int
) -> GuessRecord:
    """Take Z' into the solution, protect Z minus Z' and solve the rest.

    rank is m - n + c of the root. A guess that _refuted shows to have no
    solution S, before the root is cloned, gets the record of a guess whose
    engine root was cut. Each S avoids U = W ∪ R ∪ N(Z'), so G[U] is a
    forest, and a vertex outside Z ∪ U with two edge occurrences into one
    tree of G[U] is in S. These forced vertices are taken in rounds: they
    must be pairwise non-adjacent and fit the budget, and their neighbours
    join U. Each round starts with the rank cut on the vertices still
    deletable, whose root degrees are still theirs; taking a vertex of
    degree d lowers m - n + c by at most d - 1.
    """
    g = root.graph
    w = z.difference(z_prime)
    # Z' is taken while W is empty, so it would take a restricted vertex
    # exactly when it meets R or its own neighbours; a skip copies nothing
    blocked = root.r.union(*map(g.neighbors, z_prime))
    if not g.is_forest(w) or not blocked.isdisjoint(z_prime):
        return GuessRecord(z_prime, "skipped", DisjointStats())
    if _refuted(g, z, z_prime, blocked, rank, root.k):
        trace = BranchNode("reject", answer="no") if keep_trace else None
        return GuessRecord(z_prime, "no", DisjointStats(1), trace)
    inst = root.clone()
    for v in z_prime:
        inst.take(v)
    for v in sorted(w):
        inst.protect(v)
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

    With minimize=False the scan stops at the first feasible guess; the
    answer is the same either way because every solution is found under the
    guess that matches its overlap with Z. With minimize=True all guesses
    are scanned and the smallest solution wins, ties broken by sorted vertex
    order. An independent FVS is an FVS, so without fvs_override the scan
    runs at budget |Z| first, and at k only if that finds nothing; then the
    guesses list each guess twice and stats["guesses_tried"] counts runs.
    In a scan at k the budget drops to the incumbent's size. The witness
    stays the one of a scan at k: outside rejects the engine never reads k
    (rule 3, the rank cuts, solve_base's size check, _refuted), mu moves by
    a constant and the drop checks read differences, and _better is a total
    order, so a smaller budget prunes only subtrees whose leaf sets all
    exceed the optimum. The final solution is re-verified against the
    untouched input; a failure there is a bug and raises InternalSolverError.
    """
    if k < 0:
        raise ValueError("budget must be nonnegative")
    # threads stays a keyword only because perfbench/run.py passes threads=1
    if threads != 1:
        raise ValueError("guesses run on one thread; threads must be 1")
    root = DisInstance(g.copy(), set(), set(), k, validate=False)
    h = root.graph
    for v in sorted(v for v in h.vertices if h.multiplicity(v, v) > 0):
        if v in root.r or root.k == 0:
            # two loop vertices are adjacent, or there are more than k
            return SolveResult("no", None, _stats(None, []))
        root.take(v)

    if fvs_override is not None:
        # loop vertices are already gone, so their removal can only have
        # shrunk the cycle structure and the clamped set is still an FVS
        z = set(fvs_override) & h.vertices
        if not h.is_forest(h.vertices - z):
            raise ValueError("supplied vertex set is not an FVS of the loop-free graph")
    else:
        z = min_fvs(h)
        if len(z) > root.k:
            # any independent solution is also an FVS, so the minimum FVS
            # size is a lower bound; an oversized override proves nothing
            return SolveResult("no", None, _stats(len(z), []))
    # a vertex of degree <= 1 lies on no cycle, and each guess's root
    # fixpoint would delete it by rule 1 before any other rule fires; Z is
    # spared, so its guesses and their skip tests stay as they are
    while peel := [v for v in h.low_degree_vertices() if v not in z]:
        for v in peel:
            root.delete_vertex(v)
    rank = h.num_edges - len(h) + h.component_count()

    z_sorted = sorted(z)
    sizes = range(min(root.k, len(z)) + 1)
    lower = minimize and fvs_override is None and len(z) < root.k  # |Z| bounds opt
    best: set[int] | None = None
    records: list[GuessRecord] = []
    for budget in [len(z), root.k] if lower else [root.k]:
        root.k = budget
        for z_prime in chain.from_iterable(combinations(z_sorted, n) for n in sizes):
            rec = _run_guess(root, z, z_prime, keep_traces, rank)
            records.append(rec)
            if rec.status != "yes":
                continue
            best = _better(best, root.taken | set(z_prime) | rec.solution)
            if not minimize:
                break  # decision mode stops at the first hit
            root.k = len(best) - len(root.taken)  # ties compete; a no-op at |Z|
        if best is not None:
            break

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
