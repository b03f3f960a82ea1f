"""Top level solver: compression over an FVS into disjoint subproblems.

Any solution must contain every loop vertex, so loops are stripped first and
their neighbors become off-limits for the rest of the solution. An exact FVS
Z of the remaining graph is computed, and for every guess Z' of the solution
part inside Z the residual disjoint instance keeps W = Z minus Z'
undeletable and restricts the neighborhood of Z'. The disjoint engine
answers each guess exactly, so the first feasible guess settles the decision
and a full scan settles minimization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .branching import DisjointResult, fib, solve_disjoint
from .fvs import min_fvs
from .instance import DisInstance, InternalSolverError, check_solution
from .multigraph import MultiGraph

GOLDEN_RATIO = (1 + 5 ** 0.5) / 2
BOUND_BASE = 1 + GOLDEN_RATIO ** 2  # < 3.619, the branching growth base


@dataclass
class GuessRecord:
    z_prime: tuple[int, ...]
    status: str  # "yes" | "no" | "skipped"
    mu0: int | None = None
    nodes: int = 0
    base_leaves: int = 0
    reject_leaves: int = 0
    trace: object | None = None
    solution: set[int] | None = None


@dataclass
class SolveResult:
    status: str  # "yes" | "no"
    solution: set[int] | None
    k: int
    stats: dict = field(default_factory=dict)
    guesses: list[GuessRecord] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def _loop_vertices(g: MultiGraph) -> set[int]:
    return {v for v in g.vertices if g.multiplicity(v, v) > 0}


def _independent(g: MultiGraph, vs: tuple[int, ...]) -> bool:
    s = set(vs)
    return all(not (g.neighbors(v) & s) for v in vs)


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
    order. The final solution is re-verified against the untouched input; a
    failure there is a bug and raises InternalSolverError.
    """
    if k < 0:
        raise ValueError("budget must be nonnegative")
    # threads stays a keyword only because perfbench/run.py passes threads=1
    if threads != 1:
        raise ValueError("guesses run on one thread; threads must be 1")
    pristine = g
    g = g.copy()
    stats: dict[str, object] = {
        "fvs_size": None,
        "guesses_tried": 0,
        "branch_nodes": 0,
        "max_mu": None,
        "base_leaves_max": 0,
        "bound_base": BOUND_BASE,
    }

    forced = _loop_vertices(g)
    if len(forced) > k:
        return SolveResult("no", None, k, stats)
    for v in forced:
        if g.neighbors(v) & forced:
            return SolveResult("no", None, k, stats)
    forbidden = set()
    for v in forced:
        forbidden |= g.neighbors(v)
    for v in forced:
        g.remove_vertex(v)
    budget = k - len(forced)

    if fvs_override is not None:
        # loop vertices are already gone, so their removal can only have
        # shrunk the cycle structure and the clamped set is still an FVS
        z = set(fvs_override) & g.vertices
        if not g.is_forest(g.vertices - z):
            raise ValueError("supplied vertex set is not an FVS of the loop-free graph")
    else:
        z = min_fvs(g)
        if len(z) > budget:
            # any independent solution is also an FVS, so the minimum FVS
            # size is a lower bound; an oversized override proves nothing
            stats["fvs_size"] = len(z)
            return SolveResult("no", None, k, stats)
    stats["fvs_size"] = len(z)

    z_sorted = sorted(z)
    guesses: list[tuple[int, ...]] = []
    for size in range(0, min(budget, len(z)) + 1):
        guesses.extend(combinations(z_sorted, size))

    def run_guess(z_prime: tuple[int, ...]) -> GuessRecord:
        zp = set(z_prime)
        if zp & forbidden or not _independent(g, z_prime):
            return GuessRecord(z_prime, "skipped")
        w = z - zp
        if not g.is_forest(w):
            return GuessRecord(z_prime, "skipped")
        h = g.copy()
        for v in z_prime:
            h.remove_vertex(v)
        r = set()
        for v in z_prime:
            r |= g.neighbors(v)
        r = (r | forbidden) & (h.vertices - w)
        inst = DisInstance(h, w, r, budget - len(z_prime), validate=False)
        res: DisjointResult = solve_disjoint(inst)
        return GuessRecord(
            z_prime,
            "yes" if res.feasible else "no",
            mu0=res.stats.mu0,
            nodes=res.stats.nodes,
            base_leaves=res.stats.base_leaves,
            reject_leaves=res.stats.reject_leaves,
            trace=res.trace if keep_traces else None,
            solution=res.solution,
        )

    best: set[int] | None = None
    records: list[GuessRecord] = []

    def consume(rec: GuessRecord) -> bool:
        nonlocal best
        records.append(rec)
        if rec.status == "skipped":
            return False
        stats["guesses_tried"] = int(stats["guesses_tried"]) + 1
        stats["branch_nodes"] = int(stats["branch_nodes"]) + rec.nodes
        if rec.mu0 is not None:
            prev = stats["max_mu"]
            stats["max_mu"] = rec.mu0 if prev is None else max(int(prev), rec.mu0)
        stats["base_leaves_max"] = max(int(stats["base_leaves_max"]), rec.base_leaves)
        if rec.status != "yes":
            return False
        sol = forced | set(rec.z_prime) | rec.solution
        if best is None or (len(sol), sorted(sol)) < (len(best), sorted(best)):
            best = sol
        return not minimize  # decision mode stops at the first hit

    for zp in guesses:
        if consume(run_guess(zp)):
            break

    result = SolveResult(
        "yes" if best is not None else "no", best, k, stats, records
    )
    if best is not None and not check_solution(pristine, best, k):
        raise InternalSolverError("final candidate failed verification")
    return result


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
