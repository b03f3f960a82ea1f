"""Measure-driven branching for the disjoint engine.

At a reduced instance the engine picks a pivot vertex v in F that is neither
nice, nor a tent, nor potentially nice, and recurses on two children: delete
v (v joins the solution, its free neighbors become restricted, budget drops)
or protect v (v joins W). Pivot eligibility prefers the earliest of

  case A  generalized degree of v at least 3
  case B  generalized degree at least 1 and tent degree at least 1
  case C  tent degree at least 2

with ties broken by smallest id. Both children lose at least one unit of
measure by the time their own reductions reach a fixpoint, and one of them
loses at least two, which gives the Fibonacci-shaped search tree that the
trace checks enforce. When no pivot exists every vertex of F must be nice or
a tent and the matroid parity base case finishes in polynomial time.

Before its fixpoint, each node checks a cycle-rank bound and rejects at
once when at most k vertices of F - R cannot cover the cycle rank
m - n + c of its graph, taking their degrees largest first. Deleting a
vertex of degree d lowers m - n + c by at most max(d - 1, 0), a forest
has m - n + c = 0, W and R vertices are not deletable and degrees only
fall as vertices go, so no solution exists at such a node. Contracting
the W-trees would change neither m - n + c nor any F-degree, so the bound
reads the graph as it is. A cut node is a reject leaf with no reduction
events; it is a check ahead of the rules, not one of them, and a cut
child counts as an unbounded drop like any rejected child. The check
also sets the instance's floor to the exact rank. The floor falls by
max(d - 1, 0) at each deletion, so rule 3 checks the same bound on it
after the fixpoint's own takes, and the pipeline checks it on each guess
before the guess's instance is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .basecase import solve_base
from .instance import DisInstance, InternalSolverError, floor_cut, measure, pivot_degrees
from .reductions import ReductionEvent, reduce_to_fixpoint

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"


@dataclass(frozen=True)
class PivotChoice:
    vertex: int
    case: str


@dataclass
class BranchNode:
    """One engine node, recorded after the node's own reduction fixpoint."""

    kind: str  # "branch" | "base" | "reject"
    mu: int | None = None
    pivot: int | None = None
    case: str | None = None
    children: list[tuple[str, BranchNode]] = field(default_factory=list)
    reductions: list[ReductionEvent] = field(default_factory=list)
    answer: str | None = None  # leaves: "yes" | "no"

    def walk(self):
        yield self
        for _, child in self.children:
            yield from child.walk()


@dataclass
class DisjointStats:
    nodes: int = 0
    base_leaves: int = 0
    mu0: int | None = None


@dataclass
class DisjointResult:
    solution: set[int] | None
    trace: BranchNode | None  # None when no trace was asked for
    stats: DisjointStats

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def select_pivot(inst: DisInstance) -> PivotChoice | None:
    """Deterministic pivot choice on a reduced instance.

    Pairs each vertex of F that pivot_degrees keeps (none nice, a tent or
    potentially nice) with the earliest case it fits; the least pair is the
    smallest id in the earliest nonempty case. Settled vertices never pivot
    and have no F-neighbours, so they are no target and no target's
    neighbour; pivot_degrees gets only the rest of F, which is empty at a
    base-case leaf. Returns None when the instance is a base case. A pivot
    inside R would mean rule 6 was still applicable, which the engine
    treats as an internal error.
    """
    fits = []
    for v, (gdeg, tdeg) in pivot_degrees(inst, inst.f - inst.settled).items():
        if gdeg >= 3:
            fits.append((CASE_A, v))
        elif gdeg >= 1 and tdeg >= 1:
            fits.append((CASE_B, v))
        elif tdeg >= 2:
            fits.append((CASE_C, v))
    if not fits:
        return None
    case, v = min(fits)  # CASE_A < CASE_B < CASE_C as strings
    if v in inst.r:
        raise InternalSolverError(f"pivot {v} sits in R; rule 6 should have promoted it")
    return PivotChoice(v, case)


def cycle_rank_cut(inst: DisInstance) -> bool:
    """True when no inst.k vertices of F - R can break every cycle of inst.

    Sets inst.floor to m - n + c exactly and checks it with floor_cut: W
    and R vertices are not deletable, so a solution needs the degrees of at
    most k vertices of F - R, largest first, minus one each, to cover it.
    """
    g = inst.graph
    inst.floor = g.num_edges - len(g) + g.component_count()
    return floor_cut(inst)


def _better(a: set[int] | None, b: set[int] | None) -> set[int] | None:
    """Smaller solution wins, ties by sorted vertex tuple."""
    if a is None:
        return b
    if b is None:
        return a
    return a if (len(a), sorted(a)) <= (len(b), sorted(b)) else b


def solve_disjoint(inst: DisInstance, trace: bool = True) -> DisjointResult:
    """Minimum valid deletion set of a disjoint instance, with trace.

    Returns solution None when no independent set of at most k deletable
    vertices breaks all cycles. The recorded trace carries measures at every
    node fixpoint; the engine hard-checks the drop guarantees and raises
    InternalSolverError on any accounting violation. With trace False the
    search records no trace and the result's trace is None.

    inst is left as it was, its taken included; the search runs on a clone.
    """
    return search_disjoint(inst.clone(), trace)


def search_disjoint(inst: DisInstance, trace: bool = True) -> DisjointResult:
    """solve_disjoint on inst itself, which the caller gives up; its taken
    is cleared first. Each node reduces its instance in place and clones it
    for its delete child; the to-W child reuses it once the delete subtree
    is done. A solved leaf answers with its taken plus its base-case deletions.

    A node returns its solution, its measure (None for a reject leaf), which
    is all the drop checks read, and its BranchNode when trace is on; the
    stats are counted as the nodes are made. Without trace no BranchNode and
    no reduction event is built.
    """
    inst.taken.clear()
    stats = DisjointStats()

    def recurse(
        cur: DisInstance, depth: int
    ) -> tuple[set[int] | None, int | None, BranchNode | None]:
        stats.nodes += 1
        if cycle_rank_cut(cur):
            return None, None, BranchNode("reject", answer="no") if trace else None
        red = reduce_to_fixpoint(cur, trace)
        if red.rejected:
            node = BranchNode("reject", reductions=red.events, answer="no") if trace else None
            return None, None, node
        mu = measure(cur)
        if stats.mu0 is None:
            stats.mu0 = mu
        elif depth > stats.mu0 + 1:
            raise InternalSolverError(
                f"depth {depth} exceeds root measure budget {stats.mu0}"
            )
        pivot = select_pivot(cur)
        if pivot is None:
            stats.base_leaves += 1
            base = solve_base(cur)
            node = BranchNode(
                "base", mu=mu, reductions=red.events,
                answer="yes" if base is not None else "no",
            ) if trace else None
            return (None if base is None else cur.taken | base), mu, node

        child = cur.clone()
        child.take(pivot.vertex)
        del_sol, del_mu, del_node = recurse(child, depth + 1)
        cur.protect(pivot.vertex)
        w_sol, w_mu, w_node = recurse(cur, depth + 1)

        # rejected children count as an unbounded drop; real children must
        # drop at least 1 each and at least one side must drop 2 or more
        drops = []
        for child_mu in (del_mu, w_mu):
            if child_mu is not None:
                if child_mu >= mu:
                    raise InternalSolverError(
                        f"child measure {child_mu} did not drop below {mu}"
                    )
                drops.append(mu - child_mu)
        if len(drops) == 2 and max(drops) < 2:
            raise InternalSolverError(
                f"branch at measure {mu} dropped only {drops}; need one drop >= 2"
            )

        node = BranchNode(
            "branch", mu=mu, pivot=pivot.vertex, case=pivot.case,
            children=[("delete", del_node), ("to_w", w_node)],
            reductions=red.events,
        ) if trace else None
        return _better(del_sol, w_sol), mu, node

    solution, _, root = recurse(inst, 1)
    return DisjointResult(solution, root, stats)


def fib(n: int) -> int:
    """Fibonacci with fib(1) = fib(2) = 1; fib(0) = 0 for convenience."""
    if n < 0:
        raise ValueError("fib wants a nonnegative index")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
