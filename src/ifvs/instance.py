"""Instance model for the disjoint solve.

A DisInstance is a multigraph together with an undeletable vertex set W, a
restricted set R of vertices that must stay in the graph but may not enter
the solution, and a deletion budget k. The deletable side F is everything
outside W. Both induced sides G[F] and G[W] must be forests, so a solution
only has to break the cycles that cross between them.
"""
from __future__ import annotations

from collections.abc import Iterable

from .fvs import cover_count
from .multigraph import MultiGraph


class InstanceError(ValueError):
    """Raised when a DisInstance violates a structural invariant."""


class InternalSolverError(RuntimeError):
    """A solver self-check failed; indicates a bug, not a bad input."""


class DisInstance:
    """Mutable disjoint-solve state; a search clones it only where it forks.

    A vertex leaves F in one of two ways, take (into the solution) or
    protect (into W); every rule, branch child and compression guess uses
    these two. take records each vertex it puts into the solution in
    taken, which a new instance starts empty and a clone copies.

    The instance owns the partition of W into the components of G[W]:
    comps maps a label to a component's vertex set, comp_of maps each
    W-vertex to its label, and rho is len(comps). No move adds an edge
    inside W, so the partition changes only where protect merges v and the
    components it has edges to into the largest of them (v alone opens a
    new one), and where a deleted W-leaf leaves its component. No rule or
    take deletes an inner W-vertex, so delete_vertex refuses one and no
    component ever splits. A label is a vertex of its component when made
    and leaves it only by deletion, so labels never clash.

    wdeg maps every vertex to its edge occurrences into W, which the
    settled test, pivot_degrees and the rules read in place of the
    neighbor sets. A new instance counts them and finds the W-components
    in one walk over W's incident lists (all zeros and no component when W
    is empty), and a clone copies both; after that only the moves change
    them:
    protect adds v's edges to its neighbors' counts, deleting a W-vertex
    takes them away again, and bypass counts the new edge. No rule edits
    graph, w or floor directly.

    settled holds the nice vertices and tents. The settled test reads only
    the vertex's own facts (its edges, its W-degree, its R-membership and
    its place in F), so each move re-tests exactly the vertices whose facts
    it changed: deleting or protecting a vertex drops it and re-tests its
    neighbors, restrict drops its vertices, and bypass re-tests the ends of
    its new edge. A new instance tests every vertex once and a clone copies
    the set.

    floor is a lower bound on the cycle rank m - n + c of the graph, and
    floor_k the budget at which floor_cut last checked it. Deleting a
    vertex of degree d lowers m - n + c by at most max(d - 1, 0), so
    delete_vertex lowers floor by that much. A new instance starts from 0,
    which bounds every graph; the engine sets it exactly at each node.
    """

    __slots__ = (
        "graph", "w", "r", "k", "taken", "comps", "comp_of", "wdeg",
        "settled", "floor", "floor_k",
    )

    def __init__(
        self,
        graph: MultiGraph,
        w: set[int],
        r: set[int],
        k: int,
        validate: bool = True,
    ) -> None:
        self.graph = graph
        self.w = set(w)
        self.r = set(r)
        self.k = k
        self.taken: set[int] = set()
        self.comps: dict[int, set[int]] = {}
        self.comp_of: dict[int, int] = {}
        self.wdeg = wdeg = dict.fromkeys(graph.vertices, 0)
        # one walk over W's incident lists counts the W-degrees and finds
        # the components of G[W], each from its smallest vertex, so labels
        # come in ascending order; validation flags W-vertices not in graph
        w_in = self.w.intersection(wdeg)
        for s in sorted(w_in):
            if s in self.comp_of:
                continue
            comp = {s}
            self.comps[s] = comp
            self.comp_of[s] = s
            stack = [s]
            while stack:
                for u, m in graph.incident(stack.pop()):
                    wdeg[u] += m
                    if u in w_in and u not in comp:
                        comp.add(u)
                        self.comp_of[u] = s
                        stack.append(u)
        self.settled = {v for v, dw in wdeg.items() if dw > 1 and _is_settled(self, v)}
        self.floor = 0
        self.floor_k = k
        if validate:
            problems = validate_instance(self)
            if problems:
                raise InstanceError("; ".join(problems))

    def clone(self) -> DisInstance:
        inst = DisInstance.__new__(DisInstance)
        inst.graph = self.graph.copy()
        inst.w = set(self.w)
        inst.r = set(self.r)
        inst.k = self.k
        inst.taken = set(self.taken)
        inst.comps = {c: set(comp) for c, comp in self.comps.items()}
        inst.comp_of = dict(self.comp_of)
        inst.wdeg = dict(self.wdeg)
        inst.settled = set(self.settled)
        inst.floor = self.floor
        inst.floor_k = self.floor_k
        return inst

    @property
    def f(self) -> set[int]:
        return self.graph.vertices - self.w

    @property
    def f_free(self) -> set[int]:
        return self.graph.vertices - self.w - self.r

    def _resettle(self, vs: Iterable[int]) -> None:
        """Re-test whether each vertex of vs is settled."""
        for u in vs:
            if _is_settled(self, u):
                self.settled.add(u)
            else:
                self.settled.discard(u)

    def delete_vertex(self, v: int) -> dict[int, int]:
        """Delete v from the graph and from W or R; returns its adjacency map.

        An inner W-vertex, one with two or more W-edges, would split its
        W-component. No rule or take deletes one, so doing so is a solver bug.
        """
        if v in self.w and self.wdeg[v] > 1:
            raise InternalSolverError(f"deleting {v}, an inner W-vertex")
        d = self.graph.deg(v)
        if d > 1:
            self.floor -= d - 1
        nbrs = self.graph.remove_vertex(v)
        self.settled.discard(v)
        if v in self.w:
            wdeg = self.wdeg
            for u, m in nbrs.items():
                wdeg[u] -= m
            self.w.remove(v)
            label = self.comp_of.pop(v)
            comp = self.comps[label]
            comp.remove(v)
            if not comp:
                del self.comps[label]
        del self.wdeg[v]
        self.r.discard(v)
        self._resettle(nbrs)  # v itself, if looped, is gone and tests unsettled
        return nbrs

    def take(self, v: int) -> None:
        """Put v into the solution: delete it, add it to taken, pay one unit of budget.

        Its neighbors outside W become restricted, so the solution stays
        independent. Taking a vertex of W or R is a solver bug.
        """
        if v in self.w or v in self.r:
            raise InternalSolverError(f"taking {v}, which is in W or R")
        self.restrict(self.graph.neighbors(v) - self.w)
        self.delete_vertex(v)
        self.taken.add(v)
        self.k -= 1

    def restrict(self, vs: set[int]) -> None:
        """Keep the vertices vs out of the solution."""
        self.r |= vs
        self.settled -= vs

    def w_labels(self, v: int) -> set[int] | None:
        """Labels of the W-components that v, outside W, has edges to; None
        when v double-links, sending two edge occurrences into one of them.

        Each edge occurrence into W reaches a component of its own exactly
        when there are as many labels as W-edges, so the test reads v's
        incident list once.
        """
        comp_of = self.comp_of
        labels = {comp_of[u] for u, _ in self.graph.incident(v) if u in comp_of}
        return labels if len(labels) == self.wdeg[v] else None

    def protect(self, v: int) -> None:
        """Put v into W for good, merging the W-components it has edges to.

        A loop at v, or two edge occurrences from v into one W-component,
        would close a cycle inside W, which is a solver bug.
        """
        g = self.graph
        nbrs = g.neighbors(v)
        labels = self.w_labels(v)
        if labels is None or g.multiplicity(v, v):
            raise InternalSolverError(f"protecting {v} closed a W-cycle")
        comp_of = self.comp_of
        for u, m in g.incident(v):
            self.wdeg[u] += m
        self.r.discard(v)
        self.w.add(v)
        self.settled.discard(v)
        self._resettle(nbrs)
        label = max(labels, key=lambda c: len(self.comps[c]), default=v)
        comp = self.comps.setdefault(label, set())
        for c in labels - {label}:
            smaller = self.comps.pop(c)
            comp |= smaller
            for u in smaller:
                comp_of[u] = label
        comp.add(v)
        comp_of[v] = label

    def bypass(self, drop: int, keep: int) -> int:
        """Replace the path keep - drop - other by the edge keep - other; returns other.

        drop and keep are adjacent F-vertices and drop has degree 2, so
        other is its one other neighbor. The graph smooths drop away in
        place: every surviving degree, W, R, the W-partition and m - n + c
        (so the floor) stay as they were, and only keep's W-degree and the
        settled tests of keep and other can change. A parallel edge inside
        F would be an F-cycle, which is a solver bug.
        """
        g = self.graph
        other = g.smooth(drop, keep)
        self.settled.discard(drop)
        del self.wdeg[drop]
        self.r.discard(drop)
        if other in self.w:
            self.wdeg[keep] += 1
        elif g.multiplicity(keep, other) >= 2:
            raise InternalSolverError("bypass created a parallel edge inside F")
        self._resettle((keep, other))
        return other

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DisInstance(n={len(self.graph)}, |W|={len(self.w)},"
            f" |R|={len(self.r)}, k={self.k})"
        )


def rank_cut(need: int, degs: Iterable[int], k: int) -> bool:
    """True when no k of degs, largest first, minus one each, reach need.

    need is (a lower bound on) a graph's cycle rank m - n + c and degs are
    the degrees of its deletable vertices. Deleting a vertex of degree d
    lowers m - n + c by at most max(d - 1, 0), a forest has m - n + c = 0
    and degrees only fall as vertices go, so a cut proves that no k of those
    vertices break every cycle.
    """
    return cover_count(need, sorted(degs, reverse=True)[:max(k, 0)]) is None


def floor_cut(inst: DisInstance) -> bool:
    """rank_cut on inst's floor, budget and F - R; records the budget as floor_k."""
    inst.floor_k = inst.k
    return inst.floor > 0 and rank_cut(inst.floor, map(inst.graph.deg, inst.f_free), inst.k)


def validate_instance(inst: DisInstance) -> list[str]:
    """Return violated invariants as short codes, empty when all hold.

    G[W] is read off the W-partition and W-degrees the instance keeps: the
    W-degrees of W's vertices add up to twice the non-loop edge occurrences
    inside W plus its loops. G[W] has rho components, so it has at least
    |W| - rho non-loop edge occurrences, and exactly that many and no loop
    only when it is a forest. So G[W] is a forest iff the sum is 2 (|W| - rho).
    """
    problems = []
    verts = inst.graph.vertices
    if not inst.w <= verts:
        problems.append("W-not-subset")
    if not inst.r <= verts:
        problems.append("R-not-subset")
    if inst.w & inst.r:
        problems.append("W-R-overlap")
    if not inst.graph.is_forest(verts - inst.w):
        problems.append("F-not-forest")
    w_edges = sum(inst.wdeg[x] for x in inst.comp_of)
    if w_edges != 2 * (len(inst.comp_of) - len(inst.comps)):
        problems.append("W-not-forest")
    return problems


def pivot_degrees(inst: DisInstance, targets: Iterable[int]) -> dict[int, tuple[int, int]]:
    """(generalized degree, tent degree) of each F-vertex of targets that can pivot.

    The generalized degree counts a vertex's W-edges and its potentially
    nice F-neighbors (F - R, degree 2, one W-edge), the tent degree its
    F-neighbors that are potential tents (F - R, degree 3, generalized
    degree 2). Settled targets (read off inst.settled) and potentially nice
    ones never pivot and are left out; R-vertices never are. The degrees and F-neighbors of a vertex are
    looked up once, and only for the vertices those tests reach, so all of
    F costs one pass over the edges and a few targets cost their two-hop
    F-neighbourhood.
    """
    g, w, r, wdeg = inst.graph, inst.w, inst.r, inst.wdeg
    facts: dict[int, tuple[int, int, set[int]]] = {}  # deg, deg_w, F-neighbors

    def learn(vs: Iterable[int]) -> None:
        for v in vs:
            if v not in facts:
                facts[v] = (g.deg(v), wdeg[v], g.neighbors(v) - w)

    targets = list(targets)
    learn(targets)
    near = {u for v in targets for u in facts[v][2]}
    near.update(targets)
    learn(near)
    # a p-tent has degree 3; only those need their neighbors' p-nice tests
    tent_cands = {u for u in near if u not in r and facts[u][0] == 3}
    learn([x for u in tent_cands for x in facts[u][2]])

    p_nice = {v for v, (d, dw, _) in facts.items() if d == 2 and dw == 1 and v not in r}
    gdeg = {v: facts[v][1] + len(facts[v][2] & p_nice) for v in tent_cands.union(targets)}
    p_tent = {u for u in tent_cands if gdeg[u] == 2}
    return {v: (gdeg[v], len(facts[v][2] & p_tent)) for v in targets
            if v not in p_nice and v not in inst.settled}


def _is_settled(inst: DisInstance, v: int) -> bool:
    """True when v is nice or a tent.

    Both kinds read only v's own facts: v is in F minus R, every neighbor of
    v is in W, and v has two (nice) or three (tent) edge occurrences into W.
    The middle test holds exactly when v's W-degree is its whole degree,
    so the test costs O(1) on the cached counts.
    """
    dw = inst.wdeg.get(v)
    return (dw in (2, 3) and v not in inst.w and v not in inst.r
            and dw == inst.graph.deg(v))


def measure(inst: DisInstance) -> int:
    """Branching measure mu = k + rho - (eta + tau).

    k is the budget, rho the number of W-components and eta + tau the
    number of settled vertices, the nice vertices and tents: the base case
    handles them in polynomial time, so each one prepays a unit of measure.
    The moves keep the W-partition and the settled set up to date, so this
    is a read that changes nothing and equals a measure taken from scratch.
    """
    return inst.k + len(inst.comps) - len(inst.settled)


def check_solution(g: MultiGraph, s: set[int], k: int) -> bool:
    """True iff s is an independent feedback vertex set of g of size <= k.

    Independence forbids any edge between two distinct members; a loop at a
    member is fine because the vertex leaves the graph anyway. G - s is a
    forest iff its cycle rank m' - n' + c' is 0, loops and parallel edges
    counted as edges. An independent s has no edge between two members, so
    its members' edge occurrences are their degrees minus their loops.
    """
    if len(s) > k:
        return False
    if not s <= g.vertices:
        return False
    for v in s:
        if g.neighbors(v) & s:
            return False
    m = g.num_edges - sum(g.deg(v) - g.multiplicity(v, v) for v in s)
    return m == len(g) - len(s) - g.component_count(s)
