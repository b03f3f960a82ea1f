"""Reduction rules for the disjoint engine.

Seven rules, applied lowest number first until none fires. Site selection
inside a rule is deterministic (smallest vertex id, or lexicographically
smallest pair), so a fixpoint run is reproducible. Rules 1 and 2 are
drains: each fires at its smallest site off a heap, again and again until
no site is left. That is what restarting at rule 1 after each of their
firings does: rule 1 fires while it has a site, and a bypass makes no
rule-1 site, so rule 2 comes next again while it has one. reduce_to_fixpoint
reduces the instance it is given in place, through DisInstance moves that
keep the instance's W-partition and settled set up to date, so reading
the measure costs O(1) wherever rule 3 or a trace needs it. Rule 5 takes
its vertex into the solution, which the instance records, so a fixpoint
returns only its events and verdict. Rules never grow the measure
when observed fixpoint to fixpoint; rule 6 may raise it transiently
because moving an isolated restricted vertex into W adds a W-component
before later rules cash in the offset.

Rule catalogue, by what each one does:
  1  delete any vertex with at most one incident edge occurrence
  2  bypass one of two adjacent degree-2 vertices outside W
  3  reject when the budget or the measure went negative, or, once a
     take has lowered the budget, when the budget cannot pay for the
     floor on the cycle rank (instance.floor_cut)
  4  reject when a restricted vertex double-links one W-component
  5  take a deletable vertex that double-links one W-component
  6  promote a restricted vertex with generalized degree or tent degree
  7  restrict all degree-2 free neighbors of a free vertex
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .instance import DisInstance, floor_cut, measure, pivot_degrees

RULE_IDS = (1, 2, 3, 4, 5, 6, 7)
DRAINED = (1, 2)  # rules whose function yields every firing until none is left


@dataclass(frozen=True)
class ReductionEvent:
    rule: int
    pivot: int | None
    mu_before: int
    mu_after: int


@dataclass
class FixpointResult:
    """Events and verdict of a fixpoint; the reduced instance is its input."""

    events: list[ReductionEvent]
    rejected: bool


# -- individual rules ------------------------------------------------------
# Rules 3 to 7 each take one step: a rule returns None and leaves inst
# untouched when it does not apply. When it fires it reduces inst in place,
# or rejects without touching it. Rules 1 and 2 never reject. Rule 3
# is the one rule that reads the measure, and it reads the floor; when it
# checks the floor it notes the budget as floor_k, which only its own next
# try reads. Rules 4 and 5 test a double link with DisInstance.w_labels,
# the test protect makes, on the instance's W-degrees and W-components;
# rule 6 promotes an R-vertex with a W-edge on its W-degree alone and
# reads pivot_degrees only for the R-vertices without one.
# Rule 2's bypass is a DisInstance move too, so no rule edits the graph,
# W or the floor directly.
#
# Each rule tries only the vertices that can fire it and still takes its
# smallest site: rules 4 and 5 the vertices of W-degree 2 or more (a double
# link needs two W-edges), and rule 7 the free neighbours of free degree-2
# vertices (every free neighbour of its site has degree 2).
#
# Rules 1 and 2 are generators that yield each firing and end when their
# site set is empty. Rule 1's heap starts as the graph's low-degree set; a
# deletion only lowers degrees, and the one neighbour of a deleted vertex
# that falls to degree 1 is the one vertex that joins the set. Rule 2's
# heap holds the edges (u, v), u < v, inside the degree-2 vertices outside
# W. A bypass keeps every surviving degree, W and R and only swaps drop's
# two edges for keep - other, so a heaped edge is still a site while both
# ends live, keep - other is the one new site, and no vertex turns low.

Fired = tuple[str, int | None]  # (status, pivot)


def _rule1(inst: DisInstance) -> Iterator[Fired]:
    g = inst.graph
    low = sorted(g.low_degree_vertices())  # a sorted list is a heap
    while low:
        v = heappop(low)
        for u in inst.delete_vertex(v):  # v had at most one neighbour
            if g.deg(u) == 1:  # it was 2, so u is new to the low set
                heappush(low, u)
        yield "reduced", v


def _rule2(inst: DisInstance) -> Iterator[Fired]:
    # an F-vertex with an F-neighbour is never nice, so no class test is needed
    g, w, r = inst.graph, inst.w, inst.r
    two = g.degree_two_vertices() - w
    pairs = [(u, v) for u in two for v, _ in g.incident(u) if u < v and v in two]
    heapify(pairs)
    while pairs:
        u, v = heappop(pairs)
        if u not in g or v not in g:  # a bypass dropped one end
            continue
        # drop the restricted end if exactly one is, else u
        drop, keep = (v, u) if v in r and u not in r else (u, v)
        other = inst.bypass(drop, keep)
        if other not in w and g.deg(other) == 2:
            heappush(pairs, (min(keep, other), max(keep, other)))
        yield "reduced", drop


def _rule3(inst: DisInstance) -> Fired | None:
    if measure(inst) < 0 or inst.k < 0:
        return "reject", None
    # the floor is checked again only once a take has lowered the budget
    if inst.k < inst.floor_k and floor_cut(inst):
        return "reject", None
    return None


def _rule4(inst: DisInstance) -> Fired | None:
    for v in sorted(inst.r):
        if inst.wdeg[v] > 1 and inst.w_labels(v) is None:
            return "reject", v
    return None


def _rule5(inst: DisInstance) -> Fired | None:
    w, r = inst.w, inst.r
    for v in sorted(v for v, d in inst.wdeg.items() if d > 1 and v not in w and v not in r):
        if inst.w_labels(v) is None:
            inst.take(v)
            return "reduced", v
    return None


def _rule6(inst: DisInstance) -> Fired | None:
    for v in sorted(inst.r):
        # a W-edge alone gives gdeg >= 1
        if not inst.wdeg[v] and pivot_degrees(inst, (v,))[v] == (0, 0):
            continue
        # rule 4 fires first on a double link, so the move merges
        # distinct W-components and cannot close a cycle inside W
        inst.protect(v)
        return "reduced", v
    return None


def _rule7(inst: DisInstance) -> Fired | None:
    g = inst.graph
    blocked = inst.w | inst.r
    two = g.degree_two_vertices()
    cands = {v for u in two - blocked for v, _ in g.incident(u)} - blocked
    for v in sorted(cands):
        nbrs = g.neighbors(v) - blocked
        if nbrs and nbrs <= two:
            inst.restrict(nbrs)
            return "reduced", v
    return None


_RULES = {
    1: _rule1,
    2: _rule2,
    3: _rule3,
    4: _rule4,
    5: _rule5,
    6: _rule6,
    7: _rule7,
}


def reduce_to_fixpoint(inst: DisInstance, trace: bool = True) -> FixpointResult:
    """Apply the lowest-numbered applicable rule until none fires.

    Reduces inst in place: the caller gives it up, and clones first to keep
    it; the vertices rule 5 takes land in inst.taken. Returns the ordered
    event trace and whether a rule rejected; on a rejection the trace still
    carries everything up to and including the rejecting event. With trace,
    inst is measured on entry and after each firing, for the events'
    mu_before and mu_after; without it the fixpoint records no event and
    reads no measure of its own. The drains of rules 1 and 2 run to their
    end first, one event per firing; then rules 3 to 7 take one step, and
    after a step that reduces the fixpoint starts again at rule 1.
    """
    events: list[ReductionEvent] = []
    mu = measure(inst) if trace else None
    while True:
        for rule_id in DRAINED:
            for _, pivot in _RULES[rule_id](inst):
                if trace:
                    mu_after = measure(inst)
                    events.append(ReductionEvent(rule_id, pivot, mu, mu_after))
                    mu = mu_after
        for rule_id in RULE_IDS[len(DRAINED):]:
            fired = _RULES[rule_id](inst)
            if fired is not None:
                break
        else:
            return FixpointResult(events, False)
        status, pivot = fired
        if trace:
            mu_after = mu if status == "reject" else measure(inst)
            events.append(ReductionEvent(rule_id, pivot, mu, mu_after))
            mu = mu_after
        if status == "reject":
            return FixpointResult(events, True)
