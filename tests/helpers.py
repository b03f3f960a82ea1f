"""Shared instance builders and checkers for the test suite."""
from collections import Counter
from contextlib import contextmanager
from itertools import chain, combinations

import pytest

from ifvs import branching, reductions
from ifvs.basecase import ParityInstance, _forest_union
from ifvs.fvs import min_fvs
from ifvs.instance import DisInstance, measure, pivot_degrees
from ifvs.multigraph import MultiGraph
from ifvs.reductions import DRAINED, RULE_IDS, ReductionEvent


def complete(n: int) -> MultiGraph:
    g = MultiGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def cycle(n: int) -> MultiGraph:
    g = MultiGraph(range(n))
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def path(n: int) -> MultiGraph:
    g = MultiGraph(range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def petersen() -> MultiGraph:
    g = MultiGraph(range(10))
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(i, i + 5)
        g.add_edge(i + 5, 5 + (i + 2) % 5)
    return g


def deg_x(g: MultiGraph, v: int, x: set[int]) -> int:
    """Edge occurrences from v into the vertex set x; a loop at v counts 2
    when v lies in x."""
    d = sum(m for u, m in g.incident(v) if u in x)
    return d + (g.multiplicity(v, v) if v in x else 0)


def layout(g: MultiGraph) -> tuple:
    """Adjacency maps with their key orders, degrees, the degree caches and
    the edge count: everything a later walk or edit can tell apart."""
    return ([(v, list(nbrs.items())) for v, nbrs in g._adj.items()], list(g._deg.items()),
            g._low, g._two, g.num_edges)


def fire_rule(inst, rule: int) -> tuple:
    """Fire one rule on a clone of inst, as a fixpoint step would; a drained
    rule fires the first step of its drain.

    Returns (status, pivot, clone): status is "reduced", "reject" or None
    when the rule does not apply. inst is left as it was.
    """
    out = inst.clone()
    fired = reductions._RULES[rule](out)
    if rule in DRAINED:
        fired = next(fired, None)
    status, pivot = (None, None) if fired is None else fired
    return status, pivot, out


def lowest_applicable_rule(inst) -> int | None:
    return next((rid for rid in RULE_IDS if fire_rule(inst, rid)[0]), None)


def instance_facts(inst) -> tuple:
    """Edges, vertices, W, R and k of a disjoint instance, for comparing an
    instance before and after a call."""
    g = inst.graph
    return g.edge_items(), set(g.vertices), set(inst.w), set(inst.r), inst.k


def branch_drops_ok(node) -> bool:
    """Every real child drops the measure by 1, and unless a child was
    rejected outright, one of the two drops is at least 2."""
    drops = []
    rejected = 0
    for _label, child in node.children:
        if child.mu is None:
            rejected += 1
        else:
            drops.append(node.mu - child.mu)
    if any(d < 1 for d in drops):
        return False
    if rejected == 0 and (len(drops) != 2 or max(drops) < 2):
        return False
    return True


def reference_settled(inst) -> dict:
    """The settled vertices of inst found from scratch: the vertices of F - R
    with no loop and no neighbor outside W, two (nice) or three (tent) of
    whose edge occurrences go into W."""
    g, w = inst.graph, inst.w
    kinds = {2: "nice", 3: "tent"}
    out = {}
    for v in inst.f_free:
        d = deg_x(g, v, w)
        if d in kinds and g.neighbors(v) <= w and not g.multiplicity(v, v):
            out[v] = kinds[d]
    return out


def reference_pivot_degrees(inst) -> dict:
    """pivot_degrees of F found from scratch by the definitions: a vertex of
    F - R is potentially nice with degree 2 and one W-edge, and a potential
    tent with degree 3 and generalized degree 2; the generalized degree is
    the W-degree plus the potentially nice F-neighbors, the tent degree the
    F-neighbors that are potential tents. Settled and potentially nice
    vertices are left out."""
    g, w, free = inst.graph, inst.w, inst.f_free
    f_nbrs = {v: g.neighbors(v) - w for v in inst.f}
    p_nice = {v for v in free if g.deg(v) == 2 and deg_x(g, v, w) == 1}
    gdeg = {v: deg_x(g, v, w) + len(f_nbrs[v] & p_nice) for v in inst.f}
    p_tent = {v for v in free if g.deg(v) == 3 and gdeg[v] == 2}
    settled = reference_settled(inst)
    return {v: (gdeg[v], len(f_nbrs[v] & p_tent)) for v in inst.f
            if v not in p_nice and v not in settled}


def reference_pivot(degs: dict) -> tuple | None:
    """(vertex, case) of the smallest id in the earliest case that degs
    give: A generalized degree 3 or more, B both degrees 1 or more, C tent
    degree 2 or more; None when no vertex qualifies."""
    cases = (("A", lambda gd, td: gd >= 3), ("B", lambda gd, td: gd >= 1 and td >= 1),
             ("C", lambda gd, td: td >= 2))
    for case, fits in cases:
        vs = [v for v, (gd, td) in degs.items() if fits(gd, td)]
        if vs:
            return min(vs), case
    return None


def reference_measure(inst) -> int:
    """The measure of inst built without measure: k plus the W-components
    found from scratch minus the settled vertices found from scratch."""
    return inst.k + len(inst.graph.components(inst.w)) - len(reference_settled(inst))


def assert_wdeg_is_fresh(inst) -> None:
    """The instance's cached W-degrees are those counted from scratch, kept
    for exactly the vertices of its graph."""
    g = inst.graph
    assert inst.wdeg == {v: deg_x(g, v, inst.w) for v in g.vertices}


def assert_partition_is_fresh(inst) -> None:
    """The instance's W-partition is the components of G[W], as sets, and
    comp_of labels every W-vertex with the component that holds it; its
    W-degrees (assert_wdeg_is_fresh) and its settled set are fresh too."""
    fresh = {frozenset(comp) for comp in inst.graph.components(inst.w)}
    assert {frozenset(comp) for comp in inst.comps.values()} == fresh
    assert len(inst.comps) == len(fresh)
    assert inst.comp_of == {v: c for c, comp in inst.comps.items() for v in comp}
    assert_wdeg_is_fresh(inst)
    assert inst.settled == reference_settled(inst).keys()


def assert_measure_is_fresh(mu: int, inst) -> None:
    assert mu == reference_measure(inst)
    assert_partition_is_fresh(inst)


def fixpoint_reads(events, rejected: bool) -> int:
    """The measures a traced fixpoint with these events reads: one on entry
    and one after every firing but a rejection, for the events, plus one at
    each try of rule 3, which every step tries unless rule 1 or 2 fires.
    A node the cycle-rank cut rejects runs no fixpoint: no events, 0 reads."""
    rule3_tries = sum(ev.rule >= 3 for ev in events) + (not rejected)
    return 1 + len(events) - rejected + rule3_tries


@contextmanager
def checking_every_measure():
    """Check every measure the engine reads against reference_measure.

    Patches measure where the reductions and the branching look it up, and
    yields a Counter of the checked reads per module.
    """
    reads = Counter()

    def patched(name):
        def checked(inst):
            mu = measure(inst)
            assert_measure_is_fresh(mu, inst)
            reads[name] += 1
            return mu
        return checked

    with pytest.MonkeyPatch.context() as mp:
        for mod in (reductions, branching):
            mp.setattr(mod, "measure", patched(mod.__name__))
        yield reads


@contextmanager
def checking_every_pivot():
    """Check every pivot the engine picks against the references.

    Patches select_pivot where the engine looks it up: at each call,
    pivot_degrees of F must equal reference_pivot_degrees and the choice
    must be reference_pivot of those degrees. Yields a Counter of the
    checked choices by case, None for a node without a pivot.
    """
    picks = Counter()
    select = branching.select_pivot

    def checked(inst):
        degs = reference_pivot_degrees(inst)
        assert pivot_degrees(inst, inst.f) == degs
        pc = select(inst)
        got = None if pc is None else (pc.vertex, pc.case)
        assert got == reference_pivot(degs)
        picks[None if pc is None else pc.case] += 1
        return pc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branching, "select_pivot", checked)
        yield picks


# -- full-scan references of the rules that scan only their candidates -------
# Each returns the pivot the rule fires at on inst, or None when it does not
# fire, found by scanning every vertex in id order as the rules once did.


def _double_links(inst, v) -> bool:
    seen = Counter()
    for u in inst.graph.neighbors(v) & inst.w:
        seen[inst.comp_of[u]] += inst.graph.multiplicity(v, u)
    return any(m >= 2 for m in seen.values())


def full_scan_rule1(inst) -> int | None:
    g = inst.graph
    return next((v for v in sorted(g.vertices) if g.deg(v) <= 1), None)


def _rule2_site(inst) -> tuple[int, int] | None:
    """(drop, keep) of the lexicographically smallest edge (u, v), u < v,
    between two degree-2 vertices outside W: drop is the restricted end if
    exactly one is, else u."""
    g, w = inst.graph, inst.w
    best = None
    for u in g.vertices:
        if g.deg(u) != 2 or u in w:
            continue
        for v in g.neighbors(u):
            if v <= u or v in w or g.deg(v) != 2:
                continue
            if best is None or (u, v) < best:
                best = u, v
    if best is None:
        return None
    u, v = best
    return (v, u) if v in inst.r and u not in inst.r else (u, v)


def full_scan_rule2(inst) -> int | None:
    site = _rule2_site(inst)
    return None if site is None else site[0]


def full_scan_rule4(inst) -> int | None:
    return next((v for v in sorted(inst.r) if _double_links(inst, v)), None)


def full_scan_rule5(inst) -> int | None:
    return next((v for v in sorted(inst.f_free) if _double_links(inst, v)), None)


def full_scan_rule7(inst) -> int | None:
    g = inst.graph
    blocked = inst.w | inst.r
    for v in sorted(inst.f_free):
        nbrs = g.neighbors(v) - blocked
        if nbrs and all(g.deg(u) == 2 for u in nbrs):
            return v
    return None


FULL_SCANS = {
    1: full_scan_rule1, 2: full_scan_rule2, 4: full_scan_rule4, 5: full_scan_rule5,
    7: full_scan_rule7,
}


def _fire_by_full_scan(inst, rule: int) -> tuple | None:
    """(status, pivot) of rule fired once at the site its full scan finds,
    through the instance's own moves; rules 3 and 6 scan nothing but R and
    the budget and fire as the fixpoint fires them."""
    if rule not in FULL_SCANS:
        return reductions._RULES[rule](inst)
    if rule == 2:
        site = _rule2_site(inst)
        if site is None:
            return None
        inst.bypass(*site)
        return "reduced", site[0]
    v = FULL_SCANS[rule](inst)
    if v is None:
        return None
    if rule == 1:
        inst.delete_vertex(v)
    elif rule == 4:
        return "reject", v
    elif rule == 5:
        inst.take(v)
    else:
        inst.restrict(inst.graph.neighbors(v) - inst.w - inst.r)
    return "reduced", v


def reference_fixpoint(inst) -> tuple[list, bool]:
    """(events, rejected) of reduce_to_fixpoint(inst) found one firing at a
    time: each step fires the lowest rule whose full scan finds a site, and
    the next step scans again from rule 1. Reduces inst in place."""
    events = []
    mu = measure(inst)
    while True:
        for rule in RULE_IDS:
            fired = _fire_by_full_scan(inst, rule)
            if fired is not None:
                break
        else:
            return events, False
        status, pivot = fired
        mu_after = mu if status == "reject" else measure(inst)
        events.append(ReductionEvent(rule, pivot, mu, mu_after))
        mu = mu_after
        if status == "reject":
            return events, True


def pipeline_guesses(g: MultiGraph, k: int):
    """The guesses with |Z'| <= 2 that pass solve_ifvs's skip tests for
    loop-free g at budget k, made with the public moves on the unpeeled
    graph; solve_ifvs would first peel the vertices of degree at most one
    outside Z, which these leave for rule 1."""
    z = min_fvs(g)
    root = DisInstance(g, set(), set(), k, validate=False)
    for z_prime in chain.from_iterable(combinations(sorted(z), n) for n in range(3)):
        w = z.difference(z_prime)
        if not g.is_forest(w) or any(g.neighbors(v) & set(z_prime) for v in z_prime):
            continue
        inst = root.clone()
        for v in z_prime:
            inst.take(v)
        for v in sorted(w):
            inst.protect(v)
        yield inst


def brute_parity_max(p: ParityInstance) -> int:
    """Exhaustive maximum over all pair subsets. Test oracle only."""
    if len(p.pairs) > 20:
        raise ValueError("brute_parity_max refuses more than 20 pairs")
    best = 0
    for mask in range(1 << len(p.pairs)):
        kept = [i for i in range(len(p.pairs)) if mask >> i & 1]
        if len(kept) > best and _forest_union(p, kept) is not None:
            best = len(kept)
    return best
