"""Seed-deterministic instance generators.

Everything here draws from a private random.Random(seed), so the same seed
always reproduces the same object. The rule-targeted builders construct
disjoint instances on which a chosen reduction rule is the lowest applicable
one; they are the workhorse behind the per-rule safety suites. Their layouts
are tuned so that no vertex drops to degree one, every special vertex wires
into pairwise distinct W-components, and the measure stays nonnegative
unless the target rule is the rejection rule itself.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .instance import DisInstance
from .multigraph import MultiGraph

GEN_KINDS = ("random", "planted", "subdivided", "base-case", "gadget")


@dataclass(frozen=True)
class PlantedWitness:
    graph: MultiGraph
    witness: frozenset[int]
    k: int


def random_multigraph(
    n: int, m: int, seed: int, loops: bool = True, multi: bool = True
) -> MultiGraph:
    """n vertices and at most m edge occurrences from m seeded draws: a
    non-loop draw adds none when n < 2 or, with multi False, a repeated edge."""
    if n < 0 or m < 0:
        raise ValueError("vertex and edge counts must be nonnegative")
    rng = random.Random(seed)
    g = MultiGraph(range(n))
    if n == 0:
        return g
    for _ in range(m):
        if loops and rng.random() < 0.06:
            v = rng.randrange(n)
            g.add_edge(v, v)
            continue
        if n < 2:
            continue
        u, v = rng.sample(range(n), 2)
        if not multi and g.multiplicity(u, v):
            continue
        g.add_edge(u, v)
    return g


def _random_forest_edges(verts: list[int], rng: random.Random, density: float = 0.7):
    """Random forest on verts: each later vertex may attach to an earlier one."""
    edges = []
    for i, v in enumerate(verts[1:], start=1):
        if rng.random() < density:
            edges.append((rng.choice(verts[:i]), v))
    return edges


def random_dis_instance(
    seed: int,
    max_w: int = 6,
    max_f: int = 10,
    max_cross: int = 18,
    k: int | None = None,
) -> DisInstance:
    """Random valid disjoint instance: forests on both sides, cross edges free.

    Cross edges may repeat, which is the only way multiplicities can appear,
    because loops or parallel edges inside either side would break the
    forest invariants.
    """
    rng = random.Random(seed)
    nw = rng.randint(0, max_w)
    nf = rng.randint(1, max_f)
    w_verts = list(range(nw))
    f_verts = list(range(nw, nw + nf))
    g = MultiGraph(range(nw + nf))
    for u, v in _random_forest_edges(w_verts, rng):
        g.add_edge(u, v)
    for u, v in _random_forest_edges(f_verts, rng, density=0.5):
        g.add_edge(u, v)
    if nw:
        for _ in range(rng.randint(0, max_cross)):
            g.add_edge(rng.choice(w_verts), rng.choice(f_verts))
    r = {v for v in f_verts if rng.random() < 0.2}
    budget = k if k is not None else rng.randint(0, max(1, nf - len(r)))
    return DisInstance(g, set(w_verts), r, budget)


def planted_ifvs(n: int, k: int, seed: int) -> PlantedWitness:
    """Forest plus an independent planted set of k cycle makers.

    Each planted vertex closes a triangle over its own private base edge.
    The triangles are vertex disjoint, so every feedback vertex set needs at
    least k vertices, and removing the planted set leaves the base forest.
    The minimum therefore is exactly k and the planted set is an
    independent witness. Extra random edges from planted vertices into the
    base only ever create cycles through their own planted vertex, which
    keeps that argument intact while making the instances less uniform.
    """
    if k < 0 or n <= 0 or k > n:
        raise ValueError("need 0 <= k <= n and n > 0")
    if 3 * k > n:
        raise ValueError("need n >= 3k for disjoint planted triangles")
    rng = random.Random(seed)
    nbase = n - k
    base = list(range(nbase))
    planted = list(range(nbase, n))
    g = MultiGraph(range(n))
    for i in range(k):
        g.add_edge(2 * i, 2 * i + 1)
        if i and rng.random() < 0.5:
            g.add_edge(2 * i, rng.randrange(2 * i))
    for j in range(2 * k, nbase):
        if rng.random() < 0.9 and j:
            g.add_edge(rng.randrange(j), j)
    for i, s in enumerate(planted):
        g.add_edge(s, 2 * i)
        g.add_edge(s, 2 * i + 1)
        for t in rng.sample(base, rng.randint(0, 2)):
            g.add_edge(s, t)
    return PlantedWitness(g, frozenset(planted), k)


def base_case_instance(seed: int, max_pairs: int = 12) -> DisInstance:
    """Instance whose free side is only nice vertices and tents.

    W splits into several tree components; every special vertex wires into
    pairwise distinct components, so the double-link rules stay quiet and
    the instance is already at the branching base case.
    """
    rng = random.Random(seed)
    ncomp = rng.randint(2, 6)
    g = MultiGraph()
    comps: list[list[int]] = []
    nxt = 0
    for _ in range(ncomp):
        size = rng.randint(1, 3)
        verts = list(range(nxt, nxt + size))
        nxt += size
        for v in verts:
            g.add_vertex(v)
        for i, v in enumerate(verts[1:], start=1):
            g.add_edge(rng.choice(verts[:i]), v)
        comps.append(verts)
    w = set(range(nxt))
    npairs = rng.randint(0, max_pairs)
    for _ in range(npairs):
        want_tent = ncomp >= 3 and rng.random() < 0.5
        spread = 3 if want_tent else 2
        chosen = rng.sample(range(ncomp), spread)
        v = g.add_vertex(nxt)
        nxt += 1
        for ci in chosen:
            g.add_edge(v, rng.choice(comps[ci]))
    budget = rng.randint(0, max(npairs, 1))
    return DisInstance(g, w, set(), budget)


# -- hand built gadgets ------------------------------------------------------
#
# Small fixed configurations for the scenario tests around promotion,
# shielding, and the two branching operations. Each one is fully reduced,
# and each builder returns the instance plus the vertex the scenario is
# about. Degrees are padded so the degree-one rule never preempts the
# scenario, always through separate W-components so the double-link rules
# stay quiet.


def gadget_promotion(k: int = 2) -> tuple[DisInstance, int]:
    """Restricted v with potentially nice neighbors; rule 6 promotes v.

    After the promotion both neighbors of v turn nice, so the measure drops
    immediately even though the promotion itself touches no budget.
    """
    g = MultiGraph(range(5))
    # 0, 1 = W tree; 2 = v restricted; 3 and 4 = potentially nice neighbors
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    g.add_edge(2, 4)
    g.add_edge(2, 1)
    g.add_edge(3, 0)
    g.add_edge(4, 0)
    return DisInstance(g, {0, 1}, {2}, k), 2


def gadget_shield(k: int = 2) -> tuple[DisInstance, int]:
    """Free v whose free neighbors all have degree 2; rule 7 restricts them."""
    inst = rule_site_instance(7, seed=0)
    return DisInstance(inst.graph, inst.w, inst.r, k), 3


def gadget_nice_promotion(k: int = 1) -> tuple[DisInstance, int]:
    """Protecting v turns its potentially nice neighbor into a nice one.

    Minimal shape for the immediate reclassification check; not reduced, so
    scenario tests drive the branching operation directly.
    """
    g = MultiGraph(range(4))
    # 0 = w, 2 = w2, 1 = v, 3 = u potentially nice with edges to v and w
    g.add_edge(3, 1)
    g.add_edge(3, 0)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return DisInstance(g, {0, 2}, set(), k), 1


def gadget_tent_branch(k: int = 3) -> tuple[DisInstance, int]:
    """Reduced instance whose pivot v has a potential tent neighbor.

    v is plain with generalized degree 1 and tent degree 1, so the engine
    branches on it under case B. Deleting v restricts the tent and both of
    its potentially nice neighbors cash in through promotions; protecting v
    forces a double-linked vertex out. Both drops exceed the case B bounds.
    """
    g = MultiGraph(range(14))
    # 0..3 = W singletons, 9 = shared W singleton for the degree pads
    # 4 = potential tent, 5 and 6 = its potentially nice neighbors
    # 7 = v, 8 = second plain neighbor of v, 10..13 = pad nice vertices
    w = {0, 1, 2, 3, 9}
    g.add_edge(4, 7)
    g.add_edge(4, 5)
    g.add_edge(4, 6)
    g.add_edge(5, 0)
    g.add_edge(6, 1)
    g.add_edge(7, 8)
    g.add_edge(7, 2)
    g.add_edge(8, 2)
    g.add_edge(8, 3)
    for pad, root in ((10, 0), (11, 1), (12, 2), (13, 3)):
        g.add_edge(pad, root)
        g.add_edge(pad, 9)
    return DisInstance(g, w, set(), k), 7


GADGETS = {
    1: gadget_promotion,
    2: gadget_shield,
    3: gadget_nice_promotion,
    4: gadget_tent_branch,
}


# -- rule targeted instances -------------------------------------------------


def _pad_legs(g: MultiGraph, roots: list[int], w: set[int]) -> None:
    """Raise weak W degrees through nice vertices and one fresh W hub.

    Every leg runs from a root into the hub through a fresh degree-2 vertex,
    so each root gains one edge, the hub collects one edge per leg, and all
    links land in distinct components. With a single root two legs are laid
    so the hub never ends up with degree one.
    """
    hub = g.new_vertex()
    w.add(hub)
    legs = roots if len(roots) >= 2 else roots * 2
    for root in legs:
        n = g.new_vertex()
        g.add_edge(n, root)
        g.add_edge(n, hub)


def rule_site_instance(rule: int, seed: int) -> DisInstance:
    """Instance on which the given rule is the lowest applicable one.

    Randomized sizes and budgets around a pinned site. The per-rule safety
    suite fires the rule on a clone of each and compares oracle answers
    before and after; lowest_applicable_rule in the tests double-checks the
    contract.
    """
    rng = random.Random(seed)
    if rule == 1:
        inst = random_dis_instance(rng.randrange(1 << 30), max_w=4, max_f=6)
        anchors = sorted(inst.f)
        v = inst.graph.new_vertex()
        if rng.random() < 0.5:
            inst.graph.add_edge(v, rng.choice(anchors))
        return DisInstance(inst.graph, inst.w, inst.r, inst.k)

    if rule == 2:
        # adjacent degree-2 pair 0-1 outside W, anchored in two separate
        # W-components; extra nice vertices keep the W degrees up
        g = MultiGraph(range(4))
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(1, 3)
        w = {2, 3}
        for _ in range(rng.randint(1, 4)):
            n = g.new_vertex()
            g.add_edge(n, 2)
            g.add_edge(n, 3)
        flavor = rng.choice(["none", "one", "both"])
        r = {0, 1} if flavor == "both" else {rng.choice([0, 1])} if flavor == "one" else set()
        return DisInstance(g, w, r, rng.randint(0, 3))

    if rule == 3:
        if rng.random() < 0.3:
            # negative budget flavor
            g = MultiGraph(range(2))
            for _ in range(2):
                n = g.new_vertex()
                g.add_edge(n, 0)
                g.add_edge(n, 1)
            return DisInstance(g, {0, 1}, set(), -1)
        # more parallel nice vertices between two W singletons than budget
        # plus component count can pay for, so the measure is negative
        g = MultiGraph(range(2))
        k = rng.randint(0, 2)
        for _ in range(k + 3):
            n = g.new_vertex()
            g.add_edge(n, 0)
            g.add_edge(n, 1)
        return DisInstance(g, {0, 1}, set(), k)

    if rule in (4, 5):
        k = rng.randint(1, 3)
        if rng.random() < 0.5:
            # two unit links into one W edge pair
            g = MultiGraph(range(3))
            g.add_edge(0, 1)
            g.add_edge(2, 0)
            g.add_edge(2, 1)
            w = {0, 1}
        else:
            # one double link into a W singleton
            g = MultiGraph(range(2))
            g.add_edge(1, 0, mult=2)
            g.add_vertex(0)
            w = {0}
        site = max(g.vertices)
        r = {site} if rule == 4 else set()
        if rule == 5 and rng.random() < 0.5:
            u = g.new_vertex()
            g.add_edge(site, u)
            g.add_edge(u, min(w))
        _pad_legs(g, sorted(w), w)
        return DisInstance(g, w, r, k)

    if rule == 6:
        # restricted vertex 3 with one W link and a potential tent neighbor 4
        g = MultiGraph(range(5))
        g.add_edge(0, 1)
        g.add_edge(3, 0)
        g.add_edge(4, 3)
        g.add_edge(4, 1)
        g.add_edge(4, 2)
        w = {0, 1, 2}
        _pad_legs(g, [2], w)
        return DisInstance(g, w, {3}, rng.randint(0, 3))

    if rule == 7:
        # free vertex 3 whose free neighbors 4 and 5 both have degree 2
        g = MultiGraph(range(6))
        g.add_edge(3, 4)
        g.add_edge(3, 5)
        g.add_edge(4, 0)
        g.add_edge(5, 1)
        g.add_edge(3, 2)
        w = {0, 1, 2}
        _pad_legs(g, [0, 1, 2], w)
        return DisInstance(g, w, set(), rng.randint(0, 3))

    raise ValueError(f"unknown rule {rule}")
