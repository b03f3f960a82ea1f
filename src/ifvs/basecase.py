"""Polynomial base case via graphic matroid parity.

When branching runs out of pivots, every vertex of F is nice or a tent and R
is empty. Keeping a subset of them must leave a forest on top of W, and
deleting the rest must fit the budget; the deleted set is automatically
independent because nice vertices and tents have no neighbors inside F.

The W-components are contracted to ground nodes. A nice vertex linking
components c1 and c2 becomes the edge pair {c1-x, x-c2} through a fresh
node x, so the pair acts as a single c1-c2 connection that is either fully
kept or fully dropped. A tent on c1, c2, c3 becomes the pair {c1-c2, c2-c3},
which merges the same three components. A set of originating vertices can be
kept exactly when the union of their pair edges is acyclic, so the largest
keepable set is a maximum matroid parity in the graphic matroid, and the
minimum deletion set has size (eta + tau) - nu.

Each leaf runs one solver. The exact reference solver branches over tent
pairs and finishes nice pairs greedily, so it answers wherever the tents are
few. Larger leaves go to the polynomial randomized algebraic solver: build
Y = sum_i x_i (u_i v_i^T - v_i u_i^T) over the prime field of order
2**61 - 1 from the incidence vectors of each pair with random weights x_i,
read nu off as rank(Y) / 2 of one sample, and recover a witness by pair
deletion rank probes, one sample each. Ranks are exact Python integers, so
the wide field costs only wider ints. A random rank can only undershoot; by
Schwartz-Zippel any of a leaf's at most npairs + 1 rank evaluations does so
with probability at most about (npairs + 1) * num_ground / 2**62. The
witness is verified all the same; if it fails, the reference runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .instance import DisInstance, InternalSolverError

REFERENCE_MAX_PAIRS = 20
REFERENCE_MAX_TENTS = 13
# the Mersenne prime 2**61 - 1: the one field the algebraic route ranks in
_FIELD = (1 << 61) - 1


@dataclass(frozen=True)
class ParityPair:
    """Two ground edges that must be kept together, tagged by their origin."""

    origin: int  # originating vertex in the disjoint instance
    edges: tuple[tuple[int, int], tuple[int, int]]
    serial: bool  # True for nice-style pairs that share a private middle node


@dataclass
class ParityInstance:
    num_ground: int
    pairs: list[ParityPair]


@dataclass
class ParityResult:
    nu: int
    kept: frozenset[int]  # indices into pairs
    used_fallback: bool = False


def build_parity(inst: DisInstance) -> ParityInstance:
    """Encode a base-case instance as parity pairs.

    The settled vertices are inst.settled, which the moves keep up to date,
    and every vertex of F must be settled, else the leaf is no base case;
    settled vertices lie in F, so that holds when there are as many as F
    has vertices. A settled vertex is in F minus R with all of its
    neighbors in W, and its two (nice) or three (tent) edges into W tell
    the two kinds apart; its incident list is read once, for the labels of
    the components they reach. The instance's W-components become ground
    nodes 0 to rho - 1, numbered by their smallest vertex.
    """
    if len(inst.settled) != len(inst.graph) - len(inst.w):
        raise InternalSolverError(
            f"base case reached with non-settled vertices {sorted(inst.f - inst.settled)}"
        )
    comps = inst.comps
    node = {c: i for i, c in enumerate(sorted(comps, key=lambda c: min(comps[c])))}
    next_node = len(comps)
    pairs = []
    for v in sorted(inst.settled):
        labels = inst.w_labels(v)
        if labels is None:
            raise InternalSolverError(
                f"base case vertex {v} double-links a W-component"
            )
        targets = sorted(node[c] for c in labels)
        if len(targets) == 2:
            c1, c2 = targets
            pairs.append(ParityPair(v, ((c1, next_node), (next_node, c2)), serial=True))
            next_node += 1
        else:
            c1, c2, c3 = targets
            pairs.append(ParityPair(v, ((c1, c2), (c2, c3)), serial=False))
    return ParityInstance(next_node, pairs)


def _find(parent: list[int], a: int) -> int:
    """Root of a in a union-find parent list; halves the path on the way."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def _forest_union(p: ParityInstance, kept: list[int] | frozenset[int]) -> list[int] | None:
    """Union-find parents of the kept pairs' edges, None when they close a cycle."""
    parent = list(range(p.num_ground))
    for i in kept:
        for a, b in p.pairs[i].edges:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                return None
            parent[ra] = rb
    return parent


def reference_parity_max(p: ParityInstance) -> ParityResult:
    """Exact maximum by depth-first search on tent pairs, greedy on serials.

    A serial pair is a single connection between two ground nodes, so once
    the tent pairs are fixed the serial pairs form a plain graphic matroid
    and greedy completion is optimal. The search decides the highest tent
    first, keep before drop, so its leaves come in descending bitmask order
    (the algebraic witness recovery drops the lowest pairs first, so both
    routes lean to the same witness). It cuts the keep subtree of a tent
    that closes a cycle, and every node whose kept pairs plus the most it
    can still keep cannot beat the best leaf; a tie never replaces the best
    leaf, so the witness is the first maximum in that order.

    The most a node can still keep is bounded by the merges left. Its kept
    tents and the pairs it still keeps form a forest on the w W-component
    nodes (the ground nodes but the serial pairs' middles); t kept tents
    leave them in w - 2t components, so at most w - 2t - 1 more merges fit,
    and a serial pair takes one of them while a tent takes two. Runtime is
    exponential only in the number of tent pairs.
    """
    tent_idx = [i for i, pr in enumerate(p.pairs) if not pr.serial]
    serials = [(i, pr.edges[0][0], pr.edges[1][1])
               for i, pr in reversed(list(enumerate(p.pairs))) if pr.serial]
    w = p.num_ground - len({pr.edges[0][1] for pr in p.pairs if pr.serial})
    # most[t][left]: the most pairs a node with t kept tents and left
    # undecided tents can end with, serial pairs filling the room first
    most = []
    for t in range(len(tent_idx) + 1):
        room = max(w - 2 * t - 1, 0)
        more = min(len(serials), room)
        most.append([t + more + min(left, (room - more) // 2)
                     for left in range(len(tent_idx) + 1)])
    best_nu = -1
    best_kept: list[int] = []
    # each node is (tents left, union-find parents, kept pairs), and until
    # its leaf its kept pairs are tents; a drop child shares its parent's
    # lists, which no other pending node reads
    stack = [(len(tent_idx), list(range(p.num_ground)), [])]
    while stack:
        left, parent, kept = stack.pop()
        if most[len(kept)][left] <= best_nu:
            continue
        if left:
            i = tent_idx[left - 1]
            stack.append((left - 1, parent, kept))
            (a, b), (_, c) = p.pairs[i].edges
            ra, rb, rc = _find(parent, a), _find(parent, b), _find(parent, c)
            if rb != ra and rb != rc and ra != rc:
                child = parent[:]
                child[ra] = child[rc] = rb
                stack.append((left - 1, child, kept + [i]))
            continue
        for i, a, b in serials:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb
                kept.append(i)
        if len(kept) > best_nu:
            best_nu = len(kept)
            best_kept = kept
    return ParityResult(best_nu, frozenset(best_kept))


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Row reduce a copy of rows over the prime field of order p.

    Each pivot row leaves the copy, and the rows left are zero mod p left of
    the pivot column, so only their tails change. Entries are reduced only
    where they are read, so an update adds less than p**2 to each.
    """
    m = [row[:] for row in rows]
    for c in range(len(m[0]) if m else 0):
        i = next((i for i, row in enumerate(m) if row[c] % p), None)
        if i is None:
            continue
        top = m.pop(i)
        inv = pow(top[c], p - 2, p)
        tail = [b % p for b in top[c + 1 :]]
        for row in m:
            f = row[c] * inv % p
            if f:
                row[c + 1 :] = [a - f * b for a, b in zip(row[c + 1 :], tail)]
    return len(rows) - len(m)


def _skew_matrix(p: ParityInstance, active: list[int], rng: random.Random) -> list[list[int]]:
    """Y = sum of x_i (u_i v_i^T - v_i u_i^T) over the active pairs, unreduced.

    u_i and v_i are the signed incidence vectors of pair i's two edges, and
    each weight x_i is drawn from [1, _FIELD) by rng in pair order.
    """
    n = p.num_ground
    y = [[0] * n for _ in range(n)]
    for i in active:
        (a1, b1), (a2, b2) = p.pairs[i].edges
        x = rng.randrange(1, _FIELD)
        for r, su in ((a1, x), (b1, -x)):
            for c, sv in ((a2, su), (b2, -su)):
                y[r][c] += sv
                y[c][r] -= sv
    return y


def _sample_nu(p: ParityInstance, active: list[int], rng: random.Random) -> int:
    """Half the rank of one random skew matrix; it can only come out low."""
    r = _rank_mod_p(_skew_matrix(p, active, rng), _FIELD)
    if r % 2:
        raise InternalSolverError(f"skew matrix rank {r} is odd")
    return r // 2


def algebraic_parity_max(p: ParityInstance) -> ParityResult | None:
    """Randomized maximum parity with witness recovery, seeded with 0 so
    that runs repeat.

    nu is half the rank of one random skew matrix over the prime field of
    order 2**61 - 1, and the witness comes from one pass of pair deletion
    probes, one sample each: a probe that keeps nu drops its pair. By
    Schwartz-Zippel a rank evaluation comes out low with probability at
    most (num_ground / 2) / (2**61 - 2), so any of a leaf's at most
    npairs + 1 evaluations does with probability at most
    (npairs + 1) * num_ground / (2**62 - 4), about
    (npairs + 1) * num_ground / 2**62. Returns None when the witness fails
    the forest verification, so the caller can fall back to the reference
    solver.
    """
    rng = random.Random(0)
    active = list(range(len(p.pairs)))
    nu = _sample_nu(p, active, rng)
    for i in range(len(p.pairs)):
        if len(active) == nu:
            break
        probe = [j for j in active if j != i]
        if _sample_nu(p, probe, rng) == nu:
            active = probe
    if len(active) == nu and _forest_union(p, active) is not None:
        return ParityResult(nu, frozenset(active))
    return None


def matroid_parity_max(p: ParityInstance) -> ParityResult:
    """Maximum keepable pair set, never wrong; one route per instance.

    The exact reference route answers alone while it is affordable: at most
    REFERENCE_MAX_PAIRS pairs, or at most REFERENCE_MAX_TENTS tents. Above
    both caps the algebraic route answers, and the reference route steps in
    only when it gives up, which the result flags as a fallback.
    """
    tents = sum(1 for pr in p.pairs if not pr.serial)
    if len(p.pairs) <= REFERENCE_MAX_PAIRS or tents <= REFERENCE_MAX_TENTS:
        return reference_parity_max(p)
    alg = algebraic_parity_max(p)
    if alg is not None:
        return alg
    ref = reference_parity_max(p)
    return ParityResult(ref.nu, ref.kept, used_fallback=True)


def solve_base(inst: DisInstance) -> set[int] | None:
    """Minimum deletion set of a base-case instance, None when over budget.

    build_parity checks that F is the settled set, so the deletions are
    the settled vertices whose pairs are not kept.
    """
    parity = build_parity(inst)
    res = matroid_parity_max(parity)
    kept_origins = {parity.pairs[i].origin for i in res.kept}
    x = inst.settled - kept_origins
    if len(x) != len(parity.pairs) - res.nu:
        raise InternalSolverError("parity bookkeeping mismatch")
    if not inst.graph.is_forest(inst.graph.vertices - x):
        raise InternalSolverError("base case produced a non-forest remainder")
    if len(x) > inst.k:
        return None
    return x
