"""Instance model for the disjoint solve.

A DisInstance is a multigraph together with an undeletable vertex set W, a
restricted set R of vertices that must stay in the graph but may not enter
the solution, and a deletion budget k. The deletable side F is everything
outside W. Both induced sides G[F] and G[W] must be forests, so a solution
only has to break the cycles that cross between them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .multigraph import MultiGraph


class InstanceError(ValueError):
    """Raised when a DisInstance violates a structural invariant."""


class InternalSolverError(RuntimeError):
    """A solver self-check failed; indicates a bug, not a bad input."""


class Kind(Enum):
    NICE = "nice"
    TENT = "tent"
    P_NICE = "p-nice"
    P_TENT = "p-tent"
    PLAIN = "plain"


@dataclass(frozen=True)
class VertexClass:
    kind: Kind
    deg_w: int
    ndeg: int
    gdeg: int
    tdeg: int


@dataclass(frozen=True)
class Measure:
    """mu = k + rho - eta - tau, with the analysis it was computed from.

    classes is the classification of F and comp_of maps each W-vertex to its
    W-component index. Both describe the instance as measured; they take no
    part in equality, so a Measure compares by its four counts alone.
    """

    k: int
    rho: int
    eta: int
    tau: int
    classes: dict[int, VertexClass] = field(default_factory=dict, compare=False, repr=False)
    comp_of: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    @property
    def mu(self) -> int:
        return self.k + self.rho - (self.eta + self.tau)


class DisInstance:
    """Mutable disjoint-solve state. The engine clones before branching.

    A vertex leaves F in one of two ways, take (into the solution) or
    protect (into W); every rule, branch child and compression guess uses
    these two.
    """

    __slots__ = ("graph", "w", "r", "k")

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
        return inst

    @property
    def f(self) -> set[int]:
        return self.graph.vertices - self.w

    @property
    def f_free(self) -> set[int]:
        return self.graph.vertices - self.w - self.r

    def delete_vertex(self, v: int) -> None:
        self.graph.remove_vertex(v)
        self.w.discard(v)
        self.r.discard(v)

    def take(self, v: int) -> None:
        """Put v into the solution: delete it and pay one unit of budget.

        Its neighbors outside W become restricted, so the solution stays
        independent. The caller makes sure v itself is not restricted.
        """
        self.r |= self.graph.neighbors(v) - self.w
        self.delete_vertex(v)
        self.k -= 1

    def protect(self, v: int) -> None:
        """Put v into W for good; a cycle inside W is a solver bug."""
        self.r.discard(v)
        self.w.add(v)
        if not self.graph.is_forest(self.w):
            raise InternalSolverError(f"protecting {v} closed a W-cycle")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DisInstance(n={len(self.graph)}, |W|={len(self.w)},"
            f" |R|={len(self.r)}, k={self.k})"
        )


def validate_instance(inst: DisInstance) -> list[str]:
    """Return violated invariants as short codes, empty when all hold."""
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
    if not inst.graph.is_forest(inst.w & verts):
        problems.append("W-not-forest")
    return problems


def classification(inst: DisInstance) -> dict[int, VertexClass]:
    """Classify every vertex of F.

    Kinds are mutually exclusive. Vertices in R are always plain since the
    four special kinds require membership in F minus R; their degree fields
    are still filled in because the reduction triggers need them.
    """
    g = inst.graph
    f = inst.f
    r = inst.r
    w = inst.w

    deg = {v: g.deg(v) for v in f}
    deg_w = {v: g.deg_x(v, w) for v in f}
    f_nbrs = {v: g.neighbors(v) & f for v in f}

    p_nice = {v for v in f if v not in r and deg[v] == 2 and deg_w[v] == 1}
    ndeg = {v: len(f_nbrs[v] & p_nice) for v in f}
    gdeg = {v: ndeg[v] + deg_w[v] for v in f}
    p_tent = {v for v in f if v not in r and gdeg[v] == 2 and deg[v] == 3}
    tdeg = {v: len(f_nbrs[v] & p_tent) for v in f}

    out = {}
    for v in f:
        if v in r:
            kind = Kind.PLAIN
        elif deg_w[v] == 2 and not f_nbrs[v]:
            kind = Kind.NICE
        elif deg_w[v] == 3 and not f_nbrs[v]:
            kind = Kind.TENT
        elif v in p_nice:
            kind = Kind.P_NICE
        elif v in p_tent:
            kind = Kind.P_TENT
        else:
            kind = Kind.PLAIN
        out[v] = VertexClass(kind, deg_w[v], ndeg[v], gdeg[v], tdeg[v])
    return out


def classify(inst: DisInstance, v: int) -> VertexClass:
    """Classify a single vertex of F. Vertices in W are not classified."""
    if v in inst.w:
        raise ValueError(f"vertex {v} is in W and has no class")
    if v not in inst.graph:
        raise ValueError(f"vertex {v} not in graph")
    return classification(inst)[v]


def measure(inst: DisInstance) -> Measure:
    """Branching measure: budget plus W-components minus settled vertices.

    Nice vertices and tents are settled in the sense that the base case
    handles them in polynomial time, so each one prepays a unit of measure.
    """
    classes = classification(inst)
    eta = sum(1 for c in classes.values() if c.kind is Kind.NICE)
    tau = sum(1 for c in classes.values() if c.kind is Kind.TENT)
    comps = inst.graph.components(inst.w)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    return Measure(inst.k, len(comps), eta, tau, classes, comp_of)


def check_solution(g: MultiGraph, s: set[int], k: int) -> bool:
    """True iff s is an independent feedback vertex set of g of size <= k.

    Independence forbids any edge between two distinct members; a loop at a
    member is fine because the vertex leaves the graph anyway.
    """
    if len(s) > k:
        return False
    if not s <= g.vertices:
        return False
    for v in s:
        if g.neighbors(v) & s:
            return False
    return g.is_forest(g.vertices - s)
