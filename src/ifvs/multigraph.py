"""Undirected multigraph with explicit edge multiplicities and loops."""
from __future__ import annotations

from collections.abc import Iterable, ItemsView


class MultiGraph:
    """Adjacency-map multigraph over integer vertex ids.

    Multiplicities are stored exactly. A loop at v is the edge (v, v) and
    contributes 2 to deg(v). Vertex ids come from a monotone counter and are
    never reused after deletion, so ids stay stable for the lifetime of a
    solver run. Every edit keeps the degrees in _deg, the vertices of
    degree at most one in _low and the edge occurrence count in _m up to
    date, so deg, low_degree_vertices and num_edges cost no scan.
    """

    __slots__ = ("_adj", "_deg", "_low", "_m", "_next_id")

    def __init__(self, vertices: Iterable[int] = ()) -> None:
        self._adj: dict[int, dict[int, int]] = {}
        self._deg: dict[int, int] = {}
        self._low: set[int] = set()
        self._m = 0
        self._next_id = 0
        for v in vertices:
            self.add_vertex(v)

    # -- construction ------------------------------------------------------

    def add_vertex(self, v: int) -> int:
        if v not in self._adj:
            self._adj[v] = {}
            self._deg[v] = 0
            self._low.add(v)
        if v >= self._next_id:
            self._next_id = v + 1
        return v

    def new_vertex(self) -> int:
        """Allocate a fresh id strictly above every id ever used."""
        return self.add_vertex(self._next_id)

    def add_edge(self, u: int, v: int, mult: int = 1) -> None:
        if mult <= 0:
            raise ValueError(f"edge multiplicity must be positive, got {mult}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u][v] = self._adj[u].get(v, 0) + mult
        self._deg[u] += mult
        if u != v:
            self._adj[v][u] = self._adj[v].get(u, 0) + mult
        self._deg[v] += mult  # a loop adds 2 to deg(u)
        self._m += mult
        for x in (u, v):
            if self._deg[x] > 1:
                self._low.discard(x)

    def remove_vertex(self, v: int) -> None:
        del self._deg[v]
        self._low.discard(v)
        for u, m in self._adj.pop(v).items():
            self._m -= m
            if u != v:
                del self._adj[u][v]
                self._deg[u] -= m
                if self._deg[u] <= 1:
                    self._low.add(u)

    def copy(self) -> MultiGraph:
        g = MultiGraph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._deg = dict(self._deg)
        g._low = set(self._low)
        g._m = self._m
        g._next_id = self._next_id
        return g

    # -- inspection --------------------------------------------------------

    @property
    def vertices(self) -> set[int]:
        return set(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Total number of edge occurrences, loops counted once each."""
        return self._m

    def multiplicity(self, u: int, v: int) -> int:
        return self._adj.get(u, {}).get(v, 0)

    def neighbors(self, v: int) -> set[int]:
        """Distinct adjacent vertices, excluding v itself."""
        return {u for u in self._adj[v] if u != v}

    def incident(self, v: int) -> ItemsView[int, int]:
        """(neighbor, multiplicity) pairs of v's edges, a loop as (v, m)."""
        return self._adj[v].items()

    def deg(self, v: int) -> int:
        """Total incident edge occurrences; a loop contributes 2."""
        return self._deg[v]

    def low_degree_vertices(self) -> list[int]:
        """Vertices with at most one incident edge occurrence."""
        return list(self._low)

    def deg_x(self, v: int, x: Iterable[int]) -> int:
        """Edge occurrences from v into the vertex set x.

        A loop at v contributes 2 when v itself lies in x. Unknown v is an
        error; unknown members of x are ignored.
        """
        if v not in self._adj:
            raise ValueError(f"vertex {v} not in graph")
        nbrs = self._adj[v]
        xs = x if isinstance(x, (set, frozenset)) else set(x)
        d = sum(m for u, m in nbrs.items() if u in xs)
        if v in xs:
            d += nbrs.get(v, 0)
        return d

    def edge_items(self) -> list[tuple[int, int, int]]:
        """Sorted (u, v, mult) with u <= v, each undirected edge once."""
        return [
            (u, v, self._adj[u][v])
            for u in sorted(self._adj)
            for v in sorted(self._adj[u])
            if u <= v
        ]

    # -- structure queries -------------------------------------------------

    def components(self, x: Iterable[int] | None = None) -> list[set[int]]:
        """Connected components of the subgraph induced on x (default: all)."""
        verts = set(self._adj) if x is None else {v for v in x if v in self._adj}
        seen: set[int] = set()
        comps = []
        for s in sorted(verts):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                v = stack.pop()
                for u in self._adj[v]:
                    if u in verts and u not in seen:
                        seen.add(u)
                        comp.add(u)
                        stack.append(u)
            comps.append(comp)
        return comps

    def component_count(self) -> int:
        """Number of connected components, counted without building them."""
        unseen = set(self._adj)
        count = 0
        while unseen:
            count += 1
            stack = [unseen.pop()]
            while stack:
                for u in self._adj[stack.pop()]:
                    if u in unseen:
                        unseen.remove(u)
                        stack.append(u)
        return count

    def is_forest(self, x: Iterable[int] | None = None) -> bool:
        """True iff the subgraph induced on x has no cycle.

        A loop or a multiplicity >= 2 edge inside x is a cycle.
        """
        verts = set(self._adj) if x is None else {v for v in x if v in self._adj}
        parent = {v: v for v in verts}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u in verts:
            for v, m in self._adj[u].items():
                if v not in verts or v < u:
                    continue
                if u == v or m >= 2:
                    return False
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiGraph(n={len(self._adj)}, m={self.num_edges})"
