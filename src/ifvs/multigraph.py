"""Undirected multigraph with explicit edge multiplicities and loops."""
from __future__ import annotations

from collections.abc import Iterable, ItemsView


class MultiGraph:
    """Adjacency-map multigraph over integer vertex ids.

    Multiplicities are stored exactly. A loop at v is the edge (v, v) and
    contributes 2 to deg(v). Vertex ids come from a monotone counter and are
    never reused after deletion, so ids stay stable for the lifetime of a
    solver run. Every edit keeps the degrees in _deg, the vertices of
    degree at most one in _low, those of degree exactly two in _two and the
    edge occurrence count in _m up to date, so deg, low_degree_vertices,
    degree_two_vertices and num_edges cost no scan.
    """

    __slots__ = ("_adj", "_deg", "_low", "_two", "_m", "_next_id")

    def __init__(self, vertices: Iterable[int] = ()) -> None:
        self._adj: dict[int, dict[int, int]] = {}
        self._deg: dict[int, int] = {}
        self._low: set[int] = set()
        self._two: set[int] = set()
        self._m = 0
        self._next_id = 0
        for v in vertices:
            self.add_vertex(v)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: list[tuple[int, int]]) -> MultiGraph:
        """Vertices 0..n-1 and one occurrence of each listed edge, every
        endpoint in range, built in one pass exactly as MultiGraph(range(n))
        and add_edge in list order would build it, insertion orders included."""
        g = cls()
        adj = g._adj = {v: {} for v in range(n)}
        deg = [0] * n
        for u, v in edges:
            nbrs = adj[u]
            nbrs[v] = nbrs.get(v, 0) + 1
            deg[u] += 1
            deg[v] += 1  # a loop adds 2 to deg(u)
            if u != v:
                nbrs = adj[v]
                nbrs[u] = nbrs.get(u, 0) + 1
        g._deg = dict(enumerate(deg))
        g._low = {v for v, d in enumerate(deg) if d < 2}
        g._two = {v for v, d in enumerate(deg) if d == 2}
        g._m = len(edges)
        g._next_id = n
        return g

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
        for x in (u, v):  # degrees only grow here
            d = self._deg[x]
            if d > 1:
                self._low.discard(x)
                if d == 2:
                    self._two.add(x)
                else:
                    self._two.discard(x)

    def remove_vertex(self, v: int) -> dict[int, int]:
        """Delete v and its edges; returns v's adjacency map, a loop as v: m."""
        del self._deg[v]
        self._low.discard(v)
        self._two.discard(v)
        nbrs = self._adj.pop(v)
        for u, m in nbrs.items():
            self._m -= m
            if u != v:
                del self._adj[u][v]
                d = self._deg[u] = self._deg[u] - m  # degrees only fall here
                if d == 2:
                    self._two.add(u)
                elif d < 2:
                    self._two.discard(u)
                    self._low.add(u)
        return nbrs

    def smooth(self, drop: int, keep: int) -> int:
        """Replace the path keep - drop - other by the edge keep - other.

        drop has degree 2 and no loop; other is keep when both its edges go
        to keep, which then gains a loop. The graph ends as remove_vertex(drop)
        and add_edge(keep, other) leave it, key orders included, but the ends
        keep their degrees, so no degree cache changes. Returns other.
        """
        adj = self._adj
        other = next((x for x in adj.pop(drop) if x != keep), keep)
        del self._deg[drop]
        self._two.discard(drop)
        self._m -= 1
        nbrs = adj[keep]
        del nbrs[drop]
        nbrs[other] = nbrs.get(other, 0) + 1
        if other != keep:
            nbrs = adj[other]
            del nbrs[drop]
            nbrs[keep] = nbrs.get(keep, 0) + 1
        return other

    def copy(self) -> MultiGraph:
        g = MultiGraph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._deg = dict(self._deg)
        g._low = set(self._low)
        g._two = set(self._two)
        g._m = self._m
        g._next_id = self._next_id
        return g

    def copy_without(self, gone: set[int]) -> MultiGraph:
        """A copy minus the vertices gone, as copy and remove_vertex on each
        of them would leave it, key orders included."""
        g = MultiGraph()
        deg = g._deg
        for v, nbrs in self._adj.items():
            if v not in gone:
                g._adj[v] = kept = {u: m for u, m in nbrs.items() if u not in gone}
                deg[v] = sum(kept.values()) + kept.get(v, 0)  # a loop adds 2
        g._low = {v for v, d in deg.items() if d < 2}
        g._two = {v for v, d in deg.items() if d == 2}
        g._m = sum(deg.values()) // 2
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

    def low_degree_vertices(self) -> set[int]:
        """Vertices with at most one incident edge occurrence.

        This and degree_two_vertices return the cached set itself, which
        every edit changes: copy it before editing the graph while iterating.
        """
        return self._low

    def degree_two_vertices(self) -> set[int]:
        """Vertices with exactly two incident edge occurrences."""
        return self._two

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

    def component_count(self, skip: set[int] = frozenset()) -> int:
        """Number of connected components of the graph minus the vertices
        skip, counted without building them."""
        unseen = set(self._adj).difference(skip)
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

    def component_labels(self) -> dict[int, int]:
        """A label for every vertex, one vertex of its connected component."""
        labels: dict[int, int] = {}
        for s in self._adj:
            if s in labels:
                continue
            labels[s] = s
            stack = [s]
            while stack:
                for u in self._adj[stack.pop()]:
                    if u not in labels:
                        labels[u] = s
                        stack.append(u)
        return labels

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
