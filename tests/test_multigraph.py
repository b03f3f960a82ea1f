import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ifvs.multigraph import MultiGraph

from helpers import complete, cycle, layout, path, peel_by_rounds


def test_loop_counts_twice_in_degree():
    g = MultiGraph(range(1))
    g.add_edge(0, 0)
    assert g.deg(0) == 2
    assert g.num_edges == 1
    assert g.neighbors(0) == set()


def test_multiplicity_accumulates():
    g = MultiGraph(range(2))
    g.add_edge(0, 1)
    g.add_edge(0, 1, mult=2)
    assert g.multiplicity(0, 1) == 3
    assert g.multiplicity(1, 0) == 3
    assert g.deg(0) == 3
    assert g.num_edges == 3


def test_add_edge_rejects_nonpositive_multiplicity():
    g = MultiGraph(range(2))
    with pytest.raises(ValueError):
        g.add_edge(0, 1, mult=0)


def test_edge_items_sorted_and_complete():
    g = MultiGraph(range(3))
    g.add_edge(2, 1)
    g.add_edge(0, 2, mult=2)
    g.add_edge(1, 1)
    assert g.edge_items() == [(0, 2, 2), (1, 1, 1), (1, 2, 1)]


def test_low_degree_vertices_count_loops_and_multiplicity():
    g = MultiGraph(range(6))
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 4, mult=2)
    g.add_edge(5, 5)
    # 0 is isolated and 1 pendant; a loop or a double edge is two occurrences
    assert sorted(g.low_degree_vertices()) == [0, 1]


def test_remove_vertex_cleans_both_sides():
    g = MultiGraph(range(3))
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.remove_vertex(1)
    assert g.vertices == {0, 2}
    assert g.deg(0) == 0 and g.deg(2) == 0
    assert g.num_edges == 0


def test_new_vertex_never_reuses_ids():
    g = MultiGraph(range(3))
    g.remove_vertex(2)
    assert g.new_vertex() == 3
    g.add_vertex(10)
    assert g.new_vertex() == 11


def test_copy_is_independent():
    g = MultiGraph(range(2))
    g.add_edge(0, 1)
    h = g.copy()
    h.add_edge(0, 1)
    assert g.multiplicity(0, 1) == 1
    assert h.multiplicity(0, 1) == 2


def test_components_respects_restriction():
    g = path(5)
    comps = g.components({0, 1, 3, 4})
    assert sorted(sorted(c) for c in comps) == [[0, 1], [3, 4]]


def test_is_forest_detects_cycles_loops_and_parallels():
    assert path(4).is_forest({0, 1, 2, 3})
    assert not cycle(3).is_forest({0, 1, 2})
    assert cycle(3).is_forest({0, 1})
    g = MultiGraph(range(2))
    g.add_edge(0, 1, mult=2)
    assert not g.is_forest({0, 1})
    h = MultiGraph(range(1))
    h.add_edge(0, 0)
    assert not h.is_forest({0})


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))
def test_num_edges_matches_occurrence_count(pairs):
    g = MultiGraph(range(10))
    for u, v in pairs:
        g.add_edge(u, v)
    assert g.num_edges == len(pairs)
    assert sum(m for _u, _v, m in g.edge_items()) == len(pairs)


@given(st.integers(2, 30), st.integers(0, 10**6))
def test_attach_to_earlier_always_builds_a_forest(n, seed):
    import random

    rng = random.Random(seed)
    g = MultiGraph(range(n))
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v)
    assert g.is_forest(g.vertices)
    # one more edge inside a component closes a cycle
    comp = max(g.components(g.vertices), key=len)
    if len(comp) >= 2:
        a, b = sorted(comp)[:2]
        g.add_edge(a, b)
        assert not g.is_forest(g.vertices)


_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("vertex"), st.integers(0, 7)),
        st.tuples(st.just("edge"), st.integers(0, 7), st.integers(0, 7), st.integers(1, 3)),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(st.just("copy")),
    ),
    max_size=40,
)


def _assert_degrees_match_adjacency(g: MultiGraph) -> None:
    degs = {
        v: sum(g.multiplicity(v, u) for u in g.neighbors(v)) + 2 * g.multiplicity(v, v)
        for v in g.vertices
    }
    assert {v: g.deg(v) for v in g.vertices} == degs
    assert g.low_degree_vertices() == {v for v, d in degs.items() if d <= 1}
    assert g.degree_two_vertices() == {v for v, d in degs.items() if d == 2}
    assert g.num_edges == sum(m for _u, _v, m in g.edge_items())
    assert g.component_count() == len(g.components())
    labels = g.component_labels()
    parts = {frozenset(v for v in labels if labels[v] == s) for s in labels.values()}
    assert parts == {frozenset(comp) for comp in g.components()}
    assert all(labels[v] in part for part in parts for v in part)


@given(_EDITS)
def test_cached_degrees_follow_every_edit(edits):
    g = MultiGraph()
    originals = []  # (graph, its degrees) at each copy; the copy is edited on
    for op, *args in edits:
        if op == "vertex":
            g.add_vertex(*args)
        elif op == "edge":
            g.add_edge(*args)
        elif op == "remove" and args[0] in g:
            g.remove_vertex(*args)
        elif op == "copy":
            originals.append((g, {v: g.deg(v) for v in g.vertices}))
            g = g.copy()
        _assert_degrees_match_adjacency(g)
        for orig, degs in originals:
            assert {v: orig.deg(v) for v in orig.vertices} == degs
            _assert_degrees_match_adjacency(orig)


_EDGE_LISTS = st.integers(0, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
        if n else st.just([]),
    )
)


@given(_EDGE_LISTS)
@example((0, []))
@example((4, [(0, 0), (1, 2), (2, 1), (1, 2), (2, 2)]))  # loops, parallels, vertex 3 alone
def test_from_edges_builds_what_add_edge_builds(case):
    n, edges = case
    want = MultiGraph(range(n))
    for u, v in edges:
        want.add_edge(u, v)
    got = MultiGraph.from_edges(n, edges)
    # the same maps with the same key orders, so every walk visits alike
    assert [(v, list(nbrs.items())) for v, nbrs in got._adj.items()] == \
        [(v, list(nbrs.items())) for v, nbrs in want._adj.items()]
    assert list(got._deg.items()) == list(want._deg.items())
    assert got._low == want._low and got._two == want._two
    assert got.num_edges == want.num_edges == len(edges)
    _assert_degrees_match_adjacency(got)
    assert got.new_vertex() == n == want.new_vertex()


@given(_EDGE_LISTS)
@example((4, [(0, 1), (1, 2), (2, 3), (0, 2)]))  # smoothing 1 doubles the edge 0-2
@example((3, [(0, 1), (1, 2), (2, 2), (0, 0)]))  # both ends carry loops
@example((3, [(0, 1), (1, 0), (0, 2)]))  # smoothing 1 turns its double edge into a loop at 0
@example((2, [(0, 1), (0, 1), (0, 0)]))  # ... and adds it to the loop 0 already has
def test_smooth_builds_what_remove_and_add_edge_build(case):
    n, edges = case
    g = MultiGraph.from_edges(n, edges)
    # a loop-free degree-2 vertex, either neighbour kept; with one
    # neighbour, keep is also the other end
    sites = [(drop, keep) for drop in sorted(g.degree_two_vertices())
             if not g.multiplicity(drop, drop) for keep in sorted(g.neighbors(drop))]
    for drop, keep in sites:
        other = min(g.neighbors(drop) - {keep}, default=keep)
        want, got = g.copy(), g.copy()
        want.remove_vertex(drop)
        want.add_edge(keep, other)
        assert got.smooth(drop, keep) == other
        assert layout(got) == layout(want)
        _assert_degrees_match_adjacency(got)


@given(_EDGE_LISTS)
@example((3, [(0, 0), (0, 1), (0, 1), (1, 2)]))  # a loop and a double edge
def test_remove_vertex_returns_the_removed_adjacency(case):
    n, edges = case
    g = MultiGraph.from_edges(n, edges)
    for v in range(n):
        adj = list(g._adj[v].items())
        assert list(g.remove_vertex(v).items()) == adj
        assert v not in g
        _assert_degrees_match_adjacency(g)


@given(_EDGE_LISTS, st.sets(st.integers(0, 7)))
@example((4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3)]), {2})  # a loop and a double edge stay
@example((3, [(0, 1), (1, 2), (2, 0)]), set())
def test_copy_without_builds_what_copy_and_remove_vertex_build(case, gone):
    n, edges = case
    g = MultiGraph.from_edges(n, edges)
    gone = {v for v in gone if v < n}
    before = layout(g)
    want = g.copy()
    for v in gone:
        want.remove_vertex(v)
    got = g.copy_without(gone)
    # the same maps with the same key orders, and g as it was
    assert layout(got) == layout(want)
    assert layout(g) == before
    _assert_degrees_match_adjacency(got)
    assert got.new_vertex() == n == want.new_vertex()


@given(_EDGE_LISTS, st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
@example((5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]), set(), set())  # a path hung on a triangle
@example((4, [(0, 1), (1, 2), (2, 3)]), set(), {0})  # a path peels up to its spared end
@example((3, [(0, 0), (0, 1), (1, 2)]), set(), set())  # a loop keeps its vertex
@example((4, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 1)]), {0}, set())  # gone first, then nothing
@example((4, [(0, 0), (0, 1), (0, 2), (1, 2), (2, 3)]), {0}, set())  # gone first, then all
def test_peeled_is_what_removing_gone_then_peeling_in_rounds_leaves(case, gone, spare):
    n, edges = case
    g = MultiGraph.from_edges(n, edges)
    gone = {v for v in gone if v < n}
    spare = {v for v in spare if v < n}
    before = layout(g)
    want = g.copy()
    for v in gone:
        want.remove_vertex(v)
    want = peel_by_rounds(want, spare)
    got = g.peeled(gone, spare)
    # one end, key orders included, whatever order the vertices went in,
    # and g as it was
    assert layout(got) == layout(want)
    assert layout(g) == before
    assert all(got.deg(v) >= 2 for v in got.vertices - spare)
    _assert_degrees_match_adjacency(got)


@given(_EDGE_LISTS, st.sets(st.integers(0, 7)))
@example((3, [(0, 1), (1, 2), (2, 0)]), set())  # a cycle is its own 2-core
@example((3, [(0, 0), (1, 1)]), set())  # loops keep their vertices; 2 is spared
@example((4, [(0, 1), (1, 2), (2, 3)]), {1})  # both ends of a path are spared
def test_peeled_with_nothing_to_remove_is_a_copy(case, extra):
    n, edges = case
    g = MultiGraph.from_edges(n, edges)
    # the 2-core of g, and g itself with every vertex of degree at most
    # one spared, have nothing to peel
    spare = g.low_degree_vertices() | {v for v in extra if v < n}
    for src, keep in ((g.peeled(), set()), (g, spare)):
        before = layout(src)
        got, want = src.peeled(set(), keep), src.copy()
        assert got is not src
        assert layout(got) == layout(want)
        assert got._next_id == want._next_id
        # an edit of the result leaves the source as it was
        got.add_edge(n, n)
        for v in sorted(src.vertices)[:1]:
            got.remove_vertex(v)
        assert layout(src) == before
