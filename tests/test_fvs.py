import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ifvs.fvs import (
    _delete,
    _rank_and_degrees,
    _reduce,
    _shortest_cycle,
    cover_count,
    min_fvs,
)
from ifvs.generators import random_multigraph
from ifvs.instance import check_solution
from ifvs.multigraph import MultiGraph
from ifvs.oracle import brute_min_fvs
from ifvs.pipeline import solve_ifvs

from helpers import complete, cycle, layout, path, petersen


def test_forest_needs_nothing():
    assert min_fvs(path(6)) == set()
    assert min_fvs(MultiGraph(())) == set()


def test_single_cycle_needs_one():
    assert len(min_fvs(cycle(7))) == 1


def test_loop_vertex_is_forced():
    g = path(3)
    g.add_edge(1, 1)
    s = min_fvs(g)
    assert s == {1}


def test_double_edge_counts_as_cycle():
    g = MultiGraph(range(2))
    g.add_edge(0, 1, mult=2)
    assert len(min_fvs(g)) == 1
    assert _shortest_cycle(g) == [0, 1]


def test_bypass_collapsing_parallel_pair_makes_loop():
    # deg-2 vertex 1 sits between two parallel edges to 0; bypassing it
    # must turn the pair into a loop at 0, forcing 0 into the set
    g = MultiGraph(range(3))
    g.add_edge(0, 1, mult=2)
    g.add_edge(0, 2)
    assert min_fvs(g) in ({0}, {1})


def test_petersen_values():
    g = petersen()
    assert len(_shortest_cycle(g)) == 5
    assert len(min_fvs(g)) == 3


def test_budgeted_variant_respects_budget():
    g = complete(5)
    assert min_fvs(g, 2) is None
    s = min_fvs(g, 3)
    assert s is not None and len(s) <= 3
    assert g.is_forest(g.vertices - s)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_min_fvs_matches_brute_force(seed):
    g = random_multigraph(8, 14, seed=seed)
    mine = min_fvs(g)
    assert g.is_forest(g.vertices - mine)
    assert len(mine) == len(brute_min_fvs(g))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_budgeted_agrees_with_minimum(seed):
    g = random_multigraph(8, 15, seed=seed)
    opt = len(min_fvs(g))
    assert min_fvs(g, opt - 1) is None
    got = min_fvs(g, opt)
    assert got is not None and len(got) == opt


def test_budgeted_variant_returns_a_minimum_set():
    for seed in range(200):
        g = random_multigraph(9, 16, seed=seed)
        opt = len(brute_min_fvs(g))
        assert min_fvs(g, -1) is None
        for k in (opt, opt + 1, opt + 2, len(g)):
            got = min_fvs(g, k)
            assert got is not None and len(got) == opt, (seed, k)
            assert g.is_forest(g.vertices - got), (seed, k)


def _fvs_digest_corpus() -> list[MultiGraph]:
    """The graphs scripts/fvs_digest.py pins min_fvs's sets on."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "fvs_digest.py"
    spec = importlib.util.spec_from_file_location("fvs_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return list(script.corpus())


def test_a_capped_search_returns_the_uncapped_set_or_none():
    # the pipeline caps the search at its budget: a cap at or above the
    # optimum must return the very set min_fvs returns, since guesses and
    # traces follow that set, and a cap below it must return None
    graphs = _fvs_digest_corpus()
    graphs += [random_multigraph(6 + s % 30, 9 + s % 30 + s % 7, s) for s in range(120)]
    for i, g in enumerate(graphs):
        z = min_fvs(g)
        opt = len(z)
        for cap in (opt, opt + 1, opt + 3):
            assert min_fvs(g, cap) == z, (i, cap)
        for cap in range(max(opt - 2, -1), opt):
            assert min_fvs(g, cap) is None, (i, cap)
    assert any(g.multiplicity(v, v) for g in graphs for v in g.vertices)
    assert any(m > 1 for g in graphs for _, _, m in g.edge_items())


def _deepening_fvs(g: MultiGraph) -> set[int]:
    """Reference: the earlier min_fvs, which restarted a budgeted search
    for every budget from a lower bound up, and also pruned by a greedy
    packing of vertex-disjoint shortest cycles."""

    def pack(h, dirty=None):
        count = 0
        while True:
            _reduce(h, acc := [], dirty)
            count += len(acc)
            cyc = _shortest_cycle(h)
            if cyc is None:
                return count
            dirty = _delete(h, cyc)
            count += 1

    def search(h, budget, acc, dirty=None):
        forced_before = len(acc)
        _reduce(h, acc, dirty)
        budget -= len(acc) - forced_before
        if budget < 0:
            return None
        if not len(h):
            return acc
        if cover_count(*_rank_and_degrees(h)) > budget:
            return None
        cyc = _shortest_cycle(h)
        rest = h.copy()
        if 1 + pack(rest, _delete(rest, cyc)) > budget:
            return None
        for v in sorted(cyc):
            child = h.copy()
            res = search(child, budget - 1, acc + [v], _delete(child, [v]))
            if res is not None:
                return res
        return None

    h = g.copy()
    _reduce(h, forced := [])
    start = max(cover_count(*_rank_and_degrees(h)), pack(h.copy()))
    for k in range(start, len(h) + 1):
        res = search(h.copy(), k, list(forced), ())
        if res is not None:
            return set(res)
    raise AssertionError("the whole vertex set is an FVS")


def test_min_fvs_returns_the_deepening_set():
    # one search with an incumbent finds the same set as the restarts did
    for seed in range(200):
        n = 8 + seed % 9
        g = random_multigraph(n, n + 6 + seed % 11, seed)
        assert min_fvs(g) == _deepening_fvs(g), seed


def _sweep_reduce(g: MultiGraph, acc: list[int]) -> None:
    """Reference: full sweeps in id order until one changes nothing."""
    dirty = True
    while dirty:
        dirty = False
        for v in sorted(g.vertices):
            if v not in g:
                continue
            if g.multiplicity(v, v) > 0:
                g.remove_vertex(v)
                acc.append(v)
                dirty = True
            elif g.deg(v) <= 2:
                ends = sorted(g.neighbors(v))
                if g.deg(v) == 2:
                    g.add_edge(ends[0], ends[-1])
                g.remove_vertex(v)
                dirty = True


def test_worklist_reduce_matches_full_sweeps():
    for seed in range(200):
        g = random_multigraph(12, 16 + seed % 10, seed=seed)
        ref, got = g.copy(), g.copy()
        _sweep_reduce(ref, ref_acc := [])
        _reduce(got, got_acc := [])
        # the same edits to the same maps: key orders decide the order of
        # the neighbour sets the cycle search walks, and with it which
        # minimum set comes back
        assert got_acc == ref_acc and layout(got) == layout(ref), seed
        assert all(got.multiplicity(v, v) == 0 and got.deg(v) >= 3 for v in got.vertices)
        # after a deletion, only the neighbours need a second look
        for v in sorted(got.vertices):
            full, part = got.copy(), got.copy()
            dirty = part.neighbors(v)
            full.remove_vertex(v)
            part.remove_vertex(v)
            _sweep_reduce(full, full_acc := [])
            _reduce(part, part_acc := [], dirty)
            assert part_acc == full_acc and layout(part) == layout(full), (seed, v)


def _girth(g: MultiGraph) -> int | None:
    """2 on a parallel edge, else the least 1 + dist(u, v) in g - uv over
    the edges uv; None on a forest. Loop-free g only."""
    best = None
    for u, v, mult in g.edge_items():
        if mult >= 2:
            return 2
        dist = {u: 0}
        queue = [u]
        for x in queue:
            for y in g.neighbors(x):
                if y not in dist and {x, y} != {u, v}:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def test_shortest_cycle_is_a_simple_cycle_of_girth_length():
    for seed in range(200):
        n = 6 + seed % 9
        g = random_multigraph(n, n + seed % 7, seed, loops=False, multi=seed % 3 == 0)
        cyc = _shortest_cycle(g)
        girth = _girth(g)
        if girth is None:
            assert cyc is None, seed
            continue
        assert len(cyc) == len(set(cyc)) == girth, seed
        # a 2-cycle walks the same pair twice, so it needs a double edge
        need = 2 if girth == 2 else 1
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.multiplicity(a, b) >= need, seed


def test_forced_plus_cycle_rank_bound_never_exceeds_optimum():
    tight = 0
    for seed in range(200):
        g = random_multigraph(9, 16, seed=seed)
        opt = len(brute_min_fvs(g))
        h = g.copy()
        _reduce(h, forced := [])
        bound = len(forced) + cover_count(*_rank_and_degrees(h))
        assert bound <= opt, seed
        tight += bound == opt
    assert tight > 0  # the bound is not vacuous on this family


def test_fifty_vertex_graph_is_self_consistent():
    # a large instance where a slow provider shows; the answers are pinned
    g = random_multigraph(50, 80, 0, loops=False, multi=False)
    assert len(min_fvs(g)) == 10
    assert min_fvs(g, 9) is None
    res = solve_ifvs(g, 10)
    assert res.status == "yes" and check_solution(g, res.solution, 10)
    assert solve_ifvs(g, 9).status == "no"
