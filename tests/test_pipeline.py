import functools
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifvs import instance, pipeline
from ifvs.branching import (
    BranchNode,
    DisjointResult,
    DisjointStats,
    cycle_rank_cut,
    fib,
    solve_disjoint,
)
from ifvs.fvs import min_fvs
from ifvs.generators import planted_ifvs, random_dis_instance, random_multigraph
from ifvs.instance import DisInstance, check_solution
from ifvs.multigraph import MultiGraph
from ifvs.oracle import oracle_disjoint, oracle_ifvs, oracle_min_ifvs
from ifvs.pipeline import (
    BOUND_BASE,
    GOLDEN_RATIO,
    GuessRecord,
    leaf_bound,
    solve_ifvs,
    subdivide_once,
)

from helpers import complete, cycle, petersen


def test_constants_are_what_they_claim():
    assert GOLDEN_RATIO == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert BOUND_BASE == pytest.approx(1 + GOLDEN_RATIO**2, abs=1e-12)
    assert BOUND_BASE < 3.619


def test_leaf_bound_is_shifted_fibonacci():
    assert [leaf_bound(i) for i in range(6)] == [fib(m + 2) for m in range(6)]
    assert leaf_bound(0) == 1


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        solve_ifvs(cycle(3), -1)


def test_forest_is_a_yes_with_empty_solution():
    res = solve_ifvs(MultiGraph(range(4)), 0)
    assert res.status == "yes" and res.solution == set()


def test_k4_is_a_no_at_every_budget():
    g = complete(4)
    for k in range(5):
        assert solve_ifvs(g, k).status == "no"


def test_petersen_minimum():
    res = solve_ifvs(petersen(), 3, minimize=True)
    assert res.status == "yes"
    assert res.solution == {0, 2, 8}


def test_minimize_is_deterministic_and_minimum():
    g = random_multigraph(8, 14, seed=17)
    res = solve_ifvs(g, 8, minimize=True)
    # frozen witness pins run-to-run determinism; size matches the oracle
    assert res.solution == {0, 2, 7}
    assert len(res.solution) == len(oracle_min_ifvs(g))


def test_stats_shape():
    res = solve_ifvs(cycle(5), 2)
    for key in ("fvs_size", "guesses_tried", "branch_nodes", "max_mu",
                "base_leaves_max", "bound_base"):
        assert key in res.stats
    assert res.stats["bound_base"] == pytest.approx(BOUND_BASE)


def test_loop_vertices_are_forced_into_the_solution():
    g = cycle(4)
    g.add_edge(2, 2)
    res = solve_ifvs(g, 2, minimize=True)
    assert res.status == "yes" and 2 in res.solution
    assert check_solution(g, res.solution, 2)


def test_adjacent_loops_are_an_immediate_no():
    g = MultiGraph(range(2))
    g.add_edge(0, 0)
    g.add_edge(1, 1)
    g.add_edge(0, 1)
    assert solve_ifvs(g, 2).status == "no"


def test_fvs_override_is_honoured_and_clamped():
    g = cycle(6)
    res = solve_ifvs(g, 1, fvs_override={0, 3})
    assert res.status == "yes"
    assert res.stats["fvs_size"] == 2
    # override naming a vertex that loop preprocessing removed must not crash
    g2 = cycle(4)
    g2.add_edge(1, 1)
    res2 = solve_ifvs(g2, 2, fvs_override={1, 3}, minimize=True)
    assert res2.status == "yes" and 1 in res2.solution


def test_guesses_that_cannot_be_built_are_skipped():
    # loop vertex 0 hangs off the triangle 1-2-3, and Z is pinned to it
    g = MultiGraph(range(4))
    for u, v in ((0, 0), (0, 1), (1, 2), (2, 3), (3, 1)):
        g.add_edge(u, v)
    res = solve_ifvs(g, 3, minimize=True, fvs_override={1, 2, 3})
    status = {rec.z_prime: rec.status for rec in res.guesses}
    assert status[(1,)] == "skipped"  # 1 neighbors the loop vertex
    assert status[(2, 3)] == "skipped"  # 2 and 3 are adjacent
    assert status[()] == "skipped"  # Z minus Z' is the triangle
    assert status[(2,)] == "yes" and res.solution == {0, 2}


def _with_pendants(g: MultiGraph, seed: int) -> tuple[MultiGraph, int]:
    """g plus 1-8 pendant vertices on fresh ids, and the last one added.

    A pendant may hang off an earlier one, so whole trees grow on g.
    """
    rng = random.Random(seed)
    h = g.copy()
    for _ in range(rng.randint(1, 8)):
        t = h.new_vertex()
        h.add_edge(rng.choice(sorted(h.vertices - {t})), t)
    return h, t


def _pendant_case(seed: int) -> tuple[MultiGraph, MultiGraph, int, set[int]]:
    n = 10 + seed % 20
    g = random_multigraph(n, int(1.4 * n), seed, loops=seed % 3 == 0, multi=seed % 2 == 0)
    h, t = _with_pendants(g, seed)
    return g, h, t, min_fvs(g)


def test_pendant_trees_change_no_answer_and_no_trace():
    # the root is peeled before any guess, so trees hung on g leave every
    # guess, down to its reduction events, exactly as on g
    for seed in range(100):
        g, h, _, z = _pendant_case(seed)
        for k in (2, 4, len(g)):
            for minimize in (False, True):
                res_g = solve_ifvs(g, k, minimize, fvs_override=z, keep_traces=True)
                res_h = solve_ifvs(h, k, minimize, fvs_override=z, keep_traces=True)
                assert res_h == res_g, (seed, k, minimize)


def test_peeling_spares_a_pendant_vertex_of_z():
    # loop-free seeds only, so that no member of Z is taken as a loop vertex
    for seed in (s for s in range(30) if s % 3):
        _, h, t, z = _pendant_case(seed)
        assert h.deg(t) == 1
        zt = sorted(z | {t})
        for k in (2, 4):
            for minimize in (False, True):
                res = solve_ifvs(h, k, minimize, fvs_override=z)
                res_t = solve_ifvs(h, k, minimize, fvs_override=set(zt))
                assert res_t.stats["fvs_size"] == len(zt)
                assert res_t.status == res.status
                if minimize:
                    sizes = range(min(k, len(zt)) + 1)
                    subsets = [c for i in sizes for c in combinations(zt, i)]
                    assert [rec.z_prime for rec in res_t.guesses] == subsets
                    if res.solution is not None:
                        assert len(res_t.solution) == len(res.solution)


def test_threads_other_than_one_are_rejected():
    g = random_multigraph(9, 16, seed=1)
    assert solve_ifvs(g, 9, minimize=True, threads=1).status == "no"
    for threads in (0, 2, 4):
        with pytest.raises(ValueError):
            solve_ifvs(g, 9, minimize=True, threads=threads)


def test_subdivide_triangle_gives_six_cycle():
    sub = subdivide_once(cycle(3))
    assert len(sub) == 6
    assert sub.num_edges == 6
    assert all(sub.deg(v) == 2 for v in sub.vertices)


def test_subdivide_splits_each_parallel_copy():
    g = MultiGraph(range(2))
    g.add_edge(0, 1, mult=2)
    sub = subdivide_once(g)
    # two midpoints, one per copy, forming a 4-cycle
    assert len(sub) == 4 and sub.num_edges == 4


def test_subdivide_turns_loop_into_two_cycle():
    g = MultiGraph(range(1))
    g.add_edge(0, 0)
    sub = subdivide_once(g)
    assert len(sub) == 2
    mid = (sub.vertices - {0}).pop()
    assert sub.multiplicity(0, mid) == 2


def test_planted_instances_solve_at_their_budget():
    for seed in (0, 3):
        plant = planted_ifvs(24, 4, seed=seed)
        g, k = plant.graph, plant.k
        assert check_solution(g, set(plant.witness), k)
        res = solve_ifvs(g, k)
        assert res.status == "yes"
        assert check_solution(g, res.solution, k)
        assert solve_ifvs(g, k - 1).status == "no"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=9))
def test_solver_matches_oracle(seed, k):
    g = random_multigraph(9, 15, seed=seed)
    res = solve_ifvs(g, k, minimize=True)
    best = oracle_ifvs(g, k)
    if best is None:
        assert res.status == "no"
    else:
        assert res.status == "yes"
        assert len(res.solution) == len(best)
        assert check_solution(g, res.solution, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_decision_mode_finds_any_witness(seed):
    g = random_multigraph(10, 17, seed=seed)
    best = oracle_min_ifvs(g)
    k = len(g) if best is None else len(best)
    res = solve_ifvs(g, k)
    if best is None:
        assert res.status == "no"
    else:
        assert res.status == "yes"
        assert check_solution(g, res.solution, k)


def _sparse(seed: int, count: int, ratio: float) -> MultiGraph:
    n = 20 + seed * 21 // count  # n = 20..40 over the seeds
    return random_multigraph(n, int(ratio * n), seed, loops=False, multi=False)


def _built(root, z: set[int], z_prime: tuple[int, ...]):
    """The instance the pipeline builds for guess z_prime from root."""
    inst = root.clone()
    for v in z_prime:
        inst.take(v)
    for v in sorted(z.difference(z_prime)):
        inst.protect(v)
    return inst


def test_the_guess_check_cuts_only_where_the_engine_root_would(monkeypatch):
    # the engine is stubbed out, so every guess is tried at no search cost;
    # a tried guess that never reaches the stub was cut before its clone.
    # A cut by the first rank check alone is one the engine root's
    # cycle-rank cut makes too; a cut by a cycle through the undeletable
    # part or by forced takes is one of a guess with no solution at all
    reached = []
    runs = []
    ranks = []
    run_guess, cut_rank = pipeline._run_guess, pipeline.rank_cut

    def stub(inst):
        reached.append(inst)
        return DisjointResult(None, BranchNode("reject", answer="no"), DisjointStats(1))

    def spy(need, degs, k):
        ranks.append(cut_rank(need, degs, k))
        return ranks[-1]

    def recording(root, z, z_prime, keep_trace, rank):
        before = len(reached)
        ranks.clear()
        rec = run_guess(root, z, z_prime, keep_trace, rank)
        runs.append((root, rec, len(reached) > before, ranks == [True]))
        return rec

    monkeypatch.setattr(pipeline, "search_disjoint", stub)
    monkeypatch.setattr(pipeline, "rank_cut", spy)
    monkeypatch.setattr(pipeline, "_run_guess", recording)
    cut = refuted = 0
    for seed in range(30):
        g = _sparse(seed, 30, 1.6)
        z = min_fvs(g)
        solve_ifvs(g, len(z), fvs_override=z, keep_traces=True)
        for root, rec, engine, by_rank in runs:
            if rec.status == "skipped" or engine:
                continue
            cut += 1
            # the record of a guess whose engine root was cut
            trace = BranchNode("reject", answer="no")
            assert rec == GuessRecord(rec.z_prime, "no", nodes=1, trace=trace)
            inst = _built(root, z, rec.z_prime)
            if by_rank:
                assert cycle_rank_cut(inst), (seed, rec.z_prime)
                continue
            refuted += 1
            if len(inst.f_free) <= 12:
                assert oracle_disjoint(inst) is None, (seed, rec.z_prime)
            assert solve_disjoint(inst).solution is None, (seed, rec.z_prime)
        runs.clear()
    assert cut > 100
    assert refuted > 100


def _refutation_case(edges, z: set[int], z_prime: tuple[int, ...], k: int):
    """The record of guess z_prime under Z = z, and its built instance; the
    graphs have no loops and nothing to peel, so g itself is the root."""
    g = MultiGraph()
    for u, v in edges:
        g.add_edge(u, v)
    res = solve_ifvs(g, k, minimize=True, fvs_override=z, keep_traces=True)
    rec = next(rec for rec in res.guesses if rec.z_prime == z_prime)
    return rec, _built(DisInstance(g, set(), set(), k, validate=False), z, z_prime)


# W-singletons 6, 7, 8 hang off vertex 4, which gives the rank check the
# degree it needs without closing a cycle
_FAN = [(4, 6), (4, 7), (4, 8)]


@pytest.mark.parametrize("edges, z, z_prime, k", [
    # Z' = {3}: its restricted neighbour 2 closes the triangle 0-1-2 with W
    pytest.param(
        [(0, 1), (0, 2), (1, 2), (2, 3)] + _FAN, {0, 1, 3, 6, 7, 8}, (3,), 2, id="u-cycle"
    ),
    # 1 and 2 each have a double edge into W-vertex 0, so both are forced
    pytest.param([(0, 1), (0, 1), (0, 2), (0, 2)] + _FAN, {0, 6, 7, 8}, (), 1, id="overrun"),
    pytest.param([(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)], {0}, (), 2, id="adjacent"),
    # 1 is forced, and the cycle 4-6-5-7 is then left with no budget
    pytest.param([(0, 1), (0, 1), (5, 6), (5, 7)] + _FAN, {0, 6, 7, 8}, (), 1, id="rank-after"),
])
def test_hopeless_guesses_are_refuted_before_their_clone(edges, z, z_prime, k):
    rec, inst = _refutation_case(edges, z, z_prime, k)
    # a guess that reached the engine would carry its root's reduction events
    trace = BranchNode("reject", answer="no")
    assert rec == GuessRecord(z_prime, "no", nodes=1, trace=trace)
    assert oracle_disjoint(inst) is None
    assert not cycle_rank_cut(inst)  # not a cut of the rank check alone


def test_a_feasible_guess_with_a_forced_take_is_not_refuted():
    # the rank-after case with one more unit of budget: 1 is forced, then
    # 4 or 5 breaks the cycle 4-6-5-7
    edges = [(0, 1), (0, 1), (5, 6), (5, 7)] + _FAN
    rec, inst = _refutation_case(edges, {0, 6, 7, 8}, (), 2)
    assert rec.status == "yes" and rec.solution == {1, 4}
    assert oracle_disjoint(inst) == {1, 4}


def _answers() -> tuple[list, int, int]:
    """Statuses and solutions of minimize runs and decisions at opt and
    opt - 1 on sparse random graphs, and of the disjoint engine at k and
    k - 1; plus the engine nodes they took and the guesses that reached
    the engine."""
    out, nodes, searches = [], 0, []
    search = pipeline.search_disjoint

    def counted(inst):
        searches.append(1)
        return search(inst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "search_disjoint", counted)
        for seed in range(60):
            g = _sparse(seed, 60, 1.2)
            runs = [solve_ifvs(g, len(g), minimize=True)]
            if runs[0].solution is not None:
                opt = len(runs[0].solution)
                runs += [solve_ifvs(g, opt), solve_ifvs(g, opt - 1)]
            out += [(res.status, res.solution) for res in runs]
            nodes += sum(res.stats["branch_nodes"] for res in runs)
    for seed in range(300):
        inst = random_dis_instance(seed)
        for k in (inst.k - 1, inst.k):
            if k < 0:
                continue
            inst.k = k
            res = solve_disjoint(inst)
            out.append(res.solution)
            nodes += res.stats.nodes
    return out, nodes, len(searches)


@functools.cache
def _unpatched_answers() -> tuple[list, int, int]:
    """_answers() with every cut in place, shared by the tests below; each
    calls it before it patches anything."""
    return _answers()


def test_the_cycle_rank_cuts_change_no_answer(monkeypatch):
    # every site of the bound (the guess check, each engine node and rule
    # 3) goes through rank_cut; with it never cutting, every search runs in
    # full and must answer the same, down to the solution it returns
    answers, nodes, _ = _unpatched_answers()
    for mod in (instance, pipeline):
        monkeypatch.setattr(mod, "rank_cut", lambda need, degs, k: False)
    uncut, uncut_nodes, _ = _answers()
    assert answers == uncut
    assert nodes < uncut_nodes


def test_the_forced_take_refutation_changes_no_answer(monkeypatch):
    # with no cycle through the undeletable part and no forced vertex ever
    # found, the guess check is the rank check alone: more guesses reach
    # the engine, and every answer, down to the solution, stays the same
    answers, nodes, searches = _unpatched_answers()
    monkeypatch.setattr(pipeline, "_forced", lambda g, keep, free: set())
    uncut, uncut_nodes, uncut_searches = _answers()
    assert answers == uncut
    assert nodes <= uncut_nodes
    assert searches < uncut_searches
