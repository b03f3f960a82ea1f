import dataclasses
import functools
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifvs import instance, pipeline, reductions
from ifvs.branching import (
    BranchNode,
    DisjointResult,
    DisjointStats,
    cycle_rank_cut,
    fib,
    search_disjoint,
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

from helpers import complete, cycle, layout, petersen


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
    assert res.solution == {1, 4, 5}
    assert solve_ifvs(g, 8, minimize=True) == res
    assert len(res.solution) == len(oracle_min_ifvs(g))


def test_stats_shape():
    res = solve_ifvs(cycle(5), 2)
    assert set(res.stats) == {"fvs_size", "guesses_tried", "branch_nodes", "max_mu",
                              "base_leaves_max"}


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


def _loop_free(g: MultiGraph) -> MultiGraph:
    """g minus its loop vertices, the graph solve_ifvs takes Z of."""
    h = g.copy()
    for v in [v for v in g.vertices if g.multiplicity(v, v) > 0]:
        h.remove_vertex(v)
    return h


def _minimized(g: MultiGraph, k: int):
    """solve_ifvs minimizing at k, checked against runs with an override,
    which bounds nothing, so its scan at |Z| stops only at a hit of the
    loops alone. With the solver's own Z that scan's first hit is the run's
    witness and nothing later is smaller, so the witness is the same; with
    Z + x, the size is."""
    res = solve_ifvs(g, k, minimize=True)
    assert res.solution is None or check_solution(g, res.solution, k)
    z = min_fvs(_loop_free(g))  # the Z solve_ifvs scans with
    same = solve_ifvs(g, k, minimize=True, fvs_override=z)
    assert (same.status, same.solution) == (res.status, res.solution)
    over = solve_ifvs(g, k, minimize=True, fvs_override=z | {min(g.vertices - z)})
    assert over.status == res.status
    if res.solution is not None:
        assert check_solution(g, over.solution, k)
        assert len(over.solution) == len(res.solution)
    return res


def test_minimize_scans_at_the_fvs_bound_and_then_at_k():
    # an independent FVS is an FVS, so minimize scans the guesses at
    # budget |Z| first and falls back to k only when that finds nothing
    for seed in range(80):
        n = 6 + seed % 7
        g = random_multigraph(n, int(1.5 * n), seed)  # loops and parallel edges
        res, best = _minimized(g, n), oracle_min_ifvs(g)
        assert res.status == ("no" if best is None else "yes"), seed
        assert best is None or len(res.solution) == len(best), seed
    # no independent FVS: both scans run over every guess
    k4s = complete(4)
    for u, v in [(3, 4)] + list(combinations(range(4, 8), 2)):
        k4s.add_edge(u, v)
    for g in (complete(4), k4s):
        res = _minimized(g, len(g))
        assert res.status == "no"
        assert len(res.guesses) == 2 * len(solve_ifvs(g, len(g)).guesses)
    fallbacks = stops = 0
    for seed in range(12):
        n = 30 + seed * 30 // 11
        g = random_multigraph(n, int(1.6 * n), seed, loops=seed % 3 == 0, multi=seed % 2 == 0)
        res = _minimized(g, n)
        if res.solution is None:
            continue
        size = len(res.solution)
        decided = solve_ifvs(g, size)
        assert decided.status == "yes", seed
        assert solve_ifvs(g, size - 1).status == "no", seed
        loops = {v for v in g.vertices if g.multiplicity(v, v) > 0}
        z = sorted(min_fvs(_loop_free(g)))
        if size == len(loops) + len(z):
            # the scan at |Z| stops at its first hit: the decision at opt
            assert res.guesses == decided.guesses, seed
            continue
        # the scan at |Z| lists all 2^|Z| subsets of Z, since k >= |Z|, and
        # finds nothing; the scan at k lists a prefix of them in the same
        # order, each hit strictly smaller than the one before, the witness
        # last. A hit at its floor, the loops plus |Z| + 1, ends it
        fallbacks += 1
        subsets = [c for i in range(len(z), -1, -1) for c in combinations(z, i)]
        first, second = res.guesses[:len(subsets)], res.guesses[len(subsets):]
        assert [rec.z_prime for rec in first] == subsets, seed
        assert all(rec.status != "yes" for rec in first), seed
        assert [rec.z_prime for rec in second] == subsets[:len(second)], seed
        hits = [rec for rec in second if rec.status == "yes"]
        sizes = [len(rec.z_prime) + len(rec.solution) for rec in hits]
        assert sizes == sorted(set(sizes), reverse=True), seed
        assert res.solution == loops | set(hits[-1].z_prime) | hits[-1].solution, seed
        if size == len(loops) + len(z) + 1:
            assert second[-1] is hits[-1], seed
            stops += 1
        else:
            assert len(second) == len(subsets), seed
    assert fallbacks >= 2 and stops >= 1


def test_minimize_is_the_decision_at_the_optimum(monkeypatch):
    # a minimize run stops at the first hit that meets its lower bound, so
    # when the optimum is the loops plus |Z| its scan at |Z| ends where the
    # decision at the optimum ends, at the same first hit: the two give the
    # same witness and the same guess records, in either guess order. Each
    # size is then listed in reverse, and every status and size stays, with
    # the solver's Z and with an override
    runs = []
    for seed in range(80):
        n = 6 + seed % 9
        g = random_multigraph(n, int(1.5 * n), seed)  # loops and parallel edges
        runs.append((g, n, None))
        if seed % 4 == 0:  # an override, which bounds nothing: Z plus a vertex
            z = min_fvs(_loop_free(g))
            runs.append((g, n, z | {min(g.vertices - z)}))
    for seed in range(72):
        runs.append((subdivide_once(random_multigraph(7 + seed % 4, 11, seed)), 40, None))
    for seed in (2, 4, 7, 10, 11):  # the scan at k runs on these
        n = 30 + seed * 30 // 11
        g = random_multigraph(n, int(1.6 * n), seed, loops=seed % 3 == 0, multi=seed % 2 == 0)
        runs.append((g, n, None))
    assert len({id(g) for g, _, _ in runs}) >= 150

    def answers():
        out, decided = [], 0
        for g, k, z in runs:
            res = solve_ifvs(g, k, minimize=True, fvs_override=z)
            out.append((res.status, res.solution and len(res.solution)))
            if z is not None or not res.solution:
                continue
            opt = len(res.solution)
            assert solve_ifvs(g, opt - 1).status == "no"
            at_opt = solve_ifvs(g, opt)
            assert len(at_opt.solution) == opt
            loops = sum(g.multiplicity(v, v) > 0 for v in g.vertices)
            if opt == loops + res.stats["fvs_size"]:
                assert (res.solution, res.guesses) == (at_opt.solution, at_opt.guesses)
                decided += 1
        return out, decided

    before, decided = answers()
    assert sum(status == "yes" for status, _ in before) >= 100 and decided >= 100
    monkeypatch.setattr(pipeline, "combinations", lambda it, n: reversed(list(combinations(it, n))))
    assert answers() == (before, decided)


def test_a_minimize_scan_at_z_ends_at_its_only_hit():
    # without an override Z is a minimum FVS, so a hit in the scan at |Z|
    # has the optimal size |Z| and ends the scan: its record is the last one
    # and the only "yes". The graphs have no loops, so Z is the solver's
    # own; an override with it bounds nothing, so its scan runs every guess
    # at |Z| - 1 after the same records up to the hit, finds no smaller set
    # and returns the same witness
    graphs = [subdivide_once(random_multigraph(8 + seed % 9, 12 + seed % 9, seed))
              for seed in range(40)]
    graphs += [_sparse(seed, 20, 1.6) for seed in range(20)]
    stopped = unrun = 0
    for g in graphs:
        res = solve_ifvs(g, len(g), minimize=True)
        z = min_fvs(g)
        if res.solution is None or len(res.solution) > len(z):
            continue  # the scan at |Z| found nothing
        statuses = [rec.status for rec in res.guesses]
        assert statuses.count("yes") == 1 and statuses[-1] == "yes"
        assert len(statuses) <= 2 ** len(z) and res.stats["fvs_size"] == len(z)
        same = solve_ifvs(g, len(g), minimize=True, fvs_override=z)
        assert same.solution == res.solution
        assert same.guesses[:len(statuses)] == res.guesses
        assert len(same.guesses) == 2 ** len(z)
        assert all(rec.status != "yes" for rec in same.guesses[len(statuses):])
        # a larger Z bounds nothing, even when its size is the budget
        over = z | {min(g.vertices - z)}
        assert len(solve_ifvs(g, len(over), minimize=True, fvs_override=over).solution) == len(z)
        stopped += 1
        unrun += 2 ** len(z) - len(statuses)
    assert stopped >= 50 and unrun >= 500


def test_fvs_size_is_none_exactly_when_the_fvs_bound_answers_no():
    # past the loop vertices, the FVS search is capped at the budget they
    # leave: a larger minimum FVS is the whole answer, with no Z and no guess
    bound_nos = 0
    for seed in range(80):
        n = 6 + seed % 14
        g = random_multigraph(n, int(1.5 * n), seed)  # loops and parallel edges
        loops = {v for v in g.vertices if g.multiplicity(v, v) > 0}
        h = g.copy()
        for v in loops:
            h.remove_vertex(v)
        opt = len(min_fvs(h))
        independent = not any(g.neighbors(v) & loops for v in loops)
        for k in range(len(loops), len(loops) + opt + 2):
            res = solve_ifvs(g, k, minimize=seed % 2 == 0)
            if not independent:
                assert (res.status, res.stats["fvs_size"]) == ("no", None), (seed, k)
                continue
            if opt > k - len(loops):
                assert (res.status, res.stats["fvs_size"], res.guesses) == ("no", None, []), (seed, k)
                bound_nos += 1
            else:
                assert res.stats["fvs_size"] == opt, (seed, k)
                assert res.guesses, (seed, k)
        # an override is scanned whatever its size
        over = solve_ifvs(g, len(loops), fvs_override=h.vertices)
        assert over.stats["fvs_size"] == (len(h) if independent else None), seed
    assert bound_nos > 50


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
                    # largest Z' first, in combinations order within a size
                    sizes = range(min(k, len(zt)), -1, -1)
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


def test_a_decision_with_an_independent_z_answers_at_its_first_guess():
    # the guesses run largest Z' first, so at a budget of the loops plus |Z|
    # or more the first guess is Z' = Z; when Z is independent and misses R
    # it is buildable, its W is empty and G - Z is a forest, so its root
    # answers yes and the decision stops there
    graphs = [planted_ifvs(30 + 5 * seed, 3 + seed % 5, seed).graph for seed in range(12)]
    graphs += [subdivide_once(random_multigraph(8 + seed % 6, 12 + seed % 5, seed)) for seed in range(30)]
    graphs += [random_multigraph(12 + seed % 8, 16 + seed % 8, seed) for seed in range(30)]
    checked = 0
    for g in graphs:
        loops = {v for v in g.vertices if g.multiplicity(v, v) > 0}
        r = set().union(*map(g.neighbors, loops))
        z = min_fvs(_loop_free(g))
        if r & (z | loops) or any(g.neighbors(v) & z for v in z):
            continue
        for k in (len(loops) + len(z), len(g)):
            res = solve_ifvs(g, k)
            assert res.stats["guesses_tried"] == 1, k
            assert res.stats["branch_nodes"] == 1, k
            assert res.guesses[0].z_prime == tuple(sorted(z)), k
            assert res.solution == z | loops, k
        checked += 1
    assert checked >= 40


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
    """Guess z_prime made from root with the instance's own moves: once
    rule 1 drains it, the instance the pipeline builds on the 2-core."""
    inst = root.clone()
    for v in z_prime:
        inst.take(v)
    for v in sorted(z.difference(z_prime)):
        inst.protect(v)
    return inst


def _view(inst) -> tuple:
    """All the engine reads of a guess instance: its graph with key orders,
    W, R, k, W-degrees, settled set and W-partition, labels aside. The
    floor is left out, since the engine root sets it before reading it."""
    return (layout(inst.graph), inst.w, inst.r, inst.k, inst.wdeg, inst.settled,
            {v: frozenset(inst.comps[c]) for v, c in inst.comp_of.items()},
            {frozenset(comp) for comp in inst.comps.values()})


def test_each_guess_is_built_as_take_protect_and_rule_1_would_leave_it(monkeypatch):
    # a guess that passes _refuted is built on the 2-core of G - Z' found by
    # its peel; taking Z', protecting Z minus Z' and draining rule 1, as the
    # guess's root fixpoint would, must leave the same instance. A Z-vertex
    # of degree at most one, which only an override names, starts no peel,
    # so rule 1 may still fire on the built instance there, and only there
    search, run_guess = pipeline.search_disjoint, pipeline._run_guess
    guess = []
    seen = {"built": 0, "peeled": 0, "pendant": 0}

    def recording(root, facts, z_prime, keep_trace):
        guess[:] = [root, facts.z, z_prime]
        return run_guess(root, facts, z_prime, keep_trace)

    def compared(inst, trace=True):
        root, z, z_prime = guess
        want = _built(root, z, z_prime)
        list(reductions._rule1(want))
        got = inst.clone()
        fired = list(reductions._rule1(got))
        pendant = any(root.graph.deg(v) < 2 for v in z)
        assert pendant or not fired
        assert _view(got) == _view(want), z_prime
        seen["built"] += 1
        seen["peeled"] += len(inst.graph) < len(root.graph) - len(z_prime)
        seen["pendant"] += bool(fired)
        return search(inst, trace)

    monkeypatch.setattr(pipeline, "_run_guess", recording)
    monkeypatch.setattr(pipeline, "search_disjoint", compared)
    # a minimize run stops at the floor of its scan, so it takes 240 seeds
    for seed in range(240):
        n = 6 + seed % 9
        multi = random_multigraph(n, int(1.5 * n), seed)  # loops and parallel edges
        sub = subdivide_once(random_multigraph(6 + seed % 5, 9 + seed % 5, seed))
        h, t = _with_pendants(random_multigraph(n, int(1.5 * n), seed, loops=False), seed)
        z = min_fvs(h) | {t}  # t has degree one
        for g, k, over in ((multi, len(multi), None), (sub, len(sub), None), (h, len(h), z)):
            opt = solve_ifvs(g, k, minimize=True, fvs_override=over).solution
            if opt:  # a "no" at opt - 1 runs every guess
                solve_ifvs(g, len(opt) - 1, fvs_override=over)
    assert seen["built"] >= 500 and seen["peeled"] >= 400 and seen["pendant"] >= 100, seen


def test_the_guess_check_cuts_only_where_the_engine_root_would(monkeypatch):
    # the engine is stubbed out, so every guess is tried at no search cost;
    # a tried guess that never reaches the stub was cut before its clone.
    # A cut by the first rank check alone is one the engine root's
    # cycle-rank cut makes too; a cut on the 2-core of G - Z', by a cycle
    # through the undeletable part or by forced takes is one of a guess
    # with no solution at all
    reached = []
    runs = []
    ranks = []
    run_guess, cut_rank = pipeline._run_guess, pipeline.rank_cut

    def stub(inst, trace=True):
        reached.append(inst)
        return DisjointResult(None, BranchNode("reject", answer="no"), DisjointStats(1))

    def spy(need, degs, k):
        ranks.append(cut_rank(need, degs, k))
        return ranks[-1]

    def recording(root, facts, z_prime, keep_trace):
        before = len(reached)
        ranks.clear()
        rec = run_guess(root, facts, z_prime, keep_trace)
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
            assert rec == GuessRecord(rec.z_prime, "no", DisjointStats(1), trace)
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
    """The record of guess z_prime under Z = z at budget k, and its built
    instance; the graphs have no loops and nothing to peel, so g itself is
    the root."""
    g = MultiGraph()
    for u, v in edges:
        g.add_edge(u, v)
    root = DisInstance(g, set(), set(), k, validate=False)
    rec = pipeline._run_guess(root, pipeline._guess_facts(g, z, set()), z_prime, True)
    return rec, _built(root, z, z_prime)


# W-singletons 6, 7, 8 hang off vertex 4, which gives the rank check the
# degree it needs without closing a cycle
_FAN = [(4, 6), (4, 7), (4, 8)]

# Two bowties: triangles 1-3-7 and 1-4-8 at 1, 2-5-9 and 2-6-10 at 2, joined
# by the W-edge 4-5. Under Z = {0, 3, 4, 5, 6} and Z' = (0,), 1 and 2 are the
# only deletable vertices on two cycles each: budget 1 after 0 cannot break
# the rank 4 of G - 0, and budget 2 has the one solution {1, 2}.
_BOWTIES = [(1, 3), (1, 7), (3, 7), (1, 4), (1, 8), (4, 8),
            (2, 5), (2, 9), (5, 9), (2, 6), (2, 10), (6, 10), (4, 5), (0, 4), (0, 5)]
# 0 - 11 - 1 is a pendant path once 0 is gone, so 1 has degree 4 in the
# 2-core of G - 0, against 5 in G and in G - 0; and G - 0 splits off the
# edge 12-13, so its rank is 4, one more than the 7 - (5 - 1) of the first
# check
_SPLIT = _BOWTIES + [(0, 11), (1, 11), (0, 12), (0, 13), (12, 13)]
# 0 - 11 - 1 and 0 - 12 - 2 are pendant paths once 0 is gone, and G - 0 is
# connected: its rank is the first check's 4, and only the core degrees,
# 4 at 1 and 2, fall short of it
_CORE = _BOWTIES + [(0, 11), (1, 11), (0, 12), (2, 12)]


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
    pytest.param(_SPLIT, {0, 3, 4, 5, 6}, (0,), 2, id="split"),
    pytest.param(_CORE, {0, 3, 4, 5, 6}, (0,), 2, id="core"),
])
def test_hopeless_guesses_are_refuted_before_their_clone(edges, z, z_prime, k):
    rec, inst = _refutation_case(edges, z, z_prime, k)
    # a guess that reached the engine would carry its root's reduction events
    trace = BranchNode("reject", answer="no")
    assert rec == GuessRecord(z_prime, "no", DisjointStats(1), trace)
    assert oracle_disjoint(inst) is None
    assert not cycle_rank_cut(inst)  # not a cut of the rank check alone


def test_a_feasible_guess_with_a_forced_take_is_not_refuted():
    # the rank-after case with one more unit of budget: 1 is forced, then
    # 4 or 5 breaks the cycle 4-6-5-7
    edges = [(0, 1), (0, 1), (5, 6), (5, 7)] + _FAN
    rec, inst = _refutation_case(edges, {0, 6, 7, 8}, (), 2)
    assert rec.status == "yes" and rec.solution == {1, 4}
    assert oracle_disjoint(inst) == {1, 4}


@pytest.mark.parametrize("edges", [_SPLIT, _CORE], ids=["split", "core"])
def test_the_core_cases_are_not_refuted_with_one_more_unit_of_budget(edges):
    rec, inst = _refutation_case(edges, {0, 3, 4, 5, 6}, (0,), 3)
    assert rec.status == "yes" and rec.solution == {1, 2}
    assert oracle_disjoint(inst) == {1, 2}


def test_an_fvs_override_with_a_pendant_vertex_answers_as_the_oracle():
    # a Z-vertex of degree one starts no peel in the guess check, which
    # leaves some core degrees too high; the answers must not change
    checked = 0
    for seed in range(40):
        n = 8 + seed % 5
        g = random_multigraph(n, int(1.5 * n), seed, loops=False, multi=seed % 2 == 0)
        h, t = _with_pendants(g, seed)
        if len(h) > 16:
            continue
        z = min_fvs(g) | {t}
        best = oracle_ifvs(h, len(h))
        res = solve_ifvs(h, len(h), minimize=True, fvs_override=z)
        if best is None:
            assert res.status == "no", seed
            continue
        # a guess's engine returns any of its smallest solutions, so only
        # the size is the oracle's
        assert len(res.solution) == len(best) and check_solution(h, res.solution, len(h)), seed
        for k in (len(best) - 1, len(best)):
            expect = "yes" if oracle_ifvs(h, k) is not None else "no"
            assert solve_ifvs(h, k, fvs_override=z).status == expect, (seed, k)
        checked += 1
    assert checked >= 20


def _answers() -> tuple[list, int, int]:
    """Statuses and solutions of minimize runs and decisions at opt and
    opt - 1 on sparse random graphs and subdivided multigraphs, and of the
    disjoint engine at k and k - 1; plus the engine nodes they took and the
    guesses that reached the engine."""
    out, nodes, searches = [], 0, []
    search = pipeline.search_disjoint

    def counted(inst, trace=True):
        searches.append(1)
        return search(inst, trace)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "search_disjoint", counted)
        graphs = [_sparse(seed, 60, 1.2) for seed in range(60)]
        graphs += [subdivide_once(random_multigraph(7 + seed % 4, 11, seed)) for seed in range(20)]
        for g in graphs:
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


def test_the_core_cut_changes_no_answer(monkeypatch):
    # with the rank and degrees of G - Z' read as the root's, the guess
    # check cuts no more than the first rank check and the rounds on root
    # degrees: more guesses reach the engine, and every answer, down to the
    # solution, stays the same
    answers, nodes, searches = _unpatched_answers()

    def root_values(g, facts, z_prime):
        return facts.rank - sum(g.deg(z) - 1 for z in z_prime), {}

    monkeypatch.setattr(pipeline, "_core", root_values)
    uncut, uncut_nodes, uncut_searches = _answers()
    assert answers == uncut
    assert nodes <= uncut_nodes
    assert searches < uncut_searches


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


def _untraced_view(res):
    """A solve_ifvs result with every guess's trace dropped."""
    guesses = [dataclasses.replace(rec, trace=None) for rec in res.guesses]
    return res.status, res.solution, res.stats, guesses


def test_a_trace_changes_no_answer_and_no_count():
    # without a trace the engine builds no node and no event, and counts
    # its nodes, base leaves and root measure as it goes; a traced run must
    # report the same, and those same counts are read off its trees
    runs = []
    for seed in range(20):
        n = 14 + seed % 8
        g = random_multigraph(n, int(1.4 * n), seed)  # loops and parallel edges
        opt = solve_ifvs(g, n, minimize=True).solution
        ks = (len(opt) - 1, len(opt)) if opt else (n // 2,)
        runs += [(g, k, False, None) for k in ks] + [(g, n, True, None)]
    for seed in range(6):
        base = random_multigraph(12 + seed % 3, 18 + seed % 3, seed)
        runs.append((subdivide_once(base), 60, True, None))
    # sparse loop-free graphs, whose guesses branch. A minimize run scans at
    # budget |Z| first, where fewer of them do, and stops at its first hit
    # there, so it takes denser graphs too, and runs with their own Z as an
    # override, which bounds nothing and so runs every guess
    runs += [(_sparse(seed, 20, 1.6), 40, True, None) for seed in range(10, 24)]
    for seed in range(40):
        g = _sparse(seed, 40, 1.8)
        runs += [(g, 40, True, None), (g, 40, True, min_fvs(g))]
    branches = 0
    for g, k, minimize, z in runs:
        traced = solve_ifvs(g, k, minimize, fvs_override=z, keep_traces=True)
        untraced = solve_ifvs(g, k, minimize, fvs_override=z)
        assert all(rec.trace is None for rec in untraced.guesses)
        assert _untraced_view(untraced) == _untraced_view(traced), (k, minimize)
        for rec in traced.guesses:
            nodes = list(rec.trace.walk()) if rec.trace else []
            assert rec.stats.nodes == len(nodes)
            branches += sum(node.kind == "branch" for node in nodes)
    assert branches >= 50
    for seed in range(300):
        inst = random_dis_instance(seed)
        traced = search_disjoint(inst.clone())
        untraced = search_disjoint(inst, trace=False)
        assert untraced.trace is None
        assert (untraced.solution, untraced.stats) == (traced.solution, traced.stats), seed
        nodes = list(traced.trace.walk())
        assert traced.stats == DisjointStats(
            len(nodes), sum(node.kind == "base" for node in nodes), traced.trace.mu
        ), seed


def test_a_solves_stats_are_the_counts_read_off_its_trees():
    runs = []
    for seed in range(3):
        base = random_multigraph(12 + seed, 18 + seed, seed)
        runs.append((subdivide_once(base), 60, True))
    for seed in range(3):
        g = random_multigraph(30, 48, seed, loops=False, multi=False)
        opt = solve_ifvs(g, 30, minimize=True).solution
        if opt:
            runs += [(g, len(opt) - 1, False), (g, len(opt), False)]
    kinds = set()
    for g, k, minimize in runs:
        res = solve_ifvs(g, k, minimize, keep_traces=True)
        trees = [list(rec.trace.walk()) if rec.trace else [] for rec in res.guesses]
        assert res.stats["branch_nodes"] == sum(map(len, trees))
        roots = [tree[0].mu for tree in trees if tree and tree[0].mu is not None]
        assert res.stats["max_mu"] == max(roots, default=None)
        leaves = [sum(node.kind == "base" for node in tree) for tree in trees]
        assert res.stats["base_leaves_max"] == max(leaves, default=0)
        tried = [rec for rec in res.guesses if rec.status != "skipped"]
        assert res.stats["guesses_tried"] == len(tried)
        kinds.update(
            rec.status if rec.status == "skipped"
            else "cut" if rec.trace == BranchNode("reject", answer="no")
            else rec.trace.kind
            for rec in res.guesses
        )
    assert {"skipped", "cut", "branch"} <= kinds
