import random

import pytest

from ifvs import basecase, branching
from ifvs.basecase import (
    ParityInstance,
    ParityPair,
    ParityResult,
    algebraic_parity_max,
    build_parity,
    matroid_parity_max,
    reference_parity_max,
    solve_base,
    _find,
    _forest_union,
    _rank_mod_p,
    _skew_matrix,
)
from ifvs.branching import solve_disjoint
from ifvs.generators import base_case_instance, random_dis_instance
from ifvs.instance import DisInstance, InternalSolverError
from ifvs.multigraph import MultiGraph
from ifvs.oracle import oracle_disjoint

from helpers import brute_parity_max


def _parallel_nice_instance(count: int, k: int) -> DisInstance:
    g = MultiGraph(range(2))
    for _ in range(count):
        n = g.new_vertex()
        g.add_edge(n, 0)
        g.add_edge(n, 1)
    return DisInstance(g, {0, 1}, set(), k)


def test_nice_vertex_becomes_serial_pair_through_fresh_node():
    inst = _parallel_nice_instance(1, 1)
    p = build_parity(inst)
    assert p.num_ground == 3  # two contracted components plus the middle
    (pair,) = p.pairs
    assert pair.serial and pair.origin == 2
    assert pair.edges == ((0, 2), (2, 1))


def test_tent_becomes_two_chained_edges():
    g = MultiGraph(range(3))
    t = g.new_vertex()
    for w in range(3):
        g.add_edge(t, w)
    inst = DisInstance(g, {0, 1, 2}, set(), 1)
    p = build_parity(inst)
    (pair,) = p.pairs
    assert not pair.serial
    assert pair.edges == ((0, 1), (1, 2))
    assert p.num_ground == 3


def _reference_build_parity(inst: DisInstance) -> ParityInstance:
    """build_parity with the W-components numbered in the order
    components(W) lists them, found from scratch."""
    g = inst.graph
    comps = g.components(inst.w)
    node = {v: i for i, comp in enumerate(comps) for v in comp}
    next_node = len(comps)
    pairs = []
    for v in sorted(inst.f):
        targets = sorted(node[u] for u in g.neighbors(v) for _ in range(g.multiplicity(v, u)))
        if len(targets) == 2:
            c1, c2 = targets
            pairs.append(ParityPair(v, ((c1, next_node), (next_node, c2)), serial=True))
            next_node += 1
        else:
            c1, c2, c3 = targets
            pairs.append(ParityPair(v, ((c1, c2), (c2, c3)), serial=False))
    return ParityInstance(next_node, pairs)


def test_build_parity_numbers_components_by_their_smallest_vertex():
    # W is grown by protect from the top id down, so merges keep labels
    # that are not the smallest vertex of their component
    for seed in range(80):
        fresh = base_case_instance(seed)
        grown = DisInstance(fresh.graph.copy(), set(), set(), fresh.k, validate=False)
        for v in sorted(fresh.w, reverse=True):
            grown.protect(v)
        p = build_parity(grown)
        assert p == _reference_build_parity(grown) == build_parity(fresh), seed


def test_build_parity_numbers_engine_leaves_like_a_fresh_partition(monkeypatch):
    leaves = []

    def checked(inst):
        assert build_parity(inst) == _reference_build_parity(inst)
        leaves.append(inst)
        return solve_base(inst)

    monkeypatch.setattr(branching, "solve_base", checked)
    for seed in range(300):
        solve_disjoint(random_dis_instance(seed))
    assert len(leaves) > 100


def test_build_parity_rejects_non_base_shapes():
    g = MultiGraph(range(3))
    g.add_edge(1, 0)
    g.add_edge(1, 2)
    with pytest.raises(InternalSolverError):
        build_parity(DisInstance(g, {0}, set(), 1))  # F-edge 1-2
    g2 = MultiGraph(range(2))
    g2.add_edge(1, 0, mult=2)
    with pytest.raises(InternalSolverError):
        build_parity(DisInstance(g2, {0}, set(), 1))  # double link
    g3 = MultiGraph(range(2))
    g3.add_edge(1, 0)
    with pytest.raises(InternalSolverError):
        build_parity(DisInstance(g3, {0}, {1}, 1))  # nonempty R


def test_parallel_nice_vertices_allow_exactly_one_keep():
    inst = _parallel_nice_instance(3, 2)
    p = build_parity(inst)
    assert len(p.pairs) == 3
    assert brute_parity_max(p) == 1
    assert reference_parity_max(p).nu == 1
    sol = solve_base(inst)
    assert sol is not None and len(sol) == 2
    assert sol == set(oracle_disjoint(inst.clone()))


def test_forest_union_detects_pair_cycles():
    p = build_parity(_parallel_nice_instance(2, 1))
    assert _forest_union(p, [0])
    assert _forest_union(p, [1])
    assert not _forest_union(p, [0, 1])


def test_reference_equals_brute_on_generated_instances():
    for seed in range(80):
        p = build_parity(base_case_instance(seed))
        assert reference_parity_max(p).nu == brute_parity_max(p), seed


def _mask_loop_parity_max(p: ParityInstance) -> ParityResult:
    """Reference: the earlier reference_parity_max, which ran every tent mask
    from scratch, highest mask first, each with a fresh union-find and a
    fresh greedy pass over the serial pairs."""
    tent_idx = [i for i, pr in enumerate(p.pairs) if not pr.serial]
    serial_idx = [i for i, pr in enumerate(p.pairs) if pr.serial]
    best_nu = -1
    best_kept: list[int] = []
    for mask in range((1 << len(tent_idx)) - 1, -1, -1):
        kept = [tent_idx[j] for j in range(len(tent_idx)) if mask >> j & 1]
        parent = _forest_union(p, kept)
        if parent is None:
            continue
        for i in reversed(serial_idx):
            (a, _), (_, b) = p.pairs[i].edges
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb
                kept.append(i)
        if len(kept) > best_nu:
            best_nu = len(kept)
            best_kept = kept
    return ParityResult(best_nu, frozenset(best_kept))


def _spread_leaf(seed: int, npairs: int, tent_share: float,
                 ncomp: int | None = None) -> ParityInstance:
    """Parity leaf with ncomp W-component nodes, by default one per pair (at
    least three): each pair is a tent with probability tent_share, and links
    distinct W-component nodes, as build_parity encodes the parity-batch base
    cases."""
    rng = random.Random(seed)
    ncomp = ncomp or max(3, npairs)
    pairs = []
    nxt = ncomp
    for i in range(npairs):
        chosen = sorted(rng.sample(range(ncomp), 3 if rng.random() < tent_share else 2))
        if len(chosen) == 3:
            c1, c2, c3 = chosen
            pairs.append(ParityPair(i, ((c1, c2), (c2, c3)), serial=False))
        else:
            c1, c2 = chosen
            pairs.append(ParityPair(i, ((c1, nxt), (nxt, c2)), serial=True))
            nxt += 1
    return ParityInstance(nxt, pairs)


def _fourteen_tent_leaf() -> ParityInstance:
    # 14 tents and 7 nice pairs: past both reference caps
    rng = random.Random(3)
    pairs = []
    for i in range(14):
        c1, c2, c3 = sorted(rng.sample(range(16), 3))
        pairs.append(ParityPair(i, ((c1, c2), (c2, c3)), serial=False))
    for i in range(14, 21):
        c1, c2 = sorted(rng.sample(range(16), 2))
        pairs.append(ParityPair(i, ((c1, 2 + i), (2 + i, c2)), serial=True))
    return ParityInstance(23, pairs)


def test_reference_search_returns_the_mask_loop_witness():
    # same nu and the same kept set, so every witness downstream is unchanged
    leaves = [build_parity(base_case_instance(seed)) for seed in range(200)]
    leaves += [_spread_leaf(4 * n + j, n, share)
               for n in range(19) for j, share in enumerate((0, 0.25, 0.6, 1.0))]
    leaves.append(_fourteen_tent_leaf())
    for n, p in enumerate(leaves):
        assert reference_parity_max(p) == _mask_loop_parity_max(p), n


def test_merge_room_bound_keeps_the_mask_loop_witness():
    # few W-components leave little room for merges, so the bound cuts most
    # of the search here; a tie must still never replace the first maximum
    leaves = [_spread_leaf(100 * ncomp + npairs, npairs, share, ncomp)
              for ncomp in (3, 4, 5) for npairs in (6, 11, 14) for share in (0, 0.5, 1.0)]
    leaves.append(build_parity(_parallel_nice_instance(5, 4)))  # room 1
    for n, p in enumerate(leaves):
        assert reference_parity_max(p) == _mask_loop_parity_max(p), n
    assert reference_parity_max(ParityInstance(0, [])) == ParityResult(0, frozenset())


@pytest.mark.parametrize(
    "seed,tent_share,tents", [(0, 1.0, 20), (1, 1.0, 20), (1, 0.7, 14), (9, 0.7, 14)]
)
def test_tent_heavy_leaves_match_the_algebraic_route(seed, tent_share, tents):
    # 20 pairs with 14 or 20 tents, where the mask loop took seconds
    p = _spread_leaf(seed, 20, tent_share)
    assert sum(not q.serial for q in p.pairs) == tents
    ref = reference_parity_max(p)
    alg = algebraic_parity_max(p)
    assert alg is not None and ref.nu == alg.nu
    assert _forest_union(p, ref.kept) and len(ref.kept) == ref.nu


def test_algebraic_equals_reference_and_verifies():
    for seed in range(80):
        p = build_parity(base_case_instance(seed))
        ref = reference_parity_max(p)
        alg = algebraic_parity_max(p)
        assert alg is not None, seed
        assert alg.nu == ref.nu, seed
        assert _forest_union(p, alg.kept)
        assert len(alg.kept) == alg.nu


def _force_algebraic_route(monkeypatch):
    monkeypatch.setattr(basecase, "REFERENCE_MAX_PAIRS", -1)
    monkeypatch.setattr(basecase, "REFERENCE_MAX_TENTS", -1)


def test_matroid_parity_never_lies_even_when_algebra_gives_up(monkeypatch):
    _force_algebraic_route(monkeypatch)
    monkeypatch.setattr(basecase, "algebraic_parity_max", lambda p: None)
    for seed in range(25):
        p = build_parity(base_case_instance(seed))
        res = matroid_parity_max(p)
        assert res.used_fallback
        assert res.nu == brute_parity_max(p)
        assert _forest_union(p, res.kept)


def test_fields_past_int64_products_stay_on_the_algebraic_route(monkeypatch):
    # in the field of order 2**61 - 1 a product of two residues can pass
    # 2**63, which exact integers do not mind
    _force_algebraic_route(monkeypatch)
    for seed in range(10):
        p = build_parity(base_case_instance(seed))
        res = matroid_parity_max(p)
        assert not res.used_fallback, seed
        assert res.nu == brute_parity_max(p), seed
        assert _forest_union(p, res.kept) and len(res.kept) == res.nu


def _refuse(*args, **kwargs):
    raise AssertionError("this parity route must not run")


def test_small_instances_run_the_reference_route_alone(monkeypatch):
    monkeypatch.setattr(basecase, "algebraic_parity_max", _refuse)
    for seed in range(40):
        p = build_parity(base_case_instance(seed, max_pairs=12))
        res = matroid_parity_max(p)
        assert not res.used_fallback, seed
        assert res.nu == brute_parity_max(p), seed
        assert _forest_union(p, res.kept) and len(res.kept) == res.nu


def test_large_tent_heavy_instances_run_the_algebraic_route_alone(monkeypatch):
    p = _fourteen_tent_leaf()
    assert len(p.pairs) > basecase.REFERENCE_MAX_PAIRS
    assert sum(not q.serial for q in p.pairs) > basecase.REFERENCE_MAX_TENTS
    want = reference_parity_max(p).nu
    monkeypatch.setattr(basecase, "reference_parity_max", _refuse)
    res = matroid_parity_max(p)
    assert not res.used_fallback
    assert res.nu == want
    assert _forest_union(p, res.kept) and len(res.kept) == res.nu


def test_each_pair_set_is_ranked_once(monkeypatch):
    # one sample per rank: the full set once, then each deletion probe once
    _force_algebraic_route(monkeypatch)
    p = _fourteen_tent_leaf()
    skew = basecase._skew_matrix
    ranked = []

    def recording(q, active, *args):
        ranked.append(tuple(active))
        return skew(q, active, *args)

    monkeypatch.setattr(basecase, "_skew_matrix", recording)
    res = matroid_parity_max(p)
    assert len(ranked) == len(set(ranked)) <= len(p.pairs) + 1
    assert ranked[0] == tuple(range(len(p.pairs)))
    assert not res.used_fallback
    assert res.nu == reference_parity_max(p).nu
    assert _forest_union(p, res.kept) and len(res.kept) == res.nu


def test_skew_matrix_is_exact_at_large_fields():
    p = ParityInstance(4, [
        ParityPair(0, ((0, 1), (2, 3)), serial=False),
        ParityPair(1, ((0, 2), (2, 1)), serial=True),
    ])
    m = _skew_matrix(p, [0, 1], random.Random(7))
    rng = random.Random(7)
    want = [[0] * 4 for _ in range(4)]
    for (a1, b1), (a2, b2) in (pr.edges for pr in p.pairs):
        x = rng.randrange(1, basecase._FIELD)  # a product of two passes 2**63
        u, v = [0] * 4, [0] * 4
        u[a1], u[b1] = 1, -1
        v[a2], v[b2] = 1, -1
        for i in range(4):
            for j in range(4):
                want[i][j] += x * (u[i] * v[j] - v[i] * u[j])
    assert m == want


def test_rank_mod_p_counts_independent_rows_over_the_field():
    p = 101
    assert _rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], p) == 3
    assert _rank_mod_p([[0, 0], [0, 0]], p) == 0
    assert _rank_mod_p([], p) == 0
    assert _rank_mod_p([[1, 2, 3], [1, 2, 3], [0, 0, 0]], p) == 1
    assert _rank_mod_p([[0, 2, 1], [0, 4, 2], [5, 0, 0]], p) == 2
    # singular mod p, not over the integers
    assert _rank_mod_p([[p, 0], [0, 1]], p) == 1
    assert _rank_mod_p([[1, 2], [3, 6 + p]], p) == 1
    assert _rank_mod_p([[2, 1], [1, (p + 1) // 2]], p) == 1
    q = 4608000071  # (q - 1)**2 passes 2**63
    assert _rank_mod_p([[q - 1, 1], [1, q - 1]], q) == 1
    assert _rank_mod_p([[q - 1, 1], [1, q - 2]], q) == 2
    rows = [[4, 7], [1, 1]]
    assert _rank_mod_p(rows, p) == 2 and rows == [[4, 7], [1, 1]]  # input untouched


def test_solve_base_matches_oracle_and_respects_budget():
    for seed in range(60):
        inst = base_case_instance(seed)
        want = oracle_disjoint(inst.clone())
        got = solve_base(inst.clone())
        if want is None:
            assert got is None, seed
        else:
            assert got is not None and len(got) == len(want), seed


def test_solve_base_reports_infeasible_on_tight_budget():
    inst = _parallel_nice_instance(4, 2)  # needs 3 deletions
    assert solve_base(inst) is None


def test_empty_base_instance():
    g = MultiGraph(range(2))
    g.add_edge(0, 1)
    inst = DisInstance(g, {0, 1}, set(), 0)
    p = build_parity(inst)
    assert p.pairs == []
    assert solve_base(inst) == set()
