import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifvs.instance import (
    DisInstance,
    InstanceError,
    InternalSolverError,
    check_solution,
    measure,
    pivot_degrees,
    validate_instance,
)
from ifvs.multigraph import MultiGraph
from ifvs.generators import gadget_tent_branch, random_dis_instance, random_multigraph
from ifvs.reductions import _rule2

from helpers import (
    assert_measure_is_fresh,
    assert_partition_is_fresh,
    complete,
    cycle,
    deg_x,
    instance_facts,
    path,
    reference_settled,
)


def test_validate_flags_each_problem():
    g = cycle(4)
    assert validate_instance(DisInstance(g, {0, 99}, set(), 1, validate=False)) == [
        "W-not-subset"
    ]
    assert validate_instance(DisInstance(g, {0}, {99}, 1, validate=False)) == [
        "R-not-subset"
    ]
    assert validate_instance(DisInstance(g, {0}, {0}, 1, validate=False)) == [
        "W-R-overlap"
    ]
    assert validate_instance(DisInstance(g, set(), set(), 1, validate=False)) == [
        "F-not-forest"
    ]
    assert validate_instance(DisInstance(cycle(3), {0, 1, 2}, set(), 1, validate=False)) == [
        "W-not-forest"
    ]
    assert validate_instance(DisInstance(g, {0}, set(), 1, validate=False)) == []


def test_constructor_validates_by_default():
    with pytest.raises(InstanceError):
        DisInstance(cycle(4), set(), set(), 1)
    DisInstance(cycle(4), set(), set(), 1, validate=False)  # escape hatch



def _reference_codes(g: MultiGraph, w: set[int], r: set[int]) -> list[str]:
    """validate_instance's codes found from scratch, G[W] by is_forest."""
    verts = g.vertices
    checks = (
        ("W-not-subset", w <= verts),
        ("R-not-subset", r <= verts),
        ("W-R-overlap", not w & r),
        ("F-not-forest", g.is_forest(verts - w)),
        ("W-not-forest", g.is_forest(w & verts)),
    )
    return [code for code, ok in checks if not ok]


def test_codes_come_in_order_when_several_invariants_break():
    g = cycle(4)
    g.add_edge(4, 4)  # a loop on a W-vertex outside the cycle
    w, r = {4, 9}, {4}
    codes = ["W-not-subset", "W-R-overlap", "F-not-forest", "W-not-forest"]
    assert _reference_codes(g, w, r) == codes
    assert validate_instance(DisInstance(g, w, r, 1, validate=False)) == codes
    with pytest.raises(InstanceError) as exc:
        DisInstance(g, w, r, 1)
    assert str(exc.value) == "; ".join(codes)


@given(
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14),
    st.sets(st.integers(0, 9)),
    st.sets(st.integers(0, 9), max_size=3),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_build_matches_a_from_scratch_one(n, edges, w, r, validate):
    # the constructor finds comps, comp_of and wdeg in one walk over W's
    # incident lists; compare it with components(W) labelled by their least
    # vertex, W-degrees by deg_x and reference_settled, on instances that
    # may break any invariant, loops and parallel edges included
    g = MultiGraph(range(n))
    for u, v in edges:
        if u < n and v < n:
            g.add_edge(u, v)
    codes = _reference_codes(g, w, r)
    if validate and codes:
        with pytest.raises(InstanceError) as exc:
            DisInstance(g, w, r, 1)
        assert str(exc.value) == "; ".join(codes)
        return
    inst = DisInstance(g, w, r, 1, validate=validate)
    assert validate_instance(inst) == codes
    fresh = {min(comp): comp for comp in g.components(w)}
    assert list(inst.comps.items()) == list(fresh.items())  # key order too
    assert inst.comp_of == {v: c for c, comp in fresh.items() for v in comp}
    # a loop at a W-vertex is one edge occurrence into W, which deg_x counts twice
    assert inst.wdeg == {
        v: deg_x(g, v, w) - (g.multiplicity(v, v) if v in w else 0) for v in g.vertices
    }
    assert inst.settled == reference_settled(inst).keys()


def test_f_and_f_free_partitions():
    g = path(5)
    inst = DisInstance(g, {0}, {1}, 2)
    assert inst.f == {1, 2, 3, 4}
    assert inst.f_free == {2, 3, 4}


def test_clone_is_deep_enough():
    inst = DisInstance(path(3), {0}, set(), 1)
    other = inst.clone()
    other.w.add(1)
    other.graph.add_edge(1, 2)
    assert inst.w == {0}
    assert inst.graph.multiplicity(1, 2) == 1


def test_delete_vertex_discards_membership():
    inst = DisInstance(path(4), {0}, {1}, 2)
    inst.delete_vertex(1)
    inst.delete_vertex(0)
    assert inst.w == set() and inst.r == set()
    assert inst.graph.vertices == {2, 3}


def test_take_restricts_f_neighbors_but_not_w_neighbors_and_pays_one():
    inst = DisInstance(path(4), {0}, set(), 2)
    inst.take(1)
    assert 1 not in inst.graph
    assert inst.w == {0} and inst.r == {2}
    assert inst.k == 1


def test_take_refuses_a_vertex_of_w_or_r():
    inst = DisInstance(path(3), {0}, {2}, 2)  # 0-1-2
    for v in (0, 2):
        before = instance_facts(inst)
        with pytest.raises(InternalSolverError, match="in W or R"):
            inst.take(v)
        assert instance_facts(inst) == before and inst.taken == set()


def test_take_records_the_vertex_and_no_other_move_does():
    inst = DisInstance(path(5), {0}, set(), 3)  # 0-1-2-3-4
    assert inst.taken == set()
    inst.take(2)
    assert inst.taken == {2}
    inst.protect(1)
    inst.restrict({3})
    inst.delete_vertex(4)
    assert inst.taken == {2}


def test_clone_has_its_own_ledger():
    inst = DisInstance(path(7), {0}, set(), 3)  # 0-1-2-3-4-5-6
    inst.take(2)
    other = inst.clone()
    assert other.taken == {2}
    other.take(4)
    inst.take(5)
    assert inst.taken == {2, 5} and other.taken == {2, 4}


def test_protect_clears_r_and_raises_on_a_w_cycle():
    inst = DisInstance(path(3), {0}, {1}, 1)
    inst.protect(1)
    assert inst.w == {0, 1} and inst.r == set()
    tri = DisInstance(cycle(3), {0, 1}, set(), 1)
    with pytest.raises(InternalSolverError, match="W-cycle"):
        tri.protect(2)
    double = MultiGraph(range(2))
    double.add_edge(0, 1, mult=2)
    with pytest.raises(InternalSolverError, match="W-cycle"):
        DisInstance(double, {0}, set(), 1).protect(1)
    loop = MultiGraph(range(2))
    loop.add_edge(0, 1)
    loop.add_edge(1, 1)
    with pytest.raises(InternalSolverError, match="W-cycle"):
        DisInstance(loop, {0}, set(), 1, validate=False).protect(1)


def test_classification_on_reduced_gadget():
    inst, _site = gadget_tent_branch()
    degs = pivot_degrees(inst, inst.f)
    # 5 and 6 are potentially nice and 10-13 nice, so only 4, 7 and 8 can
    # pivot; 4 and 8 are potential tents: degree 3, no W-edge, and the two
    # potentially nice neighbors give them generalized degree 2
    assert inst.f == {4, 5, 6, 7, 8, 10, 11, 12, 13}
    assert inst.settled == {10, 11, 12, 13}
    assert degs == {4: (2, 0), 7: (1, 2), 8: (2, 0)}
    assert inst.wdeg[4] == 0 and inst.graph.deg(4) == 3


def test_restricted_vertices_classify_plain_but_keep_degrees():
    g = MultiGraph(range(3))
    g.add_edge(1, 0)
    g.add_edge(1, 2, mult=1)
    g.add_edge(2, 0)
    inst = DisInstance(g, {0}, {1}, 1)
    # 2 is potentially nice and left out; restricted 1 never is, and its
    # W-edge and potentially nice neighbor count toward its degree
    assert pivot_degrees(inst, inst.f) == {1: (2, 0)}
    assert inst.wdeg[1] == 1 and inst.settled == set()


def test_nice_requires_exactly_two_w_edges_and_no_f_neighbors():
    g = MultiGraph(range(4))
    g.add_edge(2, 0)
    g.add_edge(2, 1)
    g.add_edge(3, 0)
    inst = DisInstance(g, {0, 1}, set(), 1)
    assert inst.settled == {2}
    assert pivot_degrees(inst, inst.f) == {3: (1, 0)}
    g.add_edge(2, 3)
    inst = DisInstance(g, {0, 1}, set(), 1)
    assert inst.settled == set()  # F-neighbor disqualifies
    assert pivot_degrees(inst, inst.f) == {2: (3, 0)}


def test_w_multiplicity_counts_toward_w_degree():
    g = MultiGraph(range(2))
    g.add_edge(1, 0, mult=2)
    inst = DisInstance(g, {0}, set(), 1)
    assert inst.settled == {1}
    assert pivot_degrees(inst, inst.f) == {}


def test_classify_single_vertex_and_w_rejection():
    inst, _ = gadget_tent_branch()
    assert pivot_degrees(inst, (7,)) == {7: (1, 2)}
    for seed in range(40):
        inst = random_dis_instance(seed)
        full = pivot_degrees(inst, inst.f)
        single = {}
        for v in inst.f:
            single.update(pivot_degrees(inst, (v,)))
        assert single == full, seed
        assert inst.r <= full.keys(), seed


def test_moves_keep_the_settled_set():
    # W is four one-vertex components: 6 is nice and 7 a tent; 4 has two
    # W-edges and the F-neighbor 5, and 8 one W-edge and the F-neighbor 9
    g = MultiGraph(range(10))
    for u, v in ((4, 0), (4, 1), (4, 5), (5, 2), (6, 2), (6, 3),
                 (7, 0), (7, 1), (7, 3), (8, 2), (8, 9), (9, 3)):
        g.add_edge(u, v)
    inst = DisInstance(g, {0, 1, 2, 3}, set(), 3)
    assert inst.settled == {6, 7}
    inst.delete_vertex(5)  # 4 keeps only its W-edges
    assert inst.settled == {4, 6, 7}
    inst.protect(9)  # 8 gains a W-edge
    assert inst.settled == {4, 6, 7, 8}
    inst.restrict({6})
    assert inst.settled == {4, 7, 8}
    inst.delete_vertex(0)  # 4 keeps one edge; the tent 7 turns nice
    assert inst.settled == {7, 8}
    other = inst.clone()
    inst.protect(7)
    assert inst.settled == {8} and other.settled == {7, 8}
    inst.take(8)
    assert inst.settled == set()
    assert_partition_is_fresh(inst)
    assert_partition_is_fresh(other)


def test_a_budget_change_alone_moves_the_measure_by_as_much():
    inst, _ = gadget_tent_branch()
    mu = measure(inst)
    settled = set(inst.settled)
    assert settled
    inst.k -= 2  # no move: the settled set stays as it is
    assert measure(inst) == measure(inst) == mu - 2
    assert inst.settled == settled


def _move(inst, move: str, v: int) -> None:
    """Apply move at v where its precondition holds, else do nothing."""
    if move == "delete_vertex":
        if v not in inst.w or inst.wdeg[v] <= 1:  # a solve deletes no inner W-vertex
            inst.delete_vertex(v)
    elif v in inst.w:
        return
    elif move == "restrict":
        inst.restrict({v})
    elif move == "take" and v not in inst.r:
        inst.take(v)
    elif move == "protect" and inst.graph.is_forest(inst.w | {v}):
        inst.protect(v)


@given(
    st.integers(0, 10**6),
    st.lists(
        st.tuples(
            st.sampled_from(("take", "protect", "restrict", "delete_vertex")),
            st.integers(0, 10**6),
            st.booleans(),
        ),
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_measure_after_any_moves_matches_a_fresh_one(seed, moves):
    # the moves keep the settled set, so a move that fails to re-test a
    # vertex whose own facts it changed shows up here, at the next measure
    # however many moves later it comes
    inst = random_dis_instance(seed)
    assert_measure_is_fresh(measure(inst), inst)
    for move, pick, measure_now in moves:
        verts = sorted(inst.graph.vertices)
        if not verts:
            break
        _move(inst, move, verts[pick % len(verts)])
        if measure_now:
            assert_measure_is_fresh(measure(inst), inst)
    assert_measure_is_fresh(measure(inst), inst)


def test_deleting_an_inner_w_vertex_is_refused_and_leaves_go():
    inst = DisInstance(path(5), set(range(5)), set(), 0)  # 0-1-2-3-4, all in W
    before = instance_facts(inst), _partition(inst), dict(inst.wdeg), inst.floor
    for v in (1, 2, 3):
        with pytest.raises(InternalSolverError, match="inner W-vertex"):
            inst.delete_vertex(v)
        assert (instance_facts(inst), _partition(inst), dict(inst.wdeg), inst.floor) == before
    inst.delete_vertex(0)
    assert_partition_is_fresh(inst)
    assert _partition(inst) == {frozenset({1, 2, 3, 4})}
    for v in (1, 2, 4, 3):  # each one a leaf of what is left
        inst.delete_vertex(v)
        assert_partition_is_fresh(inst)
    assert inst.comps == {} and inst.comp_of == {}  # the last leaf empties its component


def _partition(inst) -> set[frozenset[int]]:
    return {frozenset(comp) for comp in inst.comps.values()}


def _rank(g: MultiGraph) -> int:
    return g.num_edges - len(g) + g.component_count()


def test_the_floor_falls_by_degree_minus_one_and_a_clone_keeps_it():
    g = complete(4)  # m - n + c = 3
    inst = DisInstance(g, set(), set(), 2, validate=False)
    assert inst.floor == 0 and inst.floor_k == 2  # 0 bounds every graph
    inst.floor = _rank(g)
    inst.delete_vertex(0)  # degree 3: the rank drops by exactly 2
    assert inst.floor == 1 == _rank(g)
    other = inst.clone()
    other.take(1)  # degree 2
    assert (other.floor, other.k, other.floor_k) == (0, 1, 2)
    assert inst.floor == 1
    inst.delete_vertex(1)
    inst.delete_vertex(2)  # degree 1: no change
    assert inst.floor == 0


def test_bypass_joins_the_ends_and_keeps_the_cycle_rank():
    g = cycle(5)  # 0-1-2-3-4-0
    inst = DisInstance(g, {0}, set(), 1)
    inst.floor = _rank(g)
    inst.bypass(2, 3)  # the other end, 1, is in F
    assert 2 not in g and g.multiplicity(1, 3) == 1
    assert inst.floor == _rank(g) == 1
    assert (inst.wdeg[1], inst.wdeg[3]) == (1, 0)
    assert_partition_is_fresh(inst)
    inst.bypass(1, 3)  # the other end, 0, is in W: 3 gains a W-edge
    assert 1 not in g and g.multiplicity(0, 3) == 1
    assert inst.floor == _rank(g) == 1
    assert inst.wdeg[3] == 1 and inst.settled == set()
    assert_partition_is_fresh(inst)
    inst.bypass(4, 3)  # a second edge into W is a double link, no F-cycle
    assert g.multiplicity(0, 3) == 2 and inst.wdeg[3] == 2
    assert inst.floor == _rank(g) == 1
    assert inst.settled == {3}  # both of its edges now go into W
    assert_partition_is_fresh(inst)
    tri = DisInstance(cycle(3), set(), set(), 1, validate=False)
    with pytest.raises(InternalSolverError, match="parallel edge inside F"):
        tri.bypass(0, 1)


@given(
    st.integers(0, 10**6),
    st.lists(
        st.tuples(
            st.sampled_from((
                "take", "protect", "restrict", "delete_vertex", "delete_w",
                "delete_deg2", "bypass", "clone",
            )),
            st.integers(0, 10**6),
        ),
        max_size=16,
    ),
)
@settings(max_examples=200, deadline=None)
def test_w_partition_follows_every_move(seed, moves):
    # delete_w deletes a W-leaf, which leaves its component or empties it;
    # delete_vertex refuses an inner W-vertex. The settled set is checked
    # with no measure between the moves. The floor starts exact, as each
    # engine node sets it, and stays a lower bound on m - n + c through
    # every move, a rule-2 bypass included
    inst = random_dis_instance(seed)
    inst.floor = _rank(inst.graph)
    kept = []  # (instance, partition, W-degrees, settled set) at each clone; the clone moves on
    for move, pick in moves:
        g = inst.graph
        if move == "delete_w":
            verts = sorted(v for v in inst.w if inst.wdeg[v] <= 1)
        elif move == "delete_deg2":
            verts = sorted(v for v in g.vertices if g.deg(v) >= 2)
        else:
            verts = sorted(g.vertices)
        if move == "clone":
            kept.append((inst, _partition(inst), dict(inst.wdeg), set(inst.settled)))
            inst = inst.clone()
        elif move == "bypass":
            next(_rule2(inst), None)  # one step of the drain
        elif verts:
            name = "delete_vertex" if move.startswith("delete") else move
            _move(inst, name, verts[pick % len(verts)])
        assert_partition_is_fresh(inst)
        assert inst.floor <= _rank(inst.graph)
        for orig, part, wdeg, settled in kept:
            assert _partition(orig) == part and orig.wdeg == wdeg and orig.settled == settled
            assert_partition_is_fresh(orig)


def test_measure_of_gadget():
    inst, _ = gadget_tent_branch()
    kinds = list(reference_settled(inst).values())
    assert (inst.k, len(inst.comps), kinds.count("nice"), kinds.count("tent")) == (3, 5, 4, 0)
    assert measure(inst) == 4
    assert inst.settled == reference_settled(inst).keys()


def test_check_solution_accepts_only_independent_fvs():
    g = complete(4)
    for s in ({0}, {0, 1}):
        assert not check_solution(g, s, 4)
    g2 = cycle(5)
    assert check_solution(g2, {0}, 1)
    assert not check_solution(g2, {0}, 0)  # budget
    assert not check_solution(g2, {0, 1}, 2)  # adjacent
    assert not check_solution(g2, {9}, 1)  # unknown vertex
    # a loop on a chosen vertex does not break independence
    g3 = MultiGraph(range(2))
    g3.add_edge(0, 0)
    g3.add_edge(0, 1)
    assert check_solution(g3, {0}, 1)
    assert not check_solution(g3, {1}, 1)  # loop stays behind


def _union_find_check(g: MultiGraph, s: set[int], k: int) -> bool:
    """Reference: the independence and budget tests, then a union-find
    forest test of G - s over the whole adjacency."""
    if len(s) > k or not s <= g.vertices or any(g.neighbors(v) & s for v in s):
        return False
    return g.is_forest(g.vertices - s)


def test_check_solution_agrees_with_a_union_find_forest_test():
    # the check counts G - s's edges off degrees and loop multiplicities;
    # graphs with loops, parallel edges and isolated vertices, and sets that
    # hold looped vertices, must get the union-find verdict
    rng = random.Random(7)
    kinds = set()
    for seed in range(300):
        n = 4 + seed % 12
        g = random_multigraph(n, rng.randint(0, 2 * n), seed)
        for _ in range(rng.randint(0, 2)):
            g.new_vertex()  # isolated
        for _ in range(12):
            s = set(rng.sample(sorted(g.vertices), rng.randint(0, len(g) // 2)))
            if rng.random() < 0.5:
                s -= set().union(*map(g.neighbors, sorted(s)))  # often independent
            k = len(s) + rng.randint(-1, 1)
            want = _union_find_check(g, s, k)
            assert check_solution(g, s, k) == want, (seed, sorted(s), k)
            kinds.add((want, any(g.multiplicity(v, v) for v in s)))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
