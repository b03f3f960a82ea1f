import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifvs.branching import BranchNode, cycle_rank_cut, fib, select_pivot, solve_disjoint
from ifvs.fvs import min_fvs
from ifvs.generators import (
    gadget_nice_promotion,
    gadget_tent_branch,
    random_dis_instance,
    random_multigraph,
    rule_site_instance,
)
from ifvs.instance import DisInstance, InternalSolverError, measure, pivot_degrees
from ifvs.multigraph import MultiGraph
from ifvs.oracle import oracle_disjoint
from ifvs.pipeline import solve_ifvs
from ifvs.reductions import reduce_to_fixpoint

from helpers import (
    branch_drops_ok,
    checking_every_measure,
    checking_every_pivot,
    fixpoint_reads,
    instance_facts,
    pipeline_guesses,
)


def test_fib_fixed_values():
    assert [fib(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    with pytest.raises(ValueError):
        fib(-1)


def test_pivot_on_reduced_gadget_is_case_b():
    inst, site = gadget_tent_branch()
    pc = select_pivot(inst)
    assert pc.vertex == site and pc.case == "B"


def test_pivot_skips_settled_kinds_but_not_potential_tents():
    inst, _ = gadget_tent_branch()
    degs = pivot_degrees(inst, inst.f)
    pc = select_pivot(inst)
    # the nice vertices 10-13 and the potentially nice 5 and 6 are left out,
    # the potential tents 4 and 8 are not
    assert inst.f - degs.keys() == {5, 6, 10, 11, 12, 13} and {4, 8} <= degs.keys()
    assert pc.vertex in degs and pc.vertex not in inst.settled


def test_pivot_in_r_is_an_internal_error():
    # a restricted vertex with three W-links in distinct components would
    # qualify for case A, which only happens when promotion was skipped
    g = MultiGraph(range(4))
    v = g.new_vertex()
    for w in range(3):
        g.add_edge(v, w)
        g.add_edge(3, w)
    inst = DisInstance(g, {0, 1, 2}, {v}, 2)
    with pytest.raises(InternalSolverError):
        select_pivot(inst)


def test_base_case_with_an_unsettled_vertex_is_an_internal_error(monkeypatch):
    # the gadget's fixpoint still has potential tents and plain vertices, so
    # a pivot choice that wrongly finds nothing must not reach the base case
    inst, _site = gadget_tent_branch()
    monkeypatch.setattr("ifvs.branching.select_pivot", lambda inst: None)
    with pytest.raises(InternalSolverError, match="non-settled"):
        solve_disjoint(inst)


def test_pivot_none_on_base_case():
    g = MultiGraph(range(2))
    n = g.new_vertex()
    g.add_edge(n, 0)
    g.add_edge(n, 1)
    assert select_pivot(DisInstance(g, {0, 1}, set(), 1)) is None


def test_branch_delete_restricts_free_neighbors_and_pays():
    # the delete child, as the engine builds it
    inst, site = gadget_tent_branch()
    child = inst.clone()
    child.take(site)
    assert site not in child.graph
    assert child.k == inst.k - 1
    assert inst.graph.neighbors(site) & inst.f <= child.r


def test_branch_to_w_protects_and_unrestricts():
    # the to-W child, as the engine builds it
    inst, _ = gadget_nice_promotion()
    child = inst.clone()
    child.protect(1)
    assert 1 in child.w and 1 not in child.r
    # the potentially nice neighbor of the protected vertex turns nice
    assert 3 in child.settled and 3 not in pivot_degrees(child, child.f)


def test_gadget_children_drop_measure_at_fixpoint():
    inst, site = gadget_tent_branch()
    mu = measure(inst)
    drops = {}
    for name, move in (("delete", DisInstance.take), ("to_w", DisInstance.protect)):
        child = inst.clone()
        move(child, site)
        reduce_to_fixpoint(child)
        drops[name] = mu - measure(child)
    assert drops["delete"] >= 2
    assert drops["to_w"] >= 1


def test_solve_disjoint_on_gadget_matches_oracle():
    inst, _ = gadget_tent_branch()
    res = solve_disjoint(inst.clone())
    assert res.feasible
    assert sorted(res.solution) == [4, 8]
    assert res.stats.mu0 == 4
    assert res.stats.base_leaves <= fib(res.stats.mu0 + 2)


def _triangle(r: set[int], k: int) -> DisInstance:
    """Vertex 2 linked to both ends of the W-edge 01: one cycle, and only
    vertex 2 can break it."""
    g = MultiGraph(range(3))
    for u, v in ((0, 1), (2, 0), (2, 1)):
        g.add_edge(u, v)
    return DisInstance(g, {0, 1}, r, k)


def test_cycle_rank_cut_never_cuts_a_forest():
    # without cross edges the graph is the two side forests
    insts = [random_dis_instance(seed, max_cross=0, k=0) for seed in range(50)]
    g = MultiGraph(range(4))
    for i in range(3):
        g.add_edge(i, i + 1)
    insts.append(DisInstance(g, {0, 2}, {1}, 0))  # a path across both sides
    for inst in insts:
        assert not cycle_rank_cut(inst)
        assert solve_disjoint(inst).solution == set()


def test_cycle_rank_cut_cuts_a_cycle_with_no_deletable_vertex():
    # an R-vertex that double-links one W-component, whatever the budget
    inst = _triangle({2}, 5)
    assert cycle_rank_cut(inst)
    assert oracle_disjoint(inst) is None


def test_cycle_rank_cut_cuts_a_cycle_at_budget_zero():
    assert cycle_rank_cut(_triangle(set(), 0))
    assert not cycle_rank_cut(_triangle(set(), 1))
    assert solve_disjoint(_triangle(set(), 1)).solution == {2}


def test_a_cut_node_is_a_reject_leaf_without_reductions():
    for inst in (_triangle({2}, 5), _triangle(set(), 0)):
        res = solve_disjoint(inst)
        assert res.solution is None
        assert res.trace == BranchNode("reject", answer="no")
        assert res.trace.reductions == []
        assert res.stats.nodes == 1 and res.stats.mu0 is None


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_solve_disjoint_agrees_with_oracle(seed):
    inst = random_dis_instance(seed)
    want = oracle_disjoint(inst.clone())
    res = solve_disjoint(inst.clone())
    if want is None:
        assert not res.feasible
    else:
        assert res.feasible
        assert len(res.solution) == len(want)
        assert len(res.solution) <= inst.k


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_every_internal_node_branches_with_the_right_drops(seed):
    inst = random_dis_instance(seed)
    res = solve_disjoint(inst)
    for node in res.trace.walk():
        if node.kind == "branch":
            assert branch_drops_ok(node)


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_base_leaves_stay_under_the_fibonacci_cap(seed):
    inst = random_dis_instance(seed)
    res = solve_disjoint(inst)
    if res.stats.mu0 is not None:
        assert res.stats.base_leaves <= fib(res.stats.mu0 + 2)
    bases = sum(node.kind == "base" for node in res.trace.walk())
    assert bases == res.stats.base_leaves


def test_every_node_reads_a_fresh_measure():
    # a branch child continues from its parent's settled vertices and a
    # guess from the pipeline root's, so a clone that lost its settled
    # vertices shows up here; the random disjoint instances and rule sites
    # hardly branch, so pipeline guesses supply the branch children. A
    # minimize run scans at budget |Z| first, where few guesses branch, so
    # the same graphs' guesses also run at |Z| + 1 and |Z| + 2
    trees = []
    with checking_every_measure() as reads:
        insts = [random_dis_instance(seed) for seed in range(300)]
        insts += [rule_site_instance(rule, seed) for rule in range(1, 8) for seed in range(30)]
        for seed in range(10):
            g = random_multigraph(16, 27, seed, loops=False, multi=False)
            res = solve_ifvs(g, 8, minimize=True, keep_traces=True)
            trees += [rec.trace for rec in res.guesses if rec.trace is not None]
            z_size = len(min_fvs(g))
            insts += [inst for extra in (1, 2) for inst in pipeline_guesses(g, z_size + extra)]
        trees += [solve_disjoint(inst).trace for inst in insts]
    nodes = [node for tree in trees for node in tree.walk()]
    assert sum(node.kind == "branch" for node in nodes) >= 20
    # each fixpoint measures on entry, after every firing but a rejection
    # and at each try of rule 3; a cut node runs none
    assert reads["ifvs.reductions"] == sum(
        fixpoint_reads(node.reductions, node.kind == "reject") for node in nodes
    )
    # a node that is not rejected reads it once, for its mu; a base leaf
    # encodes its parity instance from the settled set that read checked
    assert reads["ifvs.branching"] == sum(node.kind != "reject" for node in nodes)


def test_solutions_avoid_w_and_r_and_break_all_cycles():
    for seed in range(120):
        inst = random_dis_instance(seed)
        res = solve_disjoint(inst.clone())
        if not res.feasible:
            continue
        sol = res.solution
        assert not sol & inst.w and not sol & inst.r
        rest = inst.graph.vertices - sol
        assert inst.graph.is_forest(rest)
        for v in sol:
            assert not inst.graph.neighbors(v) & sol


def test_solvers_leave_their_input_unchanged():
    # the engine reduces and branches on its own clone of inst, the
    # pipeline on its own copy of g
    insts = [random_dis_instance(seed) for seed in range(60)]
    insts.append(gadget_tent_branch()[0])
    for inst in insts:
        before = instance_facts(inst)
        solve_disjoint(inst)
        assert instance_facts(inst) == before
    for seed in range(10):
        g = random_multigraph(16, 27, seed)  # loops and parallel edges too
        before = g.edge_items(), set(g.vertices)
        solve_ifvs(g, 8, minimize=True)
        assert (g.edge_items(), set(g.vertices)) == before, seed


def test_engine_keeps_the_input_ledger_and_answers_outside_it():
    # a guess has taken Z' before the engine runs; the engine starts its own
    # clone with an empty ledger, so the input's ledger stays as it was and
    # the answer holds only vertices of the guess's graph
    checked = 0
    for seed in range(10):
        g = random_multigraph(16, 27, seed, loops=False, multi=False)
        for inst in pipeline_guesses(g, len(min_fvs(g)) + 1):
            taken = set(inst.taken)
            res = solve_disjoint(inst)
            assert inst.taken == taken
            if res.feasible and taken:
                assert res.solution <= inst.graph.vertices
                assert res.solution.isdisjoint(taken)
                checked += 1
    assert checked >= 10


@pytest.fixture(scope="module")
def deep_trees():
    """Guesses of sparse random graphs whose engine tree has 20 nodes or
    more, with their facts before the solve and the result.

    The random disjoint instances and rule sites hardly branch, so this is
    the family that reaches deep trees. The cycle-rank cut keeps almost
    every tree that says no below 20 nodes, so the budgets run from
    |Z| + 1 to |Z| + 3, where the deep trees search for a solution.
    """
    out = []
    for seed in range(10):
        n = 40 + seed % 11
        g = random_multigraph(n, int(1.6 * n), seed, loops=False, multi=False)
        z_size = len(min_fvs(g))
        for k in (z_size + 1, z_size + 2, z_size + 3):
            for inst in pipeline_guesses(g, k):
                before = instance_facts(inst)
                res = solve_disjoint(inst)
                if res.stats.nodes >= 20:
                    out.append((inst, before, res))
    return out


def test_deep_trees_branch_with_the_right_drops(deep_trees):
    assert len(deep_trees) >= 60
    assert max(res.stats.nodes for _, _, res in deep_trees) >= 200
    for _inst, _before, res in deep_trees:
        for node in res.trace.walk():
            if node.kind == "branch":
                assert branch_drops_ok(node)
        assert res.stats.base_leaves <= fib(res.stats.mu0 + 2)


def test_deep_trees_find_valid_solutions(deep_trees):
    found = 0
    for inst, _before, res in deep_trees:
        if not res.feasible:
            continue
        sol, g = res.solution, inst.graph
        assert sol <= inst.f - inst.r
        assert all(not g.neighbors(v) & sol for v in sol)
        assert len(sol) <= inst.k
        assert g.is_forest(g.vertices - sol)
        found += 1
    assert found >= 15


def test_deep_trees_pivot_on_fresh_degrees(deep_trees):
    # the random disjoint instances hardly branch, so the deep trees are
    # where pivots are picked on nodes that branch
    with checking_every_pivot() as picks:
        for inst, _, res in deep_trees:
            assert solve_disjoint(inst, trace=False).solution == res.solution
    nodes = [node for _, _, res in deep_trees for node in res.trace.walk()]
    assert picks[None] == sum(node.kind == "base" for node in nodes)
    assert picks.total() - picks[None] == sum(node.kind == "branch" for node in nodes)
    assert all(picks[case] for case in "ABC")


def test_deep_trees_leave_the_input_and_repeat_with_fresh_measures(deep_trees):
    # the to-W child reduces its parent's instance in place, so a node that
    # kept a stale settled set or measure shows up here
    with checking_every_measure() as reads:
        again = [solve_disjoint(inst) for inst, _, _ in deep_trees]
    nodes = []
    for (inst, before, res), res2 in zip(deep_trees, again):
        assert instance_facts(inst) == before
        assert res2.trace == res.trace
        assert res2.solution == res.solution
        nodes += res2.trace.walk()
    assert reads["ifvs.reductions"] == sum(
        fixpoint_reads(node.reductions, node.kind == "reject") for node in nodes
    )
    assert reads["ifvs.branching"] == sum(node.kind != "reject" for node in nodes)
