import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifvs.branching import (
    branch_delete,
    branch_to_w,
    fib,
    select_pivot,
    solve_disjoint,
)
from ifvs.generators import (
    gadget_nice_promotion,
    gadget_tent_branch,
    random_dis_instance,
    random_multigraph,
    rule_site_instance,
)
from ifvs.instance import (
    DisInstance,
    InternalSolverError,
    Kind,
    classification,
    classify,
    measure,
)
from ifvs.multigraph import MultiGraph
from ifvs.oracle import oracle_disjoint
from ifvs.pipeline import solve_ifvs
from ifvs.reductions import reduce_to_fixpoint

from helpers import branch_drops_ok, checking_every_measure


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
    classes = classification(inst)
    pc = select_pivot(inst)
    assert classes[pc.vertex].kind in (Kind.PLAIN, Kind.P_TENT)
    settled = [v for v, c in classes.items() if c.kind in (Kind.NICE, Kind.TENT, Kind.P_NICE)]
    assert pc.vertex not in settled


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
    inst, site = gadget_tent_branch()
    child = branch_delete(inst, site)
    assert site not in child.graph
    assert child.k == inst.k - 1
    assert inst.graph.neighbors(site) & inst.f <= child.r


def test_branch_to_w_protects_and_unrestricts():
    inst, _ = gadget_nice_promotion()
    child = branch_to_w(inst, 1)
    assert 1 in child.w and 1 not in child.r
    # the potentially nice neighbor of the protected vertex turns nice
    assert classify(child, 3).kind is Kind.NICE


def test_gadget_children_drop_measure_at_fixpoint():
    inst, site = gadget_tent_branch()
    mu = measure(inst).mu
    drops = {}
    for name, op in (("delete", branch_delete), ("to_w", branch_to_w)):
        red = reduce_to_fixpoint(op(inst, site))
        drops[name] = mu - measure(red.instance).mu
    assert drops["delete"] >= 2
    assert drops["to_w"] >= 1


def test_solve_disjoint_on_gadget_matches_oracle():
    inst, _ = gadget_tent_branch()
    res = solve_disjoint(inst.clone())
    assert res.feasible
    assert sorted(res.solution) == [4, 8]
    assert res.stats.mu0 == 4
    assert res.stats.base_leaves <= fib(res.stats.mu0 + 2)


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
    # a branch child continues from its parent's measure and a guess from
    # the pipeline root's, so a clone that lost its touched vertices or its
    # last measure shows up here; the random disjoint instances and rule
    # sites hardly branch, so pipeline guesses supply the branch children
    trees = []
    with checking_every_measure() as reads:
        insts = [random_dis_instance(seed) for seed in range(300)]
        insts += [rule_site_instance(rule, seed) for rule in range(1, 8) for seed in range(30)]
        trees += [solve_disjoint(inst).trace for inst in insts]
        for seed in range(10):
            g = random_multigraph(16, 27, seed, loops=False, multi=False)
            res = solve_ifvs(g, 8, minimize=True, keep_traces=True)
            trees += [rec.trace for rec in res.guesses if rec.trace is not None]
    nodes = [node for tree in trees for node in tree.walk()]
    assert sum(node.kind == "branch" for node in nodes) >= 20
    # each fixpoint measures on entry and after every firing but a rejection
    assert reads["ifvs.reductions"] == sum(
        1 + len(node.reductions) - (node.kind == "reject") for node in nodes
    )
    # a node that is not rejected reads it once, for its mu; a base leaf
    # reads it once more to encode the parity instance
    assert reads["ifvs.branching"] == sum(node.kind != "reject" for node in nodes)
    assert reads["ifvs.basecase"] == sum(node.kind == "base" for node in nodes)


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
