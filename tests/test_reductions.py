import random
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifvs import reductions
from ifvs.branching import cycle_rank_cut
from ifvs.fvs import min_fvs
from ifvs.generators import (
    base_case_instance,
    gadget_promotion,
    gadget_shield,
    random_dis_instance,
    random_multigraph,
    rule_site_instance,
)
from ifvs.instance import DisInstance, measure, pivot_degrees
from ifvs.multigraph import MultiGraph
from ifvs.oracle import oracle_disjoint
from ifvs.pipeline import subdivide_once
from ifvs.reductions import DRAINED, RULE_IDS, reduce_to_fixpoint

from helpers import (
    FULL_SCANS,
    assert_measure_is_fresh,
    checking_every_measure,
    fire_rule,
    fixpoint_reads,
    instance_facts,
    lowest_applicable_rule,
    pipeline_guesses,
    reference_fixpoint,
    reference_measure,
)


@pytest.mark.parametrize("rule", RULE_IDS)
def test_site_generators_make_rule_lowest_applicable(rule):
    for seed in range(25):
        inst = rule_site_instance(rule, seed)
        assert lowest_applicable_rule(inst) == rule, (rule, seed)


def test_rule1_deletes_smallest_low_degree_vertex_even_in_w():
    g = MultiGraph(range(3))
    g.add_edge(1, 2)
    inst = DisInstance(g, {0}, set(), 1)  # 0 is isolated and in W
    status, pivot, out = fire_rule(inst, 1)
    assert status == "reduced"
    assert pivot == 0
    assert 0 not in out.graph
    assert 0 not in out.w


def test_rule2_drops_smaller_id_when_flavors_match():
    for seed in range(60):
        inst = rule_site_instance(2, seed)
        if len({0, 1} & inst.r) == 1:
            continue
        _, pivot, out = fire_rule(inst, 2)
        assert pivot == 0
        # survivor inherits the dropped endpoint's other edge
        assert out.graph.multiplicity(1, 2) == 1
        break
    else:
        pytest.fail("no matching flavor in 60 seeds")


def test_rule2_drops_the_restricted_endpoint():
    for seed in range(60):
        inst = rule_site_instance(2, seed)
        if len({0, 1} & inst.r) != 1:
            continue
        restricted = next(iter({0, 1} & inst.r))
        _, pivot, out = fire_rule(inst, 2)
        assert pivot == restricted
        assert restricted not in out.graph
        break
    else:
        pytest.fail("no one-restricted flavor in 60 seeds")


def test_rule2_duplicate_toward_w_feeds_rule5():
    # bypassing 0 out of the pair 0-1 where both link the same W vertex
    # doubles the surviving W edge, which is exactly a double link, and
    # rule 5 is then the lowest applicable rule
    g = MultiGraph(range(3))
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 2)
    inst = DisInstance(g, {2}, set(), 2)
    assert lowest_applicable_rule(inst) == 2
    _, pivot, out = fire_rule(inst, 2)
    assert pivot == 0
    assert out.graph.multiplicity(1, 2) == 2
    assert lowest_applicable_rule(out) == 5
    assert fire_rule(out, 5)[:2] == ("reduced", 1)


def test_rule3_rejects_negative_budget_and_negative_measure():
    for seed in range(30):
        inst = rule_site_instance(3, seed)
        assert fire_rule(inst, 3)[0] == "reject"
        assert inst.k < 0 or measure(inst) < 0
        assert oracle_disjoint(inst.clone()) is None


def test_rule4_rejects_only_restricted_double_links():
    inst = rule_site_instance(4, seed=1)
    status, pivot, _ = fire_rule(inst, 4)
    assert status == "reject"
    assert pivot in inst.r
    assert oracle_disjoint(inst.clone()) is None


def test_rule5_forces_vertex_restricts_neighbors_pays_budget():
    for seed in range(40):
        inst = rule_site_instance(5, seed)
        status, pivot, out = fire_rule(inst, 5)
        assert status == "reduced"
        (v,) = out.taken - inst.taken
        assert v == pivot
        free_nbrs = inst.graph.neighbors(v) & inst.f
        assert out.k == inst.k - 1
        assert free_nbrs <= out.r
        assert v not in out.graph


def test_fixpoint_takes_exactly_its_rule5_pivots():
    # take is the only move that adds to the ledger, and rule 5 the only
    # rule that takes, so the ledger after a fixpoint is its rule-5 sites
    fired = 0
    insts = [random_dis_instance(seed) for seed in range(200)]
    insts += [rule_site_instance(rule, seed) for rule in RULE_IDS for seed in range(30)]
    for inst in insts:
        red = reduce_to_fixpoint(inst)
        taken = {ev.pivot for ev in red.events if ev.rule == 5}
        assert inst.taken == taken
        fired += len(taken)
    assert fired >= 30


def test_rule6_promotes_and_keeps_w_forest():
    inst, site = gadget_promotion()
    _, pivot, out = fire_rule(inst, 6)
    assert pivot == site
    assert site in out.w
    assert out.graph.is_forest(out.w)
    assert (measure(inst), measure(out)) == (3, 1)
    # 3 and 4 turn nice, so they are settled and no longer have pivot degrees
    assert {3, 4} <= out.settled
    assert {3, 4}.isdisjoint(pivot_degrees(out, out.f))


def test_rule7_restricts_exactly_the_degree2_free_neighbors():
    inst, site = gadget_shield()
    _, pivot, out = fire_rule(inst, 7)
    assert pivot == site
    expected = {
        u
        for u in inst.graph.neighbors(site) - inst.w - inst.r
        if inst.graph.deg(u) == 2
    }
    assert expected and out.r == inst.r | expected


@pytest.mark.parametrize("rule", RULE_IDS)
def test_rules_preserve_the_exact_minimum(rule):
    checked = 0
    for seed in range(60):
        inst = rule_site_instance(rule, seed)
        status, _, out = fire_rule(inst, rule)
        before = oracle_disjoint(inst.clone())
        if status == "reject":
            assert before is None, (rule, seed)
        else:
            after = oracle_disjoint(out.clone())
            min_before = None if before is None else len(before)
            min_after = None if after is None else len(after) + len(out.taken)
            assert min_before == min_after, (rule, seed)
        checked += 1
    assert checked == 60


def test_fixpoint_orders_events_lowest_rule_first():
    for seed in range(40):
        inst = random_dis_instance(seed)
        before = inst.clone()
        red = reduce_to_fixpoint(inst)
        # the fixpoint reduces inst itself, so the events replay on a clone
        # taken before it ran
        replay = before
        for ev in red.events:
            assert lowest_applicable_rule(replay) == ev.rule, seed
            status, pivot, out = fire_rule(replay, ev.rule)
            mu_after = measure(replay) if status == "reject" else measure(out)
            assert (pivot, measure(replay), mu_after) == (
                ev.pivot, ev.mu_before, ev.mu_after,
            ), seed
            if status == "reject":
                assert red.rejected
                break
            replay = out
        else:
            assert not red.rejected
            assert lowest_applicable_rule(replay) is None
            assert instance_facts(replay) == instance_facts(inst), seed
            assert replay.taken == inst.taken, seed


def test_fixpoint_is_idempotent():
    for seed in range(40):
        inst = random_dis_instance(seed)
        red = reduce_to_fixpoint(inst)
        if red.rejected:
            continue
        again = reduce_to_fixpoint(inst)
        assert not again.events


@given(st.integers(0, 10**6))
@settings(max_examples=120)
def test_fixpoint_never_raises_the_measure(seed):
    inst = random_dis_instance(seed)
    mu_raw = reference_measure(inst)
    red = reduce_to_fixpoint(inst)
    if not red.rejected:
        # the moves kept the settled set, so the reduced instance's is fresh
        # with no measure between; assert_measure_is_fresh checks it
        mu = measure(inst)
        assert_measure_is_fresh(mu, inst)
        assert mu <= mu_raw


def _fixpoint_checking_every_step(inst):
    """Run reduce_to_fixpoint, checking each measure it takes.

    The entry measure, the one after every firing and the one at each try
    of rule 3 must equal a reference built from scratch, down to its settled
    vertices and W-components. Returns the fixpoint result and the number of
    measures checked.
    """
    with checking_every_measure() as reads:
        red = reduce_to_fixpoint(inst)
    return red, reads["ifvs.reductions"]


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_incremental_measure_matches_a_fresh_one_after_every_firing(seed):
    red, checked = _fixpoint_checking_every_step(random_dis_instance(seed))
    assert checked == fixpoint_reads(red.events, red.rejected)


@pytest.mark.parametrize("rule", RULE_IDS)
def test_incremental_measure_matches_on_every_rule_site(rule):
    for seed in range(30):
        red, checked = _fixpoint_checking_every_step(rule_site_instance(rule, seed))
        assert checked == fixpoint_reads(red.events, red.rejected), (rule, seed)


def _fixpoint_corpus():
    return [random_dis_instance(seed) for seed in range(150)] + [
        rule_site_instance(rule, seed) for rule in RULE_IDS for seed in range(15)
    ]


def test_an_untraced_fixpoint_measures_only_where_rule_3_reads_it(monkeypatch):
    # once per try of rule 3, each read fresh; the traced run of the same
    # instance reads on entry and after every firing as well
    rule3 = reductions._RULES[3]
    tries = 0

    def counted(inst):
        nonlocal tries
        tries += 1
        return rule3(inst)

    monkeypatch.setitem(reductions._RULES, 3, counted)
    for inst in _fixpoint_corpus():
        twin = inst.clone()
        with checking_every_measure() as reads:
            red = reduce_to_fixpoint(twin)
        assert reads["ifvs.reductions"] == fixpoint_reads(red.events, red.rejected)
        tries = 0
        with checking_every_measure() as lazy_reads:
            lazy = reduce_to_fixpoint(inst, trace=False)
        assert lazy.events == [] and lazy.rejected == red.rejected
        assert instance_facts(inst) == instance_facts(twin) and inst.taken == twin.taken
        rule3_tries = sum(ev.rule >= 3 for ev in red.events) + (not red.rejected)
        assert lazy_reads["ifvs.reductions"] == tries == rule3_tries


def test_the_candidate_scans_fire_where_a_full_scan_does(monkeypatch):
    # at every step of every fixpoint, rules 1, 2, 4, 5 and 7 fire, or not,
    # at the site a scan of every vertex in id order picks; the drains of
    # rules 1 and 2 are checked at each firing against the state before it,
    # and where they stop the full scan must find nothing
    fires = {rule: 0 for rule in FULL_SCANS}

    def checking(rule, fn):
        def run(inst):
            want = FULL_SCANS[rule](inst)
            fired = fn(inst)
            assert (None if fired is None else fired[1]) == want, rule
            fires[rule] += fired is not None
            return fired
        return run

    def checking_drain(rule, drain):
        def run(inst):
            steps = drain(inst)
            while True:
                want = FULL_SCANS[rule](inst)
                fired = next(steps, None)
                assert (None if fired is None else fired[1]) == want, rule
                if fired is None:
                    return
                fires[rule] += 1
                yield fired
        return run

    for rule in FULL_SCANS:
        wrap = checking_drain if rule in DRAINED else checking
        monkeypatch.setitem(reductions._RULES, rule, wrap(rule, reductions._RULES[rule]))
    for inst in _fixpoint_corpus():
        reduce_to_fixpoint(inst, trace=False)
    assert min(fires.values()) >= 10, fires


def _with_w_leaves(inst: DisInstance, seed: int) -> DisInstance:
    """inst with pendant W-trees hung off its W-vertices: each new W-vertex
    hangs off the one made before it or, now and then, off an older one."""
    rng = random.Random(seed)
    g, w = inst.graph.copy(), set(inst.w)
    parent = rng.choice(sorted(w))
    for _ in range(rng.randint(4, 16)):
        if rng.random() < 0.3:
            parent = rng.choice(sorted(w))
        v = g.new_vertex()
        g.add_edge(parent, v)
        w.add(v)
        parent = v
    return DisInstance(g, w, inst.r, inst.k)


def _drain_corpus():
    """Instances on which rules 1 and 2 fire in long runs: base-case leaves
    with pendant W-trees, which rule 1 eats leaf by leaf, and the compression
    guesses of subdivided sparse graphs, whose degree-2 chains rule 2
    bypasses one vertex at a time; each with its floor set exactly, as an
    engine node sets it."""
    insts = [_with_w_leaves(base_case_instance(seed), seed) for seed in range(120)]
    for seed in range(20):
        n = 12 + seed % 8
        g = subdivide_once(random_multigraph(n, n + 4, seed, loops=False, multi=False))
        insts += pipeline_guesses(g, len(min_fvs(g)) + 1)
    for inst in insts:
        cycle_rank_cut(inst)
    return insts


def _reduced_state(inst) -> tuple:
    return (instance_facts(inst), inst.taken, inst.comps, inst.comp_of, inst.settled,
            inst.wdeg, inst.floor)


def test_the_fixpoint_fires_as_the_one_step_reference_does():
    # traced and untraced, the fixpoint with its drains leaves the instance
    # and, traced, records the events that firing the lowest rule found by
    # full scans one step at a time gives
    fires = Counter()
    runs = Counter()  # firings of rule 1 or 2 in a row, by rule
    for inst in _drain_corpus():
        ref, traced = inst.clone(), inst.clone()
        events, rejected = reference_fixpoint(ref)
        red = reduce_to_fixpoint(traced)
        quiet = reduce_to_fixpoint(inst, trace=False)
        assert red.events == events and red.rejected == quiet.rejected == rejected
        assert quiet.events == []
        assert _reduced_state(traced) == _reduced_state(inst) == _reduced_state(ref)
        fires.update(ev.rule for ev in events)
        for rule, group in groupby(ev.rule for ev in events):
            runs[rule] = max(runs[rule], len(list(group)))
    assert fires[1] >= 2000 and fires[2] >= 300 and fires[5] >= 40, fires
    assert runs[1] >= 20 and runs[2] >= 10, runs


@given(st.integers(0, 10**6))
@settings(max_examples=80)
def test_fixpoint_preserves_feasibility_and_minimum(seed):
    inst = random_dis_instance(seed)
    before = oracle_disjoint(inst.clone())
    red = reduce_to_fixpoint(inst)
    if red.rejected:
        assert before is None
        return
    after = oracle_disjoint(inst.clone())
    if before is None:
        assert after is None
    else:
        assert after is not None
        assert len(after) + len(inst.taken) == len(before)


def test_forced_vertices_reappear_in_solutions():
    # a forced double-linked vertex must be in every solution the engine
    # reports, so the fixpoint takes it into the instance's ledger; the
    # oracle answers before the fixpoint reduces the site in place
    checked = 0
    for seed in range(50):
        inst = rule_site_instance(5, seed)
        site_solution = oracle_disjoint(inst)
        red = reduce_to_fixpoint(inst)
        if site_solution is not None and not red.rejected and inst.taken:
            assert inst.taken <= site_solution, seed
            checked += 1
    assert checked >= 30


def test_rule3_rejects_by_the_floor_only_after_a_take_and_only_a_no():
    # cycle_rank_cut sets the floor exactly, as at each engine node; rule 3
    # then checks it again each time a take has lowered the budget
    floor_rejects = 0
    for seed in range(400):
        inst = random_dis_instance(seed)
        if cycle_rank_cut(inst):
            continue
        orig, k0 = inst.clone(), inst.k
        red = reduce_to_fixpoint(inst)
        last = red.events[-1] if red.rejected else None
        if last and last.rule == 3 and inst.k >= 0 and last.mu_before >= 0:
            floor_rejects += 1
            assert inst.k < k0 and 5 in {ev.rule for ev in red.events}, seed
            assert oracle_disjoint(orig) is None, seed
    assert floor_rejects > 0
