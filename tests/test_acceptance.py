"""End-to-end acceptance suite.

Each criterion below is one test that prints a single PASS or FAIL line to
the real terminal (bypassing capture) and then asserts. The two large
corpora are built once per session and shared: a 1000-graph sweep of the
full solver against the subset oracle across every budget, and a
1000-instance sweep of the disjoint engine against its oracle. Branch
traces from both feed the branching-vector and leaf-count checks.
"""
import math
import random
import statistics
import time

import pytest

import ifvs.basecase as basecase_mod
from ifvs.basecase import (
    algebraic_parity_max,
    build_parity,
    matroid_parity_max,
    reference_parity_max,
    _forest_union,
)
from ifvs.branching import cycle_rank_cut, fib, solve_disjoint
from ifvs.generators import (
    base_case_instance,
    planted_ifvs,
    random_dis_instance,
    random_multigraph,
    rule_site_instance,
)
from ifvs.instance import check_solution, measure
from ifvs.oracle import brute_min_fvs, oracle_disjoint, oracle_min_ifvs
from ifvs.pipeline import BOUND_BASE, GOLDEN_RATIO, leaf_bound, solve_ifvs, subdivide_once
from ifvs.reductions import reduce_to_fixpoint

from helpers import branch_drops_ok, brute_parity_max, fire_rule

GRAPH_SWEEP_SIZE = 1000
DIS_SWEEP_SIZE = 1000
GRAPH_SWEEP_BUDGET_S = 600.0


def _report(num: int, ok: bool, detail: str, capsys) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _trace_checks(trace, agg) -> None:
    """Walk one branch tree, counting vector violations at internal nodes."""
    for node in trace.walk():
        if node.kind == "branch":
            agg["internal_nodes"] += 1
            if not branch_drops_ok(node):
                agg["vector_violations"] += 1


@pytest.fixture(scope="session")
def graph_sweep():
    agg = {
        "graphs": 0,
        "calls": 0,
        "decision_mismatches": [],
        "size_mismatches": [],
        "invalid_witnesses": [],
        "internal_nodes": 0,
        "vector_violations": 0,
        "dis_calls": 0,
        "leaf_violations": [],
        "elapsed": 0.0,
    }
    t0 = time.perf_counter()
    for i in range(GRAPH_SWEEP_SIZE):
        rng = random.Random(i)
        n = rng.randint(2, 12)
        m = rng.randint(0, 24)
        g = random_multigraph(n, m, seed=i)
        omin = oracle_min_ifvs(g)
        for k in range(n + 1):
            res = solve_ifvs(g, k, minimize=True, keep_traces=True)
            agg["calls"] += 1
            want_yes = omin is not None and len(omin) <= k
            if (res.status == "yes") != want_yes:
                agg["decision_mismatches"].append((i, k))
                continue
            if want_yes:
                if len(res.solution) != len(omin):
                    agg["size_mismatches"].append((i, k))
                if not check_solution(g, res.solution, k):
                    agg["invalid_witnesses"].append((i, k))
            for rec in res.guesses:
                if rec.trace is None:
                    continue
                _trace_checks(rec.trace, agg)
                if rec.stats.mu0 is not None:
                    agg["dis_calls"] += 1
                    if rec.stats.base_leaves > fib(rec.stats.mu0 + 2):
                        agg["leaf_violations"].append((i, k, rec.z_prime))
        agg["graphs"] += 1
    agg["elapsed"] = time.perf_counter() - t0
    return agg


@pytest.fixture(scope="session")
def dis_sweep():
    agg = {
        "instances": 0,
        "decision_mismatches": [],
        "size_mismatches": [],
        "invalid_witnesses": [],
        "internal_nodes": 0,
        "vector_violations": 0,
        "dis_calls": 0,
        "leaf_violations": [],
        "yes_instances": 0,
        "fixpoint_rejections": [],
        "fixpoint_mu_negative": [],
        "cycle_rank_cuts": [],
        "tight_rejections": [],
    }
    for seed in range(DIS_SWEEP_SIZE):
        inst = random_dis_instance(seed)
        assert len(inst.f_free) <= 14
        want = oracle_disjoint(inst)
        got = solve_disjoint(inst)
        agg["instances"] += 1
        if (got.solution is not None) != (want is not None):
            agg["decision_mismatches"].append(seed)
            continue
        if want is not None:
            if len(got.solution) != len(want):
                agg["size_mismatches"].append(seed)
            sol = got.solution
            rest = inst.graph.vertices - sol
            ok = (
                sol <= inst.f_free
                and len(sol) <= inst.k
                and all(not (inst.graph.neighbors(v) & sol) for v in sol)
                and inst.graph.is_forest(rest)
            )
            if not ok:
                agg["invalid_witnesses"].append(seed)
        _trace_checks(got.trace, agg)
        if got.stats.mu0 is not None:
            agg["dis_calls"] += 1
            if got.stats.base_leaves > fib(got.stats.mu0 + 2):
                agg["leaf_violations"].append(seed)
        if want is not None:
            agg["yes_instances"] += 1
            # neither the cut nor the fixpoint, whose rule 3 checks the
            # floor the cut set after every take, may reject at the
            # tightest budget that fits
            tight = inst.clone()
            tight.k = len(want)
            if cycle_rank_cut(tight):
                agg["cycle_rank_cuts"].append(seed)
            elif reduce_to_fixpoint(tight).rejected:
                agg["tight_rejections"].append(seed)
            red = reduce_to_fixpoint(inst)
            if red.rejected:
                agg["fixpoint_rejections"].append(seed)
            elif measure(inst) < 0:
                agg["fixpoint_mu_negative"].append(seed)
    return agg


def test_criterion_01_solver_matches_oracle_on_graphs(graph_sweep, capsys):
    bad = (
        graph_sweep["decision_mismatches"]
        + graph_sweep["size_mismatches"]
        + graph_sweep["invalid_witnesses"]
    )
    in_time = graph_sweep["elapsed"] <= GRAPH_SWEEP_BUDGET_S
    detail = (
        f"{graph_sweep['graphs']} graphs, {graph_sweep['calls']} solver calls, "
        f"{len(bad)} disagreements, {graph_sweep['elapsed']:.1f}s"
    )
    _report(1, not bad and in_time, detail, capsys)


def test_criterion_02_disjoint_engine_matches_oracle(dis_sweep, capsys):
    bad = (
        dis_sweep["decision_mismatches"]
        + dis_sweep["size_mismatches"]
        + dis_sweep["invalid_witnesses"]
    )
    detail = f"{dis_sweep['instances']} instances, {len(bad)} disagreements"
    _report(2, not bad, detail, capsys)


def test_criterion_03_branching_vector_one_two(graph_sweep, dis_sweep, capsys):
    nodes = graph_sweep["internal_nodes"] + dis_sweep["internal_nodes"]
    bad = graph_sweep["vector_violations"] + dis_sweep["vector_violations"]
    detail = f"{nodes} internal branch nodes checked, {bad} vector violations"
    _report(3, nodes > 0 and bad == 0, detail, capsys)


def test_criterion_04_base_leaves_within_fibonacci_cap(graph_sweep, dis_sweep, capsys):
    calls = graph_sweep["dis_calls"] + dis_sweep["dis_calls"]
    bad = len(graph_sweep["leaf_violations"]) + len(dis_sweep["leaf_violations"])
    detail = f"{calls} solved disjoint calls, {bad} over the Fib(mu0+2) cap"
    _report(4, calls > 0 and bad == 0, detail, capsys)


def test_criterion_05_feasible_fixpoints_have_nonnegative_measure(dis_sweep, capsys):
    wrong = ("fixpoint_rejections", "fixpoint_mu_negative", "cycle_rank_cuts", "tight_rejections")
    bad = sum(len(dis_sweep[key]) for key in wrong)
    rejections = len(dis_sweep["fixpoint_rejections"]) + len(dis_sweep["tight_rejections"])
    detail = (
        f"{dis_sweep['yes_instances']} feasible instances, "
        f"{rejections} wrong rejections, "
        f"{len(dis_sweep['fixpoint_mu_negative'])} negative measures, "
        f"{len(dis_sweep['cycle_rank_cuts'])} cycle-rank cuts at the optimum's size"
    )
    _report(5, dis_sweep["yes_instances"] > 0 and bad == 0, detail, capsys)


def test_criterion_06_rules_preserve_answers_and_measure(capsys):
    applications = 0
    bad = []
    for rule in range(1, 8):
        for seed in range(1000):
            inst = rule_site_instance(rule, seed)
            status, _, out = fire_rule(inst, rule)
            applications += 1
            if status is None:
                bad.append(("inapplicable", rule, seed))
                continue
            before = oracle_disjoint(inst)
            if status == "reject":
                if before is not None:
                    bad.append(("wrong-reject", rule, seed))
                continue
            after = oracle_disjoint(out)
            if (before is None) != (after is None):
                bad.append(("feasibility-flip", rule, seed))
            elif before is not None and len(before) != len(after) + len(out.taken):
                bad.append(("size-drift", rule, seed))
            # the fixpoint reduces its argument, so it gets a clone and inst
            # keeps the measure it started from
            reduced = inst.clone()
            red = reduce_to_fixpoint(reduced)
            if not red.rejected and measure(reduced) > measure(inst):
                bad.append(("measure-up", rule, seed))
    detail = f"7 rules x 1000 sites, {applications} applications, {len(bad)} violations"
    _report(6, not bad, detail, capsys)


def test_criterion_07_parity_routes_agree(monkeypatch, capsys):
    checked = 0
    fallback_checked = 0
    bad = []
    for seed in range(500):
        inst = base_case_instance(seed, max_pairs=12)
        p = build_parity(inst)
        if len(p.pairs) > 12:
            bad.append(("oversized", seed))
            continue
        nu_brute = brute_parity_max(p)
        ref = reference_parity_max(p)
        alg = algebraic_parity_max(p)
        mp = matroid_parity_max(p)
        checked += 1
        if ref.nu != nu_brute:
            bad.append(("reference", seed))
        if alg is not None and alg.nu != nu_brute:
            bad.append(("algebraic", seed))
        if mp.nu != nu_brute or len(mp.kept) != mp.nu:
            bad.append(("combined", seed))
        if not _forest_union(p, mp.kept):
            bad.append(("kept-not-forest", seed))
    with monkeypatch.context() as mp_ctx:
        mp_ctx.setattr(basecase_mod, "REFERENCE_MAX_PAIRS", -1)
        mp_ctx.setattr(basecase_mod, "REFERENCE_MAX_TENTS", -1)
        mp_ctx.setattr(basecase_mod, "algebraic_parity_max", lambda p: None)
        for seed in range(50):
            p = build_parity(base_case_instance(seed, max_pairs=12))
            res = matroid_parity_max(p)
            fallback_checked += 1
            if not res.used_fallback or res.nu != brute_parity_max(p):
                bad.append(("fallback", seed))
    detail = (
        f"{checked} base cases triple-checked, {fallback_checked} forced "
        f"fallbacks, {len(bad)} disagreements"
    )
    _report(7, checked == 500 and not bad, detail, capsys)


def test_criterion_08_subdivision_reduces_to_plain_fvs(capsys):
    pairs = 0
    bad = []
    for i in range(200):
        rng = random.Random(10_000 + i)
        n = rng.randint(2, 10)
        m = rng.randint(0, 2 * n)
        h = random_multigraph(n, m, seed=10_000 + i)
        opt = len(brute_min_fvs(h))
        sub = subdivide_once(h)
        res = solve_ifvs(sub, opt)
        pairs += 1
        if res.status != "yes" or not check_solution(sub, res.solution, opt):
            bad.append(("no-witness", i))
            continue
        if opt > 0 and solve_ifvs(sub, opt - 1).status != "no":
            bad.append(("beats-fvs-optimum", i))
    detail = f"{pairs} graph pairs, {len(bad)} mismatches"
    _report(8, pairs == 200 and not bad, detail, capsys)


def test_criterion_09_planted_scaling_stays_under_bound(capsys):
    ks = list(range(4, 13))
    logs = []
    slow = []
    for k in ks:
        plant = planted_ifvs(60, k, seed=900 + k)
        t0 = time.perf_counter()
        res = solve_ifvs(plant.graph, plant.k)
        dt = time.perf_counter() - t0
        if dt >= 60.0:
            slow.append((k, dt))
        if res.status != "yes":
            slow.append((k, "unsolved"))
        logs.append(math.log(max(res.stats["branch_nodes"], 1)))
    slope = statistics.linear_regression(ks, logs).slope
    limit = math.log(3.619) + 0.1
    ok = not slow and slope <= limit
    detail = f"k=4..12 at n=60, slope {slope:.3f} vs limit {limit:.3f}, {len(slow)} slow/failed runs"
    _report(9, ok, detail, capsys)


def test_criterion_10_growth_base_constant(capsys):
    base = 1 + GOLDEN_RATIO**2
    ok = abs(BOUND_BASE - base) < 1e-12 and base < 3.619
    _report(10, ok, f"1 + phi^2 = {base:.6f} < 3.619", capsys)
