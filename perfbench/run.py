"""Closed-loop benchmark of the ifvs solver.

One process, one op at a time, threads=1: an op parses one pinned instance
and solves it through the public API exactly as ``ifvs solve`` does
(``parse_graph`` then ``solve_ifvs``, or ``parse_dis_instance`` then
``solve_disjoint``), and the next op starts only when the previous one has
returned. Every answer is checked against the manifest outside the timed
region. The op list of a workload comes from ``--seed`` (see manifest.py).

With ``--trace 0`` the ops run in whole passes over the list until
``--seconds`` seconds have gone by, and the end-to-end metrics are printed;
op and set-up times are scaled to a reference machine speed by a probe that
runs between them (see PROBE_REF_MS), and the raw times are printed too.
With ``--trace 1`` every op of the list runs once untraced and once traced,
back to back, and the per-layer metrics of the traced copies are printed;
the tracing overhead is the traced minus the untraced wall time. The last
line of standard output is always one JSON object.

Usage:
    python3 perfbench/run.py --workload parity-batch --seed 1 --seconds 25 --trace 0
"""
from __future__ import annotations

import time

# On a shared 2-core Xeon VM the same solver work ran up to 1.6x slower for
# stretches from tens of milliseconds to minutes, in CPU time as much as in
# wall time (no steal), so raw wall times of whole runs moved by more than
# any bound could allow, and per-op minima moved more. A fixed pure-Python
# probe therefore runs right before and after every timed stretch (each op,
# each set-up), and the stretch's time is scaled by PROBE_REF_MS over the
# mean of those two probe times: figures read as times on a machine where
# the probe takes PROBE_REF_MS. On that VM this cut the variation of one
# op's time across passes from about 0.2 to 0.08 of its mean; probes that
# copy and walk dict-of-set graphs tracked the solver worse. The probe runs
# no solver code, so a change to the solver moves scaled times exactly as
# much as raw ones.
PROBE_N = 10_000
PROBE_REF_MS = 2.5  # about the probe's median time on that VM


def probe() -> float:
    """Seconds for a fixed run of dict and set work, the kind the solver does."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(PROBE_N):
        d[i & 255] = d.get(i & 255, 0) + i
    {i for i in range(PROBE_N) if i & 1}
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from raw to scaled time for a stretch between two probes."""
    return PROBE_REF_MS / (500.0 * (before + after))


_PROBE_BEFORE_SETUP = probe()
_T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import functools
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import manifest as mf  # noqa: E402
from spans import COUNTED, Tracer  # noqa: E402

SETUP_REPEATS = 5  # this process plus four fresh ones; set-up is their median
# Every workload runs about 100 ops or more in run_seconds, so p90 has about
# ten ops beyond it; the count is printed next to it. The percentile is
# fixed rather than the highest one with ten ops beyond: that one follows
# the op count, and one pass more or less moves it from one op of the list
# to another.
TAIL_PCT = 90.0

END_TO_END_UNITS = {
    "solve_ms.p50": "ms",
    "solve_ms.tail": "ms",
    "solved_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- one op ------------------------------------------------------------------


def _direct(name, layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def solve_op(entry: dict, call=_direct):
    """Parse and solve one manifest entry; returns (parsed input, result).

    ``call`` runs each call into the solver, so a tracer can put a span
    around it. Functions are looked up on their modules at call time.
    """
    from ifvs import branching, formats, pipeline

    if entry["mode"] == "disjoint":
        inst = call("formats.parse", "formats", formats.parse_dis_instance, entry["text"])
        return inst, call("branching.solve_disjoint", "branching", branching.solve_disjoint, inst)
    g = call("formats.parse", "formats", formats.parse_graph, entry["text"])
    res = call(
        "pipeline.solve_ifvs", "pipeline", pipeline.solve_ifvs, g, entry["k"],
        minimize=entry["mode"] == "minimize", threads=1,
        keep_traces=call is not _direct,
    )
    return g, res


def _valid_disjoint(inst, sol: set[int]) -> bool:
    g = inst.graph
    return (
        sol <= inst.f_free
        and len(sol) <= inst.k
        and all(not (g.neighbors(v) & sol) for v in sol)
        and g.is_forest(g.vertices - sol)
    )


def check_answer(entry: dict, parsed, res) -> bool:
    """Status against the pinned expectation, size where pinned, and validity."""
    from ifvs import check_solution

    expect = entry["expect"]
    sol = res.solution
    status = "yes" if sol is not None else "no"
    if status != expect["status"]:
        return False
    if sol is None:
        return True
    if expect["size"] is not None and len(sol) != expect["size"]:
        return False
    if entry["mode"] == "disjoint":
        return _valid_disjoint(parsed, sol)
    return check_solution(parsed, sol, entry["k"])


def run_checked(entry: dict, solve=solve_op) -> tuple[float, object, bool]:
    """One timed op plus the untimed answer check: (seconds, result, ok).

    An op that raises counts as failed; its traceback goes to stderr.
    """
    t0 = time.perf_counter()
    try:
        parsed, res = solve(entry)
    except Exception:
        dt = time.perf_counter() - t0
        print(f"op {entry['id']} raised:", file=sys.stderr)
        traceback.print_exc()
        return dt, None, False
    dt = time.perf_counter() - t0
    return dt, res, check_answer(entry, parsed, res)


# -- set-up ------------------------------------------------------------------


def setup(workload: str, seed: int) -> tuple[list[dict], dict]:
    """Import, load the manifest, pick the op list, warm up on its smallest op.

    Returns the op list and this process's set-up time, raw and scaled.
    """
    mf.import_solver()
    ops = mf.op_list(mf.load_manifest(), workload, seed)
    warm = min(ops, key=lambda e: (len(e["text"]), e["id"]))
    _, _, ok = run_checked(warm)
    if not ok:
        raise SystemExit(f"perfbench: warm-up op {warm['id']} failed")
    raw = time.perf_counter() - _T_START
    return ops, {"raw": raw, "scaled": raw * scale(_PROBE_BEFORE_SETUP, probe())}


def setup_seconds(workload: str, seed: int, own: dict) -> tuple[float, float]:
    """Median scaled and raw set-up time over this process and fresh ones."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return (statistics.median(t["scaled"] for t in times),
            statistics.median(t["raw"] for t in times))


# -- end-to-end run ----------------------------------------------------------


def tail(times_ms: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PCT percentile and the number of ops above it."""
    s = sorted(times_ms)
    rank = max(1, math.ceil(TAIL_PCT / 100.0 * len(s)))
    return s[rank - 1], len(s) - rank


def run_timed(ops: list[dict], seconds: float) -> dict:
    """Whole passes over the op list until ``seconds`` have gone by.

    Stopping only between passes keeps the op mix of every run the same.
    The probe runs between ops, outside their timing, and each op time is
    kept raw and scaled by the probes on either side of it.
    """
    raw, scaled, failed = [], [], 0
    start = time.perf_counter()
    before = probe()
    while True:
        for e in ops:
            dt, _, ok = run_checked(e)
            after = probe()
            raw.append(1000.0 * dt)
            scaled.append(1000.0 * dt * scale(before, after))
            before = after
            failed += not ok
        if time.perf_counter() - start >= seconds:
            return {"raw_ms": raw, "scaled_ms": scaled, "attempted": len(raw),
                    "failed": failed}


def end_to_end(run: dict, setup_s: tuple[float, float]) -> tuple[dict, list[str]]:
    """End-to-end metrics of a timed run, and their printed lines.

    ``setup_s`` is the (scaled, raw) set-up time. Every time metric is taken
    over the scaled op times of the whole run: p50 is their median, tail
    their TAIL_PCT percentile, and solved_per_s the ops that passed over
    their summed time. The raw wall-time figures are printed next to them.
    """
    times, raw = run["scaled_ms"], run["raw_ms"]
    value, beyond = tail(times)
    passed = run["attempted"] - run["failed"]
    metrics = {
        "solve_ms.p50": statistics.median(times),
        "solve_ms.tail": value,
        "solved_per_s": 1000.0 * passed / sum(times),
        "setup_s": setup_s[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "solve_ms.p50": f"median of {len(times)} ops; raw {statistics.median(raw):.4f}",
        "solve_ms.tail": f"p{TAIL_PCT:g} of {len(times)} ops, {beyond} beyond;"
                         f" raw {tail(raw)[0]:.4f}",
        "solved_per_s": f"{passed} ops passed / their summed time;"
                        f" raw {1000.0 * passed / sum(raw):.4f}",
        "setup_s": f"median of {SETUP_REPEATS} set-ups; raw {setup_s[1]:.4f}",
        "peak_rss_mb": "high-water RSS of this process",
    }
    lines = [
        f"{name:<16} {v:12.4f} {END_TO_END_UNITS[name]:<4} ({notes[name]})"
        for name, v in metrics.items()
    ]
    frac = run["failed"] / run["attempted"]
    lines.append(f"{'failed_frac':<16} {frac:12.4f} {'':<4} ({run['failed']} of {run['attempted']} ops)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


# -- traced run --------------------------------------------------------------

@functools.cache
def per_layer_metrics() -> tuple[tuple[str, str], ...]:
    """(metric, unit) in the order of the printed table, from the one list
    that defines them: BENCHMARK.json's per_layer."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple((m["name"], m["unit"]) for m in spec["per_layer"])


@functools.cache
def layer_names() -> tuple[str, ...]:
    """The solver's layers in the order that layers.json lists them."""
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    return tuple(entry["layer"] for entry in layers)


def traced_pass(ops: list[dict]):
    """Run each op untraced, then traced: (tracer, results, failed, untraced_s).

    Running the two copies of an op back to back keeps slow drift of the
    machine out of the overhead estimate.
    """
    tracer = Tracer()
    results, failed, untraced_s = [], 0, 0.0
    for e in ops:
        dt, _, ok = run_checked(e)
        untraced_s += dt
        failed += not ok
        with tracer:
            _, res, ok = run_checked(e, lambda e: tracer.op(solve_op, e, tracer.span))
        failed += not ok
        if res is not None:
            results.append(res)
    return tracer, results, failed, untraced_s


def per_layer(tracer, results: list, untraced_s: float) -> dict[str, float]:
    """Per-layer totals over one traced pass of the op list."""
    c = tracer.counts
    pipeline_results = [r for r in results if hasattr(r, "guesses")]
    guesses = [g for r in pipeline_results for g in r.guesses]
    for root in [g.trace for g in guesses if g.trace is not None] + [
        r.trace for r in results if not hasattr(r, "guesses")
    ]:
        tracer.count_tree(root)
    tried = sum(r.stats["guesses_tried"] for r in pipeline_results)
    yes = sum(1 for g in guesses if g.status == "yes")
    leaves = c["branching.base_leaves"] + c["branching.reject_leaves"]
    wall = sum(tracer.op_walls)
    m = {
        "formats.parse_ms": tracer.layer_ms("formats"),
        "pipeline.self_ms": tracer.layer_ms("pipeline"),
        "pipeline.verify_ms": tracer.self_ms("pipeline.check_solution"),
        "pipeline.guesses": len(guesses),
        "pipeline.guesses_tried": tried,
        "pipeline.guesses_skipped": sum(1 for g in guesses if g.status == "skipped"),
        "pipeline.guess_yield": yes / tried if tried else 0.0,
        "fvs.min_fvs_ms": tracer.layer_ms("fvs"),
        "fvs.size": sum(r.stats["fvs_size"] or 0 for r in pipeline_results),
        "branching.self_ms": tracer.layer_ms("branching"),
        "branching.select_pivot_ms": tracer.self_ms("branching.select_pivot"),
        "branching.reject_share": c["branching.reject_leaves"] / leaves if leaves else 0.0,
        "reductions.fixpoint_ms": tracer.layer_ms("reductions"),
        "reductions.fixpoint_calls": tracer.calls["reductions.fixpoint"],
        "reductions.rejects": c["reductions.fires.r3"] + c["reductions.fires.r4"],
        "instance.measure_calls": tracer.calls["instance.measure"],
        "instance.measure_ms": tracer.self_ms("instance.measure"),
        "instance.classification_calls": tracer.calls["instance.classification"],
        "instance.classification_ms": tracer.self_ms("instance.classification"),
        "multigraph.copy_calls": tracer.calls["multigraph.copy"],
        "multigraph.copy_ms": tracer.self_ms("multigraph.copy"),
        "multigraph.components_calls": tracer.calls["multigraph.components"],
        "multigraph.components_ms": tracer.self_ms("multigraph.components"),
        "basecase.solve_base_calls": tracer.calls["basecase.solve_base"],
        "basecase.solve_base_ms": tracer.self_ms("basecase.solve_base"),
        "basecase.build_ms": tracer.self_ms("basecase.build_parity"),
        "basecase.algebraic_ms": tracer.self_ms("basecase.algebraic"),
        "basecase.reference_ms": tracer.self_ms("basecase.reference"),
        "trace.ops": len(tracer.op_walls),
        "trace.wall_ms": 1000.0 * wall,
        "trace.untraced_wall_ms": 1000.0 * untraced_s,
        "trace.overhead_ms": 1000.0 * (wall - untraced_s),
    }
    m.update((name, c[name]) for name in COUNTED)
    return m


def run_traced(ops: list[dict]) -> tuple[dict, list[str], int, int]:
    tracer, results, failed, untraced_s = traced_pass(ops)
    m = per_layer(tracer, results, untraced_s)
    wall_ms = m["trace.wall_ms"]
    lines = [
        f"{name:<32} {m[name]:14.4f} {unit}" for name, unit in per_layer_metrics()
    ]
    lines.append("self-time share of traced wall:")
    for layer in layer_names():
        lines.append(f"  {layer:<12} {100.0 * tracer.layer_ms(layer) / wall_ms:6.2f}%")
    lines.append(f"  {'op glue':<12} {100.0 * tracer.layer_ms('op') / wall_ms:6.2f}%")
    metrics = {k: {"value": m[k], "unit": unit} for k, unit in per_layer_metrics()}
    return metrics, lines, 2 * len(ops), failed


# -- command line ------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(mf.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and exit (used to repeat set-up)")
    args = ap.parse_args(argv)

    ops, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps(own_setup))
        return 0
    print(f"workload {args.workload}  seed {args.seed}  ops in list {len(ops)}"
          f"  closed loop, 1 process, threads=1")
    if args.trace:
        metrics, lines, attempted, failed = run_traced(ops)
    else:
        setup_s = setup_seconds(args.workload, args.seed, own_setup)
        run = run_timed(ops, args.seconds)
        metrics, lines = end_to_end(run, setup_s)
        attempted, failed = run["attempted"], run["failed"]
    for line in lines:
        print(f"{args.workload:<20} {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
