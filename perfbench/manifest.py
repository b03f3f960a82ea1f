"""Pinned instance pools for the solver benchmark, and the per-seed op lists.

Every workload owns two pools of pinned instances: ``dev``, which every
ordinary ``--seed`` draws from, and ``holdout``, which only the held-out
seed uses, so that a claimed speed-up can be re-checked on instances that
nobody tuned against. Each pool entry records the generator, its seed and
parameters, the solve mode, the budget k, the expected answer (status, plus
the size where the answer pins it) and the instance text that the op parses.

The expected answers are computed and cross-checked once, when the manifest
is written, so a timed run never calls an oracle:

- planted-ladder: the planted set is an independent witness of size k and
  k vertex-disjoint triangles force every FVS to size k, so k answers
  "yes" and k - 1 answers "no"; the solver must agree on both.
- random-threshold: opt is the solver's minimum, and the decisions at opt
  ("yes") and opt - 1 ("no") must agree with it.
- subdivided-minimize: the minimum must equal the plain minimum FVS of the
  base graph (the criterion-8 identity), taken from the brute-force oracle
  and from ``min_fvs``, which must agree.
- parity-batch: opt is the pair count minus ``reference_parity_max``; the
  disjoint engine must answer "yes" with size opt at k = opt and "no" at
  k = opt - 1.

Usage:
    python3 perfbench/manifest.py --write   # regenerate manifest.json
    python3 perfbench/manifest.py --check   # regenerate and compare bytes
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST_PATH = HERE / "manifest.json"
HOLDOUT_SEED = 104729  # the one seed reserved for confirming later claims


def import_solver():
    """Import the ifvs package from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "ifvs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no solver sources at {src / 'ifvs'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ifvs

    if Path(ifvs.__file__).resolve().parent != (src / "ifvs").resolve():
        raise SystemExit(f"perfbench: imported ifvs from {ifvs.__file__}, not {src}")
    return ifvs


# -- workload shapes ---------------------------------------------------------
#
# A stratum is one cell of a workload's input grid, and a pool holds
# POOL_SIZE[pool] graphs per stratum. Generator seeds are derived from
# (pool, stratum index, position), so the two pools never share a graph.

POOL_SIZE = {"dev": 4, "holdout": 2}
_POOL_BASE = {"dev": 0, "holdout": 500_000}

# Three rungs, so the median op sits inside the middle rung instead of in
# the gap between two. n=400 ops take 1.2-1.4 s each on a 2-core Xeon, too
# few per run for a tail percentile, so the ladder stops at n=200.
PLANTED_RUNGS = ((100, (4, 5, 6, 7)), (150, (5, 6, 7, 8)), (200, (6, 7, 8, 9)))
RANDOM_SIZES = (32, 36, 40)
SUBDIVIDED_SIZES = (12, 14, 16)
# (pairs, tent share): both sides of PARITY_XCHECK_MAX_PAIRS = 20, low and
# high tent shares where the reference route stays cheap enough to verify
PARITY_SHAPES = ((12, 0.2), (18, 0.6), (30, 0.25))


def _gen_seed(pool: str, stratum: int, i: int, attempt: int = 0) -> int:
    return _POOL_BASE[pool] + 10_000 * stratum + 100 * i + attempt


def parity_base_case(seed: int, npairs: int, tent_share: float):
    """Base-case disjoint instance with as many W-components as pairs.

    Same construction as ``ifvs.generators.base_case_instance``: W is a set
    of small random trees, and every nice vertex (two links) or tent (three
    links) wires into pairwise distinct components, so the reduction rules
    stay quiet and the engine goes straight to the parity base case. That
    generator caps W at six components, which makes large pair counts die
    at rule 3; here the component count grows with the pair count. The
    budget is left at 0 and set by the caller.
    """
    from ifvs.instance import DisInstance
    from ifvs.multigraph import MultiGraph

    rng = random.Random(seed)
    ncomp = max(3, npairs)
    g = MultiGraph()
    comps: list[list[int]] = []
    nxt = 0
    for _ in range(ncomp):
        size = rng.randint(1, 3)
        verts = list(range(nxt, nxt + size))
        nxt += size
        for v in verts:
            g.add_vertex(v)
        for i, v in enumerate(verts[1:], start=1):
            g.add_edge(rng.choice(verts[:i]), v)
        comps.append(verts)
    w = set(range(nxt))
    for _ in range(npairs):
        chosen = rng.sample(range(ncomp), 3 if rng.random() < tent_share else 2)
        v = g.add_vertex(nxt)
        nxt += 1
        for ci in chosen:
            g.add_edge(v, rng.choice(comps[ci]))
    return DisInstance(g, w, set(), 0)


def _entry(eid, stratum, generator, params, mode, k, status, size, text):
    return {
        "id": eid,
        "stratum": stratum,
        "generator": generator,
        "params": params,
        "mode": mode,
        "k": k,
        "expect": {"status": status, "size": size},
        "text": text,
    }


def _fail(msg: str):
    raise AssertionError(f"manifest cross-check failed: {msg}")


def _planted(pool: str) -> list[dict]:
    from ifvs import check_solution, solve_ifvs
    from ifvs.formats import emit_graph
    from ifvs.generators import planted_ifvs

    out = []
    for si, (n, ks) in enumerate(PLANTED_RUNGS):
        for i in range(POOL_SIZE[pool]):
            seed, k = _gen_seed(pool, si, i), ks[i % len(ks)]
            pw = planted_ifvs(n, k, seed)
            if not check_solution(pw.graph, set(pw.witness), k):
                _fail(f"planted witness n={n} seed={seed}")
            if solve_ifvs(pw.graph, k).status != "yes":
                _fail(f"planted n={n} seed={seed} k={k} not yes")
            if solve_ifvs(pw.graph, k - 1).status != "no":
                _fail(f"planted n={n} seed={seed} k={k - 1} not no")
            text = emit_graph(pw.graph, [f"planted n={n} k={k} seed={seed}"])
            out.append(_entry(
                f"planted-n{n}-s{seed}", f"n{n}", "planted_ifvs",
                {"n": n, "k": k, "seed": seed}, "decide", k, "yes", None, text,
            ))
    return out


def _random(pool: str) -> list[dict]:
    from ifvs import solve_ifvs
    from ifvs.formats import emit_graph
    from ifvs.generators import random_multigraph

    out = []
    for si, n in enumerate(RANDOM_SIZES):
        m = int(1.6 * n)
        for i in range(POOL_SIZE[pool]):
            # a graph without any independent FVS, or with opt 0, has no
            # "no" side; the next attempt seed replaces it
            for attempt in range(100):
                seed = _gen_seed(pool, si, i, attempt)
                g = random_multigraph(n, m, seed, loops=False, multi=False)
                best = solve_ifvs(g, n, minimize=True)
                if best.status == "yes" and best.solution:
                    break
            else:
                _fail(f"no usable random graph n={n} i={i}")
            opt = len(best.solution)
            if solve_ifvs(g, opt).status != "yes":
                _fail(f"random n={n} seed={seed}: k=opt not yes")
            if solve_ifvs(g, opt - 1).status != "no":
                _fail(f"random n={n} seed={seed}: k=opt-1 not no")
            params = {"n": n, "m": m, "seed": seed, "loops": False, "multi": False}
            text = emit_graph(g, [f"random n={n} m={m} seed={seed} opt={opt}"])
            for k, status in ((opt, "yes"), (opt - 1, "no")):
                out.append(_entry(
                    f"random-n{n}-s{seed}-k{k}", f"n{n}", "random_multigraph",
                    params, "decide", k, status, None, text,
                ))
    return out


def _subdivided(pool: str) -> list[dict]:
    from ifvs import brute_min_fvs, min_fvs, solve_ifvs, subdivide_once
    from ifvs.formats import emit_graph
    from ifvs.generators import random_multigraph

    out = []
    for si, n in enumerate(SUBDIVIDED_SIZES):
        m = int(1.5 * n)
        for i in range(POOL_SIZE[pool]):
            seed = _gen_seed(pool, si, i)
            base = random_multigraph(n, m, seed)
            fvs = len(brute_min_fvs(base))
            if len(min_fvs(base)) != fvs:
                _fail(f"min_fvs disagrees with brute force n={n} seed={seed}")
            g = subdivide_once(base)
            res = solve_ifvs(g, len(g), minimize=True)
            if res.status != "yes" or len(res.solution) != fvs:
                _fail(f"criterion-8 identity fails n={n} seed={seed}")
            text = emit_graph(g, [f"subdivided base n={n} m={m} seed={seed} fvs={fvs}"])
            out.append(_entry(
                f"subdivided-n{n}-s{seed}", f"n{n}", "subdivide_once(random_multigraph)",
                {"n": n, "m": m, "seed": seed}, "minimize", len(g), "yes", fvs, text,
            ))
    return out


def _parity(pool: str) -> list[dict]:
    from ifvs import build_parity, reference_parity_max, solve_disjoint
    from ifvs.formats import emit_dis
    from ifvs.instance import DisInstance

    out = []
    for si, (npairs, share) in enumerate(PARITY_SHAPES):
        for i in range(POOL_SIZE[pool]):
            seed = _gen_seed(pool, si, i)
            inst = parity_base_case(seed, npairs, share)
            parity = build_parity(inst)
            opt = npairs - reference_parity_max(parity).nu
            if opt < 1:
                _fail(f"parity seed={seed} has opt {opt}, no 'no' side")
            tents = sum(1 for p in parity.pairs if not p.serial)
            params = {"pairs": npairs, "tent_share": share, "seed": seed, "tents": tents}
            for k, status in ((opt, "yes"), (opt - 1, "no")):
                sized = DisInstance(inst.graph, inst.w, inst.r, k)
                res = solve_disjoint(sized)
                got = "yes" if res.feasible else "no"
                if got != status or (res.feasible and len(res.solution) != opt):
                    _fail(f"parity seed={seed} k={k}: engine says {got}")
                text = emit_dis(sized, [f"parity pairs={npairs} tents={tents} seed={seed} opt={opt}"])
                out.append(_entry(
                    f"parity-p{npairs}-s{seed}-k{k}", f"p{npairs}-t{share}",
                    "parity_base_case", params, "disjoint", k, status,
                    opt if status == "yes" else None, text,
                ))
    return out


BUILDERS = {
    "planted-ladder": _planted,
    "random-threshold": _random,
    "subdivided-minimize": _subdivided,
    "parity-batch": _parity,
}


def build_manifest() -> dict:
    import_solver()
    workloads = {}
    for name, build in BUILDERS.items():
        workloads[name] = {pool: build(pool) for pool in POOL_SIZE}
        print(f"manifest: {name} built", file=sys.stderr)
    return {"holdout_seed": HOLDOUT_SEED, "workloads": workloads}


def dump(manifest: dict) -> str:
    return json.dumps(manifest, indent=1, sort_keys=True) + "\n"


def load_manifest(path: Path = MANIFEST_PATH) -> dict:
    return json.loads(path.read_text())


def op_list(manifest: dict, workload: str, seed: int) -> list[dict]:
    """The seed's op list: the whole pool, in an order fixed by the seed.

    Every seed runs every graph of its pool, so two seeds differ only in op
    order and a run's op mix does not depend on the seed. Graphs are
    shuffled within each stratum and the strata interleaved, so every prefix
    of the list keeps the workload's mix. Ops that share a graph (the two
    budgets of one random or parity graph) stay together, in pinned order.
    """
    pool = "holdout" if seed == manifest["holdout_seed"] else "dev"
    rng = random.Random(f"{workload}/{seed}")
    strata: dict[str, dict[str, list[dict]]] = {}
    for e in manifest["workloads"][workload][pool]:
        graph_key = json.dumps(e["params"], sort_keys=True)
        strata.setdefault(e["stratum"], {}).setdefault(graph_key, []).append(e)
    columns = []
    for stratum in sorted(strata):
        graphs = [strata[stratum][key] for key in sorted(strata[stratum])]
        rng.shuffle(graphs)
        columns.append(graphs)
    ops = []
    for row in zip(*columns):
        for graph_ops in row:
            ops.extend(graph_ops)
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", action="store_true", help="rebuild manifest.json")
    group.add_argument("--check", action="store_true", help="rebuild and compare bytes")
    args = ap.parse_args(argv)
    text = dump(build_manifest())
    if args.write:
        MANIFEST_PATH.write_text(text)
        return 0
    same = MANIFEST_PATH.is_file() and MANIFEST_PATH.read_text() == text
    print("manifest matches" if same else "manifest differs from a fresh build")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
