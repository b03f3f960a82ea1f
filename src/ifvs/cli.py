"""Command line front end.

Subcommands: solve, oracle, gen, verify, bench. Exit codes are shared by
all of them: 0 answer yes or operation fine, 1 answer no or verification
failed, 2 malformed input, 3 internal error: a failed self-check or any
other unexpected exception, so a crash never reads as a "no".
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from pathlib import Path

from .branching import BranchNode, search_disjoint
from .formats import (
    ParseError,
    emit_dis,
    emit_graph,
    graph_comment_value,
    parse_dis_instance,
    parse_graph,
    parse_solution,
)
from .generators import (
    GADGETS,
    GEN_KINDS,
    base_case_instance,
    planted_ifvs,
    random_multigraph,
)
from .instance import DisInstance, InstanceError, InternalSolverError, check_solution
from .oracle import OracleGuardError, oracle_disjoint, oracle_ifvs, oracle_min_ifvs
from .pipeline import leaf_bound, solve_ifvs, subdivide_once


def _read(path: str) -> str:
    return Path(path).read_text()


def _is_dis_file(text: str) -> bool:
    for raw in text.splitlines():
        tok = raw.split()  # on any whitespace, as the parser splits
        if tok[:1] == ["p"]:
            return tok[1:2] == ["disifvs"]
    return False


def _result_json(status: str, solution: set[int] | None, stats: dict) -> str:
    # key order is part of the output contract
    payload = {
        "status": status,
        "solution": sorted(v + 1 for v in solution) if solution is not None else None,
        "size": len(solution) if solution is not None else None,
        "stats": {
            "fvs_size": stats.get("fvs_size"),
            "guesses_tried": stats.get("guesses_tried"),
            "branch_nodes": stats.get("branch_nodes"),
            "max_mu": stats.get("max_mu"),
        },
    }
    return json.dumps(payload)


def _print_result(status: str, solution: set[int] | None, stats: dict, as_json: bool):
    if as_json:
        print(_result_json(status, solution, stats))
        return
    print(f"status: {status}")
    if solution is not None:
        print(f"size: {len(solution)}")
        print("solution:", " ".join(str(v + 1) for v in sorted(solution)))


def _node_records(node: BranchNode, guess: int, path: str = ""):
    rec = {
        "guess": guess,
        "path": path,
        "kind": node.kind,
        "mu": node.mu,
        "pivot": None if node.pivot is None else node.pivot + 1,
        "case": node.case,
        "answer": node.answer,
        "reductions": [
            {
                "rule": ev.rule,
                "pivot": None if ev.pivot is None else ev.pivot + 1,
                "mu_before": ev.mu_before,
                "mu_after": ev.mu_after,
            }
            for ev in node.reductions
        ],
    }
    yield rec
    for label, child in node.children:
        yield from _node_records(child, guess, f"{path}/{label}")


def _write_trace(path: str, traces: list[BranchNode | None]):
    with open(path, "w") as fh:
        for i, trace in enumerate(traces):
            if trace is None:
                continue
            for rec in _node_records(trace, i):
                fh.write(json.dumps(rec) + "\n")


def _dis_instance(text: str, k: int | None) -> DisInstance:
    """Parse a .dis file; --k, when given, replaces its budget."""
    inst = parse_dis_instance(text)
    if k is not None:
        inst = DisInstance(inst.graph, inst.w, inst.r, k)
    return inst


def _cmd_solve(args) -> int:
    text = _read(args.input)
    if _is_dis_file(text):
        if args.fvs:
            raise ParseError("--fvs applies to graph input only")
        res = search_disjoint(_dis_instance(text, args.k), bool(args.trace))
        status = "yes" if res.solution is not None else "no"
        stats = {"branch_nodes": res.stats.nodes, "max_mu": res.stats.mu0}
        if args.trace:
            _write_trace(args.trace, [res.trace])
        _print_result(status, res.solution, stats, args.json)
        return 0 if res.solution is not None else 1
    g = parse_graph(text)
    if args.k is None:
        raise ParseError("graph input needs --k")
    override = None
    if args.fvs:
        override = parse_solution(_read(args.fvs), len(g))
    res = solve_ifvs(
        g,
        args.k,
        minimize=args.minimize,
        fvs_override=override,
        keep_traces=bool(args.trace),
    )
    if args.trace:
        _write_trace(args.trace, [rec.trace for rec in res.guesses])
    _print_result(res.status, res.solution, res.stats, args.json)
    return 0 if res.status == "yes" else 1


def _cmd_oracle(args) -> int:
    text = _read(args.input)
    if _is_dis_file(text):
        sol = oracle_disjoint(_dis_instance(text, args.k))
        _print_result("yes" if sol is not None else "no", sol, {}, args.json)
        return 0 if sol is not None else 1
    g = parse_graph(text)
    if args.minimize:
        sol = oracle_min_ifvs(g)
        if sol is not None and args.k is not None and len(sol) > args.k:
            sol = None
    else:
        if args.k is None:
            raise ParseError("graph input needs --k")
        sol = oracle_ifvs(g, args.k)
    _print_result("yes" if sol is not None else "no", sol, {}, args.json)
    return 0 if sol is not None else 1


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "random":
        g = random_multigraph(args.n, args.m, args.seed)
        out = emit_graph(g, [f"seed {args.seed}"])
    elif kind == "planted":
        if args.k is None:
            raise ParseError("planted needs --k")
        pw = planted_ifvs(args.n, args.k, args.seed)
        witness = " ".join(str(v + 1) for v in sorted(pw.witness))
        out = emit_graph(pw.graph, [f"seed {args.seed}", f"k {pw.k}", f"witness {witness}"])
    elif kind == "subdivided":
        g = subdivide_once(random_multigraph(args.n, args.m, args.seed))
        out = emit_graph(g, [f"seed {args.seed}"])
    elif kind == "base-case":
        inst = base_case_instance(args.seed)
        out = emit_dis(inst, [f"seed {args.seed}"])
    elif kind == "gadget":
        if args.n not in GADGETS:
            raise ParseError(f"gadget scenario must be one of {sorted(GADGETS)}")
        inst, site = GADGETS[args.n]()
        out = emit_dis(inst, [f"scenario {args.n}", f"site {site + 1}"])
    else:
        raise ParseError(f"unknown kind {kind!r}")
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.input))
    sol = parse_solution(_read(args.solution), len(g))
    ok = check_solution(g, sol, args.k)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    suite = sorted(p for p in Path(args.suite).iterdir() if p.is_file())
    if not suite:
        raise ParseError(f"no instance files in {args.suite}")
    writer = csv.writer(args.out_fh, lineterminator="\n")
    writer.writerow(
        [
            "instance", "n", "m", "k", "fvs_size", "mu0",
            "branch_nodes", "leaves", "fib_bound", "time_ms", "status",
        ]
    )
    for path in suite:
        try:
            text = path.read_text()
            g = parse_graph(text)
            from_comment = graph_comment_value(text, "k")
            if from_comment is not None:
                k = int(from_comment)
            elif args.k is not None:
                k = args.k
            else:
                raise ParseError("no 'c k' comment and no --k")
            if k < 0:
                raise ParseError("budget must be nonnegative")
        except ValueError as exc:  # a ParseError, a bad 'c k' or undecodable bytes
            raise ParseError(f"{path.name}: {exc}") from exc
        t0 = time.perf_counter()
        res = solve_ifvs(g, k, minimize=args.minimize)
        dt = (time.perf_counter() - t0) * 1000.0
        mu0 = res.stats["max_mu"]
        writer.writerow(
            [
                path.name,
                len(g),
                g.num_edges,
                k,
                res.stats["fvs_size"],
                mu0,
                res.stats["branch_nodes"],
                res.stats["base_leaves_max"],
                None if mu0 is None else leaf_bound(mu0),
                f"{dt:.2f}",
                res.status,
            ]
        )
        args.out_fh.flush()
    return 0


def _bench_to_file(args) -> int:
    """Run bench into a file beside --out, moved onto it once the run is
    done; a run that fails leaves no partial CSV and an old --out as it was."""
    target = Path(args.out)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            args.out_fh = fh
            code = args.fn(args)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ifvs", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the branch and reduce solver")
    solve.add_argument("--input", required=True)
    solve.add_argument("--k", type=int, default=None)
    solve.add_argument("--minimize", action="store_true")
    solve.add_argument("--trace", default=None, help="write branch tree as JSON lines")
    solve.add_argument("--fvs", default=None, help="file with an external feedback vertex set")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(fn=_cmd_solve)

    oracle = sub.add_parser("oracle", help="brute force reference answer")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--k", type=int, default=None)
    oracle.add_argument("--minimize", action="store_true")
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(fn=_cmd_oracle)

    gen = sub.add_parser("gen", help="write a generated instance")
    gen.add_argument("--kind", required=True, choices=GEN_KINDS)
    gen.add_argument("--n", type=int, default=8, help="size, or scenario id for gadgets")
    gen.add_argument("--m", type=int, default=12)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(fn=_cmd_gen)

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("--input", required=True)
    verify.add_argument("--solution", required=True)
    verify.add_argument("--k", type=int, required=True)
    verify.set_defaults(fn=_cmd_verify)

    bench = sub.add_parser("bench", help="solve a directory of instances, write CSV")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--out", default=None, help="CSV path, stdout when omitted")
    bench.add_argument("--k", type=int, default=None, help="budget fallback for files without a 'c k' comment")
    bench.add_argument("--minimize", action="store_true")
    bench.set_defaults(fn=_cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # every subcommand takes --k, and a negative budget is bad input
        if args.k is not None and args.k < 0:
            raise ParseError("budget must be nonnegative")
        if args.command == "bench":
            if args.out:
                return _bench_to_file(args)
            args.out_fh = sys.stdout
        return args.fn(args)
    except (ParseError, InstanceError, OracleGuardError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalSolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
