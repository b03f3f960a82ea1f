"""Print one sha256 digest per case of the solver's answers and traces.

A fixed corpus is written to a temporary directory and each case runs
through ``ifvs solve --json --trace``. Each case prints one ``name sha256``
line, hashed over the exit code, the printed answer and the trace file, so
a change that keeps every answer, every measure and every reduction event
prints the same lines. The corpus holds every gadget scenario, a rule site
per rule, base-case leaves, planted and random graphs decided at the
optimum and one below it and minimized, subdivided graphs minimized, and
compression guesses whose engine trees have 20 nodes or more. Stderr names
the rules that fired and the pivot cases that occurred.

tests/trace_digests.txt holds the expected lines; the test suite and CI
diff this script's output against it.

Usage:
    python scripts/trace_digest.py > digests.txt
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from itertools import chain, combinations
from pathlib import Path

from ifvs.cli import main as cli_main
from ifvs.formats import emit_dis, emit_graph
from ifvs.fvs import min_fvs
from ifvs.generators import (
    GADGETS,
    base_case_instance,
    planted_ifvs,
    random_multigraph,
    rule_site_instance,
)
from ifvs.instance import DisInstance
from ifvs.pipeline import subdivide_once


def deep_guesses(extra: int):
    """The guesses with |Z'| <= 2 that pass solve_ifvs's skip tests for a
    sparse random graph at budget |Z| + extra, made with the instance's own
    moves on the unpeeled graph. They are not the instances solve_ifvs
    builds: it builds each guess on the 2-core of G - Z', so without the
    vertices of degree at most one outside Z (here 1, 10, 23 and 29) and
    without those that Z' leaves on no cycle, all of which these leave for
    rule 1."""
    g = random_multigraph(40, 64, 0, loops=False, multi=False)
    z = min_fvs(g)
    root = DisInstance(g, set(), set(), len(z) + extra, validate=False)
    for z_prime in chain.from_iterable(combinations(sorted(z), size) for size in range(3)):
        w = z.difference(z_prime)
        if not g.is_forest(w) or any(g.neighbors(v) & set(z_prime) for v in z_prime):
            continue
        inst = root.clone()
        for v in z_prime:
            inst.take(v)
        for v in sorted(w):
            inst.protect(v)
        yield z_prime, inst


def solve(path: Path, text: str, args=()) -> tuple[str, dict, bytes]:
    """Digest, answer and trace of ``ifvs solve --json --trace`` on text,
    written to path; the digest covers the exit code, stdout and trace."""
    trace = path.with_suffix(".trace")
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["solve", "--input", str(path), "--json", "--trace", str(trace), *args])
    trace_bytes = trace.read_bytes()
    digest = hashlib.sha256(b"\0".join((str(code).encode(), out.getvalue().encode(), trace_bytes)))
    return digest.hexdigest(), json.loads(out.getvalue()), trace_bytes


def main() -> int:
    dis_cases = [(f"gadget-{i}", emit_dis(GADGETS[i]()[0])) for i in sorted(GADGETS)]
    # seeds whose rule site reaches its rule first; on a rule-3 site the
    # engine's cycle-rank cut rejects before any rule runs, so none is kept
    for rule, seeds in ((1, (3, 12)), (2, (4, 14)), (4, (0, 5)), (5, (0, 11)), (6, (0, 1)), (7, (0, 1))):
        dis_cases += [(f"rule{rule}-s{seed}", emit_dis(rule_site_instance(rule, seed))) for seed in seeds]
    dis_cases += [(f"base-s{seed}", emit_dis(base_case_instance(seed))) for seed in (0, 3, 7)]
    graphs = [
        ("planted-s1", planted_ifvs(40, 6, 1).graph),
        ("random-s2", random_multigraph(14, 24, 2)),  # no independent FVS at all
        ("random-s5", random_multigraph(14, 24, 5)),
        ("random-s0", random_multigraph(18, 28, 0, loops=False, multi=False)),
        ("random-s1", random_multigraph(30, 48, 1, loops=False, multi=False)),
    ] + [
        (f"subdivided-s{seed}", subdivide_once(random_multigraph(8, 12, seed, loops=False, multi=False)))
        for seed in (0, 4)
    ]

    rules, cases = set(), set()
    with tempfile.TemporaryDirectory() as tmp:

        def show(name: str, digest: str, trace: bytes) -> None:
            print(name, digest)
            for line in trace.splitlines():
                rec = json.loads(line)
                cases.add(rec["case"])
                rules.update(ev["rule"] for ev in rec["reductions"])

        for name, text in dis_cases:
            digest, _, trace = solve(Path(tmp, name + ".dis"), text)
            show(name, digest, trace)
        # each graph is minimized; the plain ones are also decided at the
        # optimum and one below it
        for name, g in graphs:
            text = emit_graph(g)
            digest, answer, trace = solve(Path(tmp, name + ".gr"), text, ("--minimize", "--k", str(len(g))))
            show(name + "-min", digest, trace)
            if answer["size"] is None or name.startswith("subdivided"):
                continue
            for k in (answer["size"], answer["size"] - 1):
                digest, _, trace = solve(Path(tmp, name + ".gr"), text, ("--k", str(k)))
                show(f"{name}-k{k}", digest, trace)
        # the pipeline's guesses of a sparse random graph whose engine tree
        # has 20 nodes or more, at budgets |Z| + 1 and |Z| + 2; seeds 1 and
        # 2 of random_multigraph(n, 1.6n) at n = 41 and 42 grow no such tree
        for extra in (1, 2):
            for z_prime, inst in deep_guesses(extra):
                name = f"deep-z+{extra}-" + ("-".join(str(v + 1) for v in z_prime) or "none")
                digest, answer, trace = solve(Path(tmp, name + ".dis"), emit_dis(inst))
                if answer["stats"]["branch_nodes"] >= 20:
                    show(name, digest, trace)
    cases.discard(None)
    print("rules fired:", *sorted(rules), "- pivot cases:", *sorted(cases), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
