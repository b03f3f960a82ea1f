import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCALING = ROOT / "scripts" / "scaling_study.py"
MAKE_SUITE = ROOT / "scripts" / "make_suite.py"


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )


def _scaling(*args):
    return _run(SCALING, *args)


@pytest.mark.parametrize("args", [
    ("--kmin", "4", "--kmax", "3"),  # no budgets at all
    ("--kmin", "3", "--kmax", "3"),  # one point fits no slope
    ("--n", "30", "--kmax", "12"),  # 12 planted triangles need 36 vertices
])
def test_scaling_study_rejects_unusable_ranges(args):
    run = _scaling(*args)
    assert run.returncode == 2
    assert b"Traceback" not in run.stderr
    assert b"error:" in run.stderr


def test_scaling_study_writes_unix_line_ends(tmp_path):
    out = tmp_path / "scaling.csv"
    to_file = _scaling("--n", "30", "--kmin", "2", "--kmax", "4", "--out", str(out))
    to_stdout = _scaling("--n", "30", "--kmin", "2", "--kmax", "4")
    for run, csv_bytes in ((to_file, out.read_bytes()), (to_stdout, to_stdout.stdout)):
        assert run.returncode == 0, run.stderr
        assert b"\r" not in csv_bytes
        assert csv_bytes.count(b"\n") == 4  # header plus k = 2, 3, 4
        assert b"slope of ln(branch_nodes) vs k" in run.stderr


@pytest.mark.parametrize("args", [
    ("--n", "23"),  # above the brute-force oracle's size guard
    ("--n", "-1"),
    ("--planted-n", "10", "--planted-k", "5"),  # 5 triangles need 15 vertices
    ("--planted-k", "-1"),
    ("--random", "-1"),
    ("--planted", "-2"),
    ("--subdivided", "-1"),
])
def test_make_suite_rejects_unusable_arguments_before_writing(tmp_path, args):
    out = tmp_path / "suite"
    run = _run(MAKE_SUITE, "--out", str(out), *args)
    assert run.returncode == 2
    assert b"Traceback" not in run.stderr
    assert b"error:" in run.stderr
    assert not out.exists()


def test_trace_digests_match_the_pinned_ones():
    # every answer, measure and reduction event of the corpus is pinned, and
    # the corpus reaches every rule and every pivot case
    run = _run(ROOT / "scripts" / "trace_digest.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode() == (ROOT / "tests" / "trace_digests.txt").read_text()
    assert b"rules fired: 1 2 3 4 5 6 7 - pivot cases: A B C" in run.stderr


def test_fvs_digest_matches_the_pinned_one():
    # the minimum FVS sets themselves are pinned, not only their sizes
    run = _run(ROOT / "scripts" / "fvs_digest.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode() == (ROOT / "tests" / "fvs_digests.txt").read_text()


def test_bench_counts_pin_every_count_of_every_pinned_run(tmp_path):
    # a run output whose metrics are BENCHMARK.json's per-layer list: the
    # script prints the algorithmic counts among them, in name order, and
    # the pinned file holds exactly those names for each workload and seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": i, "unit": m["unit"]} for i, m in enumerate(spec["per_layer"])}
    out = tmp_path / "run.out"
    out.write_text("workload parity-batch\n" + json.dumps({"correct": True, "metrics": metrics}) + "\n")
    run = _run(ROOT / "scripts" / "bench_counts.py", str(out), "parity-batch", "0")
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.decode().splitlines()]
    names = [name for _w, _s, name, _v in lines]
    assert names == sorted(names)
    assert all(int(v) == metrics[name]["value"] for _w, _s, name, v in lines)
    assert {"branching.nodes", "reductions.fires.r1", "reductions.fixpoint_calls",
            "pipeline.guesses_tried", "basecase.tent_pairs", "fvs.size"} <= set(names)
    assert "instance.measure_calls" not in names and "pipeline.guess_yield" not in names
    pinned = {}
    for line in (ROOT / "tests" / "bench_counts.txt").read_text().splitlines():
        workload, seed, name, value = line.split()
        pinned.setdefault((workload, seed), []).append(name)
        assert int(value) >= 0
    workloads = json.loads((ROOT / "perfbench" / "layers.json").read_text())["driven_workloads"]
    assert set(pinned) == {(w, s) for w in workloads for s in ("0", "104729")}
    assert all(got == names for got in pinned.values())


def test_the_tracer_seams_resolve_against_the_solver():
    # perfbench/spans.py wraps names it looks up on the solver's modules;
    # a renamed or dropped name fails every traced benchmark run at install
    import importlib.util

    from ifvs import fvs, pipeline

    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        installed = spans.installed_wrappers()
    finally:
        tracer.uninstall()
    assert len(installed) == len(spans._targets())
    assert "ifvs.pipeline.min_fvs" in installed
    assert spans.installed_wrappers() == []
    assert pipeline.min_fvs is fvs.min_fvs
