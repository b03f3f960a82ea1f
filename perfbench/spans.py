"""Span tracing of the solver's layers from outside the solver.

The tracer swaps the names each module looks up for timing wrappers, so no
solver code changes. A span stack turns nested spans into self times: a
span's self time is its duration minus the durations of its direct child
spans. Counts that the wrappers cannot see (rule fires, pivot cases, node
kinds) come from the branch trees the solver returns with keep_traces=True.

Every wrapper is removed again by ``uninstall``, which ``with tracer:``
calls on exit, so an untraced run after a traced one times the bare solver.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

_perf = time.perf_counter
_KIND_COUNTER = {
    "branch": "branching.branch_nodes",
    "base": "branching.base_leaves",
    "reject": "branching.reject_leaves",
}
# every name Tracer.counts can hold; a name never counted reads 0
COUNTED = (
    "branching.nodes", *_KIND_COUNTER.values(),
    *(f"branching.case_{case}" for case in "ABC"),
    *(f"reductions.fires.r{rule}" for rule in range(1, 8)),
    "basecase.pairs", "basecase.tent_pairs", "basecase.fallbacks",
)


def _targets():
    """(owner, attribute, span name, layer) for every wrapped lookup."""
    from ifvs import basecase, branching, instance, pipeline, reductions
    from ifvs.multigraph import MultiGraph

    out = [
        (pipeline, "min_fvs", "fvs.min_fvs", "fvs"),
        (pipeline, "solve_disjoint", "branching.solve_disjoint", "branching"),
        (pipeline, "check_solution", "pipeline.check_solution", "pipeline"),
        (branching, "reduce_to_fixpoint", "reductions.fixpoint", "reductions"),
        (branching, "solve_base", "basecase.solve_base", "basecase"),
        (branching, "select_pivot", "branching.select_pivot", "branching"),
        (basecase, "build_parity", "basecase.build_parity", "basecase"),
        (basecase, "algebraic_parity_max", "basecase.algebraic", "basecase"),
        (basecase, "reference_parity_max", "basecase.reference", "basecase"),
        (MultiGraph, "copy", "multigraph.copy", "multigraph"),
        (MultiGraph, "components", "multigraph.components", "multigraph"),
    ]
    for mod in (reductions, branching, basecase, instance):
        for name in ("measure", "classification"):
            if name in vars(mod):
                out.append((mod, name, f"instance.{name}", "instance"))
    return out


class Tracer:
    """Self time and call count per span name, plus parity route counts."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.layer_of: dict[str, str] = {}
        self.counts: Counter[str] = Counter()
        self.op_walls: list[float] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._parity: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([_perf(), 0.0])

    def _exit(self, name: str) -> float:
        end = _perf()
        start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span opened by the benchmark itself."""
        self.layer_of.setdefault(name, layer)
        self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name)

    def op(self, fn, *args, **kwargs):
        """One benchmark op as the root span; its wall time is recorded."""
        if self._stack:
            raise RuntimeError("op spans do not nest")
        self.layer_of.setdefault("op", "op")
        self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.op_walls.append(self._exit("op"))

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter()
            try:
                res = fn(*args, **kwargs)
            finally:
                exit_(name)
            if hook is not None:
                hook(res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        def on_build(p):
            self.counts["basecase.pairs"] += len(p.pairs)
            self.counts["basecase.tent_pairs"] += sum(1 for q in p.pairs if not q.serial)

        def on_algebraic(res):
            self._parity["alg"] = res

        def on_reference(res):
            self._parity["ref"] = res

        def on_solve_base(_):
            # matroid_parity_max falls back exactly when the algebraic route
            # gave up or the reference route disagreed with it
            alg, ref = self._parity.pop("alg", None), self._parity.pop("ref", None)
            if alg is None or (ref is not None and ref.nu != alg.nu):
                self.counts["basecase.fallbacks"] += 1

        return {
            "basecase.build_parity": on_build,
            "basecase.algebraic": on_algebraic,
            "basecase.reference": on_reference,
            "basecase.solve_base": on_solve_base,
        }

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for owner, attr, name, layer in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            self.layer_of[name] = layer
            setattr(owner, attr, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s.get(n, 0.0) for n in names)

    def layer_ms(self, layer: str) -> float:
        return self.self_ms(*(n for n, lay in self.layer_of.items() if lay == layer))

    def count_tree(self, root) -> None:
        """Add node kinds, pivot cases and rule fires of one branch tree."""
        c = self.counts
        for node in root.walk():
            c["branching.nodes"] += 1
            c[_KIND_COUNTER[node.kind]] += 1
            if node.case is not None:
                c[f"branching.case_{node.case}"] += 1
            for ev in node.reductions:
                c[f"reductions.fires.r{ev.rule}"] += 1


def installed_wrappers() -> list[str]:
    """Names of wrapped lookups currently installed; empty when clean."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _targets()
        if hasattr(vars(owner)[attr], "__wrapped__")
    ]
