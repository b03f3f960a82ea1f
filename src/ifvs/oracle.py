"""Brute-force reference solvers.

These enumerate candidate vertex sets outright and exist to pin down the
expected answers for everything else. They share no code with the real
solver beyond the graph type, so an agreement between the two is meaningful
evidence. Hard size guards keep them from being called on instances where
enumeration is hopeless.
"""
from __future__ import annotations

from itertools import combinations

from .instance import DisInstance
from .multigraph import MultiGraph

ORACLE_MAX_N = 22


class OracleGuardError(ValueError):
    """Instance exceeds the enumeration size guard."""


def _first_forest(
    g: MultiGraph, cands: list[int], k: int, independent: bool = True
) -> set[int] | None:
    """First subset of the sorted cands, by size up to k and then in
    lexicographic order, whose deletion leaves a forest; it must be
    independent when independent is set. None when there is none."""
    for size in range(min(k, len(cands)) + 1):
        for s in combinations(cands, size):
            ss = set(s)
            if independent and any(g.neighbors(v) & ss for v in s):
                continue
            if g.is_forest(g.vertices - ss):
                return ss
    return None


def oracle_ifvs(g: MultiGraph, k: int) -> set[int] | None:
    """Smallest independent FVS of size <= k by enumeration, else None.

    Subsets are scanned in increasing size and lexicographic order, so the
    returned set is deterministic. Refuses graphs with more than
    ORACLE_MAX_N vertices.
    """
    n = len(g)
    if n > ORACLE_MAX_N:
        raise OracleGuardError(f"oracle_ifvs refuses n={n} > {ORACLE_MAX_N}")
    return _first_forest(g, sorted(g.vertices), k)


def oracle_min_ifvs(g: MultiGraph) -> set[int] | None:
    """Minimum independent FVS regardless of budget, None if none exists."""
    return oracle_ifvs(g, len(g))


def oracle_disjoint(inst: DisInstance) -> set[int] | None:
    """Smallest valid deletion set of the disjoint instance, else None.

    Valid sets live in F minus R, are independent, fit the budget, and leave
    a forest behind. Refuses instances with more than ORACLE_MAX_N
    candidate vertices.
    """
    cand = sorted(inst.f_free)
    if len(cand) > ORACLE_MAX_N:
        raise OracleGuardError(
            f"oracle_disjoint refuses |F \\ R|={len(cand)} > {ORACLE_MAX_N}"
        )
    return _first_forest(inst.graph, cand, inst.k)


def brute_min_fvs(g: MultiGraph) -> set[int]:
    """Minimum feedback vertex set, independence not required."""
    n = len(g)
    if n > ORACLE_MAX_N:
        raise OracleGuardError(f"brute_min_fvs refuses n={n} > {ORACLE_MAX_N}")
    # deleting all vertices leaves a forest, so a set is always found
    return _first_forest(g, sorted(g.vertices), n, independent=False)
