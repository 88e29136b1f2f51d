"""Detection and verification of special curve configurations.

A configuration is a pairwise-crossing set (one or two k-cliques) plus a
lonely curve that misses all of them and ends early.  The lonely curve
sits above the clique (type1), below it (type2), or index-wise between
two cliques (type3).  Endpoint comparisons are strict for types 1 and 2
and non-strict for type 3; the asymmetry is deliberate and preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceeded, PreconditionFailed
from .graphs import CurveFamily, OrderedGraph, cliques_ascending, is_clique, min_right_end_x

KINDS = ("type1", "type2", "type3", "clique")

DEFAULT_DETECT_CAP = 24


@dataclass(frozen=True)
class ConfigWitness:
    kind: str
    clique_low: tuple[int, ...]  # K1
    clique_high: tuple[int, ...] = ()  # K2, type3 only
    lonely: int | None = None  # q, absent for bare cliques

    def config_tuple(self) -> tuple[int, ...]:
        """All indices in ascending configuration order; detection
        returns the lexicographically least such tuple."""
        if self.kind == "type1":
            return self.clique_low + (self.lonely,)
        if self.kind == "type2":
            return (self.lonely,) + self.clique_low
        if self.kind == "type3":
            return self.clique_low + (self.lonely,) + self.clique_high
        return self.clique_low

    def serialize(self) -> str:
        k1 = ",".join(str(i) for i in self.clique_low)
        k2 = ",".join(str(i) for i in self.clique_high)
        q = "-" if self.lonely is None else str(self.lonely)
        k = len(self.clique_low)
        return f"witness {self.kind} k={k} K1={k1} K2={k2} q={q}"


def _disjoint_from(graph: OrderedGraph, q: int, vs: Sequence[int]) -> bool:
    return all(not graph.has_edge(q, v) for v in vs)


def verify_witness(family: CurveFamily, graph: OrderedGraph, w: ConfigWitness) -> bool:
    """Check every condition of the claimed kind directly against
    adjacency and right-endpoint data."""
    if w.kind not in KINDS:
        return False
    if w.kind != "clique" and w.lonely is None:
        return False
    vs = w.config_tuple()
    if any(not 1 <= v <= family.n for v in vs):
        return False
    if len(set(vs)) != len(vs):
        return False
    if list(vs) != sorted(vs):
        return False
    if w.kind == "clique":
        return len(w.clique_low) >= 1 and is_clique(graph, w.clique_low)
    if w.kind == "type1":
        return (
            is_clique(graph, w.clique_low)
            and w.lonely > max(w.clique_low)
            and _disjoint_from(graph, w.lonely, w.clique_low)
            and family.right_end_x(w.lonely) < min_right_end_x(family, w.clique_low)
        )
    if w.kind == "type2":
        return (
            is_clique(graph, w.clique_low)
            and w.lonely < min(w.clique_low)
            and _disjoint_from(graph, w.lonely, w.clique_low)
            and family.right_end_x(w.lonely) < min_right_end_x(family, w.clique_low)
        )
    if w.kind == "type3":
        both = w.clique_low + w.clique_high
        return (
            len(w.clique_low) == len(w.clique_high)
            and is_clique(graph, w.clique_low)
            and is_clique(graph, w.clique_high)
            and max(w.clique_low) < w.lonely < min(w.clique_high)
            and _disjoint_from(graph, w.lonely, both)
            and family.right_end_x(w.lonely) <= min_right_end_x(family, both)
        )
    return False


def detect_config(
    family: CurveFamily,
    graph: OrderedGraph,
    kind: str,
    k: int,
    cap: int = DEFAULT_DETECT_CAP,
) -> ConfigWitness | None:
    """Exhaustive search with clique-first pruning; returns the witness
    with the lexicographically least configuration tuple, or None."""
    if kind not in KINDS:
        raise ValueError(f"unknown configuration kind {kind!r}")
    if k < 2:
        raise PreconditionFailed(f"configuration search needs k >= 2, got {k}")
    if graph.n > cap:
        raise BudgetExceeded(f"n={graph.n} exceeds detection cap {cap}")

    if kind == "clique":
        for clique in cliques_ascending(graph, k):
            return ConfigWitness("clique", clique)
        return None

    if kind == "type1":
        # tuple (K1..., q): clique order dominates, then least q
        for clique in cliques_ascending(graph, k):
            x_k = min_right_end_x(family, clique)
            for q in graph.vertices:
                if q <= clique[-1]:
                    continue
                if _disjoint_from(graph, q, clique) and family.right_end_x(q) < x_k:
                    return ConfigWitness("type1", clique, (), q)
        return None

    if kind == "type2":
        # tuple (q, K1...): least q dominates, then clique order
        for q in graph.vertices:
            for clique in cliques_ascending(graph.induced(
                [v for v in graph.vertices if v > q]
            ), k):
                if _disjoint_from(graph, q, clique) and family.right_end_x(
                    q
                ) < min_right_end_x(family, clique):
                    return ConfigWitness("type2", clique, (), q)
        return None

    # type3: tuple (K1..., q, K2...)
    for clique_low in cliques_ascending(graph, k):
        for q in graph.vertices:
            if q <= clique_low[-1]:
                continue
            if not _disjoint_from(graph, q, clique_low):
                continue
            xq = family.right_end_x(q)
            if xq > min_right_end_x(family, clique_low):
                continue
            upper = graph.induced([v for v in graph.vertices if v > q])
            for clique_high in cliques_ascending(upper, k):
                if not _disjoint_from(graph, q, clique_high):
                    continue
                if xq <= min_right_end_x(family, clique_high):
                    return ConfigWitness("type3", clique_low, clique_high, q)
    return None


def short_check(
    family: CurveFamily, graph: OrderedGraph, clique: Sequence[int], inner: int
) -> bool:
    """Whether a curve sandwiched index-wise inside a pairwise-crossing
    set, and disjoint from it, ends no later than the set does.

    On valid simple right-flag families this always holds; a False is a
    geometry bug, not a data condition.
    """
    vs = sorted(clique)
    if len(vs) < 2 or not is_clique(graph, vs):
        raise PreconditionFailed("the index set must cross pairwise")
    if not vs[0] < inner < vs[-1]:
        raise PreconditionFailed("the inner curve must lie strictly inside the set")
    if not _disjoint_from(graph, inner, vs):
        raise PreconditionFailed("the inner curve must miss the whole set")
    return family.right_end_x(inner) <= min_right_end_x(family, vs)
