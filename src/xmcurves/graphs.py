"""Ordered intersection graphs of curve families and interval subgraphs.

Vertices are the bottom-to-top labels 1..n of a validated family; all the
combinatorial machinery downstream works on these labels plus the curves'
right-endpoint abscissas, never on raw geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import EmptySubset, InvalidFamily
from .geometry import PolyCurve, candidate_pairs, crossing_points, validate_family


@dataclass(frozen=True)
class OrderedGraph:
    """Graph on integer labels with the natural order; labels survive
    induced subgraphs."""

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        vs = set(self.vertices)
        for u, v in self.edges:
            if u >= v or u not in vs or v not in vs:
                raise ValueError(f"bad edge ({u},{v})")

    @staticmethod
    def from_edges(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> OrderedGraph:
        es = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return OrderedGraph(tuple(sorted(set(vertices))), es)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def induced(self, labels: Iterable[int]) -> OrderedGraph:
        """Subgraph on the given labels; labels not in the graph are
        ignored.  Built from the kept vertices' adjacency, whose
        restriction also becomes the subgraph's own adjacency."""
        adjacency = self.adjacency
        keep = frozenset(labels).intersection(adjacency)
        vertices = tuple(sorted(keep))
        sub = {v: adjacency[v] & keep for v in vertices}
        es = frozenset((u, v) for u in vertices for v in sub[u] if u < v)
        graph = OrderedGraph(vertices, es)
        graph.__dict__["adjacency"] = sub  # fills the cached_property
        return graph


@dataclass(frozen=True)
class IntervalSpec:
    """An index interval with open/closed ends; None means unbounded."""

    lo: int | None
    hi: int | None
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError("lo > hi")

    @staticmethod
    def closed(lo: int, hi: int) -> IntervalSpec:
        return IntervalSpec(lo, hi, True, True)

    @staticmethod
    def open(lo: int, hi: int) -> IntervalSpec:
        return IntervalSpec(lo, hi, False, False)

    @staticmethod
    def open_closed(lo: int, hi: int) -> IntervalSpec:
        return IntervalSpec(lo, hi, False, True)

    @staticmethod
    def closed_open(lo: int, hi: int) -> IntervalSpec:
        return IntervalSpec(lo, hi, True, False)

    @staticmethod
    def everything() -> IntervalSpec:
        return IntervalSpec(None, None)

    def contains(self, i: int) -> bool:
        if self.lo is not None:
            if i < self.lo or (i == self.lo and not self.lo_closed):
                return False
        if self.hi is not None:
            if i > self.hi or (i == self.hi and not self.hi_closed):
                return False
        return True


def induced_interval(graph: OrderedGraph, interval: IntervalSpec) -> OrderedGraph:
    """Subgraph induced by the labels inside the interval, labels kept."""
    return graph.induced(v for v in graph.vertices if interval.contains(v))


@dataclass(frozen=True)
class CurveFamily:
    """A validated simple family, labeled 1..n from bottom to top, with
    the label pairs that cross, as its validation found them."""

    curves: tuple[PolyCurve, ...]
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_curves(curves: Sequence[PolyCurve]) -> CurveFamily:
        """Relabel bottom-to-top by y-intercept and validate; raises
        InvalidFamily with the report on any defect."""
        ordered = sorted(curves, key=lambda c: c.vertices[0].y)
        relabeled = tuple(c.with_id(i) for i, c in enumerate(ordered, start=1))
        report = validate_family(relabeled)
        if not report.ok:
            raise InvalidFamily(report)
        return CurveFamily(relabeled, report.edges)

    @property
    def n(self) -> int:
        return len(self.curves)

    def curve(self, label: int) -> PolyCurve:
        c = self.curves[label - 1]
        if c.id != label:
            raise ValueError(f"family labels inconsistent at {label}")
        return c

    def right_end_x(self, label: int) -> Fraction:
        return self.curve(label).right_end_x

    def labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))


def min_right_end_x(family: CurveFamily, subset: Iterable[int]) -> Fraction:
    """Least right-endpoint abscissa over the subset of labels."""
    labels = list(subset)
    if not labels:
        raise EmptySubset("min_right_end_x over empty subset")
    return min(family.right_end_x(i) for i in labels)


def intersection_graph_of_curves(curves: Sequence[PolyCurve]) -> OrderedGraph:
    """Edge {a, b} iff curves a and b properly cross; vertices are the
    curves' own ids."""
    ids = [c.id for c in curves]
    if len(set(ids)) != len(ids):
        raise ValueError("curve ids must be distinct")
    edges = [(a.id, b.id) for a, b in candidate_pairs(curves) if crossing_points(a, b)]
    return OrderedGraph.from_edges(ids, edges)


def build_intersection_graph(family: CurveFamily) -> OrderedGraph:
    """Edge {i,j} iff curves i and j properly cross."""
    return OrderedGraph(family.labels(), family.edges)


def adjacency_lines(graph: OrderedGraph) -> list[str]:
    return [
        f"{v}: " + " ".join(str(u) for u in sorted(graph.neighbors(v)))
        for v in graph.vertices
    ]


def to_dot(graph: OrderedGraph) -> str:
    lines = ["graph G {"]
    for v in graph.vertices:
        lines.append(f"  {v};")
    for u, v in sorted(graph.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
