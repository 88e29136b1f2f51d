"""Ordered intersection graphs of curve families, and their cliques.

Vertices are the bottom-to-top labels 1..n of a validated family; all the
combinatorial machinery downstream works on these labels plus the curves'
right-endpoint abscissas, never on raw geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import EmptySubset, InvalidFamily, PreconditionFailed
from .geometry import PolyCurve, candidate_pairs, crossing_points, validate_family


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class OrderedGraph:
    """Graph on integer labels with the natural order; labels survive
    induced subgraphs, which share their parent's neighbour masks (see
    `_bits`) and build their edges on first use."""

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

    @cached_property
    def _bits(self) -> tuple[tuple[int, ...], dict[int, int], tuple[int, ...], int, frozenset]:
        """(sorted labels, label -> position, each position's neighbour
        mask, this graph's positions as a mask, edges): bit i is the i-th
        label, never a label value.  A subgraph has its root's but keep."""
        labels = tuple(sorted(self.vertices))
        pos = {v: i for i, v in enumerate(labels)}
        masks = [0] * len(labels)
        for u, v in self.edges:
            masks[pos[u]] |= 1 << pos[v]
            masks[pos[v]] |= 1 << pos[u]
        return labels, pos, tuple(masks), (1 << len(labels)) - 1, self.edges

    def __getattr__(self, name):  # reached only for a subgraph's edges, before first use
        if name != "edges":
            raise AttributeError(f"'OrderedGraph' object has no attribute {name!r}")
        _, pos, _, keep, scan = self._bits
        # in the root's order, so the set equals an edge scan's, repr included
        edges = frozenset(e for e in scan if keep >> pos[e[0]] & keep >> pos[e[1]] & 1)
        self.__dict__["edges"] = edges
        return edges

    def induced(self, labels: Iterable[int]) -> OrderedGraph:
        """Subgraph on the given labels; labels not in the graph are
        ignored.  It shares this graph's masks."""
        order, pos, masks, keep, scan = self._bits
        sub = sum({1 << pos[v] for v in labels if v in pos}) & keep  # a sum of distinct bits
        graph = object.__new__(OrderedGraph)
        vertices = tuple(order[i] for i in bit_positions(sub))
        graph.__dict__.update(vertices=vertices, _bits=(order, pos, masks, sub, scan))
        return graph


def is_clique(graph: OrderedGraph, labels: Sequence[int]) -> bool:
    """Whether every two of the labels are adjacent."""
    return all(graph.has_edge(a, b) for a, b in combinations(labels, 2))


def cliques_ascending(graph: OrderedGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Every k-clique as a sorted label tuple, in lexicographic order.

    Depth first in increasing label order on an explicit stack, so that k
    is not bounded by the interpreter's recursion limit; a level stops
    once fewer candidates remain than the clique still needs.  Raises
    PreconditionFailed, on the first request, unless k >= 1.
    """
    if k < 1:
        raise PreconditionFailed(f"clique size must be >= 1, got {k}")
    adjacency = graph.adjacency
    clique: list[int] = []
    # levels[d] = (candidates for clique[d], index of the next to try)
    levels = [(sorted(graph.vertices), 0)]
    while levels:
        order, i = levels[-1]
        if len(order) - i < k - len(clique):
            levels.pop()
            if clique:
                clique.pop()
            continue
        v = order[i]
        levels[-1] = (order, i + 1)
        clique.append(v)
        if len(clique) == k:
            yield tuple(clique)
            clique.pop()
        else:
            levels.append(([u for u in order[i + 1 :] if u in adjacency[v]], 0))


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
        return self.curve(label).x_end

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
