"""Exact and heuristic coloring, exact clique search, and the Dilworth
chain partition used for grounded arcs.

Everything is deterministic: identical inputs give identical outputs,
including tie-breaks (lexicographically least witnesses, fixed vertex
orders).  The exact solver is branch-and-bound seeded with a clique lower
bound and a DSATUR upper bound; all callers in this package stay at desk
scale (a search without a budget is capped at n <= 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceeded, NotAPoset
from .geometry import Arc
from .graphs import OrderedGraph, cliques_ascending, intersection_graph_of_curves, is_clique

DEFAULT_VERTEX_CAP = 64
DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class Coloring:
    assignment: dict[int, int]  # vertex -> color in 1..num_colors
    num_colors: int

    def is_proper(self, graph: OrderedGraph) -> bool:
        if set(self.assignment) != set(graph.vertices):
            return False
        if any(not 1 <= c <= self.num_colors for c in self.assignment.values()):
            return False
        return all(self.assignment[u] != self.assignment[v] for u, v in graph.edges)


@dataclass(frozen=True)
class CliqueWitness:
    vertices: tuple[int, ...]

    def is_clique(self, graph: OrderedGraph) -> bool:
        return is_clique(graph, self.vertices)


@dataclass(frozen=True)
class ChainPartition:
    classes: tuple[tuple[int, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _first_fit(graph: OrderedGraph, order: Sequence[int]) -> Coloring:
    assignment: dict[int, int] = {}
    for v in order:
        used = {assignment[u] for u in graph.neighbors(v) if u in assignment}
        c = 1
        while c in used:
            c += 1
        assignment[v] = c
    return Coloring(assignment, max(assignment.values(), default=0))


def _dsatur_order_coloring(graph: OrderedGraph) -> Coloring:
    assignment: dict[int, int] = {}
    neighbor_colors: dict[int, set[int]] = {v: set() for v in graph.vertices}
    degrees = {v: len(graph.neighbors(v)) for v in graph.vertices}
    uncolored = set(graph.vertices)
    while uncolored:
        # max saturation, then max degree, then least label
        v = min(uncolored, key=lambda u: (-len(neighbor_colors[u]), -degrees[u], u))
        c = 1
        while c in neighbor_colors[v]:
            c += 1
        assignment[v] = c
        uncolored.discard(v)
        for u in graph.neighbors(v):
            if u in uncolored:
                neighbor_colors[u].add(c)
    return Coloring(assignment, max(assignment.values(), default=0))


def chi_heuristic(graph: OrderedGraph, mode: str = "dsatur") -> tuple[int, Coloring]:
    """Proper coloring by first-fit in label order or by DSATUR."""
    if graph.n == 0:
        return 0, Coloring({}, 0)
    if mode == "firstfit":
        coloring = _first_fit(graph, graph.vertices)
    elif mode == "dsatur":
        coloring = _dsatur_order_coloring(graph)
    else:
        raise ValueError(f"unknown heuristic mode {mode!r}")
    return coloring.num_colors, coloring


def _greedy_clique(graph: OrderedGraph) -> list[int]:
    if graph.n == 0:
        return []
    degrees = {v: len(graph.neighbors(v)) for v in graph.vertices}
    start = min(graph.vertices, key=lambda v: (-degrees[v], v))
    clique = [start]
    common = set(graph.neighbors(start))
    while common:
        v = min(common, key=lambda u: (-len(graph.neighbors(u) & common), u))
        clique.append(v)
        common &= graph.neighbors(v)
    return sorted(clique)


def _components(graph: OrderedGraph) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in graph.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in graph.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        out.append(sorted(comp))
    return out


def chi_exact(graph: OrderedGraph, budget: int | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number with a certifying proper coloring.

    Connected components are solved independently (colors are shared
    across components).  Each component runs branch and bound over
    k-colorability, seeded with the DSATUR upper bound and the clique
    number as lower bound (a greedy clique when that meets DSATUR
    already).  `budget` limits the search nodes of the whole call, summed
    over its components; without one, a component that the greedy clique
    does not certify must have n <= 64.  Raises BudgetExceeded so callers
    can fall back to heuristics.
    """
    if graph.n == 0:
        return 0, Coloring({}, 0)
    if not graph.edges:
        # what the component path returns: every singleton colored 1
        return 1, Coloring(dict.fromkeys(graph.vertices, 1), 1)

    parts = _components(graph)
    nodes_used = [0]  # search nodes spent by this call, over all components
    if len(parts) > 1:
        assignment: dict[int, int] = {}
        best = 0
        for comp in parts:
            value, coloring = _chi_exact_connected(graph.induced(comp), budget, nodes_used)
            assignment.update(coloring.assignment)
            best = max(best, value)
        return best, Coloring(assignment, best)
    return _chi_exact_connected(graph, budget, nodes_used)


def _chi_exact_connected(
    graph: OrderedGraph, budget: int | None, nodes_used: list[int]
) -> tuple[int, Coloring]:
    ub, ub_coloring = chi_heuristic(graph, "dsatur")
    clique = _greedy_clique(graph)
    lb = max(1, len(clique))
    if lb < ub:
        if budget is None:
            if graph.n > DEFAULT_VERTEX_CAP:
                raise BudgetExceeded(
                    f"n={graph.n} exceeds default cap {DEFAULT_VERTEX_CAP}; pass a budget"
                )
            budget = DEFAULT_NODE_BUDGET
        # searches for k below the clique number can only fail
        lb = omega_exact(graph)[0]
    if lb == ub:
        return ub, ub_coloring

    adjacency = graph.adjacency
    degrees = {v: len(adjacency[v]) for v in graph.vertices}

    def colorable_with(k: int) -> dict[int, int] | None:
        assignment: dict[int, int] = {}
        neighbor_colors: dict[int, set[int]] = {v: set() for v in graph.vertices}
        # Pre-coloring the seed clique is a valid symmetry break.
        for i, v in enumerate(clique[:k]):
            assignment[v] = i + 1
            for u in adjacency[v]:
                neighbor_colors[u].add(i + 1)
        uncolored = [v for v in graph.vertices if v not in assignment]

        # Depth-first search with an explicit stack, so that depth is not
        # bounded by the interpreter's recursion limit.  A frame is
        # [vertex, max color used above it, color limit, current color,
        # vertices whose neighbor colors gained the current color].
        stack: list[list] = []
        max_used = min(k, len(clique))
        while True:
            if not uncolored:
                return dict(assignment)
            nodes_used[0] += 1
            if nodes_used[0] > budget:
                raise BudgetExceeded(f"exact coloring budget {budget} exhausted")
            v = min(uncolored, key=lambda u: (-len(neighbor_colors[u]), -degrees[u], u))
            uncolored.remove(v)
            # first fresh color only
            frame = [v, max_used, min(k, max_used + 1), 0, ()]
            stack.append(frame)
            while True:
                v, above, limit, c, touched = frame
                if c:  # the subtree under color c failed: undo it
                    for u in touched:
                        neighbor_colors[u].discard(c)
                    del assignment[v]
                c += 1
                while c <= limit and c in neighbor_colors[v]:
                    c += 1
                if c <= limit:
                    assignment[v] = c
                    touched = [u for u in adjacency[v] if c not in neighbor_colors[u]]
                    for u in touched:
                        neighbor_colors[u].add(c)
                    frame[3], frame[4] = c, touched
                    max_used = max(above, c)
                    break  # descend
                uncolored.append(v)
                stack.pop()
                if not stack:
                    return None
                frame = stack[-1]

    for k in range(lb, ub):
        result = colorable_with(k)
        if result is not None:
            return k, Coloring(result, k)
    return ub, ub_coloring


def omega_exact(graph: OrderedGraph) -> tuple[int, CliqueWitness]:
    """Maximum clique size with the lexicographically least witness."""
    if graph.n == 0:
        return 0, CliqueWitness(())
    adjacency = graph.adjacency

    # Bron-Kerbosch style search for the maximum size only, depth first
    # with an explicit stack of [candidates, size, branch vertices, next].
    best_size = 1
    stack: list[list] = []

    def enter(candidates: frozenset[int], size: int) -> None:
        nonlocal best_size
        best_size = max(best_size, size)
        if candidates and size + len(candidates) > best_size:
            pivot = max(candidates, key=lambda u: (len(adjacency[u] & candidates), -u))
            stack.append([candidates, size, sorted(candidates - adjacency[pivot]), 0])

    enter(frozenset(graph.vertices), 0)
    while stack:
        frame = stack[-1]
        candidates, size, branch, i = frame
        if i == len(branch):
            stack.pop()
            continue
        v = branch[i]
        frame[0], frame[3] = candidates - {v}, i + 1
        enter(candidates & adjacency[v], size + 1)

    witness = next(cliques_ascending(graph, best_size))
    return best_size, CliqueWitness(witness)


def arc_intersection_graph(arcs: Sequence[Arc]) -> OrderedGraph:
    """Intersection graph of arc geometries, labeled by parent index
    (an arc's geometry carries its parent's id)."""
    return intersection_graph_of_curves([a.geometry for a in arcs])


def dilworth_chain_partition(arcs: Sequence[Arc]) -> ChainPartition:
    """Partition grounded arcs into the fewest pairwise-disjoint classes.

    Disjoint grounded arcs are comparable (ordered by their parents'
    bottom-to-top labels); crossing arcs are incomparable.  Transitivity
    of the derived order is verified and NotAPoset raised on failure,
    which signals invalid input geometry.  The minimum chain cover is
    computed via maximum bipartite matching, so the class count equals
    the largest pairwise-crossing arc set.
    """
    graph = arc_intersection_graph(arcs)
    parents = sorted(a.parent for a in arcs)
    m = len(parents)

    def below(i: int, j: int) -> bool:
        return i < j and not graph.has_edge(i, j)

    for x in range(m):
        for y in range(x + 1, m):
            if not below(parents[x], parents[y]):
                continue
            for z in range(y + 1, m):
                if below(parents[y], parents[z]) and not below(parents[x], parents[z]):
                    raise NotAPoset(
                        f"arcs {parents[x]} < {parents[y]} < {parents[z]} "
                        f"but {parents[x]},{parents[z]} cross"
                    )

    # Kuhn's augmenting-path matching on the comparability DAG.
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for v in parents:
            if not below(u, v) or v in seen:
                continue
            seen.add(v)
            if v not in pred or try_augment(pred[v], seen):
                succ[u] = v
                pred[v] = u
                return True
        return False

    for u in parents:
        try_augment(u, set())

    chains: list[tuple[int, ...]] = []
    starts = [p for p in parents if p not in pred]
    for s in sorted(starts):
        chain = [s]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(tuple(chain))
    return ChainPartition(tuple(chains))
