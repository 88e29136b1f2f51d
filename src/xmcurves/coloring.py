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
from .graphs import OrderedGraph, bit_positions, cliques_ascending, is_clique
from .graphs import intersection_graph_of_curves

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


def _dsatur(labels: Sequence[int], masks: Sequence[int], keep: int) -> dict[int, int]:
    """DSATUR colors of the positions in keep, label -> color in pick order: max saturation,
    then max degree within keep, then least label, packed into one int key per vertex."""
    n = len(labels)
    shift = n.bit_length()
    low = (1 << shift) - 1  # the key's n - 1 - i field
    key = {i: (masks[i] & keep).bit_count() << shift | (n - 1 - i) for i in bit_positions(keep)}
    near = [0] * len(key)  # near[c]: the vertices adjacent to color c + 1
    assignment: dict[int, int] = {}
    uncolored = keep
    while uncolored:
        i = n - 1 - (max(key.values()) & low)
        del key[i]
        uncolored ^= 1 << i
        c = 0
        while near[c] >> i & 1:
            c += 1
        assignment[labels[i]] = c + 1
        fresh = masks[i] & uncolored & ~near[c]
        near[c] |= masks[i] & keep
        while fresh:
            bit = fresh & -fresh
            key[bit.bit_length() - 1] += 1 << 2 * shift  # one more saturated color
            fresh ^= bit
    return assignment


def chi_heuristic(graph: OrderedGraph, mode: str = "dsatur") -> tuple[int, Coloring]:
    """Proper coloring by first-fit in label order or by DSATUR."""
    if graph.n == 0:
        return 0, Coloring({}, 0)
    if mode == "firstfit":
        coloring = _first_fit(graph, graph.vertices)
    elif mode == "dsatur":
        labels, _, masks, keep, _ = graph._bits
        assignment = _dsatur(labels, masks, keep)
        coloring = Coloring(assignment, max(assignment.values()))
    else:
        raise ValueError(f"unknown heuristic mode {mode!r}")
    return coloring.num_colors, coloring


def _greedy_clique(masks: Sequence[int], keep: int) -> int:
    """Mask of a greedy clique of keep: repeatedly the candidate with the
    most neighbors among the candidates, least label first on ties."""
    clique, common = 0, keep
    while common:
        best = -1
        for i in bit_positions(common):
            degree = (masks[i] & common).bit_count()
            if degree > best:
                best, pick = degree, i
        clique |= 1 << pick
        common &= masks[pick]
    return clique


def _components(masks: Sequence[int], keep: int) -> list[int]:
    """Connected components of the positions in keep, as masks, lowest first."""
    out = []
    while keep:
        comp, frontier = 0, keep & -keep
        while frontier:
            comp |= frontier
            for i in bit_positions(frontier):
                frontier |= masks[i]
            frontier &= keep & ~comp
        keep &= ~comp
        out.append(comp)
    return out


def chi_exact(graph: OrderedGraph, budget: int | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number with a certifying proper coloring.

    Connected components are colored independently, sharing colors.  A
    component whose greedy clique is as large as its DSATUR coloring
    takes that coloring; any other runs branch and bound over
    k-colorability from its clique number up to DSATUR.  `budget` limits
    the search nodes of the whole call, summed over its components;
    without one, a component that the greedy clique does not certify
    must have n <= 64.  Raises BudgetExceeded so callers can fall back
    to heuristics.
    """
    labels, _, masks, keep, _ = graph._bits
    nodes_used = [0]  # search nodes spent by this call, over all components
    assignment: dict[int, int] = {}
    for comp in _components(masks, keep):
        colors = _dsatur(labels, masks, comp)
        clique = _greedy_clique(masks, comp)
        if clique.bit_count() < max(colors.values()):
            clique = [labels[i] for i in bit_positions(clique)]
            part = graph if comp == keep else graph.induced(labels[i] for i in bit_positions(comp))
            colors = _chi_exact_connected(part, budget, nodes_used, colors, clique)
        assignment.update(colors)
    best = max(assignment.values(), default=0)
    return best, Coloring(assignment, best)


def _chi_exact_connected(
    graph: OrderedGraph, budget: int | None, nodes_used: list[int], colors: dict[int, int],
    clique: list[int],
) -> dict[int, int]:
    """Optimal colors of a connected graph that its greedy clique leaves open."""
    ub = max(colors.values())
    if budget is None:
        if graph.n > DEFAULT_VERTEX_CAP:
            raise BudgetExceeded(
                f"n={graph.n} exceeds default cap {DEFAULT_VERTEX_CAP}; pass a budget"
            )
        budget = DEFAULT_NODE_BUDGET
    # searches for k below the clique number can only fail
    lb = omega_exact(graph)[0]
    if lb == ub:
        return colors

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
            return result
    return colors


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
