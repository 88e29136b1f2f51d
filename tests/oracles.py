"""Independent brute-force oracles used to check the production code.

Nothing here shares an algorithm with the package: crossings come from
orientation predicates (and, for the full pair classification, from the
Fraction-arithmetic kernel the package used before its integer one), chromatic numbers from plain color-assignment
search in label order, cliques from subset enumeration, configurations
from full tuple enumeration.  The exact-coloring layer is also checked
against copies of the package's earlier implementations: induced
subgraphs by edge scan, recursive branch and bound and clique search,
the frozenset DSATUR, greedy clique and components, and alpha
sequences that solve every block prefix afresh.  The split of
two-sided curves is checked against its inverse, `join_at_y_axis`.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from itertools import combinations

from xmcurves import (
    AlphaSequence,
    BudgetExceeded,
    Coloring,
    ConfigWitness,
    DegenerateCurve,
    OrderedGraph,
    PairContact,
    Point,
    PolyCurve,
    PreconditionFailed,
)


def _ccw(a: Point, b: Point, c: Point) -> int:
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (v > 0) - (v < 0)


def segment_proper_crossing(p1: Point, p2: Point, q1: Point, q2: Point) -> Point | None:
    """Proper interior crossing of two segments via orientation tests."""
    d1 = _ccw(q1, q2, p1)
    d2 = _ccw(q1, q2, p2)
    d3 = _ccw(p1, p2, q1)
    d4 = _ccw(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        r = (p2.x - p1.x, p2.y - p1.y)
        s = (q2.x - q1.x, q2.y - q1.y)
        denom = r[0] * s[1] - r[1] * s[0]
        t = ((q1.x - p1.x) * s[1] - (q1.y - p1.y) * s[0]) / denom
        return Point(p1.x + t * r[0], p1.y + t * r[1])
    return None


def polyline_crossings(c1: PolyCurve, c2: PolyCurve) -> list[Point]:
    """All proper piece-by-piece crossings, sorted by x.

    Misses crossings sitting exactly on a polyline vertex; valid families
    have none by the general-position discipline.
    """
    points = []
    for a, b in zip(c1.vertices, c1.vertices[1:]):
        for c, d in zip(c2.vertices, c2.vertices[1:]):
            p = segment_proper_crossing(a, b, c, d)
            if p is not None:
                points.append(p)
    return sorted(points, key=lambda p: (p.x, p.y))


def _fraction_y_at(c: PolyCurve, x: Fraction) -> Fraction:
    xs = [v.x for v in c.vertices]
    i = bisect.bisect_right(xs, x) - 1
    if i == len(xs) - 1:
        return c.vertices[-1].y
    a, b = c.vertices[i], c.vertices[i + 1]
    return a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)


def _sign(f: Fraction) -> int:
    return (f > 0) - (f < 0)


def fraction_pair_contacts(c1: PolyCurve, c2: PolyCurve) -> PairContact:
    """The pair classification as the package computed it in Fraction
    arithmetic before its integer kernel: both curves' heights at every
    breakpoint in the shared x-range, then sign runs of the difference."""
    for c in (c1, c2):
        if len(c.vertices) < 2:
            raise DegenerateCurve(f"curve {c.id} has fewer than 2 vertices")
        if not c.is_x_monotone():
            raise DegenerateCurve(f"curve {c.id} is not strictly x-monotone")
    lo = max(c1.x_start, c2.x_start)
    hi = min(c1.x_end, c2.x_end)
    empty: tuple = ()
    if lo > hi:
        return PairContact(empty, empty, empty, empty, empty)

    xs = sorted(
        {lo, hi}
        | {v.x for v in c1.vertices if lo <= v.x <= hi}
        | {v.x for v in c2.vertices if lo <= v.x <= hi}
    )
    diff = [_fraction_y_at(c1, x) - _fraction_y_at(c2, x) for x in xs]

    crossings: list[Point] = []
    vertex_crossings: list[Point] = []
    tangencies: list[Point] = []
    endpoint_touches: list[Point] = []
    overlaps: list[tuple[Point, Point]] = []

    # The difference is piecewise linear with breakpoints xs; it vanishes
    # on a whole segment iff both segment ends vanish.
    i = 0
    m = len(xs)
    while i < m:
        if diff[i] == 0:
            j = i
            while j + 1 < m and diff[j + 1] == 0:
                j += 1
            if j > i:
                p0 = Point(xs[i], _fraction_y_at(c1, xs[i]))
                p1 = Point(xs[j], _fraction_y_at(c1, xs[j]))
                overlaps.append((p0, p1))
            else:
                p = Point(xs[i], _fraction_y_at(c1, xs[i]))
                if xs[i] == lo or xs[i] == hi:
                    endpoint_touches.append(p)
                elif _sign(diff[i - 1]) * _sign(diff[i + 1]) < 0:
                    vertex_crossings.append(p)
                else:
                    tangencies.append(p)
            i = j + 1
            continue
        if i + 1 < m and diff[i + 1] != 0 and _sign(diff[i]) != _sign(diff[i + 1]):
            x_star = xs[i] - diff[i] * (xs[i + 1] - xs[i]) / (diff[i + 1] - diff[i])
            crossings.append(Point(x_star, _fraction_y_at(c1, x_star)))
        i += 1

    return PairContact(
        tuple(crossings),
        tuple(vertex_crossings),
        tuple(tangencies),
        tuple(endpoint_touches),
        tuple(overlaps),
    )


def polyline_family_edges(curves) -> set[tuple[int, int]]:
    edges = set()
    for i, a in enumerate(curves):
        for b in curves[i + 1 :]:
            if polyline_crossings(a, b):
                edges.add((min(a.id, b.id), max(a.id, b.id)))
    return edges


def brute_chi(graph: OrderedGraph) -> int:
    """Least k admitting a proper assignment, by exhaustive search in
    label order with colors 1..k."""
    vs = list(graph.vertices)
    if not vs:
        return 0
    adjacency = graph.adjacency

    def colorable(k: int) -> bool:
        colors: dict[int, int] = {}

        def assign(i: int) -> bool:
            if i == len(vs):
                return True
            v = vs[i]
            for c in range(1, k + 1):
                if all(colors.get(u) != c for u in adjacency[v]):
                    colors[v] = c
                    if assign(i + 1):
                        return True
                    del colors[v]
            return False

        return assign(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_omega(graph: OrderedGraph) -> tuple[int, tuple[int, ...]]:
    """Max clique by subset enumeration; lexicographically least witness."""
    vs = list(graph.vertices)
    if not vs:
        return 0, ()
    for size in range(len(vs), 0, -1):
        for subset in combinations(vs, size):
            if all(graph.has_edge(a, b) for a, b in combinations(subset, 2)):
                return size, subset
    return 1, (vs[0],)


def brute_detect(family, graph: OrderedGraph, kind: str, k: int) -> ConfigWitness | None:
    """First valid configuration over all ascending index tuples."""
    from xmcurves import min_right_end_x

    vs = graph.vertices

    def clique(sub) -> bool:
        return all(graph.has_edge(a, b) for a, b in combinations(sub, 2))

    def disjoint(q, sub) -> bool:
        return all(not graph.has_edge(q, v) for v in sub)

    if kind in ("type1", "type2"):
        for tup in combinations(vs, k + 1):
            if kind == "type1":
                members, lonely = tup[:k], tup[k]
            else:
                members, lonely = tup[1:], tup[0]
            if not clique(members) or not disjoint(lonely, members):
                continue
            if family.right_end_x(lonely) < min_right_end_x(family, members):
                return ConfigWitness(kind, members, (), lonely)
        return None
    for tup in combinations(vs, 2 * k + 1):
        low, lonely, high = tup[:k], tup[k], tup[k + 1 :]
        if not clique(low) or not clique(high):
            continue
        if not disjoint(lonely, low + high):
            continue
        if family.right_end_x(lonely) <= min_right_end_x(family, low + high):
            return ConfigWitness("type3", low, high, lonely)
    return None


def random_graph(rng: random.Random, n: int, percent: int) -> OrderedGraph:
    """G(n, p) with p = percent/100 over labels 1..n."""
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.randrange(100) < percent
    ]
    return OrderedGraph.from_edges(range(1, n + 1), edges)


def random_connected_graph(rng: random.Random, n: int, percent: int) -> OrderedGraph:
    for _ in range(1000):
        g = random_graph(rng, n, percent)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == n:
            return g
    raise AssertionError("could not draw a connected graph")


def random_segment(rng: random.Random, cid: int, box: int) -> PolyCurve:
    """A random non-vertical segment with exact rational endpoints."""
    while True:
        x1 = Fraction(rng.randrange(0, 64 * box), 64)
        x2 = Fraction(rng.randrange(0, 64 * box), 64)
        if x1 == x2:
            continue
        if x1 > x2:
            x1, x2 = x2, x1
        y1 = Fraction(rng.randrange(0, 64 * box), 64)
        y2 = Fraction(rng.randrange(0, 64 * box), 64)
        return PolyCurve(cid, (Point(x1, y1), Point(x2, y2)))


# ------------------------------------------------------------------
# The exact-coloring engine before it reused work, copied verbatim except
# that subgraphs come from `induced_by_edge_scan` and every solve from
# `recursive_chi_exact`, so no new code path is shared.  Its DSATUR,
# greedy clique and components are the package's frozenset versions from
# before its neighbour masks, also copied verbatim.


def induced_by_edge_scan(graph: OrderedGraph, labels) -> OrderedGraph:
    keep = set(labels) & set(graph.vertices)
    es = frozenset((u, v) for u, v in graph.edges if u in keep and v in keep)
    return OrderedGraph(tuple(sorted(keep)), es)


def recursive_omega_exact(graph: OrderedGraph) -> tuple[int, tuple[int, ...]]:
    if graph.n == 0:
        return 0, ()
    adjacency = graph.adjacency

    best_size = 1

    def extend(candidates: set[int], size: int) -> None:
        nonlocal best_size
        if size > best_size:
            best_size = size
        if not candidates:
            return
        if size + len(candidates) <= best_size:
            return
        pivot = max(candidates, key=lambda u: (len(adjacency[u] & candidates), -u))
        rest = candidates - adjacency[pivot]
        for v in sorted(rest):
            extend(candidates & adjacency[v], size + 1)
            candidates = candidates - {v}

    extend(set(graph.vertices), 0)

    def lex_clique(prefix: list[int], candidates: set[int], need: int) -> list[int] | None:
        if need == 0:
            return prefix
        if len(candidates) < need:
            return None
        for v in sorted(candidates):
            found = lex_clique(
                prefix + [v], {u for u in candidates if u > v} & adjacency[v], need - 1
            )
            if found is not None:
                return found
        return None

    witness = lex_clique([], set(graph.vertices), best_size)
    assert witness is not None
    return best_size, tuple(witness)


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


def recursive_chi_exact(graph: OrderedGraph, budget: int = 5_000_000) -> tuple[int, Coloring]:
    if graph.n == 0:
        return 0, Coloring({}, 0)
    parts = _components(graph)
    if len(parts) > 1:
        assignment: dict[int, int] = {}
        best = 0
        for comp in parts:
            value, coloring = _recursive_chi_connected(induced_by_edge_scan(graph, comp), budget)
            assignment.update(coloring.assignment)
            best = max(best, value)
        return best, Coloring(assignment, best)
    return _recursive_chi_connected(graph, budget)


def _recursive_chi_connected(graph: OrderedGraph, budget: int) -> tuple[int, Coloring]:
    ub_coloring = _dsatur_order_coloring(graph)
    ub = ub_coloring.num_colors
    clique = _greedy_clique(graph)
    lb = max(1, len(clique))
    if lb < ub:
        lb = recursive_omega_exact(graph)[0]
    if lb == ub:
        return ub, ub_coloring

    adjacency = graph.adjacency
    degrees = {v: len(adjacency[v]) for v in graph.vertices}
    nodes_used = 0

    def colorable_with(k: int) -> dict[int, int] | None:
        nonlocal nodes_used
        assignment: dict[int, int] = {}
        neighbor_colors: dict[int, set[int]] = {v: set() for v in graph.vertices}
        for i, v in enumerate(clique[:k]):
            assignment[v] = i + 1
            for u in adjacency[v]:
                neighbor_colors[u].add(i + 1)
        uncolored = [v for v in graph.vertices if v not in assignment]

        def backtrack(max_used: int) -> bool:
            nonlocal nodes_used
            if not uncolored:
                return True
            nodes_used += 1
            if nodes_used > budget:
                raise BudgetExceeded(f"exact coloring budget {budget} exhausted")
            v = min(
                uncolored,
                key=lambda u: (-len(neighbor_colors[u]), -degrees[u], u),
            )
            uncolored.remove(v)
            limit = min(k, max_used + 1)
            for c in range(1, limit + 1):
                if c in neighbor_colors[v]:
                    continue
                assignment[v] = c
                touched = [u for u in adjacency[v] if c not in neighbor_colors[u]]
                for u in touched:
                    neighbor_colors[u].add(c)
                if backtrack(max(max_used, c)):
                    return True
                for u in touched:
                    neighbor_colors[u].discard(c)
                del assignment[v]
            uncolored.append(v)
            return False

        if backtrack(min(k, len(clique))):
            return dict(assignment)
        return None

    for k in range(lb, ub):
        result = colorable_with(k)
        if result is not None:
            return k, Coloring(result, k)
    return ub, ub_coloring


def prefix_alpha_sequence(graph: OrderedGraph, alpha: int) -> tuple[int, ...]:
    """Breakpoints of the alpha sequence, by an exact solve of the whole
    rest before each block and of every growing block prefix."""
    if alpha < 1:
        raise PreconditionFailed(f"alpha must be >= 1, got {alpha}")
    if graph.n == 0:
        raise PreconditionFailed("alpha sequence of an empty graph")
    labels = list(graph.vertices)
    r0, r_max = labels[0], labels[-1]
    breakpoints = [r0]
    pos = 0
    while pos < len(labels):
        rest = labels[pos:]
        if recursive_chi_exact(induced_by_edge_scan(graph, rest))[0] < alpha:
            breakpoints.append(r_max)
            break
        block: list[int] = []
        for idx, v in enumerate(rest):
            block.append(v)
            if recursive_chi_exact(induced_by_edge_scan(graph, block))[0] == alpha:
                breakpoints.append(v)
                pos += idx + 1
                break
    return tuple(breakpoints)


def unshared_gap_subgraph(graph: OrderedGraph, a: int, b: int) -> OrderedGraph:
    """extract_gap_subgraph with every subgraph solved afresh."""
    if a < 0 or b < 0:
        raise PreconditionFailed("gap exponents must be nonnegative")
    need = 2 ** (a + b + 1)
    if recursive_chi_exact(graph)[0] <= need:
        raise PreconditionFailed(f"chi(graph) must exceed {need}")

    blocks = AlphaSequence(2**b, prefix_alpha_sequence(graph, 2**b), ()).block_labels(graph)

    class_members: dict[int, list[int]] = {}
    block_index: dict[int, int] = {}
    for t, members in enumerate(blocks):
        _, coloring = recursive_chi_exact(induced_by_edge_scan(graph, members))
        for v in members:
            class_members.setdefault(coloring.assignment[v], []).append(v)
            block_index[v] = t

    best_color, best_chi = None, -1
    for color in sorted(class_members):
        value = recursive_chi_exact(induced_by_edge_scan(graph, class_members[color]))[0]
        if value > best_chi:
            best_color, best_chi = color, value
    chosen = class_members[best_color]

    even = [v for v in chosen if block_index[v] % 2 == 0]
    odd = [v for v in chosen if block_index[v] % 2 == 1]
    even_chi = recursive_chi_exact(induced_by_edge_scan(graph, even))[0]
    odd_chi = recursive_chi_exact(induced_by_edge_scan(graph, odd))[0]
    winner = even if even_chi >= odd_chi else odd
    return induced_by_edge_scan(graph, winner)


def join_at_y_axis(left_flag: PolyCurve, right_flag: PolyCurve) -> PolyCurve:
    """Inverse of split_at_y_axis: un-mirror the left part and rejoin.

    The axis vertex is kept only when it bends the polyline; a collinear
    axis vertex was interpolated by the split and is dropped, so curves
    whose vertex lists are canonical round-trip exactly.
    """
    if left_flag.vertices[0].x != 0 or right_flag.vertices[0].x != 0:
        raise ValueError("both parts must start on the y-axis")
    if left_flag.vertices[0].y != right_flag.vertices[0].y:
        raise ValueError("parts do not share the axis point")
    unmirrored = tuple(Point(-v.x, v.y) for v in reversed(left_flag.vertices))
    joined = unmirrored + right_flag.vertices[1:]
    k = len(unmirrored) - 1  # position of the axis vertex
    if 0 < k < len(joined) - 1:
        before, axis, after = joined[k - 1], joined[k], joined[k + 1]
        if (axis.y - before.y) * (after.x - axis.x) == (after.y - axis.y) * (
            axis.x - before.x
        ):
            joined = joined[:k] + joined[k + 1 :]
    return PolyCurve(right_flag.id, joined)
