"""Reference answers the benchmark checks the program's outputs against.

Nothing here calls into xmcurves: curves are lists of (x, y) Fractions,
graphs are a vertex list plus an adjacency dict of sets, and every
answer comes from a separate, plain algorithm (sign changes of the
height difference for crossings, bitset search for cliques and
colourings).  The documented tie-breaks of the program's heuristics
(DSATUR: highest saturation, then highest degree, then least label;
first-fit: label order) are reproduced so their colour counts can be
compared exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Curve = list  # [(Fraction x, Fraction y), ...] with strictly increasing x


def parse_family(text: str) -> list[Curve]:
    """Curves of an `xmcurves 1` file, ordered bottom to top by their
    height at x = 0 (the program's labels 1..n)."""
    curves = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if not parts or parts[0] != "curve":
            continue
        curves.append(
            [tuple(Fraction(t) for t in token.split(",")) for token in parts[3:]]
        )
    return sorted(curves, key=lambda c: height(c, Fraction(0)))


def height(c: Curve, x: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(c, c[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"x={x} outside the curve")


def _pair(c1: Curve, c2: Curve):
    """(crossing points, clean) for one pair; clean is False when the
    curves touch, overlap or cross at a vertex."""
    lo = max(c1[0][0], c2[0][0])
    hi = min(c1[-1][0], c2[-1][0])
    if lo > hi:
        return [], True
    xs = sorted({lo, hi} | {x for x, _ in c1 + c2 if lo <= x <= hi})
    diff = [height(c1, x) - height(c2, x) for x in xs]
    if any(d == 0 for d in diff):
        return [], False
    points = []
    for (xa, da), (xb, db) in zip(zip(xs, diff), zip(xs[1:], diff[1:])):
        if (da > 0) != (db > 0):
            x = xa - da * (xb - xa) / (db - da)
            points.append((x, height(c1, x)))
    return points, True


def crossing(c1: Curve, c2: Curve) -> bool:
    return bool(_pair(c1, c2)[0])


def truncate(c: Curve, anchor: Curve) -> Curve:
    """The prefix of c up to its single crossing with the anchor."""
    (x, y), = _pair(c, anchor)[0]
    return [v for v in c if v[0] < x] + [(x, y)]


def family_graph(curves: list[Curve]):
    """(labels, adjacency, valid) of a right-flag family labelled 1..n.

    valid mirrors the simple-family rules: every curve starts on x = 0
    with its own height, x strictly increases, and every pair crosses
    at most once, properly, away from vertices and third curves."""
    n = len(curves)
    labels = list(range(1, n + 1))
    adj = {v: set() for v in labels}
    valid = all(
        c[0][0] == 0 and all(a[0] < b[0] for a, b in zip(c, c[1:])) for c in curves
    )
    valid = valid and len({c[0][1] for c in curves}) == n
    seen_points: dict = {}
    # a pair whose height ranges are strictly apart neither meets nor touches
    ys = [(min(y for _, y in c), max(y for _, y in c)) for c in curves]
    for i, j in combinations(range(n), 2):
        if ys[i][1] < ys[j][0] or ys[j][1] < ys[i][0]:
            continue
        points, clean = _pair(curves[i], curves[j])
        valid = valid and clean and len(points) <= 1
        if points:
            adj[i + 1].add(j + 1)
            adj[j + 1].add(i + 1)
            for p in points:
                seen_points[p] = seen_points.get(p, 0) + 1
    valid = valid and all(count == 1 for count in seen_points.values())
    return labels, adj, valid


def induced(labels, adj, keep):
    keep = set(keep)
    sub = [v for v in labels if v in keep]
    return sub, {v: adj[v] & keep for v in sub}


def _bits(labels, adj):
    index = {v: i for i, v in enumerate(labels)}
    return [sum(1 << index[u] for u in adj[v]) for v in labels]


def omega(labels, adj) -> int:
    """Clique number by bitset branch and bound."""
    nbr = _bits(labels, adj)
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            expand(cand & nbr[v], size + 1)

    expand((1 << len(labels)) - 1, 0)
    return best


def is_clique(adj, vs) -> bool:
    return all(b in adj[a] for a, b in combinations(vs, 2))


def dsatur_colours(labels, adj) -> int:
    colour: dict[int, int] = {}
    seen: dict[int, set[int]] = {v: set() for v in labels}
    todo = set(labels)
    while todo:
        v = min(todo, key=lambda u: (-len(seen[u]), -len(adj[u]), u))
        c = 1
        while c in seen[v]:
            c += 1
        colour[v] = c
        todo.discard(v)
        for u in adj[v]:
            seen[u].add(c)
    return max(colour.values(), default=0)


def first_fit_colours(labels, adj) -> int:
    colour: dict[int, int] = {}
    for v in labels:
        used = {colour[u] for u in adj[v] if u in colour}
        c = 1
        while c in used:
            c += 1
        colour[v] = c
    return max(colour.values(), default=0)


def chi(labels, adj, node_cap: int = 200_000) -> int | None:
    """Chromatic number, or None if the search passes node_cap nodes.

    Bounded below by omega and above by DSATUR; in between, a
    saturation-ordered colouring search decides each k."""
    if not labels:
        return 0
    lb, ub = omega(labels, adj), dsatur_colours(labels, adj)
    nbr = _bits(labels, adj)
    n = len(labels)
    nodes = 0

    def colourable(k: int) -> bool:
        nonlocal nodes
        colour = [0] * n
        forbidden = [0] * n  # bit c set: colour c+1 is on a neighbour

        def search(left: int, used: int) -> bool:
            nonlocal nodes
            if not left:
                return True
            nodes += 1
            if nodes > node_cap:
                raise OverflowError
            v = max(
                (u for u in range(n) if left >> u & 1),
                key=lambda u: (forbidden[u].bit_count(), nbr[u].bit_count()),
            )
            for c in range(min(k, used + 1)):
                if forbidden[v] >> c & 1:
                    continue
                colour[v] = c + 1
                touched = [u for u in range(n) if nbr[v] >> u & 1 and not forbidden[u] >> c & 1]
                for u in touched:
                    forbidden[u] |= 1 << c
                if search(left & ~(1 << v), max(used, c + 1)):
                    return True
                for u in touched:
                    forbidden[u] &= ~(1 << c)
            colour[v] = 0
            return False

        return search((1 << n) - 1, 0)

    try:
        for k in range(lb, ub):
            if colourable(k):
                return k
    except OverflowError:
        return None
    return ub


def is_proper(adj, colouring: dict[int, int], k: int) -> bool:
    return all(1 <= c <= k for c in colouring.values()) and all(
        colouring[u] != colouring[v] for u in colouring for v in adj[u] if v in colouring
    )


def bipartite(labels, adj) -> bool:
    side: dict[int, int] = {}
    for start in labels:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in side:
                    side[u] = 1 - side[v]
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def bfs_layers(labels, adj, source) -> list[list[int]]:
    dist = {source: 0}
    frontier = [source]
    layers = []
    while frontier:
        layers.append(sorted(frontier))
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return layers


def max_layer_chi(labels, adj, source):
    """(d, chi) of the first BFS layer of largest chromatic number, or
    None if some layer's chi is undecided."""
    best = (0, -1)
    for d, layer in enumerate(bfs_layers(labels, adj, source)):
        value = chi(*induced(labels, adj, layer))
        if value is None:
            return None
        if value > best[1]:
            best = (d, value)
    return best


def alpha_breakpoints(labels, adj, alpha):
    """Greedy-leftmost alpha sequence: each breakpoint is the least label
    whose block reaches chromatic number alpha; a remainder colourable
    with fewer colours ends the sequence.  None if a chi is undecided."""
    breakpoints = [labels[0]]
    pos = 0
    while pos < len(labels):
        rest = labels[pos:]
        value = chi(*induced(labels, adj, rest))
        if value is None:
            return None
        if value < alpha:
            breakpoints.append(labels[-1])
            break
        for idx in range(len(rest)):
            value = chi(*induced(labels, adj, rest[: idx + 1]))
            if value is None:
                return None
            if value == alpha:
                breakpoints.append(rest[idx])
                pos += idx + 1
                break
    return breakpoints


def pair_sets(labels, adj, low, high) -> dict[str, list[int]]:
    """The eight index sets around a crossing pair, by their CLI names."""
    inside = [v for v in labels if low < v < high]
    meets_low = [v for v in inside if v in adj[low]]
    meets_high = [v for v in inside if v in adj[high]]
    misses_both = [v for v in inside if v not in adj[low] and v not in adj[high]]
    linked_low = [v for v in misses_both if adj[v] & set(meets_low)]
    linked_high = [v for v in misses_both if adj[v] & set(meets_high)]
    return {
        "meets_low": meets_low,
        "misses_low": [v for v in inside if v not in adj[low]],
        "meets_high": meets_high,
        "misses_high": [v for v in inside if v not in adj[high]],
        "misses_both": misses_both,
        "linked_low": linked_low,
        "linked_high": linked_high,
        "shielded": [v for v in misses_both if v not in linked_low and v not in linked_high],
    }


def isolation_violator(labels, adj, low, high, shielded):
    for v in labels:
        if low <= v <= high and (low in adj[v] or high in adj[v]):
            if adj[v] & set(shielded):
                return v
    return None


def cliques(labels, adj, size):
    """All cliques of the given size, each as an ascending tuple."""

    def extend(prefix, cands):
        if len(prefix) == size:
            yield tuple(prefix)
            return
        for i, v in enumerate(cands):
            yield from extend(prefix + [v], [u for u in cands[i + 1 :] if u in adj[v]])

    yield from extend([], list(labels))


def sandwich_count(labels, adj) -> int:
    """Number of (clique of size 2..4, inner curve) pairs the `shortcheck`
    subcommand examines by default."""
    count = 0
    for size in range(2, min(len(labels), 5)):
        for clique in cliques(labels, adj, size):
            members = set(clique)
            for inner in range(clique[0] + 1, clique[-1]):
                if inner not in members and inner in adj and not adj[inner] & members:
                    count += 1
    return count
