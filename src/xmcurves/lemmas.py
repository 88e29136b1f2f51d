"""Executable lemma machinery over ordered intersection graphs.

Covers the threshold-exponent schedule, BFS distance layers, alpha
sequences, gap-subgraph extraction, the eight-set decomposition around a
crossing pair, grounded-arc analysis with chain classes and met-arc
ranges, pivot-neighborhood pruning, and the isolation check.  Operations
verify their chromatic hypotheses with the exact solver and raise typed
errors rather than proceed unsoundly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .coloring import ChainPartition, Coloring, chi_exact, dilworth_chain_partition
from .errors import KTooSmall, NotCrossing, PreconditionFailed
from .geometry import Arc, PolyCurve, crossing_points
from .graphs import CurveFamily, OrderedGraph


@dataclass(frozen=True)
class ThresholdSchedule:
    """Exponent schedule for the chromatic threshold that forces k
    pairwise crossing curves: chi > 2**exponent does it."""

    k: int
    exponent: int
    threshold_log2: int

    def __post_init__(self):
        if self.exponent != self.threshold_log2:
            raise AssertionError("recurrence and closed form disagree")


def threshold_schedule(k: int) -> ThresholdSchedule:
    """Exponent for level k, by recurrence and by closed form.

    exponent(2) = 1 and exponent(k) = 5*exponent(k-1) + 121; the closed
    form is (5**(k+1) - 121) / 4.  Both are computed with exact integers
    and cross-checked.
    """
    if k < 2:
        raise KTooSmall(f"threshold schedule needs k >= 2, got {k}")
    value = 1
    for _ in range(3, k + 1):
        value = 5 * value + 121
    closed_num = 5 ** (k + 1) - 121
    if closed_num % 4 != 0:
        raise AssertionError("closed form is not an integer")
    return ThresholdSchedule(k, value, closed_num // 4)


@dataclass(frozen=True)
class DistanceLayers:
    source: int
    layers: tuple[tuple[int, ...], ...]  # layers[d] = vertices at BFS distance d

    def layer(self, d: int) -> tuple[int, ...]:
        return self.layers[d]


def distance_layers(graph: OrderedGraph, source: int) -> DistanceLayers:
    """BFS layers of the source's connected component."""
    if source not in graph.adjacency:
        raise PreconditionFailed(f"source {source} not in graph")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    depth = max(dist.values())
    layers = tuple(
        tuple(sorted(v for v, d in dist.items() if d == i)) for i in range(depth + 1)
    )
    return DistanceLayers(source, layers)


def max_layer_chi(
    graph: OrderedGraph, layers: DistanceLayers, budget: int | None = None
) -> tuple[int, int]:
    """(d*, chi of layer d*) maximizing the layer chromatic number;
    ties go to the smallest distance."""
    best_d, best_chi = 0, -1
    for d, layer in enumerate(layers.layers):
        value = chi_exact(graph.induced(layer), budget)[0]
        if value > best_chi:
            best_d, best_chi = d, value
    return best_d, best_chi


@dataclass(frozen=True)
class AlphaSequence:
    """Breakpoints r_0..r_m splitting the label range into consecutive
    blocks: the first block is [r_0, r_1], later ones (r_i, r_{i+1}].
    Interior blocks have chromatic number exactly alpha, the final one at
    most alpha.  r_0 == r_1 happens when the first block is a single
    vertex; all later breakpoints strictly increase.  colorings[t] is
    chi_exact's coloring of block t."""

    alpha: int
    breakpoints: tuple[int, ...]
    colorings: tuple[Coloring, ...]

    @property
    def m(self) -> int:
        return len(self.breakpoints) - 1

    def block_labels(self, graph: OrderedGraph) -> list[tuple[int, ...]]:
        out = []
        r = self.breakpoints
        for t in range(self.m):
            if t == 0:
                members = [v for v in graph.vertices if r[0] <= v <= r[1]]
            else:
                members = [v for v in graph.vertices if r[t] < v <= r[t + 1]]
            out.append(tuple(members))
        return out


def alpha_sequence(
    graph: OrderedGraph, alpha: int, budget: int | None = None
) -> AlphaSequence:
    """Greedy-leftmost alpha sequence of the graph's label range.

    Each breakpoint is the least label whose block reaches chromatic
    number exactly alpha; the construction always exists because adding
    one vertex raises the block's chromatic number by at most one.  If
    the whole graph colors with fewer than alpha colors the result is a
    single block (m = 1).

    Each block grows one label at a time next to a proper coloring of it
    with fewer than alpha colors.  The new label takes its least free
    color; below alpha, that coloring certifies chi(block) < alpha with
    no search.  Otherwise the block is solved exactly: chi of a growing
    prefix never drops and rises by at most one per label, so a value of
    alpha makes this label the least breakpoint, and a lower value comes
    with an exact coloring to extend.  The final block is solved once it
    is complete.  A lone label (alpha = 1) takes color 1 without a solve.
    """
    if alpha < 1:
        raise PreconditionFailed(f"alpha must be >= 1, got {alpha}")
    if graph.n == 0:
        raise PreconditionFailed("alpha sequence of an empty graph")
    labels = graph.vertices
    adjacency = graph.adjacency
    breakpoints = [labels[0]]
    start = 0  # labels[start:] not yet covered by a finished block
    colors: dict[int, int] = {}  # the open block, with fewer than alpha colors
    colorings: list[Coloring] = []
    for idx, v in enumerate(labels):
        used = {colors[u] for u in adjacency[v] if u in colors}
        c = 1
        while c in used:
            c += 1
        if c < alpha:
            colors[v] = c
            continue
        if idx == start:  # a lone label, so alpha == 1 == chi
            value, coloring = 1, Coloring({v: 1}, 1)
        else:
            value, coloring = chi_exact(graph.induced(labels[start : idx + 1]), budget)
        if value == alpha:
            breakpoints.append(v)
            colorings.append(coloring)
            start = idx + 1
            colors = {}
        else:
            colors = dict(coloring.assignment)
    if start < len(labels):
        # the last block colors with fewer than alpha colors
        breakpoints.append(labels[-1])
        colorings.append(chi_exact(graph.induced(labels[start:]), budget)[1])
    return AlphaSequence(alpha, tuple(breakpoints), tuple(colorings))


def extract_gap_subgraph(
    graph: OrderedGraph, a: int, b: int, budget: int | None = None
) -> OrderedGraph:
    """Induced H with chi(H) > 2**a whose every edge spans a chromatic gap.

    Requires chi(graph) > 2**(a+b+1) (verified; PreconditionFailed
    otherwise).  Construction: take a 2**b alpha sequence, properly color
    each block, keep the color class with the largest chromatic number,
    split it into even- and odd-indexed block unions, and return the
    union with the larger chromatic number (even wins ties).  Every edge
    uv of the result then has chi(graph restricted to labels strictly
    between u and v) >= 2**b, because a full interior block separates
    their blocks.  The block colorings are the alpha sequence's own, and
    a lone color class is chosen without solving it.
    """
    if a < 0 or b < 0:
        raise PreconditionFailed("gap exponents must be nonnegative")
    need = 2 ** (a + b + 1)
    if chi_exact(graph, budget)[0] <= need:
        raise PreconditionFailed(f"chi(graph) must exceed {need}")

    seq = alpha_sequence(graph, 2**b, budget)
    class_members: dict[int, list[int]] = {}
    block_index: dict[int, int] = {}
    for t, (members, coloring) in enumerate(zip(seq.block_labels(graph), seq.colorings)):
        for v in members:
            class_members.setdefault(coloring.assignment[v], []).append(v)
            block_index[v] = t

    classes = [class_members[color] for color in sorted(class_members)]
    chosen = classes[0]  # a lone class wins unsolved
    if len(classes) > 1:
        chosen = max(classes, key=lambda cls: chi_exact(graph.induced(cls), budget)[0])

    even = [v for v in chosen if block_index[v] % 2 == 0]
    odd = [v for v in chosen if block_index[v] % 2 == 1]
    even_chi = chi_exact(graph.induced(even), budget)[0]
    odd_chi = chi_exact(graph.induced(odd), budget)[0]
    winner = even if even_chi >= odd_chi else odd
    return graph.induced(winner)


@dataclass(frozen=True)
class PairDecomposition:
    """The eight index sets induced by a crossing pair (low, high).

    All sets live in the open label interval (low, high).  meets_low and
    misses_low partition it by adjacency to the low curve (same on the
    high side); misses_both is their intersection; linked_low are the
    misses_both members adjacent to some meets_low member (same for
    linked_high); shielded is what remains.
    """

    low: int
    high: int
    meets_low: tuple[int, ...]
    misses_low: tuple[int, ...]
    meets_high: tuple[int, ...]
    misses_high: tuple[int, ...]
    misses_both: tuple[int, ...]
    linked_low: tuple[int, ...]
    linked_high: tuple[int, ...]
    shielded: tuple[int, ...]

    def named_sets(self) -> list[tuple[str, tuple[int, ...]]]:
        return [
            ("meets_low", self.meets_low),
            ("misses_low", self.misses_low),
            ("meets_high", self.meets_high),
            ("misses_high", self.misses_high),
            ("misses_both", self.misses_both),
            ("linked_low", self.linked_low),
            ("linked_high", self.linked_high),
            ("shielded", self.shielded),
        ]


def decompose_around_pair(graph: OrderedGraph, low: int, high: int) -> PairDecomposition:
    """Compute the eight sets for a crossing pair low < high."""
    if low >= high:
        raise PreconditionFailed(f"need low < high, got {low}, {high}")
    if not graph.has_edge(low, high):
        raise NotCrossing(f"curves {low} and {high} do not cross")
    inside = [v for v in graph.vertices if low < v < high]
    nb_low = graph.neighbors(low)
    nb_high = graph.neighbors(high)
    meets_low = tuple(v for v in inside if v in nb_low)
    misses_low = tuple(v for v in inside if v not in nb_low)
    meets_high = tuple(v for v in inside if v in nb_high)
    misses_high = tuple(v for v in inside if v not in nb_high)
    misses_both = tuple(v for v in inside if v not in nb_low and v not in nb_high)
    linked_low = tuple(
        v for v in misses_both if any(graph.has_edge(v, u) for u in meets_low)
    )
    linked_high = tuple(
        v for v in misses_both if any(graph.has_edge(v, u) for u in meets_high)
    )
    drop = set(linked_low) | set(linked_high)
    shielded = tuple(v for v in misses_both if v not in drop)
    return PairDecomposition(
        low,
        high,
        meets_low,
        misses_low,
        meets_high,
        misses_high,
        misses_both,
        linked_low,
        linked_high,
        shielded,
    )


def isolation_check(
    graph: OrderedGraph, decomp: PairDecomposition
) -> tuple[bool, int | None]:
    """True iff every curve meeting an anchor and a shielded curve lies
    outside [low, high]; returns the violating index otherwise."""
    shielded = set(decomp.shielded)
    for v in graph.vertices:
        if not decomp.low <= v <= decomp.high:
            continue
        touches_anchor = graph.has_edge(v, decomp.low) or graph.has_edge(v, decomp.high)
        if touches_anchor and any(graph.has_edge(v, s) for s in shielded):
            return False, v
    return True, None


def truncate_at_anchor(curve: PolyCurve, anchor: PolyCurve) -> Arc:
    """Arc along `curve` from its left endpoint to its crossing with the
    anchor; requires exactly one proper crossing."""
    points = crossing_points(curve, anchor)
    if len(points) != 1:
        raise PreconditionFailed(
            f"curves {curve.id} and {anchor.id} must cross exactly once"
        )
    cut = points[0]
    kept = [v for v in curve.vertices if v.x < cut.x]
    if not kept or kept[-1] != cut:
        kept.append(cut)
    if len(kept) == 1:
        # a crossing at the grounding abscissa would need a shared
        # intercept, which valid families forbid
        raise PreconditionFailed(f"arc of curve {curve.id} would be degenerate")
    return Arc(curve.id, PolyCurve(curve.id, tuple(kept)))


@dataclass(frozen=True)
class ArcAnalysis:
    """Grounded arcs on one side of a crossing pair, their chain classes,
    which linked curves hit each class, and per-curve met-arc ranges.

    For the flagged class (the one whose hit set has the largest
    chromatic number), lowest_met/highest_met give the 1-based positions
    of the first and last arc each hitting curve meets, and side_of says
    whether those arcs lie above or below the curve.
    """

    anchor: int
    arcs: tuple[Arc, ...]
    classes: ChainPartition
    class_hits: tuple[tuple[int, ...], ...]
    flagged_class: int  # 0-based index into classes
    lowest_met: dict[int, int]
    highest_met: dict[int, int]
    side_of: dict[int, str]


def arc_analysis(
    family: CurveFamily,
    graph: OrderedGraph,
    decomp: PairDecomposition,
    side: str,
    budget: int | None = None,
) -> ArcAnalysis:
    """Build and classify the grounded arcs for one side of the pair.

    side "low" truncates the meets_low curves at the low anchor and
    tracks hits from linked_low; side "high" is symmetric.
    """
    if side == "low":
        anchor, meets, linked = decomp.low, decomp.meets_low, decomp.linked_low
    elif side == "high":
        anchor, meets, linked = decomp.high, decomp.meets_high, decomp.linked_high
    else:
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
    if not meets:
        raise PreconditionFailed(f"no curves meet anchor {anchor} inside the pair")

    anchor_curve = family.curve(anchor)
    arcs = tuple(truncate_at_anchor(family.curve(i), anchor_curve) for i in meets)
    arc_by_parent = {arc.parent: arc for arc in arcs}
    classes = dilworth_chain_partition(arcs)

    hits: list[tuple[int, ...]] = []
    for members in classes.classes:
        hit = tuple(
            j
            for j in linked
            if any(
                crossing_points(family.curve(j), arc_by_parent[p].geometry)
                for p in members
            )
        )
        hits.append(hit)

    flagged, best = 0, -1
    for t, hit in enumerate(hits):
        value = chi_exact(graph.induced(hit), budget)[0]
        if value > best:
            flagged, best = t, value

    flagged_parents = classes.classes[flagged]
    lowest: dict[int, int] = {}
    highest: dict[int, int] = {}
    side_of: dict[int, str] = {}
    for j in hits[flagged]:
        met = [
            pos
            for pos, p in enumerate(flagged_parents, start=1)
            if crossing_points(family.curve(j), arc_by_parent[p].geometry)
        ]
        lowest[j] = met[0]
        highest[j] = met[-1]
        parents_met = [flagged_parents[pos - 1] for pos in met]
        if all(p > j for p in parents_met):
            side_of[j] = "above"
        elif all(p < j for p in parents_met):
            side_of[j] = "below"
        else:
            raise PreconditionFailed(
                f"curve {j} meets class arcs on both sides; geometry is not simple"
            )

    return ArcAnalysis(
        anchor, arcs, classes, tuple(hits), flagged, lowest, highest, side_of
    )


@dataclass(frozen=True)
class NeighborRemovalReport:
    surviving: tuple[int, ...]
    chi_total: int
    chi_surviving: int
    pivot_neighborhood_chi: dict[int, int]  # open neighborhood
    pivot_closed_neighborhood_chi: dict[int, int]

    @property
    def lower_bound(self) -> int:
        """chi_surviving always reaches chi_total minus the sum of the
        closed-neighborhood values (a union-bound identity)."""
        return self.chi_total - sum(self.pivot_closed_neighborhood_chi.values())


def remove_neighbors(
    graph: OrderedGraph, pivots: list[int], budget: int | None = None
) -> tuple[tuple[int, ...], NeighborRemovalReport]:
    """Drop the pivots and every neighbor of a pivot; report the
    chromatic budget the removal can have cost.

    The survivors' chromatic number is at least chi(graph) minus the sum
    over pivots of chi of the pivot's closed neighborhood.  (The open
    neighborhoods alone do not bound it: a lone pivot still needs its own
    color.)  Both per-pivot values are reported.
    """
    if len(set(pivots)) != len(pivots):
        raise PreconditionFailed("pivots must be distinct")
    for p in pivots:
        if p not in graph.adjacency:
            raise PreconditionFailed(f"pivot {p} not in graph")
    removed = set(pivots)
    for p in pivots:
        removed |= graph.neighbors(p)
    surviving = tuple(v for v in graph.vertices if v not in removed)
    open_chi = {
        p: chi_exact(graph.induced(graph.neighbors(p)), budget)[0] for p in pivots
    }
    closed_chi = {
        p: chi_exact(graph.induced(set(graph.neighbors(p)) | {p}), budget)[0]
        for p in pivots
    }
    report = NeighborRemovalReport(
        surviving,
        chi_exact(graph, budget)[0],
        chi_exact(graph.induced(surviving), budget)[0],
        open_chi,
        closed_chi,
    )
    return surviving, report


def decomposition_report(
    decomp: PairDecomposition,
    analysis: ArcAnalysis | None = None,
    graph: OrderedGraph | None = None,
    k: int | None = None,
    budget: int | None = None,
) -> list[str]:
    """Text trace: the eight sets, and optionally arc classes, met-arc
    tables, and the chromatic slack bounds for a given clique budget k."""

    def fmt(indices: tuple[int, ...]) -> str:
        return " ".join(str(i) for i in indices)

    lines = [f"pair {decomp.low} {decomp.high}"]
    for name, members in decomp.named_sets():
        lines.append(f"set {name} : {fmt(members)}".rstrip())
    if analysis is not None:
        for t, members in enumerate(analysis.classes.classes, start=1):
            lines.append(f"class {t} : {fmt(members)}".rstrip())
        for t, hit in enumerate(analysis.class_hits, start=1):
            lines.append(f"hits {t} : {fmt(hit)}".rstrip())
        lines.append(f"flagged {analysis.flagged_class + 1}")
        for j in sorted(analysis.lowest_met):
            lines.append(
                f"range {j} : l={analysis.lowest_met[j]} u={analysis.highest_met[j]} "
                f"side={analysis.side_of[j]}"
            )
    if graph is not None and k is not None:
        schedule = threshold_schedule(k)
        inside = graph.induced(
            [v for v in graph.vertices if decomp.low < v < decomp.high]
        )
        chi_inside = chi_exact(inside, budget)[0]
        chi_shielded = chi_exact(graph.induced(decomp.shielded), budget)[0]
        e = schedule.exponent
        slack_with_k = chi_inside - 2 ** (e + 1) - k * 2 ** (2 * e + 102)
        slack_without_k = chi_inside - 2 ** (e + 1) - 2 ** (2 * e + 102)
        lines.append(f"chi inside : {chi_inside}")
        lines.append(f"chi shielded : {chi_shielded}")
        lines.append(f"slack k={k} factored : {slack_with_k}")
        lines.append(f"slack k={k} unfactored : {slack_without_k}")
    return lines
