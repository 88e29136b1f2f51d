from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from xmcurves import CurveFamily, OrderedGraph, build_intersection_graph, curve
from xmcurves.generators import GenSpec, generate


def polyline_family(seed: int, n: int, segments: int = 2) -> CurveFamily:
    return generate(
        GenSpec(kind="rightflagpolylines", n=n, seed=seed, segments_per_curve=segments)
    )


def five_curve_family(inner_meets_low: bool) -> CurveFamily:
    """Five grounded curves with edges {1-2, 2-3, 1-5, 4-5} when
    inner_meets_low, else {1-2, 1-5, 4-5}: curve 3 either dips onto
    curve 2 or stays clear of everything."""
    c3 = curve(3, (0, 3), (2, "8/5")) if inner_meets_low else curve(3, (0, 3), (2, "7/2"))
    return CurveFamily.from_curves(
        [
            curve(1, (0, 1), (20, 6)),
            curve(2, (0, 2), (6, 2)),
            c3,
            curve(4, (0, 4), (3, 5)),
            curve(5, (0, 5), (18, "13/4")),
        ]
    )


def ladder_arc_family() -> CurveFamily:
    """Anchor curve 1 rising through three horizontal rungs 2, 4, 5; a
    middle curve 3 that climbs across the rungs' grounded prefixes; a
    top curve 6 met only by the anchor."""
    return CurveFamily.from_curves(
        [
            curve(1, (0, 1), (10, 10)),
            curve(2, (0, 2), (2, 2)),
            curve(3, (0, 3), (3, "11/2")),
            curve(4, (0, 4), (4, 4)),
            curve(5, (0, 5), (5, 5)),
            curve(6, (0, 6), (7, 6)),
        ]
    )


def seeded_ladder_family(seed: int) -> CurveFamily:
    """An anchor rising through k horizontal rungs plus a top curve, with
    climbers and descenders grounded between rungs that cross a contiguous
    run of rung prefixes strictly before the anchor gets there.

    For the pair (anchor, top) this guarantees: the rungs meet the low
    anchor, the climbers/descenders miss both anchors but hit rung arcs,
    and the met positions form contiguous ranges from one side.
    """
    rng = random.Random(seed)
    for attempt in range(32):
        k = rng.randrange(3, 6)
        jit = lambda: Fraction(rng.randrange(0, 8), 32)  # noqa: E731
        heights = [3 * (r + 1) + jit() for r in range(k)]
        top_y = 3 * k + 4 + jit()
        curves = [curve(1, (0, 1), (top_y + 3, top_y + 4))]  # anchor, slope 1
        cid = 2
        for h in heights:
            curves.append(curve(cid, (0, h), (h + jit() + Fraction(1, 2), h)))
            cid += 1
        for _ in range(rng.randrange(1, 4)):
            down = rng.randrange(2) == 0
            if down:
                j = rng.randrange(1, k)
                t = rng.randrange(1, j + 1)
                start_y = heights[j] + 2 + jit()
                end_y = heights[j - t + 1] - 1 - jit()
                x_end = heights[j - t + 1] - Fraction(5, 2) + jit()
            else:
                j = rng.randrange(0, k - 1)
                t = rng.randrange(1, k - j)
                start_y = heights[j] + 1 + jit()
                end_y = heights[j + t] + 1 + jit()
                x_end = heights[j + 1] - Fraction(3, 2) + jit()
            curves.append(curve(cid, (0, start_y), (x_end, end_y)))
            cid += 1
        curves.append(curve(cid, (0, top_y), (top_y + 2 + jit(), top_y)))
        try:
            return CurveFamily.from_curves(curves)
        except Exception:
            continue
    raise AssertionError(f"could not build a ladder family for seed {seed}")


@pytest.fixture(scope="session")
def small_corpus() -> list[tuple[CurveFamily, OrderedGraph]]:
    """Validated polyline families with their graphs, reused across
    structural tests."""
    out = []
    for seed in range(40):
        fam = polyline_family(seed=100 + seed, n=6 + seed % 5)
        out.append((fam, build_intersection_graph(fam)))
    return out


@pytest.fixture(scope="session")
def ladder_corpus() -> list[tuple[CurveFamily, OrderedGraph]]:
    out = []
    for seed in range(30):
        fam = seeded_ladder_family(seed)
        out.append((fam, build_intersection_graph(fam)))
    return out


# Labels that are negative, small, or near 10**9, so that no label value
# is a usable bit position.
LABELS = st.one_of(st.integers(-20, 20), st.integers(10**9 - 6, 10**9 + 6))


@st.composite
def nested_subgraphs(draw) -> tuple[OrderedGraph, OrderedGraph]:
    """(root, sub): a graph on up to 14 non-contiguous labels with any
    edge set, and an induced subgraph of an induced subgraph of it, each
    on requested labels that may repeat or lie outside the graph."""
    vertices = sorted(draw(st.sets(LABELS, max_size=14)))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    root = OrderedGraph.from_edges(vertices, [p for p, k in zip(pairs, keep) if k])
    requested = st.lists(st.one_of(LABELS, st.sampled_from(vertices)) if vertices else LABELS)
    first = root.induced(draw(requested))
    return root, first.induced(draw(requested))
