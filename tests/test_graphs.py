from __future__ import annotations

import copy
import pickle
import random
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmcurves import (
    EmptySubset,
    OrderedGraph,
    build_intersection_graph,
    curve,
    intersection_graph_of_curves,
    min_right_end_x,
)
from xmcurves.generators import GenSpec, generate
from xmcurves.graphs import adjacency_lines, cliques_ascending, is_clique, to_dot
from conftest import five_curve_family, nested_subgraphs
from oracles import induced_by_edge_scan, polyline_family_edges


def complete_graph(n):
    return OrderedGraph.from_edges(
        range(1, n + 1), [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def test_crossing_fan_gives_complete_graph():
    fam = generate(GenSpec(kind="crossingfan", n=4, k=4, seed=9))
    graph = build_intersection_graph(fam)
    assert graph.edges == complete_graph(4).edges


def test_disjoint_family_gives_empty_graph():
    fam_curves = [curve(i, (0, i), (4, i)) for i in range(1, 6)]
    graph = intersection_graph_of_curves(fam_curves)
    assert graph.n == 5 and not graph.edges


def test_five_curve_planted_edge_set():
    fam = five_curve_family(inner_meets_low=True)
    graph = build_intersection_graph(fam)
    assert graph.edges == frozenset({(1, 2), (2, 3), (4, 5), (1, 5)})
    assert polyline_family_edges(fam.curves) == set(graph.edges)


def test_relabeling_is_order_respecting(small_corpus):
    import random

    from xmcurves import CurveFamily

    rng = random.Random(8)
    for fam, graph in small_corpus[:10]:
        # scramble ids; from_curves must restore bottom-to-top labels and
        # leave the edge set untouched
        shuffled = list(fam.curves)
        rng.shuffle(shuffled)
        scrambled = [c.with_id(99 + i) for i, c in enumerate(shuffled)]
        rebuilt = build_intersection_graph(CurveFamily.from_curves(scrambled))
        assert rebuilt.edges == graph.edges and rebuilt.vertices == graph.vertices


def test_induced_interval_examples():
    k5 = complete_graph(5)
    assert k5.induced(range(1, 6)) == k5
    assert k5.induced(range(4, 4)).n == 0
    sub = k5.induced(range(2, 5))
    assert sub.vertices == (2, 3, 4)
    assert sub.edges == frozenset({(2, 3), (2, 4), (3, 4)})


@given(
    lo=st.integers(1, 6),
    hi=st.integers(6, 12),
    lo2=st.integers(1, 6),
    hi2=st.integers(6, 12),
    seed=st.integers(0, 500),
)
@settings(max_examples=50, deadline=None)
def test_nested_intervals_nest(lo, hi, lo2, hi2, seed):
    rng = random.Random(seed)
    g = OrderedGraph.from_edges(
        range(1, 13),
        [(i, j) for i in range(1, 13) for j in range(i + 1, 13) if rng.randrange(3) == 0],
    )
    gi = g.induced(range(max(lo, lo2), min(hi, hi2) + 1))
    go = g.induced(range(min(lo, lo2), max(hi, hi2) + 1))
    assert set(gi.vertices) <= set(go.vertices)
    assert gi.edges == go.induced(gi.vertices).edges


def test_min_right_end_x():
    fam = five_curve_family(inner_meets_low=True)
    # right ends: 20, 6, 2, 3, 18
    assert min_right_end_x(fam, [1, 2, 3, 4, 5]) == 2
    assert min_right_end_x(fam, [4]) == 3
    assert min_right_end_x(fam, [2, 4]) == 3
    with pytest.raises(EmptySubset):
        min_right_end_x(fam, [])


def test_intersection_graph_trivial_cases():
    crossing = [curve(1, (0, 0), (4, 4)), curve(2, (0, 4), (4, 0))]
    assert set(intersection_graph_of_curves(crossing).edges) == {(1, 2)}
    assert polyline_family_edges(crossing) == {(1, 2)}
    flats = [curve(i, (0, i), (4, i)) for i in range(1, 11)]
    assert set(intersection_graph_of_curves(flats).edges) == set()
    assert polyline_family_edges(flats) == set()


def test_intersection_graph_matches_oracle_on_random_unit_segments():
    from fractions import Fraction

    from xmcurves import Point, PolyCurve

    rng = random.Random(7)
    curves = []
    for i in range(1, 201):
        m = rng.randrange(2, 6)
        q = rng.randrange(1, m)
        c = m * m + q * q
        dx = Fraction(m * m - q * q, c)
        dy = Fraction(2 * m * q * (1 if rng.randrange(2) else -1), c)
        x0 = Fraction(rng.randrange(0, 640), 64)
        y0 = Fraction(rng.randrange(0, 640), 64)
        curves.append(PolyCurve(i, (Point(x0, y0), Point(x0 + dx, y0 + dy))))
    assert set(intersection_graph_of_curves(curves).edges) == polyline_family_edges(curves)

    from oracles import random_segment

    mixed = [random_segment(rng, i, 12) for i in range(1, 201)]
    assert set(intersection_graph_of_curves(mixed).edges) == polyline_family_edges(mixed)


def test_intersection_graph_takes_polylines():
    # the tent crosses the flat twice and misses the low flat entirely
    tent = curve(1, (0, 0), (1, 1), (2, 0))
    curves = [tent, curve(2, (0, "1/2"), (2, "1/2")), curve(3, (0, -1), (2, -1))]
    assert set(intersection_graph_of_curves(curves).edges) == {(1, 2)}
    assert polyline_family_edges(curves) == {(1, 2)}


def test_exports():
    g = OrderedGraph.from_edges([1, 2, 3], [(1, 2)])
    assert adjacency_lines(g) == ["1: 2", "2: 1", "3: "]
    dot = to_dot(g)
    assert "1 -- 2;" in dot and dot.startswith("graph G {")


@st.composite
def labeled_graphs(draw):
    """A graph on up to 12 arbitrary labels, with any edge set."""
    vertices = sorted(draw(st.sets(st.integers(-5, 30), max_size=12)))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return OrderedGraph.from_edges(vertices, [p for p, keep in zip(pairs, mask) if keep])


@given(graph=labeled_graphs(), labels=st.lists(st.integers(-8, 34), max_size=16))
@example(graph=complete_graph(4), labels=[])
@example(graph=complete_graph(4), labels=[0, 7, 9])
@example(graph=complete_graph(4), labels=[8, 3, 4, 3, 5])
@settings(max_examples=150, deadline=None)
def test_induced_matches_edge_scan(graph, labels):
    # labels outside the graph, repeats and the empty list are all drawn
    sub = graph.induced(labels)
    want = induced_by_edge_scan(graph, labels)
    assert sub.vertices == want.vertices and sub.edges == want.edges
    assert sub.adjacency == want.adjacency
    assert sub.induced(iter(labels)) == sub


@given(graph=labeled_graphs(), k=st.integers(1, 5))
@example(graph=complete_graph(0), k=1)
@example(graph=complete_graph(5), k=5)
@settings(max_examples=150, deadline=None)
def test_cliques_ascending_matches_subset_filter(graph, k):
    subsets = list(combinations(graph.vertices, k))
    want = [s for s in subsets if all(graph.has_edge(a, b) for a, b in combinations(s, 2))]
    assert list(cliques_ascending(graph, k)) == want
    assert [s for s in subsets if is_clique(graph, s)] == want


def test_cliques_ascending_needs_no_recursion():
    n = 150
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)  # far fewer frames than clique vertices
    try:
        cliques = list(cliques_ascending(complete_graph(n), n))
    finally:
        sys.setrecursionlimit(limit)
    assert cliques == [tuple(range(1, n + 1))]


BILLIONS = OrderedGraph.from_edges([-3, 10**9 - 1, 10**9 + 2], [(-3, 10**9 + 2)])


@given(graphs=nested_subgraphs())
@example(graphs=(BILLIONS, BILLIONS.induced([10**9 + 2, 5, -3]).induced([-3, 10**9 + 2, 10**9])))
@settings(max_examples=200, deadline=None)
def test_lazy_induced_keeps_value_semantics(graphs):
    root, sub = graphs
    want = induced_by_edge_scan(root, sub.vertices)
    assert sub == want and hash(sub) == hash(want) and repr(sub) == repr(want)
    assert sub.edges == want.edges and sub.adjacency == want.adjacency
    assert repr(want) == f"OrderedGraph(vertices={want.vertices!r}, edges={want.edges!r})"
    assert copy.deepcopy(sub) == sub == pickle.loads(pickle.dumps(sub))
    for name in ("vertices", "edges", "adjacency", "n", "_bits", "unknown"):
        with pytest.raises(AttributeError):
            setattr(sub, name, None)
        with pytest.raises(AttributeError):
            delattr(sub, name)
    # masks index positions in the root's label tuple, never label values
    for graph in (root, sub):
        labels, _, masks, keep, _ = graph._bits
        assert labels == root.vertices
        assert max((m.bit_length() for m in (*masks, keep)), default=0) <= root.n
