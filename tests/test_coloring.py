from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcurves import (
    Arc,
    BudgetExceeded,
    Coloring,
    NotAPoset,
    OrderedGraph,
    chi_exact,
    chi_heuristic,
    curve,
    dilworth_chain_partition,
    omega_exact,
)
from xmcurves.coloring import _components, _dsatur, _greedy_clique, arc_intersection_graph
from xmcurves.graphs import bit_positions
from conftest import nested_subgraphs
from oracles import (
    _components as frozenset_components,
    _dsatur_order_coloring,
    _greedy_clique as frozenset_greedy_clique,
    brute_chi,
    brute_omega,
    induced_by_edge_scan,
    random_graph,
    recursive_chi_exact,
    recursive_omega_exact,
)


def cycle(n):
    return OrderedGraph.from_edges(
        range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)]
    )


def complete(n):
    return OrderedGraph.from_edges(
        range(1, n + 1), [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def test_chi_exact_examples():
    value, coloring = chi_exact(cycle(5))
    assert value == 3 and coloring.is_proper(cycle(5))
    for k in (2, 3, 4, 6):
        value, coloring = chi_exact(complete(k))
        assert value == k and coloring.is_proper(complete(k))


def test_chi_exact_matches_brute_force():
    rng = random.Random(5)
    for trial in range(80):
        g = random_graph(rng, 4 + trial % 5, 15 + (trial * 7) % 70)
        value, coloring = chi_exact(g)
        assert value == brute_chi(g)
        assert coloring.is_proper(g)


def test_chi_exact_budget():
    with pytest.raises(BudgetExceeded):
        chi_exact(cycle(5), budget=1)
    # the greedy clique (2) does not certify an odd cycle (3), so without
    # a budget its search is capped at n <= 64
    big = cycle(69)
    with pytest.raises(BudgetExceeded, match="exceeds default cap"):
        chi_exact(big)
    assert chi_exact(big, budget=10**4)[0] == 3  # explicit budget lifts the cap


def _fits(graph, budget):
    try:
        chi_exact(graph, budget)
    except BudgetExceeded:
        return False
    return True


def test_chi_exact_budget_counts_nodes_over_all_components():
    g = random_graph(random.Random(41), 16, 45)
    nodes = next(b for b in range(1, 100) if _fits(g, b))
    assert nodes == 6  # the least budget one copy solves within
    copies = OrderedGraph.from_edges(
        range(1, 33), [*g.edges, *((u + 16, v + 16) for u, v in g.edges)]
    )
    value, coloring = chi_exact(copies, budget=2 * nodes)
    assert value == chi_exact(g)[0] and coloring.is_proper(copies)
    with pytest.raises(BudgetExceeded):
        chi_exact(copies, budget=2 * nodes - 1)


def test_heuristics():
    assert chi_heuristic(OrderedGraph.from_edges([1, 2, 3], []), "dsatur")[0] == 1
    assert chi_heuristic(OrderedGraph.from_edges([1, 2, 3], []), "firstfit")[0] == 1
    for k in (2, 5):
        assert chi_heuristic(complete(k), "dsatur")[0] == k
        assert chi_heuristic(complete(k), "firstfit")[0] == k
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, 30, 30)
        exact = chi_exact(g)[0]
        for mode in ("dsatur", "firstfit"):
            value, coloring = chi_heuristic(g, mode)
            assert value >= exact
            assert coloring.is_proper(g)
    with pytest.raises(ValueError):
        chi_heuristic(complete(2), "magic")


def test_omega_examples():
    g = OrderedGraph.from_edges([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    size, witness = omega_exact(g)  # K4 minus the 2-4 edge
    assert size == 3 and witness.vertices == (1, 2, 3)
    size, witness = omega_exact(OrderedGraph.from_edges([3, 5, 9], []))
    assert size == 1 and witness.vertices == (3,)


def test_omega_matches_brute_force():
    rng = random.Random(23)
    for trial in range(60):
        g = random_graph(rng, 5 + trial % 6, 20 + (trial * 11) % 60)
        size, witness = omega_exact(g)
        brute_size, brute_witness = brute_omega(g)
        assert size == brute_size
        assert witness.vertices == brute_witness
        assert witness.is_clique(g)


def horizontal_arc(parent, y, x_end):
    return Arc(parent, curve(parent, (0, y), (x_end, y)))


def crossing_arcs(k):
    # grounded fan truncated anywhere keeps every pair crossing
    arcs = []
    for i in range(1, k + 1):
        arcs.append(Arc(i, curve(i, (0, i), (8, -i * i))))
    return arcs


def test_dilworth_examples():
    disjoint = [horizontal_arc(i, i, 4) for i in (1, 2, 3)]
    part = dilworth_chain_partition(disjoint)
    assert part.classes == ((1, 2, 3),)

    crossing = crossing_arcs(4)
    part = dilworth_chain_partition(crossing)
    assert part.num_classes == 4
    assert all(len(c) == 1 for c in part.classes)


def test_dilworth_class_count_is_arc_clique_number():
    from fractions import Fraction

    rng = random.Random(3)
    for trial in range(25):
        arcs = []
        for i in range(1, 13):
            y0 = i + Fraction(rng.randrange(-20, 21), 64)
            end_y = rng.randrange(-8, 9)
            length = rng.randrange(2, 9)
            arcs.append(Arc(i, curve(i, (0, y0), (length, end_y))))
        try:
            part = dilworth_chain_partition(arcs)
        except NotAPoset:
            continue  # free-floating arcs may not order; see the anchored test
        size, _ = omega_exact(arc_intersection_graph(arcs))
        assert part.num_classes == size
        for cls in part.classes:
            graph = arc_intersection_graph([a for a in arcs if a.parent in cls])
            assert not graph.edges  # classes are pairwise disjoint


def test_dilworth_not_a_poset():
    # short middle arc separates two long arcs near the axis; the long
    # arcs still cross beyond it, so below-ness is not transitive
    arcs = [
        Arc(1, curve(1, (0, 0), (10, 5))),
        Arc(2, curve(2, (0, 1), ("1/4", 1))),
        Arc(3, curve(3, (0, 2), (10, -5))),
    ]
    with pytest.raises(NotAPoset):
        dilworth_chain_partition(arcs)


def test_solver_determinism():
    rng = random.Random(99)
    g = random_graph(rng, 14, 40)
    assert chi_exact(g) == chi_exact(g)
    assert omega_exact(g) == omega_exact(g)
    assert chi_heuristic(g, "dsatur") == chi_heuristic(g, "dsatur")


def edgeless(labels):
    return OrderedGraph.from_edges(labels, [])


def test_edgeless_chi_exact_colors_everything_one():
    for labels in ([7], range(1, 6), range(-3, 61)):
        g = edgeless(labels)
        want = recursive_chi_exact(g)  # the component-by-component answer
        assert chi_exact(g) == want == (1, Coloring(dict.fromkeys(labels, 1), 1))
        assert chi_exact(g, budget=1) == want
    # certified without a search, so the n <= 64 cap does not apply
    big = edgeless(range(1, 66))
    want = (1, Coloring(dict.fromkeys(range(1, 66), 1), 1))
    assert chi_exact(big) == chi_exact(big, budget=1) == want


def test_long_odd_cycle_needs_no_recursion():
    g = cycle(1501)
    value, coloring = chi_exact(g, budget=10**7)
    assert value == 3 and coloring.is_proper(g)
    assert omega_exact(g)[0] == 2


@st.composite
def dense_graphs(draw):
    """Up to 13 labels with a drawn edge density, often enough for the
    clique bound to fall short of DSATUR, so the search must branch."""
    n = draw(st.integers(1, 13))
    percent = draw(st.integers(10, 90))
    seed = draw(st.integers(0, 2**32))
    return random_graph(random.Random(seed), n, percent)


@given(g=dense_graphs())
@settings(max_examples=200, deadline=None)
def test_exact_solvers_match_recursive_search(g):
    # same value, same coloring, same lexicographically least witness
    assert chi_exact(g) == recursive_chi_exact(g)
    size, witness = omega_exact(g)
    assert (size, witness.vertices) == recursive_omega_exact(g)


def test_exact_solvers_match_recursive_search_when_branching():
    rng = random.Random(41)
    branched = 0
    for _ in range(40):
        g = random_graph(rng, 16, 45)
        branched += omega_exact(g)[0] < chi_heuristic(g, "dsatur")[0]
        assert chi_exact(g) == recursive_chi_exact(g)
        size, witness = omega_exact(g)
        assert (size, witness.vertices) == recursive_omega_exact(g)
    assert branched >= 5


@given(graphs=nested_subgraphs())
@settings(max_examples=300, deadline=None)
def test_mask_presolve_matches_frozenset_copies(graphs):
    # same components, same DSATUR colours in the same pick order and the
    # same greedy clique as the frozenset helpers, on the whole subgraph
    # and on each of its components, as chi_exact runs them
    root, sub = graphs
    labels, _, masks, keep, _ = sub._bits

    def as_labels(mask):
        return [labels[i] for i in bit_positions(mask)]

    want = induced_by_edge_scan(root, sub.vertices)
    parts = _components(masks, keep)
    assert [as_labels(c) for c in parts] == frozenset_components(want)
    for part in ([keep] if keep else []) + parts:
        graph = induced_by_edge_scan(root, as_labels(part))
        expect = _dsatur_order_coloring(graph).assignment
        assert list(_dsatur(labels, masks, part).items()) == list(expect.items())
        assert as_labels(_greedy_clique(masks, part)) == frozenset_greedy_clique(graph)
    assert chi_heuristic(sub, "dsatur")[1] == _dsatur_order_coloring(want)
    assert chi_exact(sub) == recursive_chi_exact(want)
