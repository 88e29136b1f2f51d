from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcurves import (
    KTooSmall,
    NotCrossing,
    OrderedGraph,
    PreconditionFailed,
    alpha_sequence,
    arc_analysis,
    build_intersection_graph,
    chi_exact,
    decompose_around_pair,
    distance_layers,
    extract_gap_subgraph,
    isolation_check,
    max_layer_chi,
    remove_neighbors,
    threshold_schedule,
)
from xmcurves.coloring import arc_intersection_graph, omega_exact
from xmcurves.geometry import crossing_points
from xmcurves.lemmas import decomposition_report
from conftest import five_curve_family, ladder_arc_family
from oracles import (
    induced_by_edge_scan,
    prefix_alpha_sequence,
    random_connected_graph,
    random_graph,
    recursive_chi_exact,
    unshared_gap_subgraph,
)


def path(n):
    return OrderedGraph.from_edges(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def star(n):
    return OrderedGraph.from_edges(range(1, n + 2), [(1, i) for i in range(2, n + 2)])


def complete(n):
    return OrderedGraph.from_edges(
        range(1, n + 1), [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


class TestThresholdSchedule:
    def test_base_and_recurrence(self):
        assert threshold_schedule(2).exponent == 1
        assert threshold_schedule(3).exponent == 126
        assert threshold_schedule(4).exponent == 751

    def test_closed_form_agreement_up_to_40(self):
        value = 1
        for k in range(2, 41):
            if k > 2:
                value = 5 * value + 121
            sched = threshold_schedule(k)
            assert sched.exponent == value == sched.threshold_log2
            assert (5 ** (k + 1) - 121) == 4 * value

    def test_k_too_small(self):
        with pytest.raises(KTooSmall):
            threshold_schedule(1)


class TestDistanceLayers:
    def test_path_from_end(self):
        layers = distance_layers(path(5), 1)
        assert layers.layers == ((1,), (2,), (3,), (4,), (5,))
        d, value = max_layer_chi(path(5), layers)
        assert value == 1 and d == 0

    def test_star_from_center(self):
        layers = distance_layers(star(5), 1)
        assert layers.layers == ((1,), (2, 3, 4, 5, 6))
        assert max_layer_chi(star(5), layers)[1] == 1

    def test_layer_edges_and_half_chi(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_connected_graph(rng, 20, 20)
            layers = distance_layers(g, 1)
            index = {v: d for d, layer in enumerate(layers.layers) for v in layer}
            assert set(index) == set(g.vertices)
            for u, v in g.edges:
                assert abs(index[u] - index[v]) <= 1
            whole = chi_exact(g)[0]
            assert max_layer_chi(g, layers)[1] >= -(-whole // 2)


class TestAlphaSequence:
    def test_isolated_vertices(self):
        g = OrderedGraph.from_edges([1, 2, 3, 4], [])
        seq = alpha_sequence(g, 1)
        assert seq.breakpoints == (1, 1, 2, 3, 4)
        assert seq.m == 4

    def test_k4_alpha_2(self):
        seq = alpha_sequence(complete(4), 2)
        assert seq.breakpoints == (1, 2, 4)
        blocks = seq.block_labels(complete(4))
        assert blocks == [(1, 2), (3, 4)]

    def test_alpha_above_chi_is_single_block(self):
        g = path(6)
        seq = alpha_sequence(g, 5)
        assert seq.breakpoints == (1, 6) and seq.m == 1

    def test_alpha_validation(self):
        with pytest.raises(PreconditionFailed):
            alpha_sequence(path(3), 0)

    def test_postconditions_on_random_graphs(self):
        rng = random.Random(31)
        for trial in range(40):
            g = random_graph(rng, 8 + trial % 5, 25 + (trial * 13) % 50)
            alpha = 1 + trial % 3
            seq = alpha_sequence(g, alpha)
            blocks = seq.block_labels(g)
            covered = [v for block in blocks for v in block]
            assert covered == list(g.vertices)
            for block in blocks[:-1]:
                assert chi_exact(g.induced(block))[0] == alpha
            assert chi_exact(g.induced(blocks[-1]))[0] <= alpha


def blocky_graph(rng, block_sizes, bridge_percent=10):
    """Consecutive clique blocks along the index order plus a few sparse
    bridges; chromatic number is driven by the largest block."""
    edges = []
    start = 1
    ranges = []
    for size in block_sizes:
        ranges.append(range(start, start + size))
        edges += [(i, j) for i in ranges[-1] for j in ranges[-1] if i < j]
        start += size
    n = start - 1
    for r1 in ranges:
        for r2 in ranges:
            if r1.stop <= r2.start:
                for i in r1:
                    for j in r2:
                        if rng.randrange(100) < bridge_percent:
                            edges.append((i, j))
    return OrderedGraph.from_edges(range(1, n + 1), edges)


class TestGapSubgraph:
    def test_c5_base_case(self):
        g = OrderedGraph.from_edges(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        sub = extract_gap_subgraph(g, 0, 0)
        assert chi_exact(sub)[0] > 1
        for u, v in sub.edges:
            assert chi_exact(g.induced(range(u + 1, v)))[0] >= 1

    def test_k5_higher_target(self):
        sub = extract_gap_subgraph(complete(5), 1, 0)
        assert chi_exact(sub)[0] > 2

    def test_blocky_instance_with_gap(self):
        rng = random.Random(2)
        g = blocky_graph(rng, [5, 5, 5], bridge_percent=8)
        assert chi_exact(g)[0] > 4
        sub = extract_gap_subgraph(g, 0, 1)
        assert chi_exact(sub)[0] > 1
        for u, v in sub.edges:
            assert chi_exact(g.induced(range(u + 1, v)))[0] >= 2

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionFailed):
            extract_gap_subgraph(path(4), 0, 0)  # chi = 2 is not > 2
        with pytest.raises(PreconditionFailed):
            extract_gap_subgraph(complete(4), -1, 0)


class TestPairDecomposition:
    def test_five_curve_variant_with_linked_inner(self):
        fam = five_curve_family(inner_meets_low=True)
        graph = build_intersection_graph(fam)
        decomp = decompose_around_pair(graph, 1, 5)
        assert decomp.meets_low == (2,)
        assert decomp.meets_high == (4,)
        assert decomp.misses_both == (3,)
        assert decomp.linked_low == (3,)
        assert decomp.linked_high == ()
        assert decomp.shielded == ()

    def test_five_curve_variant_with_shielded_inner(self):
        fam = five_curve_family(inner_meets_low=False)
        graph = build_intersection_graph(fam)
        decomp = decompose_around_pair(graph, 1, 5)
        assert decomp.misses_both == (3,)
        assert decomp.linked_low == () and decomp.linked_high == ()
        assert decomp.shielded == (3,)
        ok, violator = isolation_check(graph, decomp)
        assert ok and violator is None

    def test_empty_inside(self):
        g = OrderedGraph.from_edges([1, 2], [(1, 2)])
        decomp = decompose_around_pair(g, 1, 2)
        assert all(not members for _, members in decomp.named_sets())

    def test_not_crossing(self):
        fam = five_curve_family(inner_meets_low=True)
        graph = build_intersection_graph(fam)
        with pytest.raises(NotCrossing):
            decompose_around_pair(graph, 1, 4)

    def test_set_identities_on_corpus(self, small_corpus):
        for fam, graph in small_corpus:
            for low, high in sorted(graph.edges):
                if high - low < 2:
                    continue
                decomp = decompose_around_pair(graph, low, high)
                inside = {v for v in graph.vertices if low < v < high}
                assert set(decomp.meets_low) | set(decomp.misses_low) == inside
                assert set(decomp.meets_low) & set(decomp.misses_low) == set()
                assert set(decomp.misses_both) == set(decomp.misses_low) & set(
                    decomp.misses_high
                )
                assert set(decomp.shielded) == set(decomp.misses_both) - (
                    set(decomp.linked_low) | set(decomp.linked_high)
                )
                ok, _ = isolation_check(graph, decomp)
                assert ok


class TestArcAnalysis:
    def test_single_arc_class(self):
        fam = five_curve_family(inner_meets_low=True)
        graph = build_intersection_graph(fam)
        decomp = decompose_around_pair(graph, 1, 5)
        analysis = arc_analysis(fam, graph, decomp, "low")
        assert len(analysis.arcs) == 1
        assert analysis.classes.classes == ((2,),)
        assert analysis.class_hits == ((3,),)
        assert analysis.lowest_met[3] == analysis.highest_met[3] == 1
        assert analysis.side_of[3] == "below"

    def test_ladder_met_range(self):
        fam = ladder_arc_family()
        graph = build_intersection_graph(fam)
        assert graph.edges == frozenset(
            {(1, 2), (1, 4), (1, 5), (1, 6), (3, 4), (3, 5)}
        )
        decomp = decompose_around_pair(graph, 1, 6)
        assert decomp.meets_low == (2, 4, 5)
        assert decomp.linked_low == (3,)
        analysis = arc_analysis(fam, graph, decomp, "low")
        assert analysis.classes.classes == ((2, 4, 5),)
        # curve 3 reaches the second and third rung arcs from below
        assert analysis.lowest_met[3] == 2
        assert analysis.highest_met[3] == 3
        assert analysis.side_of[3] == "above"

    def test_met_ranges_match_brute_scan_and_are_contiguous(
        self, small_corpus, ladder_corpus
    ):
        seen = 0
        for fam, graph in small_corpus + ladder_corpus:
            for low, high in sorted(graph.edges):
                if high - low < 2:
                    continue
                decomp = decompose_around_pair(graph, low, high)
                for side in ("low", "high"):
                    meets = decomp.meets_low if side == "low" else decomp.meets_high
                    if not meets:
                        continue
                    analysis = arc_analysis(fam, graph, decomp, side)
                    size, _ = omega_exact(arc_intersection_graph(analysis.arcs))
                    assert analysis.classes.num_classes == size
                    hit_chis = [
                        chi_exact(graph.induced(hit))[0] for hit in analysis.class_hits
                    ]
                    assert hit_chis[analysis.flagged_class] == max(hit_chis)
                    flagged = analysis.classes.classes[analysis.flagged_class]
                    arc_of = {a.parent: a for a in analysis.arcs}
                    for j, lo in analysis.lowest_met.items():
                        hi = analysis.highest_met[j]
                        met = [
                            pos
                            for pos, p in enumerate(flagged, start=1)
                            if crossing_points(fam.curve(j), arc_of[p].geometry)
                        ]
                        assert met == list(range(lo, hi + 1))
                        seen += 1
        assert seen >= 10  # the corpus must actually exercise the tables


class TestRemoveNeighbors:
    def test_isolated_pivots(self):
        g = OrderedGraph.from_edges([1, 2, 3, 4], [(3, 4)])
        surviving, report = remove_neighbors(g, [1])
        assert surviving == (2, 3, 4)
        assert report.pivot_neighborhood_chi == {1: 0}

    def test_star_center_pivot(self):
        surviving, report = remove_neighbors(star(5), [1])
        assert surviving == ()
        assert report.chi_surviving == 0
        # the open-neighborhood sum cannot bound the loss here; the
        # closed one does
        assert report.pivot_neighborhood_chi == {1: 1}
        assert report.pivot_closed_neighborhood_chi == {1: 2}
        assert report.chi_surviving >= report.lower_bound

    def test_closed_bound_on_random_graphs(self):
        rng = random.Random(13)
        for trial in range(30):
            g = random_graph(rng, 12, 35)
            pivots = sorted(rng.sample(range(1, 13), 1 + trial % 4))
            surviving, report = remove_neighbors(g, pivots)
            removed = set(pivots)
            for p in pivots:
                removed |= g.neighbors(p)
            assert set(surviving) == set(g.vertices) - removed
            assert report.chi_surviving >= report.lower_bound

    def test_duplicate_pivots_rejected(self):
        with pytest.raises(PreconditionFailed):
            remove_neighbors(star(3), [2, 2])


def test_decomposition_report_format():
    fam = ladder_arc_family()
    graph = build_intersection_graph(fam)
    decomp = decompose_around_pair(graph, 1, 6)
    analysis = arc_analysis(fam, graph, decomp, "low")
    lines = decomposition_report(decomp, analysis=analysis, graph=graph, k=2)
    assert lines[0] == "pair 1 6"
    assert "set meets_low : 2 4 5" in lines
    assert "class 1 : 2 4 5" in lines
    assert "range 3 : l=2 u=3 side=above" in lines
    assert any(line.startswith("slack k=2") for line in lines)


@st.composite
def lemma_graphs(draw):
    """Random graphs on up to 12 labels, or blocky graphs of two to four
    clique blocks with drawn bridges."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return random_graph(rng, draw(st.integers(1, 12)), draw(st.integers(10, 90)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    return blocky_graph(rng, sizes, bridge_percent=draw(st.integers(0, 40)))


@given(g=lemma_graphs(), alpha=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_alpha_sequence_matches_prefix_solves(g, alpha):
    assert alpha_sequence(g, alpha).breakpoints == prefix_alpha_sequence(g, alpha)


@given(g=lemma_graphs(), alpha=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_alpha_sequence_colors_each_block_with_chi_colors(g, alpha):
    seq = alpha_sequence(g, alpha)
    blocks = seq.block_labels(g)
    assert len(seq.colorings) == len(blocks)
    for t, (block, coloring) in enumerate(zip(blocks, seq.colorings)):
        chi = recursive_chi_exact(induced_by_edge_scan(g, block))[0]
        assert coloring.is_proper(g.induced(block))
        assert coloring.num_colors == len(set(coloring.assignment.values())) == chi
        if t < len(blocks) - 1:
            assert chi == alpha


@given(g=lemma_graphs(), a=st.integers(0, 1), b=st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_gap_subgraph_matches_unshared_solves(g, a, b):
    try:
        want = unshared_gap_subgraph(g, a, b)
    except PreconditionFailed:
        with pytest.raises(PreconditionFailed):
            extract_gap_subgraph(g, a, b)
        return
    assert extract_gap_subgraph(g, a, b) == want


def test_gap_subgraph_matches_unshared_solves_on_criterion_graphs():
    rng = random.Random(6)
    for a, b in ((0, 0), (0, 1), (1, 0)):
        need = 2 ** (a + b + 1)
        for _ in range(8):
            g = blocky_graph(rng, [need + 1 + rng.randrange(2) for _ in range(3)], 3)
            if chi_exact(g)[0] > need:
                assert extract_gap_subgraph(g, a, b) == unshared_gap_subgraph(g, a, b)
