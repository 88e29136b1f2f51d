from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmcurves import (
    DegenerateCurve,
    NotCrossingAxis,
    PairContact,
    Point,
    PolyCurve,
    crossing_points,
    curve,
    pair_contacts,
    pt,
    split_at_y_axis,
    validate_family,
)
from xmcurves.geometry import candidate_pairs
from oracles import fraction_pair_contacts, join_at_y_axis, polyline_crossings, random_segment

# Denominators are pairwise coprime apart from 1, so that curves drawn over
# different ones meet only at shared integer grid points.
GRID_DENOMINATORS = [1, 1, 2, 3, 5, 7]


@st.composite
def grid_polylines(draw, cid):
    """A 1-3 segment polyline with vertices on a small grid of step 1/dx by
    1/dy, where shared vertices, touches and overlaps are frequent."""
    dx = draw(st.sampled_from(GRID_DENOMINATORS))
    dy = draw(st.sampled_from(GRID_DENOMINATORS))
    k = draw(st.integers(1, 3))
    xs = draw(st.lists(st.integers(-2 * dx, 6 * dx), min_size=k + 1, max_size=k + 1, unique=True))
    ys = draw(st.lists(st.integers(-3 * dy, 3 * dy), min_size=len(xs), max_size=len(xs)))
    return PolyCurve(
        cid, tuple(Point(Fraction(x, dx), Fraction(y, dy)) for x, y in zip(sorted(xs), ys))
    )


@st.composite
def grid_pairs(draw):
    a = draw(grid_polylines(1))
    b = draw(grid_polylines(2))
    if draw(st.booleans()):
        # give b a stretch of a: overlaps, vertex contacts and end touches
        start = draw(st.integers(0, len(a.vertices) - 2))
        lo, hi = a.vertices[start], a.vertices[start + 1]
        outside = [v for v in b.vertices if v.x < lo.x or v.x > hi.x]
        b = PolyCurve(2, tuple(sorted([lo, hi, *outside], key=lambda v: v.x)))
    return a, b


@given(pair=grid_pairs())
@settings(max_examples=400, deadline=None)
def test_integer_kernel_matches_fraction_kernel(pair):
    a, b = pair
    assert pair_contacts(a, b) == fraction_pair_contacts(a, b)
    assert pair_contacts(b, a) == fraction_pair_contacts(b, a)


@given(curves=st.lists(st.integers(1, 60).flatmap(grid_polylines), min_size=2, max_size=6))
@example(curves=[curve(1, (0, 0), (1, 1)), curve(2, (1, 1), (2, 0))])  # boxes share x = 1
@example(curves=[curve(1, (0, 0), (1, 1), (2, 0)), curve(2, (0, 1), (2, 1))])  # and y = 1
@settings(max_examples=150, deadline=None)
def test_candidate_pairs_drop_only_pairs_that_never_meet(curves):
    kept = {(id(a), id(b)) for a, b in candidate_pairs(curves)}
    for i, a in enumerate(curves):
        for b in curves[i + 1 :]:
            if (id(a), id(b)) not in kept:
                assert fraction_pair_contacts(a, b) == PairContact((), (), (), (), ())


def test_symmetric_x_crossing():
    c1 = curve(1, (0, 0), (4, 4))
    c2 = curve(2, (0, 4), (4, 0))
    assert crossing_points(c1, c2) == [pt(2, 2)]


def test_disjoint_segments():
    assert crossing_points(curve(1, (0, 0), (4, 0)), curve(2, (0, 1), (4, 2))) == []


def test_tent_crossed_twice_by_horizontal():
    # the tent (0,0)(2,3)(4,0) meets y=2 on each slope: 3x/2 = 2 gives
    # x = 4/3, and 3 - 3(x-2)/2 = 2 gives x = 8/3
    tent = curve(1, (0, 0), (2, 3), (4, 0))
    flat = curve(2, (0, 2), (4, 2))
    assert crossing_points(tent, flat) == [pt("4/3", 2), pt("8/3", 2)]
    report = validate_family([tent, flat])
    assert not report.ok
    assert any(v.kind == "MultipleCrossings" and v.curves == (1, 2) for v in report.violations)


def test_degenerate_inputs_rejected():
    good = curve(1, (0, 0), (1, 1))
    with pytest.raises(DegenerateCurve):
        crossing_points(good, curve(2, (0, 0)))
    with pytest.raises(DegenerateCurve):
        crossing_points(good, curve(2, (0, 0), (0, 1)))
    with pytest.raises(DegenerateCurve):
        crossing_points(good, curve(2, (1, 0), (0, 1)))


def test_validate_disjoint_horizontals_ok():
    report = validate_family([curve(1, (0, 0), (4, 0)), curve(2, (0, 1), (4, 1))])
    assert report.ok
    assert report.lines() == ["ok"]


def test_validate_shared_intercept():
    report = validate_family([curve(1, (0, 5), (4, 6)), curve(2, (0, 5), (4, 4))])
    assert any(v.kind == "SharedIntercept" for v in report.violations)


def test_validate_flags_and_monotonicity():
    report = validate_family(
        [
            curve(1, (1, 0), (4, 1)),  # off the axis
            curve(2, (0, 2), (3, 2), (2, 5)),  # x goes backwards
        ]
    )
    kinds = {v.kind for v in report.violations}
    assert "NotRightFlag" in kinds and "NotXMonotone" in kinds


def test_validate_tangency_and_endpoint_touch():
    # vee touches the horizontal at its bottom vertex without swapping order
    vee = curve(1, (0, 2), (2, 1), (4, 2))
    flat = curve(2, (0, 1), (4, 1))
    contact = pair_contacts(vee, flat)
    assert contact.crossings == () and len(contact.tangencies) == 1
    report = validate_family([vee, flat])
    assert any(v.kind == "Tangency" for v in report.violations)

    # endpoint of curve 2 lands on curve 1's interior
    report = validate_family(
        [curve(1, (0, 0), (4, 4)), curve(2, (0, 3), (2, 2))]
    )
    assert any(v.kind == "Tangency" for v in report.violations)


def test_validate_overlap_and_vertex_crossing():
    report = validate_family(
        [curve(1, (0, 0), (4, 4)), curve(2, (0, -1), (1, 1), (2, 2), (5, 2))]
    )
    assert any(v.kind == "OverlapOrDegenerate" for v in report.violations)

    # proper swap exactly at a vertex of curve 1: counted as a crossing
    # but reported as a general-position defect
    bent = curve(1, (0, 0), (2, 2), (4, 1))
    through = curve(2, (0, 4), (4, 0))
    assert crossing_points(bent, through) == [pt(2, 2)]
    report = validate_family([bent, through])
    assert any(v.kind == "OverlapOrDegenerate" for v in report.violations)


def test_validate_three_through_one_point():
    report = validate_family(
        [
            curve(1, (0, 0), (4, 4)),
            curve(2, (0, 4), (4, 0)),
            curve(3, (0, 2), (4, 2)),
        ]
    )
    triples = [v for v in report.violations if len(v.curves) == 3]
    assert triples and triples[0].witness == pt(2, 2)


def test_split_examples():
    left, right = split_at_y_axis(curve(1, (-2, 0), (2, 2)))
    assert left.vertices == (pt(0, 1), pt(2, 0))
    assert right.vertices == (pt(0, 1), pt(2, 2))

    with pytest.raises(NotCrossingAxis):
        split_at_y_axis(curve(1, (0, 0), (2, 2)))
    with pytest.raises(NotCrossingAxis):
        split_at_y_axis(curve(1, (-2, 0), (0, 2)))

    left, right = split_at_y_axis(curve(2, (-1, 0), (1, 4), (3, 0)))
    assert right.vertices[0] == pt(0, 2)
    assert left.vertices[0] == pt(0, 2)


@given(
    xs=st.lists(st.integers(-40, -1), min_size=1, max_size=4, unique=True),
    ys=st.lists(st.integers(-20, 20), min_size=6, max_size=6),
    xr=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=120, deadline=None)
def test_split_then_join_is_identity(xs, ys, xr):
    from xmcurves import PolyCurve

    coords = sorted(Fraction(x) for x in xs) + sorted(Fraction(x) for x in xr)
    vertices = tuple(
        Point(x, Fraction(ys[i % len(ys)])) for i, x in enumerate(coords)
    )
    two_sided = PolyCurve(9, vertices)
    left, right = split_at_y_axis(two_sided)
    assert join_at_y_axis(left, right) == two_sided


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_crossing_symmetry_on_random_segments(seed):
    rng = random.Random(seed)
    a = random_segment(rng, 1, 8)
    b = random_segment(rng, 2, 8)
    assert crossing_points(a, b) == crossing_points(b, a)


def test_agrees_with_orientation_oracle_on_segments():
    rng = random.Random(42)
    for _ in range(300):
        a = random_segment(rng, 1, 8)
        b = random_segment(rng, 2, 8)
        contact = pair_contacts(a, b)
        if contact.vertex_crossings or contact.tangencies or contact.endpoint_touches:
            continue  # oracle only speaks for general position
        assert list(contact.crossings) == polyline_crossings(a, b)


def test_valid_families_cross_at_most_once(small_corpus):
    from itertools import combinations

    for fam, _ in small_corpus[:12]:
        for a, b in combinations(fam.curves, 2):
            assert len(crossing_points(a, b)) <= 1
