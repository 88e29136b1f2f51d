from __future__ import annotations

import pytest

from xmcurves import (
    CurveFamily,
    PreconditionFailed,
    build_intersection_graph,
    chi_exact,
    omega_exact,
    split_at_y_axis,
    validate_family,
)
from xmcurves.fileformat import dump_curves, dump_family
from xmcurves.generators import GEN_KINDS, GenSpec, generate, plant_configuration


@pytest.mark.parametrize("kind", [k for k in GEN_KINDS if k != "twosided"])
def test_every_family_kind_validates(kind):
    for seed in (0, 1, 17):
        fam = generate(GenSpec(kind=kind, n=6, k=3, seed=seed, segments_per_curve=2))
        assert isinstance(fam, CurveFamily)
        assert validate_family(fam.curves).ok
        assert [c.id for c in fam.curves] == list(range(1, fam.n + 1))
        # the labels and edges a generator hands over are from_curves's own
        assert CurveFamily.from_curves(list(fam.curves)) == fam


def test_two_sided_output_splits_cleanly():
    curves = generate(GenSpec(kind="twosided", n=6, seed=5, segments_per_curve=2))
    assert isinstance(curves, list)
    halves = [split_at_y_axis(c) for c in curves]
    assert validate_family([h[0] for h in halves]).ok
    assert validate_family([h[1] for h in halves]).ok


def test_determinism_byte_for_byte():
    for kind in GEN_KINDS:
        spec = GenSpec(kind=kind, n=5, k=2, seed=99, segments_per_curve=2)
        first, second = generate(spec), generate(spec)
        if isinstance(first, CurveFamily):
            assert dump_family(first) == dump_family(second)
        else:
            assert dump_curves(first) == dump_curves(second)


def test_different_seeds_differ():
    a = dump_family(generate(GenSpec(kind="rightflagpolylines", n=8, seed=1)))
    b = dump_family(generate(GenSpec(kind="rightflagpolylines", n=8, seed=2)))
    assert a != b


def test_crossing_fan_is_complete():
    for k in (2, 3, 5):
        fam = generate(GenSpec(kind="crossingfan", n=k, k=k, seed=4))
        graph = build_intersection_graph(fam)
        assert omega_exact(graph)[0] == k
        assert chi_exact(graph)[0] == k


def test_unit_segments_have_exact_unit_length():
    fam = generate(GenSpec(kind="unitsegments", n=9, seed=12))
    for c in fam.curves:
        a, b = c.vertices
        assert (b.x - a.x) ** 2 + (b.y - a.y) ** 2 == 1


def test_two_unit_segments_placed_apart_are_disjoint():
    from xmcurves import curve, intersection_graph_of_curves

    apart = [curve(1, (0, 0), (1, 0)), curve(2, (0, 5), (1, 5))]
    assert not intersection_graph_of_curves(apart).edges
    fam = generate(GenSpec(kind="unitsegments", n=2, seed=0, coordinate_range=16))
    assert not build_intersection_graph(fam).edges


def test_rays_are_grounded_and_clipped_past_crossings():
    fam = generate(GenSpec(kind="rays", n=8, seed=6))
    graph = build_intersection_graph(fam)
    for c in fam.curves:
        assert c.vertices[0].x == 0
    # every crossing happens strictly before the clip bound
    from xmcurves import crossing_points

    for i in range(1, 9):
        for j in range(i + 1, 9):
            for p in crossing_points(fam.curve(i), fam.curve(j)):
                assert p.x < fam.curve(i).x_end


def test_rays_are_permutation_graphs():
    # every ray starts on x = 0 and ends on one vertical line, so two cross
    # exactly when their order flips between the two: chi = omega
    for seed in range(12):
        fam = generate(GenSpec(kind="rays", n=6 + 2 * seed, seed=seed))
        ends = [c.vertices[-1].y for c in fam.curves]
        inversions = {
            (i + 1, j + 1)
            for i in range(fam.n)
            for j in range(i + 1, fam.n)
            if ends[i] > ends[j]
        }
        graph = build_intersection_graph(fam)
        assert graph.edges == inversions
        assert chi_exact(graph)[0] == omega_exact(graph)[0]


def test_plants_verify_for_all_kinds_and_sizes():
    from xmcurves import verify_witness

    for kind in ("type1", "type2", "type3"):
        for k in (2, 3):
            fam, witness = plant_configuration(kind, k, seed=31)
            graph = build_intersection_graph(fam)
            assert verify_witness(fam, graph, witness)


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        GenSpec(kind="worms", n=3)
    with pytest.raises(ValueError):
        GenSpec(kind="rays", n=0)
    with pytest.raises(ValueError):
        plant_configuration("type1", 1)
    with pytest.raises(ValueError):
        plant_configuration("clique", 2)
    # typed, so the CLI reports them in one line; range below 1 is rejected
    # up front rather than after the redraw rounds run out
    for bad in (dict(n=0), dict(n=3, segments_per_curve=0), dict(n=3, coordinate_range=0)):
        with pytest.raises(PreconditionFailed):
            GenSpec(kind="rays", **bad)


def test_ray_clip_is_one_past_the_last_crossing():
    # the clip rule in Fraction arithmetic: one past the spread or past
    # the rightmost pairwise crossing of the unclipped rays, if larger
    from fractions import Fraction

    for n in (2, 3, 9, 17):
        for seed in range(12):
            for spread in (3, 16):
                fam = generate(GenSpec(kind="rays", n=n, seed=seed, coordinate_range=spread))
                clip = fam.curves[0].vertices[-1].x
                starts = [c.vertices[0].y for c in fam.curves]
                slopes = [(c.vertices[-1].y - c.vertices[0].y) / clip for c in fam.curves]
                bound = Fraction(spread)
                for i in range(n):
                    for j in range(i + 1, n):
                        if slopes[i] != slopes[j]:
                            x_star = (starts[j] - starts[i]) / (slopes[i] - slopes[j])
                            bound = max(bound, x_star)
                assert clip == bound + 1
                assert all(c.vertices[-1].x == clip for c in fam.curves)
