from __future__ import annotations

import pytest

from xmcurves import InvalidFileFormat, curve, load_curves, load_family
from xmcurves.fileformat import dump_curves, dump_family, parse_curves
from xmcurves.generators import GenSpec, generate


def test_round_trip_preserves_rationals():
    text = "xmcurves 1\n# a note\ncurve 3 : 0,1/3 5/2,-7 4,0\ncurve 1 : 0,2 9,9\n"
    curves = parse_curves(text)
    assert [c.id for c in curves] == [3, 1]
    assert curves[0].vertices[1].x == pytest.approx(2.5)
    again = parse_curves(dump_curves(curves))
    assert again == curves


def test_load_relabels_bottom_to_top():
    text = "xmcurves 1\ncurve 9 : 0,5 4,5\ncurve 4 : 0,1 4,1\n"
    curves = load_curves(text)
    assert [c.id for c in curves] == [1, 2]
    assert curves[0].vertices[0].y == 1


def test_load_relabels_two_sided_by_axis_height():
    text = "xmcurves 1\ncurve 1 : -2,10 2,0\ncurve 2 : -1,0 1,2\n"
    curves = load_curves(text)
    # axis heights are 5 and 1, so the file order flips
    assert curves[0].y_at(0) == 1 and curves[1].y_at(0) == 5


def test_family_load_matches_generator_output():
    fam = generate(GenSpec(kind="rightflagpolylines", n=7, seed=21, segments_per_curve=3))
    text = dump_family(fam)
    assert load_family(text) == fam


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    data=st.lists(
        st.tuples(st.integers(-1000, 1000), st.integers(1, 60), st.integers(-1000, 1000), st.integers(1, 60)),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=80, deadline=None)
def test_dump_parse_round_trip_property(data):
    from fractions import Fraction

    from xmcurves import Point, PolyCurve

    xs = sorted({Fraction(p, q) for p, q, _, _ in data})
    vertices = tuple(
        Point(x, Fraction(data[i % len(data)][2], data[i % len(data)][3]))
        for i, x in enumerate(xs)
    )
    if len(vertices) < 2:
        return
    c = PolyCurve(7, vertices)
    assert parse_curves(dump_curves([c])) == [c]


def test_bad_inputs():
    with pytest.raises(InvalidFileFormat):
        parse_curves("nope\n")
    with pytest.raises(InvalidFileFormat):
        parse_curves("xmcurves 1\ncurve x : 0,0 1,1\n")
    with pytest.raises(InvalidFileFormat):
        parse_curves("xmcurves 1\ncurve 1 : 0,0\n")
    with pytest.raises(InvalidFileFormat):
        parse_curves("xmcurves 1\ncurve 1 : 0,0 1,1\ncurve 1 : 0,2 1,3\n")
    with pytest.raises(InvalidFileFormat):
        parse_curves("xmcurves 1\ncurve 1 : 0,1/0 1,1\n")
    with pytest.raises(InvalidFileFormat):
        load_curves(dump_curves([curve(1, (1, 0), (2, 1))]))  # off the axis


@pytest.mark.parametrize(
    "token",
    ["1e2", "1_0", "1.5", "0x10", "١", "+-1", "1/", "/2", "1/2/3", "nan", "inf",
     "1/-2", "1" * 33, "1/" + "1" * 33],
)
def test_coordinate_grammar_is_strict(token):
    with pytest.raises(InvalidFileFormat, match="bad coordinate"):
        parse_curves(f"xmcurves 1\ncurve 1 : 0,{token} 1,1\n")


def test_coordinate_grammar_accepts_signs_fractions_and_the_cap():
    from fractions import Fraction

    big = "9" * 32
    (c,) = parse_curves(f"xmcurves 1\ncurve 1 : -3/4,+2 007,-{big}/1{big[1:]}\n")
    assert [(v.x, v.y) for v in c.vertices] == [
        (Fraction(-3, 4), Fraction(2)), (Fraction(7), Fraction(-int(big), int("1" + big[1:])))
    ]


def test_exponent_numeral_is_rejected_without_being_evaluated(monkeypatch):
    from xmcurves import fileformat

    exact = fileformat.Fraction

    def refuse_exponents(token):
        assert "e" not in token, f"the parser evaluated {token!r}"
        return exact(token)

    monkeypatch.setattr(fileformat, "Fraction", refuse_exponents)
    with pytest.raises(InvalidFileFormat, match="bad coordinate"):
        parse_curves("xmcurves 1\ncurve 1 : 0,0 1,1e999999999\n")
