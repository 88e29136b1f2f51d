"""Seeded, deterministic instance generators.

All coordinates are exact rationals built from integer draws of a seeded
PRNG; no floating point enters generation, so equal specs give byte-equal
families.  Generators retry by redrawing only offending curves (bounded,
seeded) until the family validates.

Model notes: every one-sided family is grounded on the y-axis, because
family validation requires right flags.  Rays are grounded rays clipped
to a box past every pairwise crossing, which preserves the intersection
graph exactly.  As they start on x = 0 and end on one vertical line, two
rays cross exactly when their order flips: the graph is the permutation
graph of the right-end order, which is perfect, so chi = omega on every
ray family.  Unit segments are grounded segments of exact squared length
1 (rational directions from Pythagorean triples).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .configurations import ConfigWitness, verify_witness
from .errors import GenerationFailed, PreconditionFailed
from .geometry import Point, PolyCurve, ValidationReport, split_at_y_axis, validate_family
from .graphs import CurveFamily, build_intersection_graph

GEN_KINDS = (
    "rays",
    "unitsegments",
    "rightflagpolylines",
    "crossingfan",
    "plant_type1",
    "plant_type2",
    "plant_type3",
    "twosided",
)

MAX_REDRAW_ROUNDS = 64


@dataclass(frozen=True)
class GenSpec:
    kind: str
    n: int
    k: int = 0
    seed: int = 0
    coordinate_range: int = 16
    segments_per_curve: int = 1

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise PreconditionFailed(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise PreconditionFailed("n must be >= 1")
        if self.segments_per_curve < 1:
            raise PreconditionFailed("segments_per_curve must be >= 1")
        if self.coordinate_range < 1:
            raise PreconditionFailed("coordinate_range must be >= 1")


def _intercepts(rng: random.Random, n: int, spread: int) -> list[Fraction]:
    # i/(n+1) spacing, jittered inside its slot: stays strictly increasing
    return [
        Fraction(spread * (64 * i + rng.randrange(0, 64)), 64 * (n + 1))
        for i in range(1, n + 1)
    ]


def _offenders(report: ValidationReport) -> list[int]:
    # redraw every curve a violation names; anything narrower can thrash
    # on pairs that keep re-crossing a kept shape
    return sorted({cid for v in report.violations for cid in v.curves})


def _family(curves: list[PolyCurve], report: ValidationReport) -> CurveFamily:
    # generated ids already run 1..n bottom to top, so this is what
    # CurveFamily.from_curves would build, without validating again
    return CurveFamily(tuple(curves), report.edges)


def _redraw_loop(build, redraw) -> CurveFamily:
    """Validate build(), curves with ids 1..n bottom to top, until it
    passes; after a failed round call redraw(cid, damp) for every
    offender, with damp shrinking so that dense instances converge."""
    for round_no in range(MAX_REDRAW_ROUNDS):
        curves = build()
        report = validate_family(curves)
        if report.ok:
            return _family(curves, report)
        damp = Fraction(1, 1 + round_no)
        for cid in _offenders(report):
            redraw(cid, damp)
    raise GenerationFailed(f"no valid family after {MAX_REDRAW_ROUNDS} redraw rounds")


def _gen_rays(rng: random.Random, n: int, spread: int) -> CurveFamily:
    ys = _intercepts(rng, n, spread)

    def random_slope() -> Fraction:
        return Fraction(rng.randrange(-64, 65), rng.randrange(1, 17))

    slopes = [random_slope() for _ in range(n)]
    scale = 64 * (n + 1)  # every intercept is an integer over this
    tops = [y.numerator * (scale // y.denominator) for y in ys]

    def build() -> list[PolyCurve]:
        # clip past every pairwise crossing abscissa: graph preserved.
        # For i < j the rays cross at x* = (Y_j - Y_i) / (s_i - s_j), kept
        # as the integer pair num/den: Y_j > Y_i, so x* > 0 iff s_i > s_j.
        top, bottom = spread, 1
        for i in range(n):
            p_i, q_i = slopes[i].numerator, slopes[i].denominator
            for j in range(i + 1, n):
                p_j, q_j = slopes[j].numerator, slopes[j].denominator
                den = p_i * q_j - p_j * q_i
                if den <= 0:
                    continue
                num = (tops[j] - tops[i]) * q_i * q_j
                den *= scale
                if num * bottom > top * den:
                    top, bottom = num, den
        clip = Fraction(top, bottom) + 1
        return [
            PolyCurve(
                i + 1,
                (Point(Fraction(0), ys[i]), Point(clip, ys[i] + slopes[i] * clip)),
            )
            for i in range(n)
        ]

    def redraw(cid: int, damp: Fraction) -> None:
        slopes[cid - 1] = random_slope()

    return _redraw_loop(build, redraw)


def _gen_unit_segments(rng: random.Random, n: int, spread: int) -> CurveFamily:
    ys = _intercepts(rng, n, max(2, spread // 4))

    def unit_direction() -> tuple[Fraction, Fraction]:
        if rng.randrange(8) == 0:
            return Fraction(1), Fraction(0)
        m = rng.randrange(2, 6)
        q = rng.randrange(1, m)
        a, b, c = m * m - q * q, 2 * m * q, m * m + q * q
        dx, dy = Fraction(a, c), Fraction(b, c)
        if rng.randrange(2):
            dy = -dy
        return dx, dy

    def make(cid: int) -> PolyCurve:
        dx, dy = unit_direction()
        y0 = ys[cid - 1]
        return PolyCurve(cid, (Point(Fraction(0), y0), Point(dx, y0 + dy)))

    curves = [make(i) for i in range(1, n + 1)]

    def redraw(cid: int, damp: Fraction) -> None:
        curves[cid - 1] = make(cid)

    return _redraw_loop(lambda: curves, redraw)


def _polyline_tail(
    rng: random.Random,
    y0: Fraction,
    spread: int,
    segments: int,
    damp: Fraction = Fraction(1),
) -> tuple[Point, ...]:
    unit = Fraction(spread, 8 * segments)
    vertices = [Point(Fraction(0), y0)]
    x, y = Fraction(0), y0
    for _ in range(segments):
        x += unit * rng.randrange(2, 17) / 4
        y += unit * rng.randrange(-16, 17) * damp / 4
        vertices.append(Point(x, y))
    return tuple(vertices)


def _gen_right_flag_polylines(
    rng: random.Random, n: int, spread: int, segments: int
) -> CurveFamily:
    ys = _intercepts(rng, n, spread)

    def make(cid: int, damp: Fraction = Fraction(1)) -> PolyCurve:
        return PolyCurve(
            cid, _polyline_tail(rng, ys[cid - 1], spread, segments, damp)
        )

    curves = [make(i) for i in range(1, n + 1)]

    def redraw(cid: int, damp: Fraction) -> None:
        curves[cid - 1] = make(cid, damp)

    return _redraw_loop(lambda: curves, redraw)


def _gen_two_sided(
    rng: random.Random, n: int, spread: int, segments: int
) -> list[PolyCurve]:
    ys = _intercepts(rng, n, spread)

    def make(cid: int, damp: Fraction = Fraction(1)) -> PolyCurve:
        right = _polyline_tail(rng, ys[cid - 1], spread, segments, damp)
        left = _polyline_tail(rng, ys[cid - 1], spread, segments, damp)
        mirrored = tuple(Point(-v.x, v.y) for v in reversed(left))
        return PolyCurve(cid, mirrored[:-1] + right)

    # not _redraw_loop: each round validates two half-families, and the
    # result is the unsplit list rather than a family
    curves = [make(i) for i in range(1, n + 1)]
    halves = [split_at_y_axis(c) for c in curves]
    for round_no in range(MAX_REDRAW_ROUNDS):
        left_report = validate_family([h[0] for h in halves])
        right_report = validate_family([h[1] for h in halves])
        offenders = sorted({*_offenders(left_report), *_offenders(right_report)})
        if not offenders:
            return curves
        # progressively tamer redraws keep dense instances convergent
        damp = Fraction(1, 1 + round_no)
        for cid in offenders:
            curves[cid - 1] = make(cid, damp)
            halves[cid - 1] = split_at_y_axis(curves[cid - 1])
    raise GenerationFailed(f"no valid two-sided list after {MAX_REDRAW_ROUNDS} rounds")


def _jittered(rng: random.Random, base: int) -> Fraction:
    return base + Fraction(rng.randrange(-15, 16), 64)


def _descending_fan(ys: list[Fraction], length: Fraction, first_id: int) -> list[PolyCurve]:
    # curve at height y runs to (L, -y^2); any two cross at
    # x = L/(1 + y_i + y_j) with a crossing point symmetric in the pair, so
    # no two distinct pairs can collide and the family is always valid
    return [
        PolyCurve(first_id + i, (Point(Fraction(0), y), Point(length, -(y**2))))
        for i, y in enumerate(ys)
    ]


def _mirror_vertically(curves: list[PolyCurve], about: Fraction) -> list[PolyCurve]:
    return [
        PolyCurve(c.id, tuple(Point(v.x, about - v.y) for v in c.vertices))
        for c in curves
    ]


def plant_configuration(
    kind: str, k: int, seed: int = 0
) -> tuple[CurveFamily, ConfigWitness]:
    """A family that provably contains the requested configuration,
    together with its witness (always re-verified geometrically)."""
    if kind not in ("type1", "type2", "type3"):
        raise PreconditionFailed(f"cannot plant configuration kind {kind!r}")
    if k < 2:
        raise PreconditionFailed("planting needs k >= 2")
    rng = random.Random(seed)
    length = Fraction(8 * (k + 2))
    short_end = Fraction(1, 2)

    if kind in ("type1", "type2"):
        fan_ys = [_jittered(rng, i) for i in range(1, k + 1)]
        lonely_y = _jittered(rng, k + 1)
        fan = _descending_fan(fan_ys, length, 1)
        lonely = PolyCurve(
            k + 1, (Point(Fraction(0), lonely_y), Point(short_end, lonely_y))
        )
        curves = fan + [lonely]
        if kind == "type2":
            # a vertical mirror swaps above/below, putting the lonely
            # curve underneath the fan; right endpoints are unchanged
            curves = _mirror_vertically(curves, Fraction(0))
            witness = ConfigWitness("type2", tuple(range(2, k + 2)), (), 1)
        else:
            witness = ConfigWitness("type1", tuple(range(1, k + 1)), (), k + 1)
    else:
        low_ys = [_jittered(rng, i) for i in range(1, k + 1)]
        lonely_y = _jittered(rng, k + 1)
        high_base = [_jittered(rng, i) for i in range(1, k + 1)]
        about = lonely_y + max(high_base) + 2
        low_fan = _descending_fan(low_ys, length, 1)
        lonely = PolyCurve(
            k + 1, (Point(Fraction(0), lonely_y), Point(short_end, lonely_y))
        )
        high_fan = _mirror_vertically(_descending_fan(high_base, length, k + 2), about)
        curves = low_fan + [lonely] + high_fan
        witness = ConfigWitness(
            "type3", tuple(range(1, k + 1)), tuple(range(k + 2, 2 * k + 2)), k + 1
        )

    family = CurveFamily.from_curves(curves)
    graph = build_intersection_graph(family)
    if not verify_witness(family, graph, witness):
        raise GenerationFailed(f"planted {kind} witness failed verification")
    return family, witness


def generate(spec: GenSpec) -> CurveFamily | list[PolyCurve]:
    """Instantiate a GenSpec; families validate, two-sided output is a
    bare curve list for axis-splitting exercises."""
    rng = random.Random(spec.seed)
    if spec.kind == "rays":
        return _gen_rays(rng, spec.n, spec.coordinate_range)
    if spec.kind == "unitsegments":
        return _gen_unit_segments(rng, spec.n, spec.coordinate_range)
    if spec.kind == "crossingfan":
        k = spec.k or spec.n
        ys = _intercepts(rng, k, spec.coordinate_range)
        length = Fraction(max(spec.coordinate_range, 8))
        return CurveFamily.from_curves(_descending_fan(ys, length, 1))
    if spec.kind == "rightflagpolylines":
        return _gen_right_flag_polylines(
            rng, spec.n, spec.coordinate_range, spec.segments_per_curve
        )
    if spec.kind == "twosided":
        return _gen_two_sided(
            rng, spec.n, spec.coordinate_range, spec.segments_per_curve
        )
    kind = spec.kind.removeprefix("plant_")
    family, _ = plant_configuration(kind, spec.k or 2, spec.seed)
    return family
