"""Exact rational primitives for x-monotone polyline curves.

Curves are piecewise-linear with `fractions.Fraction` vertices, so every
predicate here is decided by exact sign tests; there is no floating point
and no tolerance anywhere.  The pair kernel works on integers that each
curve computes once (its segments' lines with integer coefficients), so
its sign tests are integer products; a Fraction is built only for a
contact point it reports.  "Crossing" always means a proper transversal
crossing: the vertical order of the two curves strictly swaps.  Every
other kind of contact (tangency, endpoint-on-curve, collinear overlap,
crossing at a polyline vertex, three curves through one point) is treated
as a general-position defect and surfaces in a ValidationReport instead.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Sequence, Union

from .errors import DegenerateCurve, NotCrossingAxis

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, `p/q` strings, or Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed; pass Fraction, int, or 'p/q'")
    return Fraction(value)


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def pt(x: RationalLike, y: RationalLike) -> Point:
    return Point(rat(x), rat(y))


@dataclass(frozen=True)
class PolyCurve:
    """An x-monotone polyline; right-flag curves start on the y-axis.

    Construction does not enforce the invariants: validators report
    defects as data so that broken inputs can be diagnosed rather than
    rejected at parse time.
    """

    id: int
    vertices: tuple[Point, ...]

    @property
    def x_start(self) -> Fraction:
        return self.vertices[0].x

    @property
    def x_end(self) -> Fraction:
        return self.vertices[-1].x

    def is_x_monotone(self) -> bool:
        if len(self.vertices) < 2:
            return False
        return all(a.x < b.x for a, b in zip(self.vertices, self.vertices[1:]))

    def y_at(self, x: Fraction) -> Fraction:
        """Exact height of the curve at abscissa x; requires coverage."""
        if not (self.x_start <= x <= self.x_end):
            raise ValueError(f"x={x} outside curve {self.id} range")
        i = bisect.bisect_right(self.vertices, x, key=lambda v: v.x) - 1
        if i == len(self.vertices) - 1:
            return self.vertices[-1].y
        a, b = self.vertices[i], self.vertices[i + 1]
        return a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)

    def with_id(self, new_id: int) -> PolyCurve:
        return PolyCurve(new_id, self.vertices)

    @cached_property
    def grid(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple, tuple, tuple]:
        """(xn, xd, lines, y_lo, y_hi), the integers the pair kernel uses.

        xn and xd are the vertex abscissas' numerators and denominators;
        lines[k] = (a, b, c) with c > 0 and y = (a*x + b)/c on segment k;
        y_lo and y_hi are the least and greatest vertex heights as
        (numerator, denominator).  Each number depends on one segment
        only, so its size does not grow with the vertex count.  Raises
        DegenerateCurve unless the curve is a strictly x-monotone
        polyline.  Computed once per curve object.
        """
        vs = self.vertices
        if len(vs) < 2:
            raise DegenerateCurve(f"curve {self.id} has fewer than 2 vertices")
        xn = tuple(v.x.numerator for v in vs)
        xd = tuple(v.x.denominator for v in vs)
        yn = tuple(v.y.numerator for v in vs)
        yd = tuple(v.y.denominator for v in vs)
        lines = []
        for k in range(len(vs) - 1):
            # the segment scaled by m to integer ends (x0, y0), (x1, y1)
            m = lcm(xd[k], xd[k + 1], yd[k], yd[k + 1])
            x0, x1 = xn[k] * (m // xd[k]), xn[k + 1] * (m // xd[k + 1])
            y0, y1 = yn[k] * (m // yd[k]), yn[k + 1] * (m // yd[k + 1])
            w, h = x1 - x0, y1 - y0
            if w <= 0:
                raise DegenerateCurve(f"curve {self.id} is not strictly x-monotone")
            a, b, c = h * m, y0 * w - h * x0, m * w
            g = gcd(a, b, c)
            lines.append((a // g, b // g, c // g))
        lo = hi = 0
        for k in range(1, len(vs)):
            if yn[k] * yd[lo] < yn[lo] * yd[k]:
                lo = k
            if yn[k] * yd[hi] > yn[hi] * yd[k]:
                hi = k
        return xn, xd, tuple(lines), (yn[lo], yd[lo]), (yn[hi], yd[hi])


def curve(cid: int, *coords: tuple[RationalLike, RationalLike]) -> PolyCurve:
    """Shorthand constructor from (x, y) coordinate pairs."""
    return PolyCurve(cid, tuple(pt(x, y) for x, y in coords))


@dataclass(frozen=True)
class Arc:
    """A prefix of a parent curve, truncated at a crossing with an anchor."""

    parent: int
    geometry: PolyCurve


VIOLATION_KINDS = (
    "NotXMonotone",
    "NotRightFlag",
    "SharedIntercept",
    "MultipleCrossings",
    "Tangency",
    "OverlapOrDegenerate",
)


@dataclass(frozen=True)
class Violation:
    kind: str
    curves: tuple[int, ...]
    witness: Point | None = None

    def __str__(self) -> str:
        ids = ",".join(str(c) for c in self.curves)
        at = f" at={self.witness}" if self.witness is not None else ""
        return f"violation {self.kind} curves={ids}{at}"


@dataclass(frozen=True)
class ValidationReport:
    """Defects of a curve list, plus the id pairs that cross (`edges`)."""

    violations: tuple[Violation, ...]
    edges: frozenset[tuple[int, int]] = frozenset()

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        if self.ok:
            return ["ok"]
        return [str(v) for v in self.violations]


@dataclass(frozen=True)
class PairContact:
    """Full classification of how two x-monotone curves meet.

    `crossings` are proper transversal crossings strictly inside both
    curves.  `vertex_crossings` swap the vertical order too, but happen
    exactly at a polyline vertex; they count as crossings yet break the
    general-position discipline.  The rest never count as crossings.
    """

    crossings: tuple[Point, ...]
    vertex_crossings: tuple[Point, ...]
    tangencies: tuple[Point, ...]
    endpoint_touches: tuple[Point, ...]
    overlaps: tuple[tuple[Point, Point], ...]

    def all_crossings(self) -> list[Point]:
        return sorted(self.crossings + self.vertex_crossings, key=lambda p: p.x)


_NO_CONTACT = PairContact((), (), (), (), ())


def _point_on(grid: tuple, x: int, q: int) -> Point:
    """The point of a curve at abscissa x/q, from its grid."""
    xn, xd, lines = grid[:3]
    k = 0
    while k < len(lines) - 1 and xn[k + 1] * q < x * xd[k + 1]:
        k += 1
    a, b, c = lines[k]
    return Point(Fraction(x, q), Fraction(a * x + b * q, c * q))


def _line_crossing(line1: tuple[int, int, int], line2: tuple[int, int, int]) -> Point:
    """Where two segment lines (a, b, c) meet; they must not be parallel."""
    a1, b1, c1 = line1
    a2, b2, c2 = line2
    den = a1 * c2 - a2 * c1
    return Point(Fraction(b2 * c1 - b1 * c2, den), Fraction(a1 * b2 - a2 * b1, den))


def pair_contacts(c1: PolyCurve, c2: PolyCurve) -> PairContact:
    """Every contact of two curves; raises DegenerateCurve unless both are
    strictly x-monotone polylines."""
    g1, g2 = c1.grid, c2.grid
    xn1, xd1, lines1 = g1[:3]
    xn2, xd2, lines2 = g2[:3]
    # abscissas are (numerator, denominator) pairs in lowest terms, so they
    # compare by cross products and are equal iff their pairs are
    lo = (xn1[0], xd1[0]) if xn1[0] * xd2[0] >= xn2[0] * xd1[0] else (xn2[0], xd2[0])
    hi = (xn1[-1], xd1[-1]) if xn1[-1] * xd2[-1] <= xn2[-1] * xd1[-1] else (xn2[-1], xd2[-1])
    x, q = lo
    if x * hi[1] > hi[0] * q:
        return _NO_CONTACT

    # Walk the merged breakpoints x/q of both curves over [lo, hi], with
    # segments i and j covering the step that ends at x/q.  The height
    # difference is linear on each step, so its sign at the breakpoints
    # decides every contact.
    crossings: list[Point] = []
    xs: list[tuple[int, int]] = []
    signs: list[int] = []
    last1, last2 = len(lines1) - 1, len(lines2) - 1
    i = j = 0
    while i < last1 and xn1[i + 1] * q <= x * xd1[i + 1]:
        i += 1
    while j < last2 and xn2[j + 1] * q <= x * xd2[j + 1]:
        j += 1
    while True:
        a1, b1, k1 = lines1[i]
        a2, b2, k2 = lines2[j]
        diff = (a1 * x + b1 * q) * k2 - (a2 * x + b2 * q) * k1
        s = (diff > 0) - (diff < 0)
        if s and signs and signs[-1] == -s:
            crossings.append(_line_crossing(lines1[i], lines2[j]))
        xs.append((x, q))
        signs.append(s)
        if x == hi[0] and q == hi[1]:
            break
        if xn1[i + 1] == x and xd1[i + 1] == q:
            i += 1
        if xn2[j + 1] == x and xd2[j + 1] == q:
            j += 1
        if xn1[i + 1] * xd2[j + 1] <= xn2[j + 1] * xd1[i + 1]:
            x, q = xn1[i + 1], xd1[i + 1]
        else:
            x, q = xn2[j + 1], xd2[j + 1]

    if 0 not in signs:
        return PairContact(tuple(crossings), (), (), (), ()) if crossings else _NO_CONTACT

    vertex_crossings: list[Point] = []
    tangencies: list[Point] = []
    endpoint_touches: list[Point] = []
    overlaps: list[tuple[Point, Point]] = []
    # A zero run of two or more breakpoints is a shared stretch; a lone
    # zero is a touch at an end, or a vertex where the order swaps or not.
    m = len(xs)
    k = 0
    while k < m:
        if signs[k]:
            k += 1
            continue
        r = k
        while r + 1 < m and signs[r + 1] == 0:
            r += 1
        p = _point_on(g1, *xs[k])
        if r > k:
            overlaps.append((p, _point_on(g1, *xs[r])))
        elif k == 0 or k == m - 1:
            endpoint_touches.append(p)
        elif signs[k - 1] * signs[k + 1] < 0:
            vertex_crossings.append(p)
        else:
            tangencies.append(p)
        k = r + 1
    return PairContact(
        tuple(crossings),
        tuple(vertex_crossings),
        tuple(tangencies),
        tuple(endpoint_touches),
        tuple(overlaps),
    )


def crossing_points(c1: PolyCurve, c2: PolyCurve) -> list[Point]:
    """All proper transversal crossings of two curves, in increasing x.

    Tangencies, endpoint contacts, and collinear overlaps are not
    crossings; they are reported by validate_family instead.  Symmetric
    in its arguments.
    """
    return pair_contacts(c1, c2).all_crossings()


def candidate_pairs(curves: Sequence[PolyCurve]) -> Iterator[tuple[PolyCurve, PolyCurve]]:
    """Every pair (a, b), a listed before b, whose bounding boxes are not
    strictly apart; the pairs left out cannot meet at all.

    Raises DegenerateCurve for a curve that is not a strictly x-monotone
    polyline.
    """
    boxes = []
    for c in curves:
        xn, xd, _, (yln, yld), (yhn, yhd) = c.grid
        boxes.append((xn[0], xd[0], xn[-1], xd[-1], yln, yld, yhn, yhd))
    for i, (a0n, a0d, a1n, a1d, ayln, ayld, ayhn, ayhd) in enumerate(boxes):
        for k in range(i + 1, len(boxes)):
            b0n, b0d, b1n, b1d, byln, byld, byhn, byhd = boxes[k]
            if (
                a1n * b0d < b0n * a1d
                or b1n * a0d < a0n * b1d
                or ayhn * byld < byln * ayhd
                or byhn * ayld < ayln * byhd
            ):
                continue
            yield curves[i], curves[k]


def validate_family(curves: Sequence[PolyCurve]) -> ValidationReport:
    """Check the simple right-flag family discipline and report defects.

    ok means: every curve is a strictly x-monotone right-flag polyline,
    y-intercepts are pairwise distinct, every pair of curves crosses at
    most once and properly, no pair touches without crossing, no curve
    endpoint lies on another curve, no crossing sits on a polyline
    vertex, and no three curves pass through one point.  The report's
    `edges` are the id pairs that cross, valid family or not.
    """
    violations: list[Violation] = []
    usable: list[PolyCurve] = []

    for c in curves:
        if len(c.vertices) < 2:
            violations.append(Violation("OverlapOrDegenerate", (c.id,)))
            continue
        if not c.is_x_monotone():
            violations.append(Violation("NotXMonotone", (c.id,)))
            continue
        if c.vertices[0].x != 0 or any(v.x < 0 for v in c.vertices):
            violations.append(Violation("NotRightFlag", (c.id,), c.vertices[0]))
        usable.append(c)

    by_intercept: dict[Fraction, list[int]] = {}
    for c in usable:
        if c.vertices[0].x == 0:
            by_intercept.setdefault(c.vertices[0].y, []).append(c.id)
    shared = sorted((y0, ids) for y0, ids in by_intercept.items() if len(ids) > 1)
    for y0, ids in shared:
        violations.append(Violation("SharedIntercept", tuple(sorted(ids)), Point(Fraction(0), y0)))

    edges: set[tuple[int, int]] = set()
    # crossing points keyed by their coordinates' integer parts, which
    # hash faster than the Fractions
    point_to_curves: dict[tuple[int, int, int, int], tuple[Point, set[int]]] = {}
    for ca, cb in candidate_pairs(usable):
        contact = pair_contacts(ca, cb)
        if contact is _NO_CONTACT:
            continue
        pair = (ca.id, cb.id) if ca.id < cb.id else (cb.id, ca.id)
        all_cross = contact.all_crossings()
        if len(all_cross) > 1:
            violations.append(Violation("MultipleCrossings", pair, all_cross[1]))
        for p in contact.vertex_crossings:
            violations.append(Violation("OverlapOrDegenerate", pair, p))
        for p in contact.tangencies:
            violations.append(Violation("Tangency", pair, p))
        for p in contact.endpoint_touches:
            violations.append(Violation("Tangency", pair, p))
        for p0, _p1 in contact.overlaps:
            violations.append(Violation("OverlapOrDegenerate", pair, p0))
        if all_cross:
            edges.add(pair)
        for p in all_cross:
            key = (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
            point_to_curves.setdefault(key, (p, set()))[1].update(pair)

    crowded = [(p, ids) for p, ids in point_to_curves.values() if len(ids) > 2]
    for p, ids in sorted(crowded, key=lambda pi: (pi[0].x, pi[0].y)):
        violations.append(Violation("OverlapOrDegenerate", tuple(sorted(ids)), p))

    return ValidationReport(tuple(violations), frozenset(edges))


def split_at_y_axis(c: PolyCurve) -> tuple[PolyCurve, PolyCurve]:
    """Split a two-sided curve at x = 0 into (left_flag, right_flag).

    The left part is mirrored (x -> -x) into right-flag convention so all
    right-flag machinery applies to it; the axis point is the shared
    grounded endpoint of both parts.
    """
    c.grid  # raises DegenerateCurve unless c is a strictly x-monotone polyline
    if not (c.x_start < 0 < c.x_end):
        raise NotCrossingAxis(f"curve {c.id} lies entirely in one closed half-plane")
    y0 = c.y_at(Fraction(0))
    axis = Point(Fraction(0), y0)
    left_raw = [v for v in c.vertices if v.x < 0] + [axis]
    right_raw = [axis] + [v for v in c.vertices if v.x > 0]
    mirrored = tuple(Point(-v.x, v.y) for v in reversed(left_raw))
    return PolyCurve(c.id, mirrored), PolyCurve(c.id, tuple(right_raw))
