"""The "xmcurves 1" text format.

First line `xmcurves 1`; one line per curve `curve <id> : <x>,<y> <x>,<y> ...`
with integer or `p/q` rational coordinates (an optional sign, then ASCII
digits, at most MAX_DIGITS of them in p and in q); `#` starts a comment
line.
On load, curve indices are reassigned 1..n from bottom to top by
y-intercept; right-flag files additionally require every first vertex to
sit at x = 0, which family validation enforces.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidFileFormat
from .geometry import Point, PolyCurve
from .graphs import CurveFamily

HEADER = "xmcurves 1"

# Longest numerator or denominator a coordinate may spell out; it bounds
# the size of every number the exact kernel scales and multiplies.
MAX_DIGITS = 32
_COORD = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}(?:/[0-9]{{1,{MAX_DIGITS}}})?")


def _parse_coord(token: str, lineno: int) -> Fraction:
    if _COORD.fullmatch(token) is None:
        raise InvalidFileFormat(f"line {lineno}: bad coordinate {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError as exc:
        raise InvalidFileFormat(f"line {lineno}: bad coordinate {token!r}") from exc


def parse_curves(text: str) -> list[PolyCurve]:
    """Curves exactly as written, ids untouched."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise InvalidFileFormat(f"missing '{HEADER}' header")
    curves: list[PolyCurve] = []
    seen_ids: set[int] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "curve" or len(parts) < 4 or parts[2] != ":":
            raise InvalidFileFormat(f"line {lineno}: expected 'curve <id> : ...'")
        try:
            cid = int(parts[1])
        except ValueError as exc:
            raise InvalidFileFormat(f"line {lineno}: bad id {parts[1]!r}") from exc
        if cid < 1 or cid in seen_ids:
            raise InvalidFileFormat(f"line {lineno}: id {cid} invalid or repeated")
        seen_ids.add(cid)
        vertices = []
        for token in parts[3:]:
            xy = token.split(",")
            if len(xy) != 2:
                raise InvalidFileFormat(f"line {lineno}: bad vertex {token!r}")
            vertices.append(Point(_parse_coord(xy[0], lineno), _parse_coord(xy[1], lineno)))
        if len(vertices) < 2:
            raise InvalidFileFormat(f"line {lineno}: curve {cid} needs >= 2 vertices")
        curves.append(PolyCurve(cid, tuple(vertices)))
    return curves


def _intercept(c: PolyCurve) -> Fraction:
    if not (c.x_start <= 0 <= c.x_end):
        raise InvalidFileFormat(f"curve {c.id} does not meet the y-axis")
    if not c.is_x_monotone():
        raise InvalidFileFormat(f"curve {c.id} is not strictly x-monotone")
    return c.y_at(Fraction(0))


def load_curves(text: str) -> list[PolyCurve]:
    """Parse and relabel 1..n bottom to top by y-intercept."""
    curves = parse_curves(text)
    keyed = sorted(curves, key=_intercept)
    return [c.with_id(i) for i, c in enumerate(keyed, start=1)]


def load_family(text: str) -> CurveFamily:
    """Load a right-flag family; raises InvalidFamily on any defect."""
    return CurveFamily.from_curves(load_curves(text))


def dump_curves(curves: list[PolyCurve], comments: list[str] | None = None) -> str:
    lines = [HEADER]
    for note in comments or []:
        lines.append(f"# {note}")
    for c in curves:
        coords = " ".join(f"{v.x},{v.y}" for v in c.vertices)
        lines.append(f"curve {c.id} : {coords}")
    return "\n".join(lines) + "\n"


def dump_family(family: CurveFamily, comments: list[str] | None = None) -> str:
    return dump_curves(list(family.curves), comments)
