"""Deterministic SVG rendering of tilings, combies, and pattern curves.

Coordinates stay exact until serialization, as integer numerators over one
denominator per drawing, where they are rounded to a fixed six-decimal
policy; identical inputs therefore produce byte-identical output.  Vertical
edges are drawn bold, horizontal edges thin, lenses are shaded, and
pattern curves dashed.
"""

from __future__ import annotations

from fractions import Fraction

from . import bitsets as bs
from .combi import Combi, cycle_sides, from_rhombus
from .geometry import Generators, default_generators, embed
from .patterns import CyclicPattern, QuasiCombi
from .rhombus import RhombusTiling


# the length of a generator and the blank border, in SVG units
SCALE = 160
MARGIN = 30
# stroke widths: vertical edges bold, horizontal ones thin
VERTICAL_WIDTH = Fraction(5, 2)
HORIZONTAL_WIDTH = Fraction(1)


def _fmt(num: int, den: int = 1) -> str:
    """num/den to six decimals, rounded half to even as round(Fraction) is."""
    scaled, rest = divmod(num * 10**6, den)
    if 2 * rest > den or 2 * rest == den and scaled % 2:
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**6)
    return f"{sign}{whole}.{frac:06d}"


class _Canvas:
    """SVG coordinates as integer numerators over one denominator, `den`."""

    def __init__(self, gens: Generators) -> None:
        norm2 = sum(c * c for c in gens.vectors[0])
        self.unit, self.den = (SCALE / _isqrt_fraction(norm2)).as_integer_ratio()
        self.x_shift = -sum(min(v[0], 0) for v in gens.vectors)
        self.width = self.x_shift + sum(max(v[0], 0) for v in gens.vectors)
        self.top = gens.top[1]
        self.margin = MARGIN * self.den
        self.parts: list[str] = []

    def to_svg(self, p, lift: int = 0) -> tuple[str, str]:
        """The SVG coordinates of p, raised by `lift` SVG units, to six decimals."""
        x = (p[0] + self.x_shift) * self.unit + self.margin
        y = (self.top - p[1]) * self.unit + self.margin - lift * self.den
        return _fmt(x, self.den), _fmt(y, self.den)

    def line(self, a, b, width: Fraction, color: str, dashed: bool = False) -> None:
        (x1, y1), (x2, y2) = self.to_svg(a), self.to_svg(b)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="{_fmt(*width.as_integer_ratio())}" stroke-linecap="round"{dash}/>'
        )

    def polygon(self, pts, fill: str) -> None:
        coords = " ".join(f"{x},{y}" for x, y in map(self.to_svg, pts))
        self.parts.append(f'<polygon points="{coords}" fill="{fill}" fill-opacity="0.45" stroke="none"/>')

    def label(self, p, text: str) -> None:
        x, y = self.to_svg(p)
        self.parts.append(
            f'<text x="{x}" y="{self.to_svg(p, 7)[1]}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{text}</text>'
        )
        self.parts.append(
            f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>'
        )

    def document(self) -> str:
        w = _fmt(self.width * self.unit + 2 * self.margin, self.den)
        h = _fmt(self.top * self.unit + 2 * self.margin, self.den)
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n{body}\n</svg>\n'
        )


def _isqrt_fraction(norm2: int) -> Fraction:
    """Rational approximation of sqrt(norm2), good far beyond pixel scale."""
    from math import isqrt

    scale = 10**12
    return Fraction(isqrt(norm2 * scale * scale), scale)


def _vertex_label(mask: int) -> str:
    if mask == 0:
        return "&#8709;"
    return ",".join(str(e) for e in bs.iter_elements(mask))


def render_svg(obj, labels: bool = True) -> str:
    """SVG text for a Combi, RhombusTiling, QuasiCombi, or CyclicPattern,
    drawn with the default generators; `labels` names every vertex."""
    if isinstance(obj, RhombusTiling):
        # a rhombus's edges are the vertical edges of its two triangles
        return _render_edges(obj.n, sorted(from_rhombus(obj).vertical_edges()), [], [], labels)
    if isinstance(obj, Combi):
        vert = sorted(obj.vertical_edges())
        horiz = sorted(obj.horizontal_edges())
        fills = [l.cycle() for l in sorted(obj.lenses)]
        return _render_edges(obj.n, vert, horiz, fills, labels)
    if isinstance(obj, QuasiCombi):
        vert, horiz = cycle_sides(piece.cycle() for piece in obj.pieces())
        fills = [p.cycle() for group in (obj.lenses, obj.upper_semis, obj.lower_semis) for p in sorted(group)]
        return _render_edges(obj.n, sorted(vert), sorted(horiz), fills, labels)
    if isinstance(obj, CyclicPattern):
        return _render_pattern(obj, labels)
    raise TypeError(f"cannot render object of type {type(obj).__name__}")


def _render_edges(n, vertical, horizontal, lens_cycles, labels) -> str:
    gens = default_generators(n)
    canvas = _Canvas(gens)
    for cyc in lens_cycles:
        canvas.polygon([embed(v, gens) for v in cyc], "#9ecae1")
    for a, b in horizontal:
        canvas.line(embed(a, gens), embed(b, gens), HORIZONTAL_WIDTH, "#555555")
    for a, b in vertical:
        canvas.line(embed(a, gens), embed(b, gens), VERTICAL_WIDTH, "#000000")
    if labels:
        verts = {v for e in list(vertical) + list(horizontal) for v in e}
        for v in sorted(verts):
            canvas.label(embed(v, gens), _vertex_label(v))
    return canvas.document()


def _render_pattern(pattern: CyclicPattern, labels) -> str:
    gens = default_generators(pattern.n)
    canvas = _Canvas(gens)
    cyc = pattern.cycle
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        canvas.line(embed(a, gens), embed(b, gens), HORIZONTAL_WIDTH * 2, "#c22", dashed=True)
    if labels:
        for v in sorted(set(cyc)):
            canvas.label(embed(v, gens), _vertex_label(v))
    return canvas.document()
