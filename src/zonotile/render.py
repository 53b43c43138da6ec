"""Deterministic SVG rendering of tilings, combies, and pattern curves.

Coordinates stay exact until serialization, where they are rounded to a
fixed six-decimal policy; identical inputs therefore produce byte-identical
output.  Vertical edges are drawn bold, horizontal edges thin, lenses are
shaded, and pattern curves dashed.
"""

from __future__ import annotations

from fractions import Fraction

from . import bitsets as bs
from .combi import Combi, from_rhombus
from .geometry import Generators, default_generators, embed
from .patterns import CyclicPattern, QuasiCombi
from .rhombus import RhombusTiling


# the length of a generator and the blank border, in SVG units
SCALE = Fraction(160)
MARGIN = Fraction(30)
# stroke widths: vertical edges bold, horizontal ones thin
VERTICAL_WIDTH = Fraction(5, 2)
HORIZONTAL_WIDTH = Fraction(1)


def _fmt(x: Fraction) -> str:
    scaled = round(Fraction(x) * 10**6)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**6)
    return f"{sign}{whole}.{frac:06d}"


class _Canvas:
    def __init__(self, gens: Generators) -> None:
        norm2 = sum(c * c for c in gens.vectors[0])
        self.unit = SCALE / _isqrt_fraction(norm2)
        top = gens.top
        self.width = Fraction(abs(sum(min(v[0], 0) for v in gens.vectors))
                              + abs(sum(max(v[0], 0) for v in gens.vectors))) * self.unit
        self.height = Fraction(top[1]) * self.unit
        self.x_shift = Fraction(-sum(min(v[0], 0) for v in gens.vectors)) * self.unit
        self.parts: list[str] = []

    def to_svg(self, p) -> tuple[Fraction, Fraction]:
        x = Fraction(p[0]) * self.unit + self.x_shift + MARGIN
        y = self.height - Fraction(p[1]) * self.unit + MARGIN
        return x, y

    def line(self, a, b, width: Fraction, color: str, dashed: bool = False) -> None:
        (x1, y1), (x2, y2) = self.to_svg(a), self.to_svg(b)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}" stroke-linecap="round"{dash}/>'
        )

    def polygon(self, pts, fill: str) -> None:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (self.to_svg(p) for p in pts))
        self.parts.append(f'<polygon points="{coords}" fill="{fill}" fill-opacity="0.45" stroke="none"/>')

    def label(self, p, text: str) -> None:
        x, y = self.to_svg(p)
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y - Fraction(7))}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{text}</text>'
        )
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="black"/>'
        )

    def document(self) -> str:
        w = _fmt(self.width + 2 * MARGIN)
        h = _fmt(self.height + 2 * MARGIN)
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
        fills = [tuple(l.cycle()) for l in sorted(obj.lenses)]
        return _render_edges(obj.n, vert, horiz, fills, labels)
    if isinstance(obj, QuasiCombi):
        # every piece's boundary edges, each upward if its ends differ in
        # size and rightward (smaller traded element first) if they do not
        vert, horiz = set(), set()
        for piece in obj.pieces():
            cyc = piece.cycle()
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                edge = (a, b) if a & ~b < b & ~a else (b, a)
                (vert if bs.size(a) != bs.size(b) else horiz).add(edge)
        fills = [tuple(p.cycle())
                 for group in (obj.lenses, obj.upper_semis, obj.lower_semis) for p in sorted(group)]
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
