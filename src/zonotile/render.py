"""Deterministic SVG rendering of tilings, combies, and pattern curves.

Coordinates stay exact until serialization, as integer numerators over one
denominator per drawing, where they are rounded to a fixed six-decimal
policy; identical inputs therefore produce byte-identical output.  Vertical
edges are drawn bold, horizontal edges thin, lenses are shaded, and
pattern curves dashed.
"""

from __future__ import annotations

from math import isqrt

from . import bitsets as bs
from .combi import Combi
from .geometry import Generators, _reduced, default_generators, embedding_table
from .patterns import CyclicPattern
from .rhombus import RhombusTiling


# the length of a generator and the blank border, in SVG units
SCALE = 160
MARGIN = 30
# stroke styles as `_Canvas.line` takes them, width in half SVG units,
# colour and dashing: vertical edges bold, horizontal ones thin, curves dashed
VERTICAL = (5, "#000000")
HORIZONTAL = (2, "#555555")
CURVE = (4, "#c22", True)


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
        self.unit, self.den = _unit(norm2)
        self.x_shift = -sum(min(v[0], 0) for v in gens.vectors)
        self.width = self.x_shift + sum(max(v[0], 0) for v in gens.vectors)
        self.top = embedding_table(gens)[-1][1]
        self.margin = MARGIN * self.den
        self.parts: list[str] = []

    def to_svg(self, p, lift: int = 0) -> tuple[str, str]:
        """The SVG coordinates of p, raised by `lift` SVG units, to six decimals."""
        x = (p[0] + self.x_shift) * self.unit + self.margin
        y = (self.top - p[1]) * self.unit + self.margin - lift * self.den
        return _fmt(x, self.den), _fmt(y, self.den)

    def line(self, a, b, width: int, color: str, dashed: bool = False) -> None:
        (x1, y1), (x2, y2) = self.to_svg(a), self.to_svg(b)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="{_fmt(width, 2)}" stroke-linecap="round"{dash}/>'
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


def _unit(norm2: int) -> tuple[int, int]:
    """SCALE over a rational approximation of sqrt(norm2), good far beyond
    pixel scale, as a reduced fraction (numerator, denominator)."""
    scale = 10**12
    return _reduced(SCALE * scale, isqrt(norm2 * scale * scale))


def _vertex_label(mask: int) -> str:
    if mask == 0:
        return "&#8709;"
    return ",".join(str(e) for e in bs.iter_elements(mask))


def render_svg(obj, labels: bool = True) -> str:
    """SVG text for a Combi, RhombusTiling, or CyclicPattern,
    drawn with the default generators; `labels` names every vertex."""
    if isinstance(obj, RhombusTiling):
        # a rhombus's edges are the vertical edges of its two triangles
        return _render(obj.n, [], [(VERTICAL, sorted(obj.combi.vertical_edges()))], labels)
    if isinstance(obj, Combi):
        fills = [l.cycle() for l in sorted(obj.lenses)]
        strokes = [(HORIZONTAL, sorted(obj.horizontal_edges())), (VERTICAL, sorted(obj.vertical_edges()))]
        return _render(obj.n, fills, strokes, labels)
    if isinstance(obj, CyclicPattern):
        cyc = obj.cycle
        return _render(obj.n, [], [(CURVE, list(zip(cyc, cyc[1:] + cyc[:1])))], labels)
    raise TypeError(f"cannot render object of type {type(obj).__name__}")


def _render(n: int, lens_cycles, strokes, labels: bool) -> str:
    """The shaded lens cycles, then each (style, edges) group of strokes in
    turn, then, with `labels`, every stroked vertex named."""
    gens = default_generators(n)
    pts, canvas = embedding_table(gens), _Canvas(gens)
    for cyc in lens_cycles:
        canvas.polygon([pts[v] for v in cyc], "#9ecae1")
    for style, edges in strokes:
        for a, b in edges:
            canvas.line(pts[a], pts[b], *style)
    if labels:
        for v in sorted({v for _, edges in strokes for e in edges for v in e}):
            canvas.label(pts[v], _vertex_label(v))
    return canvas.document()
