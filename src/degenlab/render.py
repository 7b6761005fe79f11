"""Deterministic diagrams of expanded fibres.

All layout arithmetic is integral, so identical inputs produce identical
bytes.  The triangle is drawn with the first corner bottom left, the second
bottom right and the third on top; first-family chords run from the left
side to the right side, second-family chords from the right side down.
"""

from __future__ import annotations

from .configurations import PointConfiguration
from .dual_complex import DCVertex, ExpandedFibre, VertexKind
from .errors import InvalidInput

__all__ = ["render_fibre", "FORMATS"]

FORMATS = ("dot", "svg", "tikz")

_MARGIN = 70
_SPAN = 620
_TRI_H = 537  # 620 * 866 // 1000

_FILL = {
    "plane": "#303030",
    "ruled-bubble": "#c03030",
    "quadric": "#3050c0",
}


def _label(v: DCVertex, k: int) -> str:
    if v.kind is VertexKind.CORNER_Y1:
        return "Y1"
    if v.kind is VertexKind.CORNER_Y2:
        return "Y2"
    if v.kind is VertexKind.CORNER_Y3:
        return "Y3"
    if v.kind is VertexKind.PURE_DELTA1:
        return f"Δ1({v.levels[0]})"
    if v.kind is VertexKind.PURE_DELTA2:
        return f"Δ2({v.levels[0]})"
    if v.kind is VertexKind.MIXED:
        s = v.levels[0]
        return f"Δ1({s})=Δ2({k - s})"
    a, b = v.levels
    return f"Δ1({a})×Δ2({b})"


def _xy(position, k: int) -> tuple[int, int]:
    a, b, c = position
    x = _MARGIN + (2 * b + c) * _SPAN // (2 * k)
    y = _MARGIN + _TRI_H - c * _TRI_H // k
    return x, y


_OFFSET = {  # label offset from the vertex in the SVG
    VertexKind.CORNER_Y1: (-14, 18),
    VertexKind.CORNER_Y2: (10, 14),
    VertexKind.CORNER_Y3: (10, -8),
    VertexKind.PURE_DELTA1: (-14, 18),
    VertexKind.PURE_DELTA2: (10, -8),
    VertexKind.MIXED: (10, 14),
    VertexKind.INTERIOR: (8, -8),
}


def _to_svg(fibre: ExpandedFibre, cfg: PointConfiguration | None) -> str:
    k = fibre.height
    dc = fibre.dual_complex
    width = _SPAN + 2 * _MARGIN
    height = _TRI_H + 2 * _MARGIN
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<!-- height {k}, cuts {list(fibre.cuts)} -->',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    xy = [_xy(v.position, k) for v in dc.vertices]
    for u, v in dc.edges:
        (x1, y1), (x2, y2) = xy[u], xy[v]
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#707070" stroke-width="2"/>'
        )
    for v, (x, y) in zip(dc.vertices, xy):
        fill = _FILL[v.surface_kind]
        out.append(f'<circle cx="{x}" cy="{y}" r="6" fill="{fill}"/>')
        dx, dy = _OFFSET[v.kind]
        out.append(
            f'<text x="{x + dx}" y="{y + dy}" font-family="monospace" '
            f'font-size="13" fill="{fill}">{_label(v, k)}</text>'
        )
    if cfg is not None:
        for p in cfg.points:
            x, y = _xy(p.valuations, k)
            out.append(
                f'<circle cx="{x}" cy="{y}" r="10" fill="none" '
                f'stroke="#108040" stroke-width="3"/>'
            )
            out.append(
                f'<text x="{x + 12}" y="{y - 10}" font-family="monospace" '
                f'font-size="13" fill="#108040">m={p.multiplicity}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _to_dot(fibre: ExpandedFibre, cfg: PointConfiguration | None) -> str:
    k = fibre.height
    dc = fibre.dual_complex
    out = [
        "graph dual_complex {",
        "  layout=neato;",
        '  node [shape=circle, width=0.25, fixedsize=true, fontsize=10];',
    ]
    for i, v in enumerate(dc.vertices):
        a, b, c = v.position
        x = (2 * b + c) * 300 // (2 * k)
        y = c * 260 // k
        out.append(
            f'  v{i} [label="{_label(v, k)}" pos="{x},{y}!" '
            f'color="{_FILL[v.surface_kind]}"];'
        )
    for u, v in dc.edges:
        out.append(f"  v{u} -- v{v};")
    if cfg is not None:
        for idx, p in enumerate(cfg.points):
            a, b, c = p.valuations
            x = (2 * b + c) * 300 // (2 * k)
            y = c * 260 // k
            out.append(
                f'  p{idx} [label="m={p.multiplicity}" pos="{x},{y}!" '
                f'shape=box, color="#108040"];'
            )
    out.append("}")
    return "\n".join(out) + "\n"


def _milli(value: int) -> str:
    q, r = divmod(value, 1000)
    return f"{q}.{r:03d}"


def _to_tikz(fibre: ExpandedFibre, cfg: PointConfiguration | None) -> str:
    k = fibre.height
    dc = fibre.dual_complex
    out = ["\\begin{tikzpicture}[scale=1]"]

    def coord(position) -> str:
        a, b, c = position
        x = (2 * b + c) * 3000 // (2 * k)
        y = c * 2598 // k
        return f"({_milli(x)},{_milli(y)})"

    at = [coord(v.position) for v in dc.vertices]
    for u, v in dc.edges:
        out.append(f"\\draw[gray] {at[u]} -- {at[v]};")
    for v, pos in zip(dc.vertices, at):
        out.append(f"\\filldraw {pos} circle (2pt);")
        out.append(f"\\node[anchor=south west, font=\\tiny] at {pos} {{{_label(v, k)}}};")
    if cfg is not None:
        for p in cfg.points:
            out.append(
                f"\\draw[green!60!black, thick] {coord(p.valuations)} "
                f"circle (4pt);"
            )
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def render_fibre(
    fibre: ExpandedFibre,
    cfg: PointConfiguration | None = None,
    fmt: str = "svg",
) -> str:
    """Render the dual complex, with optional support points, to a document."""
    if fmt == "svg":
        return _to_svg(fibre, cfg)
    if fmt == "dot":
        return _to_dot(fibre, cfg)
    if fmt == "tikz":
        return _to_tikz(fibre, cfg)
    raise InvalidInput(f"unknown render format {fmt!r}; expected one of {FORMATS}")
