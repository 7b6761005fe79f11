"""Deterministic diagrams of expanded fibres.

All layout arithmetic is integral, so identical inputs produce identical
bytes.  The triangle is drawn with the first corner bottom left, the second
bottom right and the third on top; first-family chords run from the left
side to the right side, second-family chords from the right side down.
"""

from __future__ import annotations

from .configurations import PointConfiguration
from .dual_complex import _SURFACE, DCVertex, ExpandedFibre, VertexKind
from .errors import HeightMismatch, InvalidInput

__all__ = ["render_fibre", "FORMATS"]

_MARGIN = 70
_SPAN = 620
_TRI_H = 537  # 620 * 866 // 1000

_FILL = {
    "plane": "#303030",
    "ruled-bubble": "#c03030",
    "quadric": "#3050c0",
}

_OFFSET = {  # label offset from the vertex in the SVG
    VertexKind.CORNER_Y1: (-14, 18),
    VertexKind.CORNER_Y2: (10, 14),
    VertexKind.CORNER_Y3: (10, -8),
    VertexKind.PURE_DELTA1: (-14, 18),
    VertexKind.PURE_DELTA2: (10, -8),
    VertexKind.MIXED: (10, 14),
    VertexKind.INTERIOR: (8, -8),
}

# (fill, dx, dy) of each vertex kind, where SVG and DOT read a kind's fill
# (TikZ draws every vertex black)
_STYLE = {kind: (_FILL[_SURFACE[kind]], dx, dy) for kind, (dx, dy) in _OFFSET.items()}


def _label(v: DCVertex, k: int) -> str:
    kind = v.kind
    if kind is VertexKind.INTERIOR:  # most vertices are chord crossings
        a, b = v.levels
        return f"Δ1({a})×Δ2({b})"
    if kind is VertexKind.PURE_DELTA1:
        return f"Δ1({v.levels[0]})"
    if kind is VertexKind.PURE_DELTA2:
        return f"Δ2({v.levels[0]})"
    if kind is VertexKind.MIXED:
        s = v.levels[0]
        return f"Δ1({s})=Δ2({k - s})"
    if kind is VertexKind.CORNER_Y1:
        return "Y1"
    if kind is VertexKind.CORNER_Y2:
        return "Y2"
    return "Y3"


def _layout(positions, k: int, span: int, rise: int) -> list[tuple[int, int]]:
    """The integral (x, y) of each valuation triple, y up, on a triangle
    ``span`` wide whose apex is ``rise`` high."""
    return [((2 * b + c) * span // (2 * k), c * rise // k) for a, b, c in positions]


def _svg_xy(positions, k: int) -> list[tuple[int, int]]:  # inside the margin, y down
    return [(_MARGIN + x, _MARGIN + _TRI_H - y) for x, y in _layout(positions, k, _SPAN, _TRI_H)]


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
    xy = _svg_xy([v.position for v in dc.vertices], k)
    start = [f'<line x1="{x}" y1="{y}" ' for x, y in xy]  # a line's two halves at each vertex
    end = [f'x2="{x}" y2="{y}" stroke="#707070" stroke-width="2"/>' for x, y in xy]
    out += [start[u] + end[v] for u, v in dc.edges]
    for v, (x, y) in zip(dc.vertices, xy):
        fill, dx, dy = _STYLE[v.kind]
        out.append(f'<circle cx="{x}" cy="{y}" r="6" fill="{fill}"/>')
        out.append(
            f'<text x="{x + dx}" y="{y + dy}" font-family="monospace" '
            f'font-size="13" fill="{fill}">{_label(v, k)}</text>'
        )
    if cfg is not None:
        for p, (x, y) in zip(cfg.points, _svg_xy([p.valuations for p in cfg.points], k)):
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
    xy = _layout([v.position for v in dc.vertices], k, 300, 260)
    for i, (v, (x, y)) in enumerate(zip(dc.vertices, xy)):
        out.append(
            f'  v{i} [label="{_label(v, k)}" pos="{x},{y}!" '
            f'color="{_STYLE[v.kind][0]}"];'
        )
    out += [f"  v{u} -- v{v};" for u, v in dc.edges]
    if cfg is not None:
        xy = _layout([p.valuations for p in cfg.points], k, 300, 260)
        for idx, (p, (x, y)) in enumerate(zip(cfg.points, xy)):
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

    def coords(positions) -> list[str]:
        return [f"({_milli(x)},{_milli(y)})" for x, y in _layout(positions, k, 3000, 2598)]

    at = coords([v.position for v in dc.vertices])
    out += [f"\\draw[gray] {at[u]} -- {at[v]};" for u, v in dc.edges]
    for v, pos in zip(dc.vertices, at):
        out.append(f"\\filldraw {pos} circle (2pt);")
        out.append(f"\\node[anchor=south west, font=\\tiny] at {pos} {{{_label(v, k)}}};")
    if cfg is not None:
        for pos in coords([p.valuations for p in cfg.points]):
            out.append(f"\\draw[green!60!black, thick] {pos} circle (4pt);")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


_WRITERS = {"dot": _to_dot, "svg": _to_svg, "tikz": _to_tikz}
FORMATS = tuple(_WRITERS)


def render_fibre(
    fibre: ExpandedFibre,
    cfg: PointConfiguration | None = None,
    fmt: str = "svg",
) -> str:
    """Render the dual complex, with optional support points, to a document.

    The points must have the fibre's height: the layout scales by it.
    """
    if cfg is not None and cfg.height != fibre.height:
        raise HeightMismatch(
            f"configuration has height {cfg.height}, the fibre {fibre.height}"
        )
    if fmt not in FORMATS:  # compares, so an unhashable fmt is refused too
        raise InvalidInput(f"unknown render format {fmt!r}; expected one of {FORMATS}")
    return _WRITERS[fmt](fibre, cfg)
