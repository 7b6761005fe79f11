"""Independent brute-force oracles used by the tests.

The planar arrangement enumerator knows nothing about the chord adjacency
rules of the library: it is handed bare segments, computes intersections
with exact rational arithmetic, and extracts faces by rotating around
vertices.  Counts and edge sets derived here cross-check the constructive
dual complex, and a position-lookup construction pins its order.

The stability invariant is rebuilt the same way, from its definition on
plain data: each point's side of each chart, resolved by the sign of the
subgroup's entry, with its own admissibility and local-scheme checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations_with_replacement, product

Point = tuple[Fraction, Fraction]
Segment = tuple[Point, Point]


def _frac_point(p) -> Point:
    return (Fraction(p[0]), Fraction(p[1]))


def _on_segment(p: Point, seg: Segment) -> bool:
    (x1, y1), (x2, y2) = seg
    (px, py) = p
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    if cross != 0:
        return False
    return min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2)


def _intersect(s1: Segment, s2: Segment) -> Point | None:
    """Proper or endpoint intersection of two non-collinear segments."""
    (x1, y1), (x2, y2) = s1
    (x3, y3), (x4, y4) = s2
    d1 = (x2 - x1, y2 - y1)
    d2 = (x4 - x3, y4 - y3)
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        return None
    t = ((x3 - x1) * d2[1] - (y3 - y1) * d2[0])
    u = ((x3 - x1) * d1[1] - (y3 - y1) * d1[0])
    t = Fraction(t, denom)
    u = Fraction(u, denom)
    if 0 <= t <= 1 and 0 <= u <= 1:
        return (x1 + t * d1[0], y1 + t * d1[1])
    return None


def _direction_cmp(u, v) -> int:
    """Counterclockwise order of direction vectors starting from +x axis."""

    def half(d):
        dx, dy = d
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def build_arrangement(raw_segments) -> dict:
    """Vertices, edges and face count of a segment arrangement.

    Returns a dict with ``vertices`` (set of points), ``edges`` (set of
    frozen point pairs) and ``faces`` (number of bounded faces).  The input
    must be connected with no collinear overlaps.
    """
    segments = [(_frac_point(a), _frac_point(b)) for a, b in raw_segments]
    cuts_on: list[set[Point]] = [{s[0], s[1]} for s in segments]
    for i, s1 in enumerate(segments):
        for j in range(i + 1, len(segments)):
            p = _intersect(s1, segments[j])
            if p is not None:
                cuts_on[i].add(p)
                cuts_on[j].add(p)
    # endpoints of one segment may lie inside another without crossing it
    for i, seg in enumerate(segments):
        for j, other in enumerate(segments):
            if i == j:
                continue
            for endpoint in (other[0], other[1]):
                if _on_segment(endpoint, seg):
                    cuts_on[i].add(endpoint)

    vertices: set[Point] = set()
    edges: set[frozenset] = set()
    adjacency: dict[Point, set[Point]] = {}
    for seg, pts in zip(segments, cuts_on):
        (x1, y1), (x2, y2) = seg
        ordered = sorted(pts, key=lambda p: (p[0] - x1) ** 2 + (p[1] - y1) ** 2)
        for a, b in zip(ordered, ordered[1:]):
            vertices.update((a, b))
            edges.add(frozenset((a, b)))
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)

    order: dict[Point, list[Point]] = {}
    for v, nbrs in adjacency.items():
        order[v] = sorted(
            nbrs,
            key=cmp_to_key(
                lambda p, q: _direction_cmp(
                    (p[0] - v[0], p[1] - v[1]), (q[0] - v[0], q[1] - v[1])
                )
            ),
        )

    half_edges = set()
    for e in edges:
        a, b = tuple(e)
        half_edges.add((a, b))
        half_edges.add((b, a))
    faces = 0
    seen = set()
    for start in sorted(half_edges):
        if start in seen:
            continue
        faces += 1
        h = start
        while True:
            seen.add(h)
            u, v = h
            ring = order[v]
            idx = ring.index(u)
            w = ring[(idx - 1) % len(ring)]
            h = (v, w)
            if h == start:
                break
    return {
        "vertices": vertices,
        "edges": edges,
        "faces": faces - 1,  # drop the outer face
    }


def triangle_segments(k: int, cuts: tuple[int, ...]):
    """Bare segments of the subdivided triangle in the (a, b) plane."""
    segs = [((0, 0), (k, 0)), ((0, 0), (0, k)), ((k, 0), (0, k))]
    for s in cuts:
        segs.append(((s, 0), (s, k - s)))
    for s in cuts:
        w = k - s
        segs.append(((0, w), (k - w, w)))
    return segs


def arrangement_counts(k: int, cuts: tuple[int, ...]) -> tuple[int, int, int]:
    arr = build_arrangement(triangle_segments(k, cuts))
    return len(arr["vertices"]), len(arr["edges"]), arr["faces"]


def arrangement_edge_positions(k: int, cuts: tuple[int, ...]) -> set[frozenset]:
    """Edges as frozensets of integral (a, b, c) positions."""
    arr = build_arrangement(triangle_segments(k, cuts))
    out = set()
    for e in arr["edges"]:
        pts = []
        for (x, y) in e:
            assert x.denominator == 1 and y.denominator == 1
            a, b = int(x), int(y)
            pts.append((a, b, k - a - b))
        out.add(frozenset(pts))
    return out


def reference_dual_complex(k: int, cuts: tuple[int, ...]):
    """The dual complex in the library's order, found by position lookup.

    Vertices are ``(kind, (a, b, c), levels)`` with ``kind`` the
    ``VertexKind`` value; every edge and cell end is looked up by its
    position in the vertex list.  Returns ``(vertices, edges, cells)``.
    """
    cocuts = sorted(k - s for s in cuts)
    vertices = [("corner_y1", (k, 0, 0), ()), ("corner_y2", (0, k, 0), ()),
                ("corner_y3", (0, 0, k), ())]
    vertices += [("pure_delta1", (s, 0, k - s), (s,)) for s in cuts]
    vertices += [("pure_delta2", (0, w, k - w), (w,)) for w in cocuts]
    vertices += [("mixed", (s, k - s, 0), (s,)) for s in cuts]
    vertices += [("interior", (v, w, k - v - w), (v, w))
                 for v in cuts for w in cocuts if v + w < k]
    index = {position: i for i, (_, position, _) in enumerate(vertices)}

    def vid(a, b):
        return index[(a, b, k - a - b)]

    def chain(points):
        return list(zip(points, points[1:]))

    edges = chain([vid(a, 0) for a in (0, *cuts, k)])            # side b = 0
    edges += chain([vid(k - b, b) for b in (0, *cocuts, k)])     # side c = 0
    edges += chain([vid(0, b) for b in (0, *cocuts, k)])         # side a = 0
    for s in cuts:  # first-family chords, by increasing b
        edges += chain([vid(s, b) for b in [0, *(w for w in cocuts if w < k - s), k - s]])
    for w in cocuts:  # second-family chords, by increasing a
        edges += chain([vid(a, w) for a in [0, *(s for s in cuts if s < k - w), k - w]])

    levels = (0, *cuts, k)
    cells = []
    for i in range(len(cuts) + 1):  # strip pairs i <= j
        for j in range(i, len(cuts) + 1):
            lo_a, hi_a = levels[i], levels[i + 1]
            lo_b, hi_b = k - levels[j + 1], k - levels[j]
            corners = [(lo_a, lo_b), (hi_a, lo_b), (hi_a, hi_b), (lo_a, hi_b)]
            if i == j:  # clipped by the c = 0 side
                del corners[2]
            cells.append(tuple(vid(a, b) for a, b in corners))
    return vertices, edges, cells


# ---------------------------------------------------------------------------
# The three diagrams, written line by line from the position-lookup complex.
#
# A point list is ``((a, b, c), multiplicity)`` pairs, or None for no points.

_SURFACE_OF = {"corner_y1": "plane", "corner_y2": "plane", "corner_y3": "plane",
               "pure_delta1": "ruled-bubble", "pure_delta2": "ruled-bubble",
               "mixed": "ruled-bubble", "interior": "quadric"}
_FILL_OF = {"plane": "#303030", "ruled-bubble": "#c03030", "quadric": "#3050c0"}
_SVG_LABEL_OFFSET = {"corner_y1": (-14, 18), "corner_y2": (10, 14), "corner_y3": (10, -8),
                     "pure_delta1": (-14, 18), "pure_delta2": (10, -8),
                     "mixed": (10, 14), "interior": (8, -8)}


def _vertex_label(kind, levels, k) -> str:
    if kind.startswith("corner_y"):
        return "Y" + kind[-1]
    if kind == "pure_delta1":
        return f"Δ1({levels[0]})"
    if kind == "pure_delta2":
        return f"Δ2({levels[0]})"
    if kind == "mixed":
        return f"Δ1({levels[0]})=Δ2({k - levels[0]})"
    return f"Δ1({levels[0]})×Δ2({levels[1]})"


def reference_svg(k, cuts, points) -> str:
    vertices, edges, _ = reference_dual_complex(k, cuts)

    def xy(position):
        a, b, c = position
        return 70 + (2 * b + c) * 620 // (2 * k), 70 + 537 - c * 537 // k

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<svg xmlns="http://www.w3.org/2000/svg" width="760" height="677" '
           'viewBox="0 0 760 677">',
           f"<!-- height {k}, cuts {list(cuts)} -->",
           '<rect width="100%" height="100%" fill="white"/>']
    for u, v in edges:
        (x1, y1), (x2, y2) = xy(vertices[u][1]), xy(vertices[v][1])
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                   'stroke="#707070" stroke-width="2"/>')
    for kind, position, levels in vertices:
        x, y = xy(position)
        fill = _FILL_OF[_SURFACE_OF[kind]]
        dx, dy = _SVG_LABEL_OFFSET[kind]
        out.append(f'<circle cx="{x}" cy="{y}" r="6" fill="{fill}"/>')
        out.append(f'<text x="{x + dx}" y="{y + dy}" font-family="monospace" '
                   f'font-size="13" fill="{fill}">{_vertex_label(kind, levels, k)}</text>')
    for position, mult in points or ():
        x, y = xy(position)
        out.append(f'<circle cx="{x}" cy="{y}" r="10" fill="none" '
                   'stroke="#108040" stroke-width="3"/>')
        out.append(f'<text x="{x + 12}" y="{y - 10}" font-family="monospace" '
                   f'font-size="13" fill="#108040">m={mult}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def reference_dot(k, cuts, points) -> str:
    vertices, edges, _ = reference_dual_complex(k, cuts)

    def xy(position):
        a, b, c = position
        return (2 * b + c) * 300 // (2 * k), c * 260 // k

    out = ["graph dual_complex {", "  layout=neato;",
           "  node [shape=circle, width=0.25, fixedsize=true, fontsize=10];"]
    for i, (kind, position, levels) in enumerate(vertices):
        x, y = xy(position)
        out.append(f'  v{i} [label="{_vertex_label(kind, levels, k)}" pos="{x},{y}!" '
                   f'color="{_FILL_OF[_SURFACE_OF[kind]]}"];')
    out.extend(f"  v{u} -- v{v};" for u, v in edges)
    for i, (position, mult) in enumerate(points or ()):
        x, y = xy(position)
        out.append(f'  p{i} [label="m={mult}" pos="{x},{y}!" shape=box, color="#108040"];')
    out.append("}")
    return "\n".join(out) + "\n"


def reference_tikz(k, cuts, points) -> str:
    vertices, edges, _ = reference_dual_complex(k, cuts)

    def coord(position):
        a, b, c = position
        x, y = (2 * b + c) * 3000 // (2 * k), c * 2598 // k
        return f"({x // 1000}.{x % 1000:03d},{y // 1000}.{y % 1000:03d})"

    out = ["\\begin{tikzpicture}[scale=1]"]
    out.extend(f"\\draw[gray] {coord(vertices[u][1])} -- {coord(vertices[v][1])};"
               for u, v in edges)
    for kind, position, levels in vertices:
        out.append(f"\\filldraw {coord(position)} circle (2pt);")
        out.append(f"\\node[anchor=south west, font=\\tiny] at {coord(position)} "
                   f"{{{_vertex_label(kind, levels, k)}}};")
    for position, _ in points or ():
        out.append(f"\\draw[green!60!black, thick] {coord(position)} circle (4pt);")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


REFERENCE_RENDERERS = {"svg": reference_svg, "dot": reference_dot, "tikz": reference_tikz}


def stable_cut_sets(valuations, k) -> list[tuple[int, ...]]:
    """The sorted cut sets of height k that make every valuation a vertex
    and leave no cut unoccupied, by brute force over all ``2^(k-1)`` of them.

    A valuation (a, b, c) is a vertex when two or more of the lines a = 0,
    b = 0, c = 0, a = s and b = k - s pass through it, and a cut s is
    occupied when some valuation has a = s or b = k - s.
    """
    hit = {a for a, _, _ in valuations} | {k - b for _, b, _ in valuations}
    winners = []
    for mask in range(1 << max(k - 1, 0)):
        levels = {s for s in range(1, k) if mask >> (s - 1) & 1}
        if levels <= hit and all(_lines_through(k, levels, a, b) >= 2 for a, b, _ in valuations):
            winners.append(tuple(sorted(levels)))
    return sorted(winners)


# ---------------------------------------------------------------------------
# The stability invariant, from its definition.
#
# Plain data only: a presentation is its tuple of vanishing orders, a point is
# ``(valuations, multiplicity, scheme)`` with ``scheme`` None or a list of
# monomials, each a dict ``{(level, "delta1" | "delta2"): exponent}`` with
# positive exponents, and a lift is an ``(a, b, c, d)`` tuple.  A refused
# input raises ``Refused`` carrying the name of the library's exception.


class Refused(Exception):
    """The reference rejects the input; ``args[0]`` names the error class."""


def _levels(exponents) -> list[int]:
    return [sum(exponents[: j + 1]) for j in range(len(exponents) - 1)]


def level_values(exponents) -> list[int]:
    """The partial sums g_1 + ... + g_j, for j = 1..n: one per torus level."""
    return _levels(exponents)


def cuts(exponents) -> list[int]:
    """The distinct level values strictly between 0 and the height, increasing."""
    k = sum(exponents)
    return sorted(v for v in set(_levels(exponents)) if 0 < v < k)


def level_coords(exponents) -> list[int]:
    """Each level value's half-level coordinate among the levels
    ``(0, *cuts, k)``: every level value is one of them, so the coordinate
    is twice its index there."""
    levels = [0, *cuts(exponents), sum(exponents)]
    return [2 * levels.index(v) for v in _levels(exponents)]


def level_bits(exponents) -> int:
    """The sum of ``2 ** c`` over the distinct level coordinates c."""
    return sum(2**c for c in set(level_coords(exponents)))


def weighted_multisets(k, max_m) -> list[tuple[tuple[tuple[int, int, int], int], ...]]:
    """Every multiset of at most ``max_m`` valuations of height k, by size,
    then in ``combinations_with_replacement`` order of the triangle read by
    a, then b: its distinct valuations, sorted, each with its count."""
    triangle = [(a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)]
    out = [()]
    for m in range(1, max_m + 1):
        for combo in combinations_with_replacement(triangle, m):
            out.append(tuple((val, combo.count(val)) for val in sorted(set(combo))))
    return out


def check_subgroup(exponents, s) -> None:
    """The chain 0 >= s_1 >= ... >= s_n >= 0, at each invertible direction."""
    if len(s) != len(exponents) - 1:
        raise Refused("InvalidInput")
    chain = [0, *s, 0]
    for i, g in enumerate(exponents):
        if g == 0 and chain[i] < chain[i + 1]:
            raise Refused("NoLimit")


def check_lifts(exponents, lifts) -> None:
    if len(lifts) != len(exponents) - 1:
        raise Refused("InvalidInput")


def _lines_through(k, cuts, a, b) -> int:
    """Sides a = 0, b = 0, c = 0 and chords a = v, b = k - v through (a, b)."""
    return (
        (a == 0) + (b == 0) + (a + b == k)
        + sum(a == v for v in cuts) + sum(b == k - v for v in cuts)
    )


def check_schemes(exponents, points) -> None:
    """A length-r scheme: r monomials of degree <= r, one of them constant,
    nontrivial only at a vertex, using only charts through its point."""
    k = sum(exponents)
    levels = _levels(exponents)
    cuts = sorted({v for v in levels if 0 < v < k})
    for (a, b, _), mult, scheme in points:
        if scheme is None:
            continue
        if len(scheme) != mult or {} not in scheme:
            raise Refused("InvalidLocalScheme")
        if any(sum(mono.values()) > mult for mono in scheme):
            raise Refused("InvalidLocalScheme")
        if any(scheme) and _lines_through(k, cuts, a, b) < 2:
            raise Refused("InvalidLocalScheme")
        for mono in scheme:
            for level, chart in mono:
                if not 1 <= level <= len(levels):
                    raise Refused("InvalidLocalScheme")
                v = levels[level - 1]
                on_component = a == v if chart == "delta1" else b == k - v
                if not on_component:
                    raise Refused("InvalidLocalScheme")


def _limit_side(coord, value, s_j, chart) -> str:
    """(1:0) below the chart's cut value, (0:1) above it; on the component
    the flow sends a point to (0:1) of a first-family chart and to (1:0) of
    a second-family one when s_j > 0, the other way when s_j < 0."""
    if coord < value:
        return "1:0"
    if coord > value:
        return "0:1"
    if s_j == 0:
        return "on"
    return "0:1" if (s_j > 0) == (chart == "delta1") else "1:0"


def bounded_terms(exponents, points, s) -> list[int]:
    """Per-level b_j of the monomial part at the limit (zero where s_j is)."""
    k = sum(exponents)
    levels = _levels(exponents)
    coeffs = [0] * len(levels)
    for (a, b, _), _mult, scheme in points:
        for mono in scheme or []:
            for (level, chart), e in mono.items():
                j = level - 1
                if s[j] == 0:
                    continue
                # the chart coordinate has weight +1 on the (0:1) side of a
                # first-family chart and on the (1:0) side of a second one
                if chart == "delta1":
                    positive = _limit_side(a, levels[j], s[j], chart) == "0:1"
                else:
                    positive = _limit_side(b, k - levels[j], s[j], chart) == "1:0"
                coeffs[j] += e if positive else -e
    return coeffs


def combinatorial_terms(exponents, points, s, lifts) -> list[int]:
    """Per-level lift weights c_j s_j summed over the limit positions."""
    k = sum(exponents)
    terms = []
    for j, v in enumerate(_levels(exponents)):
        la, lb, lc, ld = lifts[j]
        total = 0
        for (a, b, _), mult, _scheme in points:
            first = _limit_side(a, v, s[j], "delta1")
            second = _limit_side(b, k - v, s[j], "delta2")
            weight = {"1:0": -la, "0:1": lb, "on": 0}[first]
            weight += {"1:0": lc, "0:1": -ld, "on": 0}[second]
            total += mult * weight * s[j]
        terms.append(total)
    return terms


def invariant(exponents, points, s, lifts, l) -> int:
    """bounded + l * combinatorial, for an admissible s and valid data."""
    bounded = sum(b * s_j for b, s_j in zip(bounded_terms(exponents, points, s), s))
    return bounded + l * sum(combinatorial_terms(exponents, points, s, lifts))


def unoccupied(exponents, points) -> tuple[int, ...]:
    """Level values v, sorted and distinct, with no (val, mult) point at
    a = v or b = k - v."""
    k = sum(exponents)
    return tuple(sorted(
        v for v in set(_levels(exponents))
        if not any(a == v or b == k - v for (a, b, _), _ in points)
    ))


def constructive_lifts(exponents, points) -> list[tuple[int, int, int, int]]:
    """The constructive lift read from the valuations, for (val, mult) points
    occupying every level: per level value v, weight the first-family chart
    by m' (the multiplicity with a < v) when some point has a = v, else the
    second-family chart by m'' (the multiplicity with b < k - v)."""
    k = sum(exponents)
    m = sum(mult for _, mult in points)
    lifts = []
    for v in _levels(exponents):
        if any(a == v for (a, _, _), _ in points):
            m1 = sum(mult for (a, _, _), mult in points if a < v)
            lifts.append((m * (m - m1), m * (m1 + 1), 0, 1))
        else:
            m2 = sum(mult for (_, b, _), mult in points if b < k - v)
            lifts.append((0, 1, m * (m - m2), m * (m2 + 1)))
    return lifts


def sign_vectors(exponents) -> list[tuple[int, ...]]:
    """Every nonzero admissible vector with entries in {-1, 0, 1}."""
    out = []
    for v in product((-1, 0, 1), repeat=len(exponents) - 1):
        try:
            check_subgroup(exponents, v)
        except Refused:
            continue
        if any(v):
            out.append(v)
    return out
