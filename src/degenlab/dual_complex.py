"""The subdivided tropical triangle attached to an expanded fibre.

A height-k degeneration tropicalizes to the triangle ``{a + b + c = k}`` in
the non-negative octant, where ``(a, b, c)`` are the vanishing orders of the
three local coordinates.  Each cut level ``s`` of the normal form draws two
chords: one at ``a = s`` (from the ``b = 0`` side to the ``c = 0`` side) and
its partner at ``b = k - s`` (from the ``a = 0`` side to the ``c = 0`` side).
The two meet exactly on the ``c = 0`` side, at the mixed vertex ``(s, k-s, 0)``.

The resulting subdivision is read as a dual complex: vertices are the
irreducible components of the fibre, edges the double curves, bounded cells
the triple points.  Corner vertices carry the three planes, chord vertices
the exceptional bubbles, and chord crossings the quadric bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .base import NormalForm
from .errors import HeightMismatch, InvalidInput

__all__ = [
    "VertexKind",
    "TropPosition",
    "DCVertex",
    "DualComplex",
    "ExpandedFibre",
    "Location",
    "build_fibre",
    "cached_fibre",
    "location_table",
    "complex_counts",
    "tropicalize_point",
    "locate",
    "refines",
]


class VertexKind(str, Enum):
    CORNER_Y1 = "corner_y1"
    CORNER_Y2 = "corner_y2"
    CORNER_Y3 = "corner_y3"
    PURE_DELTA1 = "pure_delta1"
    PURE_DELTA2 = "pure_delta2"
    MIXED = "mixed"
    INTERIOR = "interior"


_SURFACE = {
    VertexKind.CORNER_Y1: "plane",
    VertexKind.CORNER_Y2: "plane",
    VertexKind.CORNER_Y3: "plane",
    VertexKind.PURE_DELTA1: "ruled-bubble",
    VertexKind.PURE_DELTA2: "ruled-bubble",
    VertexKind.MIXED: "ruled-bubble",
    VertexKind.INTERIOR: "quadric",
}


class TropPosition(NamedTuple):
    """Integral point of the height-k triangle: valuations of x, y, z."""

    a: int
    b: int
    c: int


@dataclass(frozen=True)
class DCVertex:
    """One irreducible component of the expanded fibre.

    ``levels`` holds the chord data: ``(v,)`` for a pure first-family bubble
    at ``a = v``, ``(w,)`` for a pure second-family bubble at ``b = w``,
    ``(v,)`` for a mixed bubble (its partner level ``k - v`` is implied), and
    ``(v, w)`` for the quadric at a chord crossing.  Corners carry ``()``.
    """

    kind: VertexKind
    position: TropPosition
    levels: tuple[int, ...] = ()

    @property
    def surface_kind(self) -> str:
        return _SURFACE[self.kind]


@dataclass(frozen=True)
class Location:
    """Stratum of the subdivision containing a point."""

    stratum: str  # "vertex" | "edge" | "cell"
    index: int

    @property
    def is_vertex(self) -> bool:
        return self.stratum == "vertex"


class DualComplex:
    """Vertices, edges and bounded cells of the subdivided triangle."""

    def __init__(
        self,
        height: int,
        cuts: tuple[int, ...],
        vertices: tuple[DCVertex, ...],
        edges: tuple[tuple[int, int], ...],
        cells: tuple[tuple[int, ...], ...],
    ):
        self.height = height
        self.cuts = cuts
        self.vertices = vertices
        self.edges = edges
        self.cells = cells

    @cached_property
    def vertex_at(self) -> dict[TropPosition, int]:
        return {v.position: i for i, v in enumerate(self.vertices)}

    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self.edges), len(self.cells)

    def _key(self):
        return (self.height, self.cuts, self.vertices, self.edges, self.cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, DualComplex) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.height, self.cuts))

    def __repr__(self) -> str:
        v, e, f = self.counts()
        return f"DualComplex(height={self.height}, cuts={self.cuts}, V={v}, E={e}, F={f})"


@dataclass(frozen=True)
class ExpandedFibre:
    """A normal form together with its dual complex."""

    nf: NormalForm
    dual_complex: DualComplex

    @property
    def height(self) -> int:
        return self.nf.height

    @property
    def cuts(self) -> tuple[int, ...]:
        return self.nf.cuts


def _vertex_for(k: int, cuts: tuple[int, ...], a: int, b: int) -> DCVertex:
    """The vertex at ``(a, b, k - a - b)``; assumes the position is a vertex."""
    c = k - a - b
    if a == k:
        return DCVertex(VertexKind.CORNER_Y1, TropPosition(k, 0, 0))
    if b == k:
        return DCVertex(VertexKind.CORNER_Y2, TropPosition(0, k, 0))
    if a == 0 and b == 0:
        return DCVertex(VertexKind.CORNER_Y3, TropPosition(0, 0, k))
    if b == 0:
        return DCVertex(VertexKind.PURE_DELTA1, TropPosition(a, 0, c), (a,))
    if a == 0:
        return DCVertex(VertexKind.PURE_DELTA2, TropPosition(0, b, c), (b,))
    if c == 0:
        return DCVertex(VertexKind.MIXED, TropPosition(a, b, 0), (a,))
    return DCVertex(VertexKind.INTERIOR, TropPosition(a, b, c), (a, b))


def build_fibre(nf: NormalForm) -> ExpandedFibre:
    """Construct the dual complex of the expanded fibre with the given cuts.

    Vertex order: the three corners, then pure first-family bubbles by level,
    pure second-family bubbles by level, mixed bubbles by level, and chord
    crossings lexicographically.
    """
    k, cuts = nf.height, nf.cuts
    cocuts = tuple(sorted(k - s for s in cuts))

    vertices: list[DCVertex] = [
        DCVertex(VertexKind.CORNER_Y1, TropPosition(k, 0, 0)),
        DCVertex(VertexKind.CORNER_Y2, TropPosition(0, k, 0)),
        DCVertex(VertexKind.CORNER_Y3, TropPosition(0, 0, k)),
    ]
    for s in cuts:
        vertices.append(DCVertex(VertexKind.PURE_DELTA1, TropPosition(s, 0, k - s), (s,)))
    for w in cocuts:
        vertices.append(DCVertex(VertexKind.PURE_DELTA2, TropPosition(0, w, k - w), (w,)))
    for s in cuts:
        vertices.append(DCVertex(VertexKind.MIXED, TropPosition(s, k - s, 0), (s,)))
    for v in cuts:
        for w in cocuts:
            if v + w < k:  # crossing happens only when the chords meet inside
                vertices.append(
                    DCVertex(VertexKind.INTERIOR, TropPosition(v, w, k - v - w), (v, w))
                )

    index = {vx.position: i for i, vx in enumerate(vertices)}

    def vid(a: int, b: int) -> int:
        return index[TropPosition(a, b, k - a - b)]

    edges: list[tuple[int, int]] = []

    def chain(points: list[int]) -> None:
        for u, v in zip(points, points[1:]):
            edges.append((u, v))

    # Boundary sides, each subdivided by the chord endpoints.
    chain([vid(a, 0) for a in (0, *cuts, k)])                      # side b = 0
    chain([vid(k - b, b) for b in (0, *cocuts, k)])                # side c = 0
    chain([vid(0, b) for b in (0, *cocuts, k)])                    # side a = 0
    # First-family chords: from the pure bubble through the crossings to the
    # mixed vertex, ordered by increasing b.
    for s in cuts:
        bs = [0] + [w for w in cocuts if w < k - s] + [k - s]
        chain([vid(s, b) for b in bs])
    # Second-family chords, symmetric, ordered by increasing a.
    for w in cocuts:
        As = [0] + [s for s in cuts if s < k - w] + [k - w]
        chain([vid(a, w) for a in As])

    # Bounded cells, indexed by the strip pair (i, j) with i <= j.  Strip i
    # is a in [s_i, s_{i+1}], strip j is b in [k - s_{j+1}, k - s_j], with
    # s_0 = 0 and s_{n+1} = k.  The diagonal cells are triangles clipped by
    # the c = 0 side; all others are quadrilaterals.
    levels = (0, *cuts, k)
    n = len(cuts)
    cells: list[tuple[int, ...]] = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            lo_a, hi_a = levels[i], levels[i + 1]
            lo_b, hi_b = k - levels[j + 1], k - levels[j]
            if i == j:
                cells.append((vid(lo_a, lo_b), vid(hi_a, lo_b), vid(lo_a, hi_b)))
            else:
                cells.append(
                    (vid(lo_a, lo_b), vid(hi_a, lo_b), vid(hi_a, hi_b), vid(lo_a, hi_b))
                )

    complex_ = DualComplex(k, cuts, tuple(vertices), tuple(edges), tuple(cells))
    return ExpandedFibre(nf, complex_)


def complex_counts(f: ExpandedFibre) -> tuple[int, int, int]:
    """(V, E, F) of the dual complex, counting bounded faces only."""
    return f.dual_complex.counts()


@lru_cache(maxsize=None)
def cached_fibre(nf: NormalForm) -> ExpandedFibre:
    """Memoised fibre construction for enumeration-heavy callers."""
    return build_fibre(nf)


@lru_cache(maxsize=None)
def location_table(nf: NormalForm) -> Mapping[TropPosition, "Location"]:
    """Stratum of every integral point of the fibre's triangle (read-only)."""
    fibre = cached_fibre(nf)
    k = nf.height
    table = {}
    for a in range(k + 1):
        for b in range(k + 1 - a):
            pos = TropPosition(a, b, k - a - b)
            table[pos] = locate(fibre, pos)
    return MappingProxyType(table)


def tropicalize_point(e, k: int) -> TropPosition:
    """Position of a valued point in the height-k triangle."""
    e1, e2, e3 = e
    if e1 + e2 + e3 != k:
        raise HeightMismatch(f"valuations {e} sum to {e1 + e2 + e3}, expected {k}")
    if min(e1, e2, e3) < 0:
        raise InvalidInput(f"valuations must be non-negative: {e}")
    return TropPosition(e1, e2, e3)


def locate(f: ExpandedFibre, p: TropPosition | tuple[int, int, int]) -> Location:
    """Exact stratum of the subdivision containing ``p``."""
    a, b, c = p
    k, cuts = f.height, f.cuts
    if a + b + c != k:
        raise HeightMismatch(f"point {tuple(p)} does not have height {k}")
    if min(a, b, c) < 0:
        raise InvalidInput(f"point coordinates must be non-negative: {tuple(p)}")
    dc = f.dual_complex
    pos = TropPosition(a, b, c)
    if pos in dc.vertex_at:
        return Location("vertex", dc.vertex_at[pos])

    cocuts = tuple(k - s for s in cuts)
    # At most one subdividing line passes through a non-vertex point: any two
    # lines meet in a vertex.
    if a == 0 or b == 0 or c == 0 or a in cuts or b in cocuts:
        def on_line(q: TropPosition) -> bool:
            if a == 0:
                return q.a == 0
            if b == 0:
                return q.b == 0
            if c == 0:
                return q.c == 0
            if a in cuts:
                return q.a == a
            return q.b == b

        for i, (u, v) in enumerate(dc.edges):
            pu, pv = dc.vertices[u].position, dc.vertices[v].position
            if on_line(pu) and on_line(pv):
                lo = tuple(map(min, pu, pv))
                hi = tuple(map(max, pu, pv))
                if all(l <= x <= h for l, x, h in zip(lo, pos, hi)):
                    return Location("edge", i)
        raise InvalidInput(f"no edge contains {tuple(p)}")  # unreachable

    # Interior of a cell: identify the strip pair.
    n = len(cuts)
    i = sum(1 for s in cuts if s < a)
    j = sum(1 for s in cuts if s < k - b)
    cell_index = 0
    for ii in range(n + 1):
        for jj in range(ii, n + 1):
            if (ii, jj) == (i, j):
                return Location("cell", cell_index)
            cell_index += 1
    raise InvalidInput(f"no cell contains {tuple(p)}")  # unreachable


def refines(fine: NormalForm, coarse: NormalForm) -> bool:
    """Does the fine subdivision contain every cut of the coarse one?

    Both normal forms are rescaled to their least common height first.
    """
    common = lcm(fine.height, coarse.height)
    fine_cuts = set(fine.rescale(common // fine.height).cuts)
    coarse_cuts = set(coarse.rescale(common // coarse.height).cuts)
    return coarse_cuts <= fine_cuts
