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

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .base import BaseTuple, NormalForm, canonical_tuple
from .errors import HeightMismatch, InvalidInput

__all__ = [
    "VertexKind",
    "TropPosition",
    "DCVertex",
    "DualComplex",
    "ExpandedFibre",
    "Location",
    "build_fibre",
    "complex_counts",
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


class DCVertex(NamedTuple):
    """One irreducible component of the expanded fibre, as a ``NamedTuple``.

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
    """Stratum of the subdivision containing a point.

    ``x`` and ``y`` are the half-level coordinates of ``a`` and ``k - b``
    among the levels ``(0, *cuts, k)``: ``2p`` is ``levels[p]`` and ``2p + 1``
    the open strip above it.  They determine the stratum and its index, and
    every comparison of the point with a level: ``a`` is below, on or above
    ``levels[p]`` exactly as ``x`` is below, at or above ``2p``.
    """

    stratum: str  # "vertex" | "edge" | "cell"
    index: int
    x: int
    y: int

    @property
    def is_vertex(self) -> bool:
        return self.stratum == "vertex"


@dataclass(frozen=True)
class DualComplex:
    """Vertices, edges and bounded cells of the subdivided triangle."""

    height: int
    cuts: tuple[int, ...]
    vertices: tuple[DCVertex, ...]
    edges: tuple[tuple[int, int], ...]
    cells: tuple[tuple[int, ...], ...]

    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self.edges), len(self.cells)

    def __repr__(self) -> str:
        v, e, f = self.counts()
        return f"DualComplex(height={self.height}, cuts={self.cuts}, V={v}, E={e}, F={f})"


@dataclass(frozen=True)
class ExpandedFibre:
    """A normal form with its dual complex and its zero-free presentation,
    each built on first access."""

    nf: NormalForm

    @cached_property
    def dual_complex(self) -> DualComplex:
        return _dual_complex(self.nf)

    @cached_property
    def canonical_tuple(self) -> BaseTuple:
        """The zero-free presentation of the normal form, computed once."""
        return canonical_tuple(self.nf)

    @property
    def height(self) -> int:
        return self.nf.height

    @property
    def cuts(self) -> tuple[int, ...]:
        return self.nf.cuts


def build_fibre(nf: NormalForm) -> ExpandedFibre:
    """The expanded fibre with the given cuts, its dual complex already built."""
    fibre = ExpandedFibre(nf)
    fibre.dual_complex  # built here, so timing build_fibre times the construction
    return fibre


def _dual_complex(nf: NormalForm) -> DualComplex:
    """Construct the dual complex of the expanded fibre with the given cuts.

    Vertex order: the three corners, then pure first-family bubbles by level,
    pure second-family bubbles by level, mixed bubbles by level, and chord
    crossings lexicographically.  Vertices, edges and cells are numbered by
    ``_vertex_index``, ``_edge_index`` and ``_cell_index``, the rules that
    ``locate`` reads too.
    """
    k, cuts = nf.height, nf.cuts
    n, top = len(cuts), len(cuts) + 1
    new, V, P = tuple.__new__, DCVertex, TropPosition  # as ``_make``, minus its checks
    pure1, pure2, mixed, interior = (
        VertexKind.PURE_DELTA1, VertexKind.PURE_DELTA2, VertexKind.MIXED, VertexKind.INTERIOR)
    cocuts = [k - s for s in reversed(cuts)]  # the levels b = k - s, ascending
    vertices = [
        new(V, (VertexKind.CORNER_Y1, new(P, (k, 0, 0)), ())),
        new(V, (VertexKind.CORNER_Y2, new(P, (0, k, 0)), ())),
        new(V, (VertexKind.CORNER_Y3, new(P, (0, 0, k)), ())),
        *[new(V, (pure1, new(P, (s, 0, k - s)), (s,))) for s in cuts],
        *[new(V, (pure2, new(P, (0, w, k - w)), (w,))) for w in cocuts],
        *[new(V, (mixed, new(P, (s, k - s, 0)), (s,))) for s in cuts],
        # the chord a = v meets the chords b = w < k - v inside
        *[new(V, (interior, new(P, (v, w, k - v - w)), (v, w)))
          for p, v in enumerate(cuts, 1) for w in cocuts[:n - p]],
    ]

    # at[p][q] is the vertex at a = levels[p], k - b = levels[q], p <= q.
    # Along a row, the vertices strictly between the c = 0 side and the
    # b = 0 side have consecutive indices, descending with q.
    at = []
    for p in range(top):
        first = _vertex_index(p, p + 1, n)
        at.append([None] * p + [_vertex_index(p, p, n),
                                *range(first, first - n + p, -1), _vertex_index(p, top, n)])
    at.append([None] * top + [_vertex_index(top, top, n)])

    # Each edge joins neighbours on one chain: a side or a chord.  A chain's
    # edges have consecutive indices from that of its first edge.
    edges: list[tuple[int, int]] = [None] * (top * (top + 2))

    def chain(x: int, y: int, ends: list[int]) -> None:
        first = _edge_index(x, y, n)
        edges[first:first + len(ends) - 1] = zip(ends, ends[1:])

    chain(1, 2 * top, [row[top] for row in at])  # b = 0
    chain(2 * top - 1, 2 * top - 1, [at[p][p] for p in range(top, -1, -1)])  # c = 0
    chain(0, 2 * top - 1, at[0][::-1])  # a = 0
    for p in range(1, top):  # a = levels[p], from the pure bubble
        chain(2 * p, 2 * top - 1, at[p][:p - 1:-1])
    for q in range(1, top):  # b = k - levels[q], from the a = 0 side
        chain(1, 2 * q, [at[p][q] for p in range(q + 1)])

    # Cells are strip pairs (i, j), i <= j, in the order of _cell_index: the
    # triangle (i, i) clipped by the c = 0 side, then the quadrilaterals
    # (i, j) with corners at[i][j + 1], at[i + 1][j + 1], at[i + 1][j], at[i][j].
    cells: list[tuple[int, ...]] = []
    for i in range(top):
        lo, hi = at[i], at[i + 1]
        cells.append((lo[i + 1], hi[i + 1], lo[i]))
        cells += zip(lo[i + 2:], hi[i + 2:], hi[i + 1:], lo[i + 1:])

    return DualComplex(k, cuts, tuple(vertices), tuple(edges), tuple(cells))


def complex_counts(f: ExpandedFibre) -> tuple[int, int, int]:
    """(V, E, F) of the dual complex, counting bounded faces only."""
    return f.dual_complex.counts()


def _before_row(row: int, first: int) -> int:
    """Entries ahead of ``row`` in rows of lengths first, first - 1, ..."""
    return row * first - row * (row - 1) // 2


def _vertex_index(p: int, q: int, n: int) -> int:
    """Index of the vertex at ``a = levels[p]``, ``k - b = levels[q]``.

    ``levels`` is ``(0, *cuts, k)`` for ``n`` cuts and ``p <= q``; this is
    the vertex order of ``_dual_complex``, written down once.
    """
    if p == q:  # the c = 0 side: second corner, mixed bubbles, first corner
        return 1 if p == 0 else 0 if p == n + 1 else 2 + 2 * n + p
    if q == n + 1:  # the b = 0 side: third corner, pure first-family bubbles
        return 2 if p == 0 else 2 + p
    if p == 0:  # the a = 0 side: pure second-family bubbles, levels k - s ascending
        return 3 + 2 * n - q
    # crossing: chord p meets the chords b = k - s with s > a
    return 3 + 3 * n + _before_row(p - 1, n - 1) + n - q


def _edge_index(x: int, y: int, n: int) -> int:
    """Index of the edge whose points have ``a`` at ``x`` and ``k - b`` at ``y``.

    Both are half-level coordinates: ``2p`` is ``levels[p]`` and ``2p + 1``
    the open strip between ``levels[p]`` and ``levels[p + 1]``.  The sides
    b = 0, c = 0 and a = 0 come first with n + 1 edges each, then the chords
    a = s by level (from the pure bubble towards c = 0), then the chords
    b = k - s by ascending b (from the a = 0 side); this is the edge order of
    ``_dual_complex``, written down once.
    """
    top = n + 1
    p, q = x // 2, y // 2
    if x % 2 and y % 2:  # the c = 0 side, from the first corner
        return top + n - p
    if x % 2:  # along a, at k - b = levels[q]
        if q == top:  # the b = 0 side
            return p
        return 3 * top + _before_row(n, n) + _before_row(n - q, n) + p
    if p == 0:  # along b on the a = 0 side, from the third corner
        return 2 * top + n - q
    return 3 * top + _before_row(p - 1, n) + n - q  # along the chord a = levels[p]


def _cell_index(i: int, j: int, n: int) -> int:
    """Index of the cell on strip i of ``a`` and strip j of ``k - b``, ``i <= j``;
    cells are ordered by i, then j."""
    return _before_row(i, n + 1) + j - i


def locate(f: ExpandedFibre, p: TropPosition | tuple[int, int, int]) -> Location:
    """Exact stratum of the subdivision containing ``p``.

    The subdividing lines are the three sides and the chords ``a = s`` and
    ``b = k - s``.  Two or more through ``p`` make it a vertex, one an edge
    and none a cell.  The index follows from where ``a`` and ``k - b`` fall
    among the levels ``(0, *cuts, k)``, by the rules ``_dual_complex``
    builds by; the ``Location`` keeps those coordinates.  The complex itself
    is not built.
    """
    a, b, c = p
    k, cuts = f.height, f.cuts
    if a + b + c != k:
        raise HeightMismatch(f"point {tuple(p)} does not have height {k}")
    if min(a, b, c) < 0:
        raise InvalidInput(f"point coordinates must be non-negative: {tuple(p)}")
    n = len(cuts)
    i = bisect_left(cuts, a)
    j = bisect_left(cuts, k - b)
    on_first = i < n and cuts[i] == a        # chord a = s
    on_second = j < n and cuts[j] == k - b   # chord b = k - s
    # half-level coordinates of a and k - b (see _edge_index)
    x = 2 * i + 1 + (on_first or a == k) - (a == 0)
    y = 2 * j + 1 + (on_second or b == 0) - (b == k)
    lines = (a == 0) + (b == 0) + (c == 0) + on_first + on_second
    if lines >= 2:  # a and k - b are both levels here
        return Location("vertex", _vertex_index(x // 2, y // 2, n), x, y)
    if lines == 1:
        return Location("edge", _edge_index(x, y, n), x, y)
    return Location("cell", _cell_index(i, j, n), x, y)


def refines(fine: NormalForm, coarse: NormalForm) -> bool:
    """Does the fine subdivision contain every cut of the coarse one?

    Both normal forms are rescaled to their least common height first.
    """
    common = lcm(fine.height, coarse.height)
    fine_cuts = set(fine.rescale(common // fine.height).cuts)
    coarse_cuts = set(coarse.rescale(common // coarse.height).cuts)
    return coarse_cuts <= fine_cuts


# No library path reads these two memos.  They stay only because the
# benchmark calls them: ``bench/workloads.py:41-42`` clears both at every
# workload set-up and ``bench/run.py:223`` reads their ``cache_info``.
# ROADMAP item 1 removes those calls, after which the two functions go.
@lru_cache(maxsize=None)
def cached_fibre(nf: NormalForm) -> ExpandedFibre:
    """Memoised fibre construction."""
    return build_fibre(nf)


@lru_cache(maxsize=None)
def location_table(nf: NormalForm) -> Mapping[TropPosition, Location]:
    """Stratum of every integral point of the fibre's triangle (read-only)."""
    fibre = ExpandedFibre(nf)
    k = nf.height
    table = {}
    for a in range(k + 1):
        for b in range(k + 1 - a):
            pos = TropPosition(a, b, k - a - b)
            table[pos] = locate(fibre, pos)
    return MappingProxyType(table)
