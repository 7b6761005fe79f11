"""Dual complexes of expanded fibres against the arrangement oracle."""

from collections import Counter

import pytest
from hypothesis import given, settings

from degenlab import (
    ExpandedFibre,
    HeightMismatch,
    Location,
    NormalForm,
    VertexKind,
    build_fibre,
    complex_counts,
    locate,
    refines,
)

from oracles import (
    arrangement_counts,
    arrangement_edge_positions,
    reference_dual_complex,
)
from guards import traced_peak_mb
from strategies import normal_forms


def test_undivided_triangle():
    f = build_fibre(NormalForm(1, ()))
    assert complex_counts(f) == (3, 3, 1)
    assert Counter(v.kind for v in f.dual_complex.vertices) == {
        VertexKind.CORNER_Y1: 1,
        VertexKind.CORNER_Y2: 1,
        VertexKind.CORNER_Y3: 1,
    }


def test_one_cut_inventory():
    f = build_fibre(NormalForm(2, (1,)))
    assert complex_counts(f) == (6, 8, 3)
    assert Counter(v.kind for v in f.dual_complex.vertices) == {
        VertexKind.CORNER_Y1: 1,
        VertexKind.CORNER_Y2: 1,
        VertexKind.CORNER_Y3: 1,
        VertexKind.PURE_DELTA1: 1,
        VertexKind.PURE_DELTA2: 1,
        VertexKind.MIXED: 1,
    }


def test_two_cut_inventory_with_quadric():
    f = build_fibre(NormalForm(3, (1, 2)))
    assert complex_counts(f) == (10, 15, 6)
    counts = Counter(v.kind for v in f.dual_complex.vertices)
    assert counts[VertexKind.PURE_DELTA1] == 2
    assert counts[VertexKind.PURE_DELTA2] == 2
    assert counts[VertexKind.MIXED] == 2
    assert counts[VertexKind.INTERIOR] == 1
    interior = [
        v for v in f.dual_complex.vertices if v.kind is VertexKind.INTERIOR
    ]
    assert interior[0].surface_kind == "quadric"
    assert tuple(interior[0].position) == (1, 1, 1)


def test_every_cut_has_one_of_each_bubble():
    f = build_fibre(NormalForm(6, (1, 3, 5)))
    k = 6
    for s in (1, 3, 5):
        pd1 = [v for v in f.dual_complex.vertices
               if v.kind is VertexKind.PURE_DELTA1 and v.levels == (s,)]
        pd2 = [v for v in f.dual_complex.vertices
               if v.kind is VertexKind.PURE_DELTA2 and v.levels == (k - s,)]
        mixed = [v for v in f.dual_complex.vertices
                 if v.kind is VertexKind.MIXED and v.levels == (s,)]
        assert len(pd1) == len(pd2) == len(mixed) == 1
        assert tuple(mixed[0].position) == (s, k - s, 0)


@pytest.mark.parametrize("n", range(9))
def test_count_formulas_and_euler(n):
    cuts = tuple(range(1, n + 1))
    f = build_fibre(NormalForm(n + 1, cuts))
    v, e, faces = complex_counts(f)
    assert v == 3 + 3 * n + n * (n - 1) // 2
    assert e == 3 * (n + 1) + n * (n + 1)
    assert faces == 1 + n + n * (n + 1) // 2
    assert v - e + faces == 1


@pytest.mark.parametrize(
    "k,cuts",
    [
        (1, ()),
        (2, (1,)),
        (3, (1, 2)),
        (5, (2, 3)),
        (7, (1, 4, 6)),
        (9, (2, 3, 5, 7)),
        (11, (1, 2, 5, 7, 10)),
    ],
)
def test_counts_against_arrangement_oracle(k, cuts):
    f = build_fibre(NormalForm(k, cuts))
    assert complex_counts(f) == arrangement_counts(k, cuts)


@pytest.mark.parametrize("k,cuts", [(2, (1,)), (3, (1, 2)), (5, (1, 3, 4)), (7, (2, 3, 6))])
def test_edge_sets_against_arrangement_oracle(k, cuts):
    f = build_fibre(NormalForm(k, cuts))
    dc = f.dual_complex
    ours = {
        frozenset((tuple(dc.vertices[u].position), tuple(dc.vertices[v].position)))
        for u, v in dc.edges
    }
    assert ours == arrangement_edge_positions(k, cuts)


class TestLocate:
    def test_vertices_round_trip(self):
        f = build_fibre(NormalForm(4, (1, 3)))
        for i, v in enumerate(f.dual_complex.vertices):
            loc = locate(f, v.position)
            assert loc.stratum == "vertex" and loc.index == i

    def test_spec_examples(self):
        f = build_fibre(NormalForm(3, (1, 2)))
        loc = locate(f, (1, 2, 0))
        assert loc.is_vertex
        assert f.dual_complex.vertices[loc.index].kind is VertexKind.MIXED
        loc = locate(f, (1, 1, 1))
        assert f.dual_complex.vertices[loc.index].kind is VertexKind.INTERIOR

    def test_edge_interior_on_side(self):
        f = build_fibre(NormalForm(2, ()))
        loc = locate(f, (1, 0, 1))
        assert loc.stratum == "edge"
        u, v = f.dual_complex.edges[loc.index]
        ends = {
            tuple(f.dual_complex.vertices[u].position),
            tuple(f.dual_complex.vertices[v].position),
        }
        assert ends == {(0, 0, 2), (2, 0, 0)}

    def test_edge_interior_on_chord(self):
        f = build_fibre(NormalForm(3, (1,)))
        loc = locate(f, (1, 1, 1))
        assert loc.stratum == "edge"

    def test_cell_interior(self):
        f = build_fibre(NormalForm(3, ()))
        loc = locate(f, (1, 1, 1))
        assert loc.stratum == "cell" and loc.index == 0

    def test_every_point_locates_consistently(self):
        # vertex positions resolve to vertices, everything else to the
        # correct stratum dimension
        f = build_fibre(NormalForm(5, (2, 3)))
        k = 5
        for a in range(k + 1):
            for b in range(k + 1 - a):
                pos = (a, b, k - a - b)
                loc = locate(f, pos)
                in_vertex_table = pos in {
                    tuple(v.position) for v in f.dual_complex.vertices
                }
                assert loc.is_vertex == in_vertex_table

    def test_height_mismatch(self):
        f = build_fibre(NormalForm(3, ()))
        with pytest.raises(HeightMismatch):
            locate(f, (1, 1, 0))


def test_build_fibre_builds_the_complex_and_a_bare_fibre_does_not():
    nf = NormalForm(5, (2, 3))
    assert "dual_complex" in vars(build_fibre(nf))
    bare = ExpandedFibre(nf)
    assert "dual_complex" not in vars(bare)
    assert bare.dual_complex == build_fibre(nf).dual_complex
    assert bare == build_fibre(nf)


def _cross(o, p, q):
    """Orientation of q against the directed line o -> p, in (a, b) coordinates."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


@settings(max_examples=120)
@given(normal_forms(60, 15))
def test_locate_agrees_with_the_geometry_of_the_complex(nf):
    """Every integral point lands in a stratum whose geometry contains it."""
    k, cuts = nf.height, nf.cuts
    bare = ExpandedFibre(nf)
    points = [(a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)]
    located = [(p, locate(bare, p)) for p in points]
    assert "dual_complex" not in vars(bare)
    dc = build_fibre(nf).dual_complex
    position = [tuple(v.position) for v in dc.vertices]
    levels = (0, *cuts, k)
    for p, loc in located:
        a, b, c = p
        for q, v in enumerate(levels):  # the half-level coordinates order as a and k - b
            assert (loc.x > 2 * q) - (loc.x < 2 * q) == (a > v) - (a < v)
            assert (loc.y > 2 * q) - (loc.y < 2 * q) == (k - b > v) - (k - b < v)
        lines = (a == 0) + (b == 0) + (c == 0) + (a in cuts) + (k - b in cuts)
        assert loc.stratum == ("vertex" if lines >= 2 else "edge" if lines == 1 else "cell")
        if loc.stratum == "vertex":
            assert position[loc.index] == p
        elif loc.stratum == "edge":
            u, v = (position[i] for i in dc.edges[loc.index])
            assert _cross(u, v, p) == 0
            assert sum((x - y) * (z - x) for x, y, z in zip(p, u, v)) > 0
        else:
            polygon = [position[i] for i in dc.cells[loc.index]]
            turns = [_cross(o, q, p) for o, q in zip(polygon, polygon[1:] + polygon[:1])]
            assert all(t > 0 for t in turns) or all(t < 0 for t in turns)


@settings(max_examples=200)
@given(normal_forms(60, 15))
def test_order_matches_the_position_lookup_reference(nf):
    """Vertices, edges and cells in the reference's order, and ``locate``
    sends every vertex position to its own index."""
    fibre = build_fibre(nf)
    dc = fibre.dual_complex
    vertices, edges, cells = reference_dual_complex(nf.height, nf.cuts)
    assert [(v.kind.value, tuple(v.position), v.levels) for v in dc.vertices] == vertices
    assert list(dc.edges) == edges
    assert list(dc.cells) == cells
    bare = ExpandedFibre(nf)
    levels = (0, *nf.cuts, nf.height)
    for i, v in enumerate(dc.vertices):
        a, b, _ = v.position
        x, y = 2 * levels.index(a), 2 * levels.index(nf.height - b)
        assert locate(bare, v.position) == Location("vertex", i, x, y)


class TestRefines:
    def test_subset(self):
        assert refines(NormalForm(3, (1, 2)), NormalForm(3, (1,)))

    def test_rescaling(self):
        assert refines(NormalForm(3, (1, 2)), NormalForm(1, ()))
        assert refines(NormalForm(4, (2,)), NormalForm(2, (1,)))

    def test_not_refining(self):
        assert not refines(NormalForm(3, (2,)), NormalForm(3, (1,)))

    def test_partial_order(self):
        from math import lcm

        forms = [
            NormalForm(4, ()),
            NormalForm(4, (1,)),
            NormalForm(4, (2,)),
            NormalForm(4, (1, 2)),
            NormalForm(4, (1, 2, 3)),
            NormalForm(2, (1,)),
            NormalForm(3, (1,)),
        ]
        for x in forms:
            assert refines(x, x)
            for y in forms:
                if refines(x, y) and refines(y, x):
                    # antisymmetry up to height rescaling
                    common = lcm(x.height, y.height)
                    assert x.rescale(common // x.height) == y.rescale(
                        common // y.height
                    )
                for z in forms:
                    if refines(x, y) and refines(y, z):
                        assert refines(x, z)


def test_build_fibre_memory_grows_quadratically():
    """The complex of n cuts has O(n^2) cells, so doubling n at most about
    quadruples the ``tracemalloc`` peak (0.17, 0.64 and 2.5 MB at 25, 50
    and 100 cuts)."""
    peaks = {}
    for n in (25, 50, 100):
        nf = NormalForm(n + 1, tuple(range(1, n + 1)))
        fibre, peaks[n] = traced_peak_mb(build_fibre, nf)
        assert complex_counts(fibre)[2] == 1 + n + n * (n + 1) // 2
    assert peaks[50] <= 4.5 * peaks[25]
    assert peaks[100] <= 4.5 * peaks[50]
    assert peaks[100] < 4
