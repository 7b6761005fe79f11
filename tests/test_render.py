"""Diagram output: all three formats, determinism, content sanity."""

import pytest
from hypothesis import given, settings, strategies as st

from degenlab import (
    HeightMismatch,
    InvalidInput,
    NormalForm,
    build_fibre,
    complex_counts,
    place,
    render_fibre,
)

from guards import traced_peak_mb
from oracles import REFERENCE_RENDERERS
from strategies import normal_forms, weighted_points


@pytest.fixture
def fibre():
    return build_fibre(NormalForm(3, (1, 2)))


@pytest.mark.parametrize("fmt", ["svg", "dot", "tikz"])
def test_deterministic(fibre, fmt):
    assert render_fibre(fibre, None, fmt) == render_fibre(fibre, None, fmt)


def test_unknown_format(fibre):
    with pytest.raises(InvalidInput):
        render_fibre(fibre, None, "png")
    with pytest.raises(InvalidInput):  # unhashable, so no table lookup may come first
        render_fibre(fibre, None, ["svg"])


def test_svg_marks_every_vertex_and_point(fibre):
    cfg = place(fibre, [((1, 1, 1), 2)])
    svg = render_fibre(fibre, cfg, "svg")
    v, e, _ = complex_counts(fibre)
    assert svg.count('r="6"') == v
    assert svg.count("<line") == e
    assert "m=2" in svg
    for label in ("Y1", "Y2", "Y3", "Δ1(1)", "Δ2(2)", "Δ1(1)=Δ2(2)", "Δ1(1)×Δ2(1)"):
        assert label in svg


def test_dot_lists_all_edges(fibre):
    dot = render_fibre(fibre, None, "dot")
    v, e, _ = complex_counts(fibre)
    assert dot.count(" -- ") == e
    assert all(f"v{i} [" in dot for i in range(v))


def test_tikz_brackets(fibre):
    tikz = render_fibre(fibre, None, "tikz")
    assert tikz.startswith("\\begin{tikzpicture}")
    assert tikz.rstrip().endswith("\\end{tikzpicture}")
    v, e, _ = complex_counts(fibre)
    assert tikz.count("\\draw[gray]") == e
    assert tikz.count("circle (2pt)") == v


def test_plain_triangle():
    svg = render_fibre(build_fibre(NormalForm(1, ())), None, "svg")
    assert svg.count('r="6"') == 3
    assert svg.count("<line") == 3


@pytest.mark.parametrize("fmt", ["svg", "dot", "tikz"])
def test_points_of_another_height_are_refused(fibre, fmt):
    """The layout scales by the fibre's height, so a configuration of another
    height would be drawn at the wrong place."""
    cfg = place(NormalForm(6, (2, 4)), [((4, 1, 1), 1)])
    with pytest.raises(HeightMismatch):
        render_fibre(fibre, cfg, fmt)


@settings(max_examples=60)
@given(normal_forms(80, 30), st.data())
def test_every_format_matches_the_line_by_line_reference(nf, data):
    points = data.draw(st.none() | weighted_points(nf.height, 6))
    fibre = build_fibre(nf)
    cfg = None if points is None else place(fibre, points)
    for fmt, reference in REFERENCE_RENDERERS.items():
        assert render_fibre(fibre, cfg, fmt) == reference(nf.height, nf.cuts, points)


@pytest.mark.parametrize("fmt,bound", [("svg", 14), ("dot", 5), ("tikz", 9)])
def test_render_memory_grows_quadratically(fmt, bound):
    """A diagram of n cuts has O(n^2) vertices and edges: with a point on
    each cut, from 25 to 100 cuts the ``tracemalloc`` peak grows 13.8- to
    14.4-fold, to 10.9 MB for svg, 3.75 MB for dot and 6.88 MB for tikz,
    where a cubic path would be about sixty-fourfold."""
    peaks = {}
    for n in (25, 100):
        k = n + 1
        fibre = build_fibre(NormalForm(k, tuple(range(1, k))))
        cfg = place(fibre, [((s, k - s, 0), 1) for s in range(1, k)])
        _, peaks[n] = traced_peak_mb(render_fibre, fibre, cfg, fmt)
    assert peaks[100] <= 20 * peaks[25]
    assert peaks[100] < bound
