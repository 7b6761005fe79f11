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

from oracles import REFERENCE_RENDERERS


@pytest.fixture
def fibre():
    return build_fibre(NormalForm(3, (1, 2)))


@pytest.mark.parametrize("fmt", ["svg", "dot", "tikz"])
def test_deterministic(fibre, fmt):
    assert render_fibre(fibre, None, fmt) == render_fibre(fibre, None, fmt)


def test_unknown_format(fibre):
    with pytest.raises(InvalidInput):
        render_fibre(fibre, None, "png")


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


@st.composite
def fibres_with_points(draw):
    """A normal form with up to 30 cuts and, or not, points anywhere on its triangle."""
    k = draw(st.integers(min_value=1, max_value=80))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=max(k - 1, 1)),
                         max_size=min(30, k - 1), unique=True))
    points = None
    if draw(st.booleans()):
        points = []
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            a = draw(st.integers(min_value=0, max_value=k))
            b = draw(st.integers(min_value=0, max_value=k - a))
            points.append(((a, b, k - a - b), draw(st.integers(min_value=1, max_value=3))))
    return NormalForm(k, tuple(sorted(cuts))), points


@settings(max_examples=60, deadline=None)
@given(fibres_with_points())
def test_every_format_matches_the_line_by_line_reference(case):
    nf, points = case
    fibre = build_fibre(nf)
    cfg = None if points is None else place(fibre, points)
    for fmt, reference in REFERENCE_RENDERERS.items():
        assert render_fibre(fibre, cfg, fmt) == reference(nf.height, nf.cuts, points)
