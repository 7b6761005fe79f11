"""Placement and the three stability notions."""

from itertools import accumulate

import pytest
from hypothesis import given, settings

from degenlab import (
    BaseTuple,
    CriterionViolated,
    HeightMismatch,
    LevelLift,
    NormalForm,
    PointConfiguration,
    VertexKind,
    constructive_linearization,
    is_admissible,
    is_lw_stable,
    is_sws_stable,
    is_ws_stable,
    make_base_tuple,
    normalize_pair,
    place,
    stability_report,
    stabilizer_rank,
    standard_embed,
)

import oracles
from guards import traced_peak_mb
from strategies import presented_points, slotted_points


def vertex_kind(cfg, i):
    loc = cfg.placements[i]
    assert loc.is_vertex
    return cfg.fibre.dual_complex.vertices[loc.index].kind


def test_place_on_normal_form():
    cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
    assert cfg.m == 2
    assert vertex_kind(cfg, 0) is VertexKind.MIXED
    assert vertex_kind(cfg, 1) is VertexKind.PURE_DELTA1


def test_place_multiplicity_and_edges():
    cfg = place(NormalForm(1, ()), [((0, 0, 1), 5)])
    assert cfg.m == 5
    assert vertex_kind(cfg, 0) is VertexKind.CORNER_Y3

    cfg = place(NormalForm(2, ()), [((1, 0, 1), 1)])
    assert cfg.m == 1
    assert cfg.placements[0].stratum == "edge"


def test_place_rejects_wrong_height():
    with pytest.raises(HeightMismatch):
        place(NormalForm(3, ()), [((1, 1, 0), 1)])


def test_placement_and_verdicts_leave_the_complex_unbuilt():
    nf = NormalForm(41, tuple(range(1, 41)))
    cfg = place(nf, [((1, 40, 0), 1), ((20, 0, 21), 2), ((3, 4, 34), 1), ((0, 0, 41), 1)])
    report = stability_report(cfg)
    assert [loc.stratum for loc in cfg.placements] == ["vertex"] * 4
    assert report.admissible and report.stabilizer_rank == 36
    assert "dual_complex" not in vars(cfg.fibre)


def test_admissibility():
    ok = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
    assert is_admissible(ok)
    bad = place(NormalForm(2, ()), [((1, 0, 1), 1)])
    assert not is_admissible(bad)
    empty = place(NormalForm(2, (1,)), [])
    assert is_admissible(empty)


def test_stabilizer_rank():
    cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
    assert stabilizer_rank(cfg) == 0
    cfg = place(NormalForm(2, (1,)), [((0, 0, 2), 1)])
    assert stabilizer_rank(cfg) == 1
    cfg = place(NormalForm(1, ()), [((1, 0, 0), 1)])
    assert stabilizer_rank(cfg) == 0


def test_lw_stability():
    assert is_lw_stable(place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)]))
    assert not is_lw_stable(place(NormalForm(2, (1,)), [((0, 0, 2), 1)]))
    # presentation with a trailing unit direction, no expanded levels
    assert is_lw_stable(place(make_base_tuple([2, 0]), [((0, 2, 0), 1)]))


@settings(max_examples=300)
@given(slotted_points(6, 3, 2, 4))
def test_unit_slots_change_no_li_wu_verdict(case):
    """What lets ``verify`` decide Li–Wu stability once per (normal form,
    multiset): the same points on a presentation and on it with unit slots
    inserted get the same ``is_lw_stable`` verdict and the same normalized
    pair, and the verdict is the valuation rule: every point on two or
    more lines, and every level value of the zero-free presentation
    occupied."""
    exponents, slots, points = case
    presentation = BaseTuple(exponents)
    cfg = place(presentation, points)
    slotted = place(standard_embed(presentation, slots), points)
    assert is_lw_stable(slotted) == is_lw_stable(cfg)
    assert normalize_pair(slotted) == normalize_pair(cfg)
    k = presentation.height
    cuts = sorted({v for v in accumulate(exponents[:-1]) if 0 < v < k})
    zero_free = [b - a for a, b in zip([0, *cuts], [*cuts, k])]
    on_lines = all(oracles._lines_through(k, cuts, a, b) >= 2 for (a, b, _), _ in points)
    assert is_lw_stable(cfg) == (on_lines and not oracles.unoccupied(zero_free, points))


class TestWeakStrictStability:
    def test_full_presentation(self):
        cfg = place(make_base_tuple([1, 1, 1, 0]), [((1, 2, 0), 1), ((2, 0, 1), 1)])
        assert is_ws_stable(cfg)

    def test_trailing_zero_needs_b_zero_point(self):
        cfg = place(make_base_tuple([2, 0]), [((0, 2, 0), 1)])
        assert not is_ws_stable(cfg)
        assert stability_report(cfg).unoccupied_levels == (2,)

    def test_leading_zero_needs_a_zero_point(self):
        cfg = place(make_base_tuple([0, 2]), [((0, 2, 0), 1)])
        assert is_ws_stable(cfg)

    def test_sws_needs_admissibility(self):
        cfg = place(make_base_tuple([1, 1, 1, 0]), [((1, 2, 0), 1), ((2, 0, 1), 1)])
        assert is_sws_stable(cfg)
        # both points on one mixed vertex leaves cut level 2 empty
        cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 2)])
        assert is_admissible(cfg) and not is_sws_stable(cfg)
        cfg = place(NormalForm(2, ()), [((1, 0, 1), 1)])
        assert not is_sws_stable(cfg)


def test_normalize_pair():
    cfg = place(make_base_tuple([2, 0]), [((0, 2, 0), 1)])
    norm = normalize_pair(cfg)
    assert norm.presentation.exponents == (2,)
    assert norm.points == cfg.points
    assert norm.placements == cfg.placements
    assert normalize_pair(norm) == norm

    cfg = place(make_base_tuple([1, 0, 1]), [((1, 0, 1), 1)])
    norm = normalize_pair(cfg)
    assert norm.presentation.exponents == (1, 1)
    kind = norm.fibre.dual_complex.vertices[norm.placements[0].index].kind
    assert kind is VertexKind.PURE_DELTA1


def test_configuration_is_a_value_tuple():
    presentation = make_base_tuple([2, 1])
    points = [((0, 2, 1), 2), ((2, 1, 0), 1)]
    cfg, again = place(presentation, points), place(presentation, points)
    assert cfg == again and cfg is not again
    assert hash(cfg) == hash(again)
    assert {cfg: "verdict"}[again] == "verdict"
    assert cfg.m == 3 and cfg.height == 3
    assert place(NormalForm(2, ()), []).m == 0

    assert normalize_pair(cfg) is cfg
    slotted = place(make_base_tuple([2, 0, 1]), points)
    assert normalize_pair(slotted) is not slotted
    assert normalize_pair(slotted) == cfg

    fields = (cfg.fibre, cfg.presentation, cfg.points, cfg.placements)
    assert PointConfiguration(*fields) == cfg
    assert PointConfiguration(
        fibre=cfg.fibre, presentation=cfg.presentation,
        points=cfg.points, placements=cfg.placements,
    ) == cfg

    # a tuple, not a dataclass: the field tuple's equality and hash
    assert cfg == fields and hash(cfg) == hash(fields)
    assert len(cfg) == 4 and tuple(cfg) == fields and cfg[2] == cfg.points
    assert cfg._replace(presentation=cfg.presentation) == cfg


def test_normalize_preserves_length():
    cfg = place(make_base_tuple([1, 0, 1]), [((1, 0, 1), 2), ((0, 2, 0), 3)])
    assert normalize_pair(cfg).m == cfg.m == 5


def test_mixed_vertex_occupies_both_levels():
    # one point at the mixed vertex covers the level from both sides
    cfg = place(NormalForm(2, (1,)), [((1, 1, 0), 1)])
    assert is_ws_stable(cfg) and is_lw_stable(cfg)


def test_report_shape():
    report = stability_report(
        place(make_base_tuple([2, 0]), [((0, 2, 0), 1)])
    )
    assert report.admissible
    assert report.stabilizer_rank == 0
    assert report.lw_stable
    assert not report.ws_stable
    assert not report.sws_stable
    assert report.unoccupied_levels == (2,)


def test_ws_matches_rank_on_normalized_fibres():
    # on zero-free presentations the two notions coincide, including for
    # non-admissible supports
    import itertools

    for k, cuts in [(2, (1,)), (3, (1,)), (3, (1, 2)), (4, (2,))]:
        nf = NormalForm(k, cuts)
        positions = [
            (a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)
        ]
        for combo in itertools.combinations_with_replacement(positions, 2):
            points = [(pos, 1) for pos in combo]
            cfg = place(nf, points)
            assert is_ws_stable(cfg) == (stabilizer_rank(cfg) == 0)


@settings(max_examples=300)
@given(presented_points(30, 8, 5, at_vertices=True))
def test_report_agrees_with_each_verdict_and_with_occupancy(case):
    exponents, points = case
    presentation = BaseTuple(exponents)
    cfg = place(presentation, points)
    report = stability_report(cfg)
    assert report.admissible == is_admissible(cfg)
    assert report.stabilizer_rank == stabilizer_rank(cfg)
    assert report.lw_stable == is_lw_stable(cfg)
    assert report.ws_stable == is_ws_stable(cfg)
    assert report.sws_stable == is_sws_stable(cfg)

    # occupancy and admissibility from the valuations and the partial sums
    k = presentation.height
    empty = oracles.unoccupied(presentation.exponents, points)
    cuts = sorted(v for v in accumulate(presentation.exponents[:-1]) if 0 < v < k)
    on_lines = [
        (a in {0, *cuts}) + (b in {0, *(k - s for s in cuts)}) + (c == 0)
        for (a, b, c), _ in points
    ]
    assert report.unoccupied_levels == empty
    assert report.admissible == all(n >= 2 for n in on_lines)
    assert report.ws_stable == (not empty)

    # the rank as first defined: unoccupied cuts of the normalized pair
    zero_free = normalize_pair(cfg).presentation.exponents
    assert report.stabilizer_rank == len(oracles.unoccupied(zero_free, points))

    if empty:
        with pytest.raises(CriterionViolated, match=f"cut value {empty[0]}$"):
            constructive_linearization(cfg)
    else:  # the lift read off the placement equals the one read from the valuations
        lifts = constructive_linearization(cfg).levels
        assert all(type(lift) is LevelLift for lift in lifts)
        assert list(lifts) == oracles.constructive_lifts(presentation.exponents, points)


def test_place_on_a_large_fibre_builds_no_complex():
    """Placement reads only the normal form: 13 points on 100 cuts peak at
    about 0.01 MB, and the fibre's dual complex is never built."""
    k = 101
    nf = NormalForm(k, tuple(range(1, k)))
    points = [((s, k - s - s % 3, s % 3), 1 + s % 2) for s in range(1, 100, 8)]
    cfg, peak = traced_peak_mb(place, nf, points)
    assert len(cfg.placements) == 13
    assert "dual_complex" not in cfg.fibre.__dict__
    assert peak < 0.1


def test_stability_report_memory_grows_linearly():
    """One pass over the placements: with a point on each cut, the
    ``tracemalloc`` peak goes from 0.0034 MB at 25 cuts to 0.0113 MB at 100,
    3.3-fold where a quadratic path would be about sixteenfold."""
    peaks = {}
    for n in (25, 100):
        k = n + 1
        cfg = place(NormalForm(k, tuple(range(1, k))), [((s, k - s, 0), 1) for s in range(1, k)])
        report, peaks[n] = traced_peak_mb(stability_report, cfg)
        assert report.sws_stable
    assert peaks[100] <= 8 * peaks[25]
    assert peaks[100] < 0.02
