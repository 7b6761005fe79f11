"""The flat-limit construction and its brute-force oracles."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from degenlab import (
    HeightMismatch,
    InvalidInput,
    NeedsRefinedInput,
    NormalForm,
    RefuseBruteForce,
    TropicalIncompatibility,
    associated_pair,
    extend_special,
    flat_limit,
    place,
    stability_report,
    unique_stable_subdivision_oracle,
)


class TestFlatLimit:
    def test_worked_two_point_example(self):
        report = flat_limit([((1, 2, 0), 1), ((2, 0, 1), 1)], 3)
        assert report.fibre.nf == NormalForm(3, (1, 2))
        assert report.base_tuple.exponents == (1, 1, 1, 0)
        kinds = [
            report.fibre.dual_complex.vertices[loc.index].kind.value
            for loc in report.configuration.placements
        ]
        assert kinds == ["mixed", "pure_delta1"]
        assert report.stability.sws_stable and report.stability.lw_stable

    def test_corner_point(self):
        report = flat_limit([((0, 0, 3), 1)], 3)
        assert report.fibre.nf == NormalForm(3, ())
        kind = report.fibre.dual_complex.vertices[
            report.configuration.placements[0].index
        ].kind.value
        assert kind == "corner_y3"
        assert report.stability.sws_stable

    def test_single_mixed_point(self):
        report = flat_limit([((1, 1, 0), 1)], 2)
        assert report.fibre.nf == NormalForm(2, (1,))
        kind = report.fibre.dual_complex.vertices[
            report.configuration.placements[0].index
        ].kind.value
        assert kind == "mixed"
        assert report.stability.sws_stable

    def test_rejects_bad_height(self):
        with pytest.raises(HeightMismatch):
            flat_limit([((1, 1, 0), 1)], 3)
        with pytest.raises(InvalidInput):
            flat_limit([], 0)

    def test_rescaling_invariance(self):
        points = [((1, 2, 0), 1), ((2, 0, 1), 2)]
        base = flat_limit(points, 3)
        for c in (2, 3, 5):
            scaled = flat_limit(
                [((a * c, b * c, cc * c), m) for (a, b, cc), m in points], 3 * c
            )
            assert scaled.fibre.nf.cuts == tuple(c * s for s in base.fibre.nf.cuts)
            assert scaled.base_tuple.exponents == tuple(
                c * g for g in base.base_tuple.exponents
            )

    def test_support_always_on_vertices(self):
        import itertools

        k = 4
        positions = [(a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)]
        for combo in itertools.combinations_with_replacement(positions, 2):
            report = flat_limit([(pos, 1) for pos in combo], k)
            assert all(loc.is_vertex for loc in report.configuration.placements)


class TestOracle:
    def test_worked_example(self):
        winners = unique_stable_subdivision_oracle(
            [((1, 2, 0), 1), ((2, 0, 1), 1)], 3
        )
        assert winners == [NormalForm(3, (1, 2))]

    def test_corner_point(self):
        assert unique_stable_subdivision_oracle([((0, 0, 3), 1)], 3) == [
            NormalForm(3, ())
        ]

    def test_edge_point(self):
        assert unique_stable_subdivision_oracle([((1, 0, 1), 1)], 2) == [
            NormalForm(2, (1,))
        ]

    def test_height_cap(self):
        with pytest.raises(RefuseBruteForce):
            unique_stable_subdivision_oracle([((9, 0, 0), 1)], 9)
        # overridable
        winners = unique_stable_subdivision_oracle(
            [((9, 0, 0), 1)], 9, max_height=9
        )
        assert len(winners) == 1

    def test_multiplicity_cap(self):
        with pytest.raises(RefuseBruteForce):
            unique_stable_subdivision_oracle([((1, 1, 0), 5)], 2)
        winners = unique_stable_subdivision_oracle(
            [((1, 1, 0), 5)], 2, max_multiplicity=5
        )
        assert winners == [NormalForm(2, (1,))]


@st.composite
def oracle_instances(draw):
    """Height k <= 10 and up to four points, multiplicities 1-2, total <= 4."""
    k = draw(st.integers(min_value=1, max_value=10))
    points, total = [], 0
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        m = draw(st.integers(min_value=1, max_value=2))
        if total + m > 4:
            break
        a = draw(st.integers(min_value=0, max_value=k))
        b = draw(st.integers(min_value=0, max_value=k - a))
        points.append(((a, b, k - a - b), m))
        total += m
    return k, points


@settings(max_examples=150, deadline=None)
@given(oracle_instances())
def test_oracle_winners_are_the_stable_placements(instance):
    """The oracle's line rules pick exactly the cut sets on which the
    placement path finds the pair admissible with finite automorphisms."""
    k, points = instance
    stable = []
    for mask in range(1 << (k - 1)):
        nf = NormalForm(k, tuple(s for s in range(1, k) if mask >> (s - 1) & 1))
        if stability_report(place(nf, points)).lw_stable:
            stable.append(nf)
    assert unique_stable_subdivision_oracle(points, k, max_height=k) == sorted(
        stable, key=lambda nf: nf.cuts
    )


def test_oracle_memory_is_bounded():
    """At height 12 the oracle walks 2048 cut sets and keeps none of them."""
    k = 12
    points = [((1, k - 3, 2), 1), ((k - 2, 1, 1), 1), ((2, 2, k - 4), 1)]
    tracemalloc.start()
    try:
        winners = unique_stable_subdivision_oracle(points, k, max_height=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert winners == [NormalForm(k, (1, 2, 3, 10, 11))]
    assert peak < 2 * 2**20


class TestAssociatedPair:
    def test_compatible(self):
        report = associated_pair(
            [((1, 2, 0), 1), ((2, 0, 1), 1)], 3, NormalForm(3, (1,))
        )
        assert report.fibre.nf.cuts == (1, 2)

    def test_incompatible(self):
        with pytest.raises(TropicalIncompatibility):
            associated_pair([((0, 0, 3), 1)], 3, NormalForm(3, (1,)))

    def test_undivided_coarse_always_compatible(self):
        report = associated_pair([((0, 0, 3), 1)], 3, NormalForm(1, ()))
        assert report.fibre.nf.cuts == ()


class TestExtendSpecial:
    def base_cfg(self):
        return place(NormalForm(2, (1,)), [((1, 0, 1), 1), ((1, 1, 0), 1)])

    def test_refined_points_consistent(self):
        cfg = place(NormalForm(2, (1,)), [((1, 1, 0), 1), ((1, 0, 1), 1)])
        report = extend_special(
            cfg,
            refined_points=[((2, 2, 0), 1), ((2, 0, 2), 1)],
            refined_height=4,
        )
        assert report.fibre.nf == NormalForm(4, (2,))

    def test_refined_points_inconsistent(self):
        cfg = place(NormalForm(2, (1,)), [((1, 1, 0), 1), ((1, 0, 1), 1)])
        with pytest.raises(TropicalIncompatibility):
            extend_special(
                cfg,
                refined_points=[((1, 3, 0), 1), ((3, 0, 1), 1)],
                refined_height=4,
            )

    def test_identity_without_refinement(self):
        cfg = self.base_cfg()
        report = extend_special(cfg)
        assert report.configuration == cfg
        assert report.stability.sws_stable

    def test_uniform_profiles_ok(self):
        cfg = place(NormalForm(2, (1,)), [((1, 0, 1), 2)])
        report = extend_special(cfg, drift_profiles=["slow"])
        assert report.configuration == cfg

    def test_mixed_profiles_rejected(self):
        # two points sharing the bubble but drifting differently
        cfg = place(NormalForm(2, (1,)), [((1, 0, 1), 1), ((1, 0, 1), 1)])
        with pytest.raises(NeedsRefinedInput):
            extend_special(cfg, drift_profiles=["left", "right"])

    def test_requires_stable_input(self):
        cfg = place(NormalForm(2, (1,)), [((0, 0, 2), 1)])
        with pytest.raises(InvalidInput):
            extend_special(cfg)


def test_tropical_compatibility_of_refinements():
    # refined valuations of a stable pair always refine its subdivision
    import itertools

    k = 2
    positions = [(a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)]
    for combo in itertools.combinations_with_replacement(positions, 2):
        points = [(pos, 1) for pos in combo]
        base = flat_limit(points, k)
        for c in (2, 3):
            refined = [
                ((a * c, b * c, cc * c), m) for (a, b, cc), m in points
            ]
            report = associated_pair(refined, k * c, base.fibre.nf)
            assert report.stability.sws_stable
