"""The flat-limit construction and its uniqueness oracle, against the brute force."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from degenlab import (
    HeightMismatch,
    InvalidInput,
    NormalForm,
    TropicalIncompatibility,
    associated_pair,
    flat_limit,
    place,
    stability_report,
    unique_stable_subdivision_oracle,
)
import oracles
from degenlab.limits import _on_vertices
from guards import calls_by_name, lines_run, traced_peak_mb
from strategies import weighted_points


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
        with pytest.raises(HeightMismatch, match=r"^point \(1, 1, 0\) does not have height 3$"):
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

    def test_answers_at_every_height(self):
        """No height is refused: above 12, where the brute force stopped,
        the answer is still the limit's subdivision."""
        for k in (12, 13, 100, 1000):
            assert unique_stable_subdivision_oracle([((k, 0, 0), 1)], k) == [NormalForm(k, ())]
            points = [((1, k - 3, 2), 1), ((k - 2, 1, 1), 4)]
            winners = unique_stable_subdivision_oracle(points, k)
            assert winners == [NormalForm(k, (1, 3, k - 2, k - 1))]
            assert winners == [flat_limit(points, k).fibre.nf]


@settings(max_examples=150)
@given(st.integers(1, 10), st.data())
def test_oracle_winners_are_the_stable_placements(k, data):
    """The oracle's line rules pick exactly the cut sets on which the
    placement path finds the pair admissible with finite automorphisms: up to
    five points, multiplicities 1-5, some repeating an earlier valuation."""
    points = data.draw(weighted_points(k, 5, max_multiplicity=5, repeats=True))
    stable = []
    for mask in range(1 << (k - 1)):
        nf = NormalForm(k, tuple(s for s in range(1, k) if mask >> (s - 1) & 1))
        if stability_report(place(nf, points)).lw_stable:
            stable.append(nf)
    assert unique_stable_subdivision_oracle(points, k) == sorted(
        stable, key=lambda nf: nf.cuts
    )


@settings(max_examples=300)
@given(st.integers(1, 12), st.data())
def test_oracle_is_the_brute_force(k, data):
    """Minimality decides what the search over all ``2^(k-1)`` cut sets
    finds: up to five points, multiplicities 1-5, some repeating an earlier
    valuation."""
    points = data.draw(weighted_points(k, 5, max_multiplicity=5, repeats=True))
    expected = oracles.stable_cut_sets({val for val, _ in points}, k)
    assert unique_stable_subdivision_oracle(points, k) == [NormalForm(k, cuts) for cuts in expected]


def test_oracle_memory_is_bounded():
    """At height 12 the oracle tests six cut sets and keeps one of them."""
    k = 12
    points = [((1, k - 3, 2), 1), ((k - 2, 1, 1), 1), ((2, 2, k - 4), 1)]
    winners, peak = traced_peak_mb(unique_stable_subdivision_oracle, points, k)
    assert winners == [NormalForm(k, (1, 2, 3, 10, 11))]
    assert peak < 2


def test_oracle_tests_the_levels_hit_and_each_removal():
    """The oracle tests |C*| + 1 cut sets, C* and each of its one-level
    removals, at any height, and reads each distinct valuation once: at
    height 100, 100 copies of every point run the same lines of the line
    rules as one copy."""
    k = 100
    rng = random.Random(11)
    positions = set()
    while len(positions) < 30:
        a = rng.randint(0, k)
        b = rng.randint(0, k - a)
        positions.add((a, b, k - a - b))
    once = [(v, 1) for v in sorted(positions)]
    levels = {a for a, _, _ in positions} | {k - b for _, b, _ in positions}
    best = tuple(sorted(levels - {0, k}))
    with calls_by_name("_on_vertices") as calls, lines_run(_on_vertices) as single:
        winners = unique_stable_subdivision_oracle(once, k)
    with lines_run(_on_vertices) as copies:
        assert unique_stable_subdivision_oracle(once * 100, k) == winners
    assert winners == [NormalForm(k, best)] == [flat_limit(once, k).fibre.nf]
    assert calls == {"_on_vertices": len(best) + 1}
    assert copies == single


def test_flat_limit_memory_grows_linearly():
    """The limit places its points without building the dual complex: with a
    point on each of n cuts, the ``tracemalloc`` peak goes from 0.0125 MB at
    25 cuts to 0.0416 MB at 100, 3.3-fold where a quadratic path would be
    about sixteenfold."""
    peaks = {}
    for n in (25, 100):
        k = n + 1
        report, peaks[n] = traced_peak_mb(flat_limit, [((s, k - s, 0), 1) for s in range(1, k)], k)
        assert report.fibre.nf.cuts == tuple(range(1, k))
    assert peaks[100] <= 8 * peaks[25]
    assert peaks[100] < 0.08


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

    def test_refined_points_consistent(self):
        report = associated_pair([((2, 2, 0), 1), ((2, 0, 2), 1)], 4, NormalForm(2, (1,)))
        assert report.fibre.nf == NormalForm(4, (2,))

    def test_refined_points_inconsistent(self):
        with pytest.raises(TropicalIncompatibility):
            associated_pair([((1, 3, 0), 1), ((3, 0, 1), 1)], 4, NormalForm(2, (1,)))


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
