"""The exhaustive suites' enumeration, and that each suite can still fail."""

import re
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from degenlab import (
    CriterionViolated, DegenLabError, NormalForm, base, configurations, limits, verify, weights,
)
from degenlab.base import BaseTuple, canonical_tuple, make_base_tuple, normal_form
from degenlab.cli import main
from degenlab.configurations import (
    SupportPoint, is_admissible, is_sws_stable, is_ws_stable, normalize_pair, place,
    stability_report, stabilizer_rank,
)
from degenlab.verify import presentations, run_all, weighted_configurations

import oracles
from guards import calls_by_name
from strategies import presented_points


def test_presentation_configs_are_the_placed_configurations():
    yielded = [
        (presentation, list(placed.configs(presentation)))
        for presentation, placed in verify._sweep(4, 2)
    ]
    assert [p for p, _ in yielded] == list(presentations(4))
    assert BaseTuple((1, 0, 1)) in [p for p, _ in yielded]
    for presentation, configs in yielded:
        expected = [
            place(presentation, points)
            for points in weighted_configurations(presentation.height, 2)
        ]
        assert configs == expected, presentation.exponents

    # presentations of one normal form share one placements tuple per multiset
    shared = {}
    for presentation, configs in yielded:
        placements = [cfg.placements for cfg in configs]
        first = shared.setdefault(normal_form(presentation), placements)
        assert all(a is b for a, b in zip(first, placements, strict=True))
    assert len(shared) == 15


def test_presentations_are_the_compositions_in_lexicographic_order():
    """Sweep order decides which configuration a failing suite names:
    by height, then by length, the compositions in lexicographic order."""
    for max_k in range(1, 7):
        expected = [
            exps
            for k in range(1, max_k + 1)
            for length in range(1, verify.MAX_LENGTH + 1)
            for exps in product(range(k + 1), repeat=length)
            if sum(exps) == k
        ]
        swept = list(presentations(max_k))
        assert [p.exponents for p in swept] == expected
        assert swept == [make_base_tuple(exps) for exps in expected]


# what a presentation of the table may keep: its ``base.cached`` facts
PRESENTATION_FACTS = {"level_values", "level_coords", "level_bits", "cuts", "_vanishing_pattern"}
CONFIGURATION_SUITES = [verify.check_stability_equivalence, verify.check_positivity,
                        verify.check_bijection]


def test_the_table_of_presentations_holds_the_heights_of_the_largest_cap(monkeypatch):
    """After sweeps with caps up to K, for K = 1..5, the table holds the
    C(K + 5, 4) - 5 presentations of height at most K, each a (presentation,
    normal form) pair, in ``presentations`` order, and each sweep yields
    its own cap's presentations.  A smaller cap afterwards adds nothing and
    is served only its own heights; a configuration suite leaves nothing on
    the table's presentations but their cached facts."""
    table = []
    monkeypatch.setattr(verify, "_PRESENTED", table)
    for cap in range(1, 6):
        assert [p for p, _ in verify._sweep(cap, 0)] == list(presentations(cap))
        rows = [row for height in table for row in height]
        assert len(table) == cap and len(rows) == comb(cap + 5, 4) - 5
        assert rows == [(p, normal_form(p)) for p in presentations(cap)]
        assert all(type(p) is BaseTuple and type(nf) is NormalForm for p, nf in rows)
    kept = list(table)
    for cap in range(1, 5):
        assert [p for p, _ in verify._sweep(cap, 0)] == list(presentations(cap))
        assert len(table) == len(kept) and all(a is b for a, b in zip(table, kept))
    for suite in CONFIGURATION_SUITES:
        assert suite(max_k=3, max_m=1).ok
    assert all(vars(p).keys() <= PRESENTATION_FACTS for height in table for p, _ in height)


@pytest.mark.parametrize("caps", [(3, 2), (4, 2)], ids=["3-2", "4-2"])
def test_each_suite_reads_alike_from_an_empty_and_a_warm_table(monkeypatch, caps):
    for suite in CONFIGURATION_SUITES:
        monkeypatch.setattr(verify, "_PRESENTED", [])
        cold = suite(*caps)
        warm = suite(*caps)
        assert cold.ok and (warm.ok, warm.detail) == (cold.ok, cold.detail), suite.__name__


def test_weighted_configurations_are_the_sorted_multisets_with_counts():
    for k in range(1, 5):
        for max_m in range(1, 4):
            multisets = weighted_configurations(k, max_m)
            shown = [tuple((p.valuations, p.multiplicity) for p in points) for points in multisets]
            assert shown == oracles.weighted_multisets(k, max_m), (k, max_m)


def test_each_position_and_multiplicity_is_one_shared_point():
    """The multisets of a height hold one ``SupportPoint`` per (position,
    multiplicity), and the sweep places those same multiplicity-one points."""
    every_point, multisets = verify._weighted(3, 3)
    shared = {}
    for points in multisets:
        for p in points:
            assert shared.setdefault((p.valuations, p.multiplicity), p) is p
    assert len(shared) == 3 * len(verify.triangle_positions(3))
    assert every_point == [shared[pos, 1] for pos in verify.triangle_positions(3)]
    assert all(p is shared[p.valuations, 1] for p in every_point)
    of_height = {}
    for presentation, placed in verify._sweep(3, 3):
        assert of_height.setdefault(presentation.height, placed.multisets) is placed.multisets


def test_the_selected_key_is_the_profile_at_every_level_count():
    """``_Placed.key`` selects a presentation's sides with one
    ``itemgetter``, over a slice below two levels; on presentations with
    0, 1, 2 and 3 levels it is ``weights.profile`` of the configuration."""
    level_counts = set()
    for presentation, placed in verify._sweep(3, 2):
        select = verify._at(presentation)
        level_counts.add(len(presentation.level_values))
        for i in range(len(placed.multisets)):
            key, profile = placed.key(i, select), weights.profile(placed.config(presentation, i))
            assert key == profile and hash(key) == hash(profile), (presentation, i)
            assert type(key[1]) is tuple
    assert level_counts == {0, 1, 2, 3}


@settings(max_examples=200)
@given(presented_points(5, 3, 3), st.booleans(), st.booleans())
def test_a_multiset_reads_on_each_presentation_as_the_public_verdicts(case, lead, trail):
    """What the sweep keeps of a multiset on its normal form, selected at a
    presentation's level coordinates, is what the public functions give
    for ``place(presentation, points)``: occupancy, the profile and, kept
    at the zero-free presentation, admissibility.  The presentations have
    unit slots, with one more in front and at the end when drawn, so that
    the level coordinates 0 and 2n + 2 occur."""
    exponents, points = case
    presentation = BaseTuple((0,) * lead + exponents + (0,) * trail)
    nf, support = normal_form(presentation), tuple(SupportPoint(*p) for p in points)
    every_position = [(pos, 1) for pos in verify.triangle_positions(nf.height)]
    placed = verify._Placed(nf, (support,), every_position)
    cfg = place(presentation, support)
    assert placed.config(presentation, 0) == cfg
    assert (not presentation.level_bits & ~placed.bits[0]) == is_ws_stable(cfg)
    key = placed.key(0, verify._at(presentation))
    assert key == weights.profile(cfg) and hash(key) == hash(weights.profile(cfg))
    assert is_admissible(placed.config(canonical_tuple(nf), 0)) == is_admissible(cfg)


def test_swept_points_carry_no_scheme():
    """Stability-equivalence and positivity lift once per (vanishing
    pattern, profile) over the whole sweep, which is sound only because
    the lift, its table and the stability test read no more of a
    scheme-free configuration than its profile and the sign vectors of
    its vanishing pattern: a local scheme would add the bounded weight."""
    for k in range(1, 6):
        for points in weighted_configurations(k, 3):
            assert all(p.scheme is None for p in points), (k, points)


def test_occupancy_on_the_shared_locations_is_the_valuation_rule():
    """Unit slots give the level values 0 and k, occupied by a = 0, b = k
    and by a = k, b = 0."""
    boundary_levels = set()
    for presentation, placed in verify._sweep(4, 2):
        k = presentation.height
        values = presentation.level_values
        boundary_levels |= {v for v in values if v in (0, k)}
        zero_free = canonical_tuple(normal_form(presentation)).exponents
        for cfg, bits in zip(placed.configs(presentation), placed.bits, strict=True):
            points = [(p.valuations, p.multiplicity) for p in cfg.points]
            expected = oracles.unoccupied(presentation.exponents, points)
            assert stability_report(cfg).unoccupied_levels == expected, (values, cfg.points)
            assert stabilizer_rank(cfg) == len(oracles.unoccupied(zero_free, points))
            assert (not presentation.level_bits & ~bits) == (not expected), (values, cfg.points)
    assert boundary_levels == {0, 1, 2, 3, 4}


def test_bijection_verdicts_resume_no_generator_per_configuration():
    """The verdicts over placements are plain loops: of the 62 generator
    frames resumed in ``configurations`` at k <= 3, m <= 2, all are
    ``place``'s, once per normal form, against 2,970 configurations."""
    with calls_by_name("<genexpr>", module=configurations) as counts:
        result = verify.check_bijection(3, 2)
    assert result.detail == "2970 configurations over 7 classes"
    assert counts["<genexpr>"] < 2970


def test_tau_fixpoints_resume_no_generator():
    """Each move's vanishing set is built from a list, not a generator: at
    size 6 that was 4,406 generator frames resumed."""
    with calls_by_name("<genexpr>", module=verify) as counts:
        result = verify.check_tau_fixpoints(6)
    assert result.detail == "1148 moves, size <= 6"
    assert counts["<genexpr>"] == 0


def test_limit_oracle_resumes_no_generator():
    """The limit oracle tests each cut set by plain loops over the points."""
    with calls_by_name("<genexpr>", module=limits) as counts:
        result = verify.check_limit_oracle(4, 2)
    assert result.detail == "236 point multisets, k <= 4, m <= 2"
    assert counts["<genexpr>"] == 0


def named(cfg, problem, at=""):
    return (f"presentation {cfg.presentation.exponents} points "
            f"{[p.valuations for p in cfg.points]}{at}: {problem}")


def ungrouped_stability_equivalence(max_k, max_m):
    """The first FAIL detail when every configuration is lifted, or None."""
    for presentation, placed in verify._sweep(max_k, max_m):
        for cfg in placed.configs(presentation):
            occupied = is_ws_stable(cfg)
            try:
                lin = weights.exists_stabilizing_linearization(cfg)
            except DegenLabError as exc:
                return named(cfg, str(exc))
            if (lin is not None) != occupied:
                found = "found" if lin else "missing"
                return named(cfg, f"occupancy {occupied} but linearization {found}")
    return None


def ungrouped_positivity(max_k, max_m):
    """The first FAIL detail when every occupied configuration is lifted and
    every term of every admissible s is tested, or None."""
    for presentation, placed in verify._sweep(max_k, max_m):
        for cfg in placed.configs(presentation):
            if not is_ws_stable(cfg):
                continue
            key = weights.profile(cfg)
            try:
                table = key.lift_table(key.lift(presentation.level_values))
            except DegenLabError as exc:
                return named(cfg, str(exc))
            for s in presentation.vanishing_pattern().sign_vectors:
                for j, s_j in enumerate(s):
                    term = s_j * table[j][s_j > 0]
                    if s_j and term <= 0:
                        return named(cfg, f"level {j + 1} term {term}", at=f" s={s}")
    return None


def ungrouped_bijection(max_k, max_m):
    """The first FAIL detail when every configuration computes every verdict, or None."""
    for presentation, placed in verify._sweep(max_k, max_m):
        for cfg in placed.configs(presentation):
            lw = verify.is_lw_stable(cfg)
            sws_normalized = is_sws_stable(normalize_pair(cfg))
            if lw != sws_normalized:
                return named(cfg, f"lw={lw} normalized sws={sws_normalized}")
            valuations, nf = [p.valuations for p in cfg.points], cfg.fibre.nf
            if lw != (nf.cuts in oracles.stable_cut_sets(valuations, nf.height)):
                return named(cfg, f"lw={lw} by the line rules={not lw}")
            if not lw and 0 in presentation.exponents and is_sws_stable(cfg):
                return f"sws without lw at {presentation.exponents}"
    return None


ONE_POINT_ON_BOTH = (1, ((0, 1, 0, 1),))  # a profile of (0, 1) and of (1, 0) at k = 1


def positive_column(new):
    """``Profile.lift_table``, with each entry of the s_j = +1 column mapped
    through ``new`` for the one profile ``ONE_POINT_ON_BOTH``.  Positivity
    reads that column only on patterns that admit s_j = +1: the profile
    passes on (0, 1), whose only sign vector is (-1,), and fails on (1, 0),
    whose only one is (1,), by a negative term or by a zero one."""

    def broken_with(original):
        def broken(key, lin):
            table = original(key, lin)
            return [(neg, new(pos)) for neg, pos in table] if key == ONE_POINT_ON_BOTH else table

        return broken

    return broken_with


def refused_for_one_point_on_both(original):
    """``weights._levels_stable``, refusing the sign table of the lift of
    ``ONE_POINT_ON_BOTH``.  The re-check reads a configuration only through
    its profile, so this breaks one profile on every vanishing pattern: it
    is first lifted on (0, 1) at k = 1, not on the sweep's first
    presentation, and met on every presentation of length 2 up to k = 3."""
    key = weights.Profile(*ONE_POINT_ON_BOTH)
    refused = key.lift_table(key.lift([1]))

    def broken(degrees, table, l):
        return table != refused and original(degrees, table, l)

    return broken


def first_family_only(original):
    """``configurations.occupied_bits`` reading each point's x alone.  Li–Wu
    stability and the normalized strict stability read it alike, so only
    the line rules of the valuations disagree with them."""
    return lambda placements: original([loc._replace(y=loc.x) for loc in placements])


def unit_slots_miss_the_first_cut(original):
    """``BaseTuple._levels`` clearing bit 2, the first cut's coordinate,
    from the level bits of every presentation with a unit slot.  Li–Wu
    stability and the normalized strict stability read the zero-free
    presentation, so only strict stability on a presentation with a unit
    slot disagrees with them: first on (0, 1, 1)."""

    def broken(self):
        values, coords, bits, cuts = original(self)
        if 0 in self.exponents:
            bits &= ~4
            vars(self)["level_bits"] = bits
        return values, coords, bits, cuts

    return broken


@pytest.mark.parametrize(
    "suite,reference,module,name,broken",
    [
        (verify.check_stability_equivalence, ungrouped_stability_equivalence, weights,
         "_levels_stable", refused_for_one_point_on_both),
        (verify.check_positivity, ungrouped_positivity, weights.Profile, "lift_table",
         positive_column(lambda pos: -pos)),
        (verify.check_positivity, ungrouped_positivity, weights.Profile, "lift_table",
         positive_column(lambda pos: 0)),
        (verify.check_bijection, ungrouped_bijection, verify, "is_lw_stable",
         lambda original: lambda cfg: original(cfg) and cfg.fibre.nf != NormalForm(3, (2,))),
        (verify.check_bijection, ungrouped_bijection, configurations, "occupied_bits",
         first_family_only),
        (verify.check_bijection, ungrouped_bijection, base.BaseTuple, "_levels",
         unit_slots_miss_the_first_cut),
    ],
    ids=["stability-equivalence", "positivity", "positivity-zero-term", "bijection",
         "bijection-line-rules", "bijection-unit-slot"],
)
def test_a_grouped_suite_fails_where_the_ungrouped_loop_does(monkeypatch, suite, reference, module,
                                                             name, broken):
    """Each suite runs a verdict once per group (a (vanishing pattern,
    profile) lift, a (normal form, multiset) Li–Wu verdict) at the group's
    first configuration in sweep order.  Broken for one group key that
    later presentations share, it fails with the detail of a loop that
    computes every verdict at every configuration.  Each case starts from
    an empty table of presentations, so that a broken fact kept on its
    ``BaseTuple``s (``bijection-unit-slot``) reaches the suite and the loop
    alike, and that table is thrown away with the patch."""
    monkeypatch.setattr(verify, "_PRESENTED", [])
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    expected = reference(3, 2)
    assert expected is not None
    result = suite(max_k=3, max_m=2)
    assert not result.ok
    assert result.detail == expected


def test_a_raising_lift_fails_its_suites_and_verify_prints_every_line(monkeypatch, capsys):
    """An error raised for one configuration fails its suite with a detail
    naming that configuration; ``verify`` still prints all six lines."""

    class Refusing(weights.Profile):
        def lift(self, level_values):
            raise CriterionViolated("no lift")

    # only ``verify``'s own profiles refuse to lift, so stability-equivalence
    # still lifts through ``exists_stabilizing_linearization``
    monkeypatch.setattr(verify, "Profile", Refusing)
    result = verify.check_positivity(max_k=3, max_m=2)
    assert not result.ok
    assert re.fullmatch(r"presentation \([\d, ]*\) points \[.*\]: no lift", result.detail)
    monkeypatch.setattr(weights, "_levels_stable", lambda degrees, table, l: False)
    assert main(["verify", "--max-k", "3", "--max-m", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["[PASS]"] * 3 + ["[FAIL]"] * 2 + ["[PASS]"]
    assert lines[3].endswith(": internal error: constructive linearization failed verification")
    assert lines[4].endswith(": no lift")


@pytest.mark.parametrize(
    "caps,details",
    [
        ((2, 1), ["25 fibres, n <= 8", "14 moves, size <= 3",
                  "19 point multisets, k <= 3, m <= 1",
                  "180 configurations, k <= 2, m <= 1",
                  "182 (configuration, s) pairs",
                  "180 configurations over 3 classes"]),
        ((3, 2), ["25 fibres, n <= 8", "68 moves, size <= 4",
                  "236 point multisets, k <= 4, m <= 2",
                  "2970 configurations, k <= 3, m <= 2",
                  "6586 (configuration, s) pairs",
                  "2970 configurations over 7 classes"]),
        ((4, 2), ["25 fibres, n <= 8", "288 moves, size <= 5",
                  "488 point multisets, k <= 5, m <= 2",
                  "10586 configurations, k <= 4, m <= 2",
                  "21774 (configuration, s) pairs",
                  "10586 configurations over 15 classes"]),
    ],
    ids=["2-1", "3-2", "4-2"],
)
def test_run_all_details_at_small_caps(caps, details):
    results = run_all(*caps)
    assert all(r.ok for r in results), results
    assert [r.detail for r in results] == details
