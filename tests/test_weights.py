"""One-parameter subgroup admissibility, flows, and the weight calculus."""

import io
import json
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from guards import calls_by_name
from strategies import lift_tuples, presented_points, side_twins, support_points
from degenlab import (
    BaseTuple,
    Chart,
    CriterionViolated,
    DegenLabError,
    InvalidInput,
    InvalidLocalScheme,
    LevelLift,
    Linearization,
    LocalMonomialScheme,
    NoLimit,
    NormalForm,
    SupportPoint,
    admissible_1ps,
    bounded_weight,
    constructive_linearization,
    default_scale,
    exists_stabilizing_linearization,
    hm_invariant,
    is_git_stable,
    make_base_tuple,
    place,
    weight_rows,
)
from degenlab import verify
from degenlab.cli import main
from degenlab.verify import (
    check_bijection,
    check_positivity,
    check_stability_equivalence,
    presentations,
)
from degenlab.weights import Profile, profile


class TestLinearizationValidation:
    def test_every_chart_needs_positive_degree(self):
        with pytest.raises(InvalidInput, match="needs total degree >= 1"):
            Linearization((LevelLift(0, 0, 1, 1),))
        with pytest.raises(InvalidInput, match="needs total degree >= 1"):
            Linearization((LevelLift(1, 1, 0, 0),))
        with pytest.raises(InvalidInput, match="must be non-negative"):
            Linearization((LevelLift(-1, 1, 1, 1),))

    def test_constant_monomial_required(self):
        scheme = LocalMonomialScheme.of([{(1, Chart.DELTA1): 1}])
        cfg = place(NormalForm(2, (1,)), [SupportPoint((1, 0, 1), 1, scheme)])
        with pytest.raises(InvalidLocalScheme):
            bounded_weight(cfg, (1,))

    def test_monomial_degree_bounded_by_multiplicity(self):
        scheme = LocalMonomialScheme.of([{}, {(1, Chart.DELTA1): 3}])
        cfg = place(NormalForm(2, (1,)), [SupportPoint((1, 0, 1), 2, scheme)])
        with pytest.raises(InvalidLocalScheme):
            bounded_weight(cfg, (1,))


def test_sign_vectors_are_the_chain_rule_in_product_order():
    """Every vanishing pattern of size <= 6, read off a presentation: its
    sign vectors, and ``admissible_1ps`` at every s in [-2, 2]^n up to size
    4 and in [-1, 1]^n above, are the oracle's chain rule."""
    for size in range(1, 7):
        for exponents in product((0, 1), repeat=size):
            presentation = BaseTuple(exponents)
            pattern = presentation.vanishing_pattern()
            assert list(pattern.sign_vectors) == oracles.sign_vectors(exponents), exponents
            assert presentation.vanishing_pattern().sign_vectors is pattern.sign_vectors
            for s in product(range(-2, 3) if size <= 4 else (-1, 0, 1), repeat=size - 1):
                try:
                    oracles.check_subgroup(exponents, s)
                except oracles.Refused:
                    assert not admissible_1ps(pattern, s), (exponents, s)
                else:
                    assert admissible_1ps(pattern, s), (exponents, s)


def test_stability_sweep_lists_sign_vectors_once_per_presentation(monkeypatch):
    """Each presentation keeps its vanishing pattern's sign vectors, so the
    sweeps list them at most once per presentation and no configuration
    evaluates the chain rule.  At k <= 3 the 65 presentations have 25
    vanishing patterns: on an empty table of presentations, positivity
    lists each pattern's entries once, and a second call, on the table's
    presentations, lists none; stability-equivalence re-checks its lifts
    level by level and lists no sign vector (36 listings when it re-checked
    them by the sign-vector loop)."""
    monkeypatch.setattr(verify, "_PRESENTED", [])
    runs = [(check_positivity, 25), (check_positivity, 0), (check_stability_equivalence, 0)]
    for suite, listings in runs:
        with calls_by_name("sign_vectors", "admissible_1ps") as counts:
            assert suite(max_k=3, max_m=2).ok
        assert counts == Counter(sign_vectors=listings), suite.__name__
    assert len(list(presentations(3))) == 65


@pytest.mark.parametrize(
    "suite,counts",
    [(check_positivity, {"count_sides": 218}),
     (check_stability_equivalence, {"count_sides": 218 + 145, "profile": 145})],
    ids=["check_positivity", "check_stability_equivalence"],
)
def test_sweeps_count_sides_once_per_occupied_configuration(suite, counts):
    """The sides are counted once per occupied (normal form, multiset)
    pair: of the 330 pairs at k <= 3, m <= 2, the 218 that some
    presentation occupies are counted at every level coordinate of their
    normal form, and each of the 1,280 occupied configurations selects its
    profile from those counts; no configuration builds a ``profile``.
    Stability-equivalence lifts the first configuration of each of the 145
    profiles through ``exists_stabilizing_linearization``, which builds one
    profile, so counts once more, for the lift, its table and the stability
    re-check."""
    with calls_by_name("count_sides", "profile") as calls:
        assert suite(max_k=3, max_m=2).ok
    assert calls == counts


def test_stability_equivalence_asks_once_per_presentation_and_occupied_bits():
    """On an unoccupied configuration ``exists_stabilizing_linearization``
    reads only occupancy, so of the 1,690 unoccupied configurations at
    k <= 3, m <= 2 only the first of each (presentation, occupied bits), 444
    in all, asks it; the 145 distinct profiles ask it once each."""
    with calls_by_name("exists_stabilizing_linearization") as calls:
        assert check_stability_equivalence(max_k=3, max_m=2).ok
    assert calls == {"exists_stabilizing_linearization": 145 + 444}


@pytest.mark.parametrize(
    "suite,counts",
    [
        (check_positivity, {"lift": 302, "lift_table": 302}),
        (check_stability_equivalence, {"lift": 145, "lift_table": 145, "_levels_stable": 145}),
    ],
    ids=["check_positivity", "check_stability_equivalence"],
)
def test_sweeps_lift_once_per_side_count_profile(suite, counts):
    """The 1,280 occupied configurations at k <= 3, m <= 2 have 145
    distinct profiles and 302 distinct (vanishing pattern, profile) groups
    over the whole sweep (669 (presentation, profile) groups).
    Stability-equivalence's lift and per-level re-check read only the
    profile, so it builds the lift and its table, and re-checks them, once
    per profile; positivity also reads the pattern's sign vectors, so it
    builds them once per group.  Neither runs the sign-vector loop."""
    with calls_by_name("lift", "lift_table", "_levels_stable", "_stable") as calls:
        assert suite(max_k=3, max_m=2).ok
    assert calls == counts


def test_bijection_decides_li_wu_once_per_normal_form_and_multiset():
    """The 2,970 configurations at k <= 3, m <= 2 are 330 (normal form,
    multiset) pairs: the 7 normal forms of heights 1-3 times the 10, 28 and
    66 multisets of m <= 2 at each height.  Li–Wu stability reads only the
    fibre and the points, so the suite decides it, and normalizes, once per
    pair, on the zero-free presentation.  ``is_sws_stable`` runs once per
    pair too, on the normalized configuration (2,134 times when each
    configuration ran it), and the pair's two admissibility reads are the
    only ones: a presentation with a unit slot is decided by one bit test
    and reads no configuration."""
    names = ("is_lw_stable", "normalize_pair", "is_sws_stable", "is_admissible")
    with calls_by_name(*names) as counts:
        assert check_bijection(max_k=3, max_m=2).ok
    assert counts == {
        "is_lw_stable": 330, "normalize_pair": 330, "is_sws_stable": 330, "is_admissible": 660,
    }


@pytest.mark.parametrize(
    "suite",
    [check_stability_equivalence, check_positivity, check_bijection],
    ids=lambda suite: suite.__name__,
)
def test_sweeps_place_once_per_normal_form(monkeypatch, suite):
    """At k <= 3, m <= 2 each sweep places every triangle position once per
    normal form (7 normal forms of the 65 presentations, 55 positions in
    all) and reads each configuration's locations from that one placement.
    On an empty table the presentations are listed in one pass, height by
    height (68 generator resumes, one more than the presentations per
    height), each taking its normal form once; a second call reads them
    from the table, so it lists none and takes no normal form, but places
    every position again."""
    monkeypatch.setattr(verify, "_PRESENTED", [])
    names = ("presentations", "_of_height", "normal_form", "place", "locate")
    with calls_by_name(*names) as counts:
        assert suite(max_k=3, max_m=2).ok
    assert counts == {"_of_height": 68, "normal_form": 65, "place": 7, "locate": 55}
    with calls_by_name(*names) as counts:
        assert suite(max_k=3, max_m=2).ok
    assert counts == {"place": 7, "locate": 55}


def test_weights_command_lists_sign_vectors_once(monkeypatch, capsys):
    points = [{"val": [s, 6 - s, 0], "mult": 1} for s in range(1, 6)]
    scenario = {"height": 6, "cuts": [1, 2, 3, 4, 5], "points": points}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(scenario)))
    with calls_by_name("sign_vectors", "admissible_1ps") as counts:
        assert main(["weights", "-"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 3**5 - 1
    assert counts == {"sign_vectors": 1}


def pd1_config():
    return place(NormalForm(2, (1,)), [((1, 0, 1), 1)])


def combinatorial(cfg, lin, s):
    """The combinatorial column of the one weight row at s."""
    [(_, _, value)] = weight_rows(cfg, lin, [s])
    return value


# Each first-family side weighs -1 at (1:0) and 2 at (0:1), each
# second-family side 4 at (1:0) and -8 at (0:1): every pair of sides has
# its own sum, so one weight row tells the library's sides apart.
SIDE_LIFT = Linearization((LevelLift(1, 2, 4, 8),))
SIDE_WEIGHT = {("1:0", "1:0"): 3, ("1:0", "0:1"): -9, ("0:1", "1:0"): 6, ("0:1", "0:1"): -6}


def limit_sides(val, k, v, s_j):
    """The oracle's (first-family, second-family) limit sides at level value v."""
    a, b, _ = val
    return oracles._limit_side(a, v, s_j, "delta1"), oracles._limit_side(b, k - v, s_j, "delta2")


def assert_weight_rows_read_the_oracle_sides(val):
    """One point at height 2 with the cut 1: the library's row is the
    weight of the oracle's sides at s = (1,) and (-1,), and zero at (0,)."""
    cfg = place(NormalForm(2, (1,)), [(val, 1)])
    for s_j in (1, -1):
        weight = SIDE_WEIGHT[limit_sides(val, 2, 1, s_j)]
        assert combinatorial(cfg, SIDE_LIFT, (s_j,)) == s_j * weight
    assert combinatorial(cfg, SIDE_LIFT, (0,)) == 0


class TestFlow:
    def test_on_component_resolution(self):
        # the point sits on the first-family bubble; its second-family side
        # is already the (1:0) fixpoint and never moves
        val = (1, 0, 1)
        assert limit_sides(val, 2, 1, 1) == ("0:1", "1:0")
        assert limit_sides(val, 2, 1, -1) == ("1:0", "1:0")
        assert limit_sides(val, 2, 1, 0) == ("on", "1:0")
        assert_weight_rows_read_the_oracle_sides(val)

    def test_on_component_second_family(self):
        val = (0, 1, 1)
        assert limit_sides(val, 2, 1, 1) == ("1:0", "1:0")
        assert limit_sides(val, 2, 1, -1) == ("1:0", "0:1")
        assert limit_sides(val, 2, 1, 0) == ("1:0", "on")
        assert_weight_rows_read_the_oracle_sides(val)

    def test_inadmissible_raises(self):
        cfg = place(make_base_tuple([2, 0]), [((0, 0, 2), 1)])
        with pytest.raises(oracles.Refused, match="NoLimit"):
            oracles.check_subgroup((2, 0), (-1,))
        with pytest.raises(NoLimit):
            weight_rows(cfg, SIDE_LIFT, [(-1,)])


class TestCombinatorialWeight:
    def test_worked_example(self):
        cfg = pd1_config()
        lin = Linearization((LevelLift(1, 1, 0, 1),))
        assert combinatorial(cfg, lin, (1,)) == 1
        assert combinatorial(cfg, lin, (-1,)) == 1
        assert combinatorial(cfg, lin, (0,)) == 0

    def test_additive_over_points(self):
        nf = NormalForm(3, (1, 2))
        lin = Linearization((LevelLift(2, 1, 0, 1), LevelLift(1, 3, 0, 1)))
        p1, p2 = ((1, 2, 0), 1), ((2, 0, 1), 2)
        for s in [(1, 1), (1, -1), (0, 1), (-1, -1)]:
            both = combinatorial(place(nf, [p1, p2]), lin, s)
            one = combinatorial(place(nf, [p1]), lin, s)
            two = combinatorial(place(nf, [p2]), lin, s)
            assert both == one + two

    def test_linear_in_s_within_orthant(self):
        cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
        lin = constructive_linearization(cfg)
        for s in [(1, 1), (1, 0), (0, 1)]:
            w1 = combinatorial(cfg, lin, s)
            w3 = combinatorial(cfg, lin, tuple(3 * x for x in s))
            assert w3 == 3 * w1


class TestBoundedWeight:
    def test_reduced_points_contribute_nothing(self):
        cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
        value, coeffs = bounded_weight(cfg, (1, -1))
        assert value == 0 and coeffs == (0, 0)

    def test_single_chart_monomial(self):
        scheme = LocalMonomialScheme.of([{}, {(1, Chart.DELTA1): 1}])
        cfg = place(
            NormalForm(2, (1,)), [SupportPoint((1, 0, 1), 2, scheme)]
        )
        # s = -1 sends the point to the (1:0) side, where the chart
        # coordinate carries weight -1 per exponent
        value, coeffs = bounded_weight(cfg, (-1,))
        assert coeffs == (-1,)
        assert value == 1
        value, coeffs = bounded_weight(cfg, (1,))
        assert coeffs == (1,)
        assert value == 1

    def test_scheme_must_sit_on_component(self):
        scheme = LocalMonomialScheme.of([{}, {(1, Chart.DELTA1): 1}])
        cfg = place(
            NormalForm(2, (1,)), [SupportPoint((0, 0, 2), 2, scheme)]
        )
        with pytest.raises(InvalidLocalScheme):
            bounded_weight(cfg, (1,))

    def test_scheme_size_matches_multiplicity(self):
        scheme = LocalMonomialScheme.of([{}, {(1, Chart.DELTA1): 1}])
        cfg = place(
            NormalForm(2, (1,)), [SupportPoint((1, 0, 1), 3, scheme)]
        )
        with pytest.raises(InvalidLocalScheme):
            bounded_weight(cfg, (1,))

    def test_nontrivial_scheme_needs_vertex(self):
        scheme = LocalMonomialScheme.of([{}, {(1, Chart.DELTA1): 1}])
        cfg = place(
            NormalForm(3, (1,)), [SupportPoint((1, 1, 1), 2, scheme)]
        )
        with pytest.raises(InvalidLocalScheme):
            bounded_weight(cfg, (1,))


class TestConstructiveLinearization:
    def test_single_point_on_bubble(self):
        cfg = pd1_config()
        lin = constructive_linearization(cfg)
        assert lin.levels == (LevelLift(1, 1, 0, 1),)

    def test_two_point_example(self):
        cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
        lin = constructive_linearization(cfg)
        # level 1 is hit at the mixed vertex with nothing to its left
        assert lin.levels[0] == LevelLift(4, 2, 0, 1)
        # level 2 is hit by the pure bubble point with one point to its left
        assert lin.levels[1] == LevelLift(2, 4, 0, 1)

    def test_mirror_branch_when_only_second_family_hit(self):
        cfg = place(NormalForm(2, (1,)), [((0, 1, 1), 1)])
        lin = constructive_linearization(cfg)
        assert lin.levels == (LevelLift(0, 1, 1, 1),)
        for s in [(1,), (-1,)]:
            assert combinatorial(cfg, lin, s) > 0

    def test_unoccupied_level_raises(self):
        cfg = place(NormalForm(2, (1,)), [((0, 0, 2), 1)])
        with pytest.raises(CriterionViolated):
            constructive_linearization(cfg)

    def test_reads_no_scheme(self, monkeypatch, capsys):
        """An invalid scheme (one monomial at multiplicity 2) neither turns
        the refusal of an unoccupied level into a scheme error nor changes
        the lift of an occupied configuration."""
        scenario = '{"height":2,"cuts":[1],"points":[{"val":[0,0,2],"mult":2,"scheme":[[]]}]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
        assert main(["weights", "-"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "stabilizable": False,
            "reason": "no point of the support occupies the level at cut value 1",
        }
        invalid = LocalMonomialScheme.of([{}])
        schemed = place(NormalForm(2, (1,)), [SupportPoint((1, 0, 1), 2, invalid)])
        with pytest.raises(InvalidLocalScheme):
            is_git_stable(schemed, Linearization((LevelLift(1, 1, 1, 1),)), 1)
        plain = place(NormalForm(2, (1,)), [((1, 0, 1), 2)])
        assert constructive_linearization(schemed) == constructive_linearization(plain)


class TestGitStability:
    def test_stable_single_bubble_point(self):
        cfg = pd1_config()
        lin = Linearization((LevelLift(1, 1, 0, 1),))
        assert is_git_stable(cfg, lin, 3)

    def test_unstable_for_every_lift(self):
        # corner point misses the level: nothing can stabilize it
        cfg = place(NormalForm(2, (1,)), [((0, 0, 2), 1)])
        values = range(0, 3)
        for a in values:
            for b in values:
                if a + b < 1:
                    continue
                for c in values:
                    for d in values:
                        if c + d < 1:
                            continue
                        lin = Linearization((LevelLift(a, b, c, d),))
                        assert not is_git_stable(cfg, lin, 9)

    def test_vacuous_without_torus(self):
        cfg = place(NormalForm(1, ()), [((0, 0, 1), 1)])
        assert is_git_stable(cfg, Linearization(()), 3)

    def test_dominance_scale(self):
        assert default_scale(2) == 9
        assert hm_invariant(pd1_config(), (1,), Linearization((LevelLift(1, 1, 0, 1),)), 9) == 9


class TestExistence:
    def test_positive_case(self):
        cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
        lin = exists_stabilizing_linearization(cfg)
        assert lin is not None
        assert is_git_stable(cfg, lin, default_scale(cfg.m))

    def test_negative_case(self):
        cfg = place(NormalForm(2, (1,)), [((0, 0, 2), 1)])
        assert exists_stabilizing_linearization(cfg) is None

    def test_empty_configuration(self):
        assert exists_stabilizing_linearization(place(NormalForm(1, ()), [])) is not None
        assert exists_stabilizing_linearization(place(NormalForm(2, (1,)), [])) is None

    def test_sign_vector_test_exact_on_integer_box(self):
        # the sign-vector test claims exactness for all integer subgroups:
        # cross-check against a radius-5 box on assorted configurations
        cases = [
            (make_base_tuple([1, 1, 1]), [((1, 2, 0), 1), ((2, 0, 1), 1)]),
            (make_base_tuple([1, 1, 1]), [((1, 2, 0), 2)]),
            (make_base_tuple([1, 0, 1]), [((1, 0, 1), 1)]),
            (make_base_tuple([2, 0]), [((0, 0, 2), 1)]),
            (make_base_tuple([0, 1, 1]), [((0, 1, 1), 1)]),
            (make_base_tuple([1, 1]), [((0, 1, 1), 1), ((1, 1, 0), 1)]),
        ]
        lins = {}
        for presentation, points in cases:
            cfg = place(presentation, points)
            n = len(cfg.presentation.level_values)
            try:
                lin = constructive_linearization(cfg)
            except CriterionViolated:
                lin = Linearization(tuple(LevelLift(1, 1, 1, 1) for _ in range(n)))
            pattern = cfg.presentation.vanishing_pattern()
            by_signs = is_git_stable(cfg, lin, default_scale(cfg.m))
            by_box = all(
                hm_invariant(cfg, s, lin, default_scale(cfg.m)) > 0
                for s in product(range(-5, 6), repeat=n)
                if any(s) and admissible_1ps(pattern, s)
            )
            assert by_signs == by_box

    def test_scheme_carrying_config_still_stable_at_default_scale(self):
        # the dominating scale absorbs any bounded contribution
        scheme = LocalMonomialScheme.of(
            [{}, {(1, Chart.DELTA1): 1}, {(1, Chart.DELTA1): 2}]
        )
        cfg = place(
            NormalForm(2, (1,)), [SupportPoint((1, 0, 1), 3, scheme)]
        )
        lin = exists_stabilizing_linearization(cfg)
        assert lin is not None
        for s in [(1,), (-1,)]:
            value, _ = bounded_weight(cfg, s)
            assert hm_invariant(cfg, s, lin, default_scale(3)) > 0
            assert abs(value) <= 2 * 9

    def test_exhaustive_box_search_agrees(self):
        # small instances: a stabilizing lift exists in the bounded box
        # exactly when the constructive criterion says so
        for k, cuts, points in [
            (2, (1,), [((1, 0, 1), 1)]),
            (2, (1,), [((0, 1, 1), 1)]),
            (2, (1,), [((0, 0, 2), 1)]),
            (2, (1,), [((2, 0, 0), 1)]),
            (3, (1,), [((1, 2, 0), 1)]),
        ]:
            cfg = place(NormalForm(k, cuts), points)
            m = cfg.m
            bound = m * m + m
            found = None
            for a, b, c, d in product(range(bound + 1), repeat=4):
                if a + b < 1 or c + d < 1:
                    continue
                lin = Linearization(((LevelLift(a, b, c, d)),))
                if is_git_stable(cfg, lin, default_scale(m)):
                    found = lin
                    break
            constructive = exists_stabilizing_linearization(cfg)
            assert (found is not None) == (constructive is not None)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenLabError as exc:
        return type(exc).__name__


def _expect(*steps):
    """The value of the last step, or the error the first refusal names."""
    try:
        for step in steps[:-1]:
            step()
        return steps[-1]()
    except oracles.Refused as exc:
        return exc.args[0]


@settings(max_examples=400)
@given(presented_points(4, 3, 3, schemes="any"), st.data())
def test_weight_functions_match_the_definition(case, data):
    """Value and error class of each weight function against the reference,
    with each function's order of checks, on valid and invalid local schemes,
    lifts and subgroups of a wrong length, and a scale that may be 0."""
    exponents, points = case
    n = len(exponents) - 1
    lifts = data.draw(lift_tuples(n, wrong_length=True))
    # one draw in five gives the subgroup a wrong length
    s_count = data.draw(st.sampled_from([n] * 4 + [n + 1]))
    s = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=s_count, max_size=s_count)))
    l = data.draw(st.sampled_from([1, 2, 5, 9, 12, 0]))
    cfg = place(make_base_tuple(list(exponents)), support_points(points))
    lin = Linearization(tuple(LevelLift(*x) for x in lifts))

    def scale():
        if l < 1:
            raise oracles.Refused("InvalidInput")

    def subgroup():
        oracles.check_subgroup(exponents, s)

    def schemes():
        oracles.check_schemes(exponents, points)

    def lift_length():
        oracles.check_lifts(exponents, lifts)

    def bounded():
        coeffs = tuple(oracles.bounded_terms(exponents, points, s))
        return sum(b * s_j for b, s_j in zip(coeffs, s)), coeffs

    def rows(subgroups):
        return [
            (v, sum(b * v_j for b, v_j in zip(oracles.bounded_terms(exponents, points, v), v)),
             sum(oracles.combinatorial_terms(exponents, points, v, lifts)))
            for v in subgroups
        ]

    def stable():
        return all(
            oracles.invariant(exponents, points, v, lifts, l) > 0
            for v in oracles.sign_vectors(exponents)
        )

    assert _outcome(bounded_weight, cfg, s) == _expect(subgroup, schemes, bounded)
    assert _outcome(hm_invariant, cfg, s, lin, l) == _expect(
        scale, subgroup, schemes, lift_length,
        lambda: oracles.invariant(exponents, points, s, lifts, l),
    )
    assert _outcome(is_git_stable, cfg, lin, l) == _expect(scale, schemes, lift_length, stable)
    assert _outcome(weight_rows, cfg, lin, [s]) == _expect(
        subgroup, schemes, lift_length, lambda: rows([s])
    )
    assert _outcome(weight_rows, cfg, lin) == _expect(
        schemes, lift_length, lambda: rows(oracles.sign_vectors(exponents))
    )


@settings(max_examples=400)
@given(presented_points(6, 4, 4), st.data())
def test_lift_table_reads_the_sides_the_flow_resolves(case, data):
    """Level by level, the table read by comparison is the oracle's flow at
    s_j = -1 and at s_j = +1, value or error class, with a lift of a wrong
    length in one draw in five; reading a presentation's cached facts leaves
    its value semantics alone."""
    exponents, points = case
    lifts = data.draw(lift_tuples(len(exponents) - 1, wrong_length=True))
    presentation = make_base_tuple(list(exponents))
    cfg = place(presentation, points)
    lin = Linearization(tuple(LevelLift(*x) for x in lifts))
    n = len(exponents) - 1
    plain = [(val, mult, None) for val, mult in points]

    def by_flow():
        below, above = (
            oracles.combinatorial_terms(exponents, plain, (sign,) * n, lifts) for sign in (-1, 1)
        )
        return [(-neg, pos) for neg, pos in zip(below, above)]

    assert _outcome(profile(cfg).lift_table, lin) == _expect(
        lambda: oracles.check_lifts(exponents, lifts), by_flow
    )
    presentation.vanishing_pattern()
    fresh = BaseTuple(exponents)
    assert presentation == fresh and hash(presentation) == hash(fresh)
    assert repr(presentation) == repr(fresh) == f"BaseTuple(exponents={exponents!r})"


@settings(max_examples=300)
@given(presented_points(6, 4, 4, at_vertices=True, min_levels=1))
def test_existence_is_the_valuation_oracle(case):
    """On 300 presentations with at least one torus level, unit slots and up
    to four points of multiplicity 1-3, at vertices or anywhere (with no
    level, every verdict would hold vacuously): ``exists_stabilizing_linearization``
    returns None exactly when a level value is unoccupied by the valuations,
    and otherwise the constructive lift the oracle reads from them."""
    exponents, points = case
    lin = exists_stabilizing_linearization(place(BaseTuple(exponents), points))
    if oracles.unoccupied(exponents, points):
        assert lin is None
    else:
        assert lin is not None
        assert list(lin.levels) == oracles.constructive_lifts(exponents, points)


@settings(max_examples=200)
@given(side_twins(6, 3, 4), st.data())
def test_equal_side_counts_give_equal_lifts_and_verdicts(case, data):
    """Equal profiles give equal lifts, tables and verdicts, which lets
    positivity lift once per (vanishing pattern, profile), and
    stability-equivalence, whose per-level re-check reads only the table,
    once per profile: two scheme-free configurations with equal
    ``profile``, on presentations with one vanishing pattern and the same or
    other vanishing orders, get the same constructive lift (or the refusal
    at the same level), and the same sign table and stability verdict at
    ``default_scale`` under that lift and under any other.  Only the
    refusal names a level value."""
    exponents, points, twin_exponents, twin = case
    first, second = place(BaseTuple(exponents), points), place(BaseTuple(twin_exponents), twin)
    key = profile(first)
    assert profile(second) == key and hash(profile(second)) == hash(key)
    l = default_scale(key.m)
    lifts = [Linearization(tuple(LevelLift(*x) for x in data.draw(lift_tuples(len(exponents) - 1))))]
    empty = [j for j, (_, eq1, _, eq2) in enumerate(key.sides) if not eq1 and not eq2]
    if empty:
        for cfg in (first, second):
            value = cfg.presentation.level_values[empty[0]]
            with pytest.raises(CriterionViolated, match=f"at cut value {value}$"):
                constructive_linearization(cfg)
    else:
        lifts.append(constructive_linearization(first))
        assert constructive_linearization(second) == lifts[-1]
    for lin in lifts:
        assert profile(first).lift_table(lin) == profile(second).lift_table(lin)
        assert is_git_stable(first, lin, l) == is_git_stable(second, lin, l)


@settings(max_examples=100)
@given(presented_points(6, 3, 3, at_vertices=True, schemes="valid"), st.data())
def test_sign_vector_test_is_exact_on_the_integer_box(case, data):
    """The sign-vector test is exact for integer subgroups: on presentations
    with unit slots, valid local schemes and valid lifts, ``is_git_stable``
    holds exactly when the reference invariant is positive at every nonzero
    admissible s in [-2, 2]^n."""
    exponents, points = case
    lifts = data.draw(lift_tuples(len(exponents) - 1))
    l = data.draw(st.sampled_from([1, 2, 5, 9]))
    cfg = place(BaseTuple(exponents), support_points(points))
    lin = Linearization(tuple(LevelLift(*x) for x in lifts))
    positive = []
    for s in product(range(-2, 3), repeat=len(lifts)):
        try:
            oracles.check_subgroup(exponents, s)
        except oracles.Refused:
            continue
        if any(s):
            positive.append(oracles.invariant(exponents, points, s, lifts, l) > 0)
    assert is_git_stable(cfg, lin, l) == all(positive)


def six_class_counts(max_m):
    """Every count of points in the six classes a point can fall into
    against a level coordinate c, given x <= y: (x, y) in (<, <), (<, =),
    (<, >), (=, =), (=, >), (>, >), with total multiplicity 1..max_m."""
    for m in range(1, max_m + 1):
        for bars in combinations(range(m + 5), 5):
            yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, m + 5)))


def test_the_constructive_lift_is_positive_one_level_at_a_time():
    """The lemma of ``Profile.lift``: at every one-level side count that
    points with x <= y can produce, m <= 12 (18,563 counts, 18,109 of them
    occupied), the lift's table has c_neg < 0 < c_pos.  Without x <= y it
    fails: one point at x = c, y < c gives c_pos = 0."""
    occupied = 0
    for counts in six_class_counts(12):
        below_below, below_on, below_above, on_on, on_above, above_above = counts
        lt = below_below + below_on + below_above
        eq1, eq2 = on_on + on_above, below_on + on_on
        gt = below_above + on_above + above_above
        key = Profile(sum(counts), ((lt, eq1, gt, eq2),))
        if not eq1 and not eq2:
            with pytest.raises(CriterionViolated):
                key.lift([1])
            continue
        [(c_neg, c_pos)] = key.lift_table(key.lift([1]))
        assert c_neg < 0 < c_pos, counts
        occupied += 1
    assert occupied == 18109
    key = Profile(1, ((0, 1, 0, 0),))
    assert key.lift_table(key.lift([1])) == [(-2, 0)]


# The six classes against the one level of (1, 1), at value 1 and height 2,
# in the order of ``six_class_counts``: one triangle position each.
SIX_CLASSES = [(0, 2, 0), (0, 1, 1), (0, 0, 2), (1, 1, 0), (1, 0, 1), (2, 0, 0)]


def test_one_level_configurations_are_stable_by_the_oracle():
    """Real configurations of the six classes, m <= 6: the library's lift
    is the oracle's constructive lift read from the valuations, and the
    reference invariant at scale 1, evaluated by the flow on plain data, is
    positive at s = (-1,) and (1,), the only nonzero sign vectors."""
    exponents = (1, 1)
    for counts in six_class_counts(6):
        points = [(val, mult) for val, mult in zip(SIX_CLASSES, counts) if mult]
        lin = exists_stabilizing_linearization(place(BaseTuple(exponents), points))
        if oracles.unoccupied(exponents, points):
            assert lin is None
            continue
        lifts = oracles.constructive_lifts(exponents, points)
        assert list(lin.levels) == lifts
        plain = [(val, mult, None) for val, mult in points]
        for s in oracles.sign_vectors(exponents):
            assert oracles.invariant(exponents, plain, s, lifts, 1) > 0, (counts, s)


def test_existence_lists_no_sign_vector_at_thirty_levels():
    """At n = 30, where the sign-vector loop would visit up to 3^30
    vectors, ``exists_stabilizing_linearization`` re-checks its lift level
    by level: it lists no sign vector and runs no sign-vector loop, only
    the O(n) re-check.  Its time at n = 30 is measured by
    ``tools/scaling.py`` (``BENCH_31.json``), not here."""
    exponents = (1,) * 31
    points = [((s, 31 - s, 0), 1) for s in range(1, 31)]
    cfg = place(BaseTuple(exponents), points)
    with calls_by_name("sign_vectors", "_stable", "_levels_stable") as calls:
        lin = exists_stabilizing_linearization(cfg)
    assert calls == {"_levels_stable": 1}
    assert list(lin.levels) == oracles.constructive_lifts(exponents, points)


def test_a_local_scheme_decides_stability_in_item_three_s_shrunk_case():
    """At (1, 1) with two points at (2, 0, 0) and one of multiplicity 2 at
    (1, 0, 1), under the lift (1, 0, 0, 1) at scale 1, the invariant at
    s = (1,) is the scheme's degree: 1 with the scheme {1, u} in the
    first-family chart, so the configuration is stable, and 0 without it,
    so it is not.  The reference invariant agrees on both."""
    lin = Linearization((LevelLift(1, 0, 0, 1),))
    for scheme, stable, at_one in [([{}, {(1, "delta1"): 1}], True, 1), (None, False, 0)]:
        points = [((2, 0, 0), 1, None), ((2, 0, 0), 1, None), ((1, 0, 1), 2, scheme)]
        cfg = place(BaseTuple((1, 1)), support_points(points))
        assert is_git_stable(cfg, lin, 1) is stable
        assert hm_invariant(cfg, (1,), lin, 1) == at_one
        assert oracles.invariant((1, 1), points, (1,), [(1, 0, 0, 1)], 1) == at_one
