"""Base tuples, normal forms, slot moves and equivalence."""

import pickle
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from degenlab import base
from degenlab import (
    BaseTuple,
    InvalidComparison,
    InvalidInput,
    LevelLift,
    Linearization,
    NormalForm,
    SupportPoint,
    VanishingPattern,
    canonical_tuple,
    equivalent,
    make_base_tuple,
    make_closed_point,
    normal_form,
    standard_embed,
    tau_move,
)

import oracles
from guards import calls_by_name
from strategies import padded_presentations


def test_make_base_tuple_basics():
    t = make_base_tuple([1, 1, 1, 0])
    assert t.height == 3
    assert t.exponents == (1, 1, 1, 0)
    single = make_base_tuple([2])
    assert single.height == 2 and single.length == 1


def test_level_coords_rank_each_level_once():
    """One ``half_level`` call ranks each level, and no ``list.index`` scan
    runs: the coordinates of n levels cost n binary searches, not n^2 / 2
    comparisons.  The level facts and the normal form's cuts come from one
    pass, so reading all of them costs those n calls, and reading them
    again costs none."""
    n = 2000
    t = make_base_tuple([1] * (n + 1))
    names = ("half_level", "list.index", "tuple.index")
    with calls_by_name(*names, module=base) as counts:
        coords = t.level_coords
        t.level_values, t.level_bits
        nf = normal_form(t)
    assert coords == tuple(range(2, 2 * n + 1, 2))
    assert nf.cuts == tuple(range(1, n + 1))
    assert counts == {"half_level": n}
    with calls_by_name(*names, module=base) as again:
        t.level_values, t.level_coords, t.level_bits
        normal_form(t)
    assert again == {}


FACTS = ("level_values", "level_coords", "level_bits", "cuts")


@settings(max_examples=300)
@given(padded_presentations(12, 8), st.permutations(FACTS))
@example((0, 2, 1), FACTS)  # a leading zero: the level value 0
@example((2, 1, 0), FACTS[::-1])  # a trailing zero: the level value k
@example((1, 0, 0, 2), FACTS)  # inner zeros: a level value twice
@example((0, 0, 3, 0), FACTS)  # no cut at all
def test_level_facts_are_their_definitions(exponents, order):
    """Read in any order from a fresh tuple, the facts of the one pass are
    those of ``oracles``: partial sums, the cuts, each level's index
    among ``(0, *cuts, k)`` doubled, and the bits of those coordinates."""
    t = make_base_tuple(exponents)
    read = {name: getattr(t, name) for name in order}
    assert read["level_values"] == tuple(oracles.level_values(exponents))
    assert read["level_coords"] == tuple(oracles.level_coords(exponents))
    assert read["level_bits"] == oracles.level_bits(exponents)
    assert read["cuts"] == tuple(oracles.cuts(exponents))
    assert normal_form(make_base_tuple(exponents)).cuts == tuple(oracles.cuts(exponents))


def test_make_base_tuple_rejects_empty_and_smooth():
    with pytest.raises(InvalidInput):
        make_base_tuple([])
    with pytest.raises(InvalidInput, match="^height 0 means no degeneration$"):
        make_base_tuple([0, 0])
    smooth = BaseTuple((0, 0))
    assert smooth.height == 0
    with pytest.raises(InvalidInput):
        normal_form(smooth)


def test_make_base_tuple_rejects_negative():
    with pytest.raises(InvalidInput):
        make_base_tuple([1, -1, 2])


def test_normal_form_examples():
    assert normal_form(make_base_tuple([1, 1, 1, 0])) == NormalForm(3, (1, 2))
    assert normal_form(make_base_tuple([3])) == NormalForm(3, ())
    # duplicate partial sums collapse
    assert normal_form(make_base_tuple([1, 0, 1])) == NormalForm(2, (1,))


def test_normal_form_drops_boundary_sums():
    # leading zeros give a partial sum 0, trailing zeros a partial sum k
    assert normal_form(make_base_tuple([0, 2])) == NormalForm(2, ())
    assert normal_form(make_base_tuple([2, 0])) == NormalForm(2, ())


def test_canonical_tuple_round_trip():
    nf = NormalForm(5, (1, 4))
    t = canonical_tuple(nf)
    assert t.exponents == (1, 3, 1)
    assert normal_form(t) == nf


def test_standard_embed_examples():
    assert standard_embed(make_base_tuple([1, 1]), {2}).exponents == (1, 1, 0)
    assert standard_embed(make_base_tuple([2]), {0}).exponents == (0, 2)
    t = make_base_tuple([1, 1, 1, 0])
    embedded = standard_embed(t, {1, 4})
    assert normal_form(embedded) == normal_form(t)


def test_standard_embed_reads_a_one_shot_iterable():
    assert standard_embed(BaseTuple((1, 2)), iter([0])).exponents == (0, 1, 2)
    assert standard_embed(BaseTuple((1, 2)), (i for i in (3, 0))).exponents == (0, 1, 2, 0)
    with pytest.raises(InvalidInput, match="distinct"):
        standard_embed(BaseTuple((1, 2)), iter([0, 0]))


def test_standard_embed_rejects_bad_positions():
    with pytest.raises(InvalidInput):
        standard_embed(make_base_tuple([1, 1]), {5})
    with pytest.raises(InvalidInput):  # one past the enlarged tuple's last index
        standard_embed(make_base_tuple([1, 1]), {3})
    with pytest.raises(InvalidInput):
        standard_embed(make_base_tuple([1, 1]), {-1})


def test_vanishing_pattern():
    t = make_base_tuple([1, 0, 2, 0])
    pattern = t.vanishing_pattern()
    assert pattern.size == 4
    assert pattern.vanishing == frozenset({1, 3})
    assert pattern.base_codimension == 2


_FORM = {"height": 3, "cuts": (1,)}
_PATTERN = {"size": 3, "vanishing": frozenset({1})}
_POINT = {"valuations": (1, 1, 1), "multiplicity": 2, "scheme": None}
_LIN = {"levels": (LevelLift(1, 1, 0, 1), LevelLift(0, 1, 2, 1))}


@pytest.mark.parametrize("cls, fields, bad, message", [
    (NormalForm, _FORM, {"height": 0}, "height must be >= 1, got 0"),
    (NormalForm, _FORM, {"cuts": (2, 1)}, "cuts must be strictly increasing: (2, 1)"),
    (NormalForm, _FORM, {"cuts": (3,)}, "cuts must lie strictly inside (0, 3): (3,)"),
    (VanishingPattern, _PATTERN, {"size": 0}, "pattern size must be >= 1"),
    (VanishingPattern, _PATTERN, {"vanishing": frozenset({4})},
     "vanishing set [4] not within 1..3"),
    (SupportPoint, _POINT, {"multiplicity": 0}, "multiplicity must be >= 1, got 0"),
    (SupportPoint, _POINT, {"valuations": (1, -1, 3)}, "bad valuation triple (1, -1, 3)"),
    (Linearization, _LIN, {"levels": (LevelLift(1, 0, -1, 2),)},
     "lift exponents must be non-negative: LevelLift(a=1, b=0, c=-1, d=2)"),
    (Linearization, _LIN, {"levels": (LevelLift(0, 0, 0, 1),)},
     "each chart of LevelLift(a=0, b=0, c=0, d=1) needs total degree >= 1"),
    # the bounds themselves: a cut at 0, and a pattern of size 1 that vanishes everywhere
    (NormalForm, _FORM, {"cuts": (0,)}, "cuts must lie strictly inside (0, 3): (0,)"),
    (VanishingPattern, {"size": 1, "vanishing": frozenset({1})}, {"size": 0},
     "pattern size must be >= 1"),
])
def test_a_checked_value_type_checks_every_way_it_is_built(cls, fields, bad, message):
    """The constructor, ``_replace`` and ``_make`` of each checked value
    type refuse invalid fields with the same message; a valid value
    survives a pickle round trip, which rebuilds it through the constructor."""
    value = cls(**fields)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is cls
    invalid = {**fields, **bad}
    for build in (lambda: cls(**invalid), lambda: value._replace(**bad),
                  lambda: cls._make(invalid.values())):
        with pytest.raises(InvalidInput) as info:
            build()
        assert str(info.value) == message


@pytest.fixture
def digit_limit():
    """Python's limit on the digits of a str/int conversion at its least,
    640, which the unit-label bounds read; the old limit is restored after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "entries,message",
    [
        # a label's digits plus its decimal exponent: 640 is kept, 641 refused
        (["9" * 640], None),
        (["9" * 641], "unit label '99999999999999999999...' needs more than 640 digits"),
        (["1e639"], None),
        (["1e640"], "unit label '1e640' needs more than 640 digits"),
        # an exponent of four digits or more is refused before it is read
        (["1e1000"], "unit label '1e1000' needs more than 640 digits"),
        (["1e" + "1" * 641], "unit label '1e111111111111111111...' needs more than 640 digits"),
        # the label is shown whole up to 20 characters
        (["1e" + "0" * 15 + "700"], "unit label '1e000000000000000700' needs more than 640 digits"),
        (["1e" + "0" * 16 + "700"],
         "unit label '1e000000000000000070...' needs more than 640 digits"),
        # the product: below 10^640 is kept, 10^640 refused, either side of the fraction
        (["1e320", "1e319", "9"], None),
        (["1e320", "1e320"], "the unit product has more than 640 digits"),
        (["1/1" + "0" * 320, "1/1" + "0" * 319, "1/9"], None),
        (["1/1" + "0" * 320] * 2, "the unit product has more than 640 digits"),
    ],
)
def test_unit_labels_are_refused_past_the_digit_limit_with_one_line(digit_limit, entries,
                                                                     message):
    def product():
        return make_closed_point(entries).unit_product()

    if message is None:
        assert product()[1] == ()
    else:
        with pytest.raises(InvalidInput) as info:
            product()
        assert str(info.value) == message


class TestEquivalence:
    def test_closed_zeros_move_and_units_rescale(self):
        p = make_closed_point([0, 5, 0])
        q = make_closed_point([0, 0, 7])
        assert equivalent(p, q)

    def test_valued_different_normal_forms(self):
        assert not equivalent(make_base_tuple([1, 1, 1, 0]), make_base_tuple([1, 2]))

    def test_closed_all_nonzero_products(self):
        assert equivalent(make_closed_point([2, 3]), make_closed_point([3, 2]))
        assert not equivalent(make_closed_point([2, 3]), make_closed_point([3, 3]))

    def test_closed_symbolic_units(self):
        assert equivalent(make_closed_point(["c1", "c2"]), make_closed_point(["c2", "c1"]))
        # unit 1 is neutral, matching the standard embedding
        assert equivalent(make_closed_point(["c1"]), make_closed_point(["c1", "1"]))

    def test_closed_zero_count_is_the_invariant(self):
        assert not equivalent(make_closed_point([0, 5]), make_closed_point([0, 0, 7]))
        # one vanishing entry on each side, or on one: the units are not compared
        assert equivalent(make_closed_point([0, "2", "a"]), make_closed_point(["b", 0, "3"]))
        assert not equivalent(make_closed_point([0, "2"]), make_closed_point(["2", "1"]))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(InvalidComparison):
            equivalent(make_base_tuple([1, 1]), make_closed_point([0, 1]))

    def test_height_rescaling(self):
        assert equivalent(make_base_tuple([1, 1]), make_base_tuple([2, 2]))
        assert not equivalent(make_base_tuple([1, 1]), make_base_tuple([2, 1]))


small_tuples = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5).filter(
    lambda gs: sum(gs) >= 1
)


@given(small_tuples)
def test_equivalence_reflexive(gs):
    t = make_base_tuple(gs)
    assert equivalent(t, t)


@given(small_tuples, small_tuples)
def test_equivalence_symmetric(gs, hs):
    t, u = make_base_tuple(gs), make_base_tuple(hs)
    assert equivalent(t, u) == equivalent(u, t)


@given(small_tuples, small_tuples, small_tuples)
def test_equivalence_transitive(gs, hs, js):
    t, u, v = make_base_tuple(gs), make_base_tuple(hs), make_base_tuple(js)
    if equivalent(t, u) and equivalent(u, v):
        assert equivalent(t, v)


@given(small_tuples, st.sets(st.integers(min_value=0, max_value=7), max_size=3))
def test_embed_preserves_normal_form(gs, positions):
    t = make_base_tuple(gs)
    while any(p >= t.length + len(positions) for p in positions):
        positions = {p for p in positions if p < t.length + len(positions)}
    embedded = standard_embed(t, positions)
    assert normal_form(embedded) == normal_form(t)
    assert equivalent(embedded, t)


@given(small_tuples)
def test_normal_form_complete_invariant(gs):
    t = make_base_tuple(gs)
    nf = normal_form(t)
    assert equivalent(t, canonical_tuple(nf))


def test_tau_move_relocates_zeros():
    t = make_base_tuple([1, 0, 2])
    moved = tau_move(t, target=frozenset({1, 2}), source=frozenset({1, 3}))
    assert moved.exponents == (1, 2, 0)
    assert normal_form(moved) == normal_form(t)
    zero_free = make_base_tuple([1, 2])  # source and target every slot
    assert tau_move(zero_free, frozenset({1, 2}), frozenset({1, 2})) == zero_free


def test_tau_move_requires_vanishing_inside_source():
    t = make_base_tuple([1, 0, 2])
    with pytest.raises(InvalidInput):
        tau_move(t, target=frozenset({2}), source=frozenset({2}))


def test_tau_move_on_closed_points():
    p = make_closed_point([0, "c", 0])
    moved = tau_move(p, target=frozenset({2, 3}), source=frozenset({1, 3}))
    assert moved.entries == ("c", None, None)


def test_tau_move_never_fixes_matching_tuple():
    # exhaustive over small sizes; the full sweep lives in the acceptance suite
    from itertools import combinations

    for size in range(1, 5):
        idx = range(1, size + 1)
        for r in range(1, size + 1):
            for source in combinations(idx, r):
                for target in combinations(idx, r):
                    if source == target:
                        continue
                    exps = [0] * size
                    for rank, i in enumerate(source):
                        exps[i - 1] = rank + 1
                    t = BaseTuple(tuple(exps))
                    assert tau_move(t, frozenset(target), frozenset(source)) != t
