"""The scenario writer against ``json.dumps`` with the same settings."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from degenlab import NormalForm, build_fibre
from degenlab.scenario import complex_to_json, dumps
from guards import traced_peak_mb


def reference(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


# quotes, backslashes, control characters, line and paragraph separators,
# non-ASCII and astral characters, beside anything else
_text = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029éΔ×😀 az') | st.characters())
_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | _text
           | st.lists(st.integers() | st.booleans()))  # bools mixed into int lists
_values = st.recursive(
    _leaves,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(_text, children)),
    max_leaves=20,
)


@settings(max_examples=150)
@given(_values)
def test_writes_the_text_of_json_dumps(value):
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    [1, True, False, 0],
    {"a": [], "b": {}, "c": [[], [{}], {"d": []}]},
    {1: "int key", None: [True], 2.5: {"x": -1}},
    ["\u2028", "\\\"", "\x00", "é"],
    {"nested": {1: [1, 2], "k": ()}},
])
def test_examples_json_treats_specially(value):
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("wrap", [lambda n: n, lambda n: [1, n], lambda n: {"n": n},
                                  lambda n: [True, n]], ids=["leaf", "int-list", "dict", "list"])
def test_an_integer_past_the_digit_limit_is_refused_by_both(wrap):
    value = wrap(10 ** 5000)
    with pytest.raises(ValueError):
        reference(value)
    with pytest.raises(ValueError):
        dumps(value)


def test_complex_json_memory_grows_quadratically():
    """The payload and text of a complex of n cuts are O(n^2): from 25 to 100
    cuts the ``tracemalloc`` peak goes from 0.55 to 8.06 MB, 14.6-fold where
    a cubic path would be about sixty-fourfold."""
    peaks = {}
    for n in (25, 100):
        fibre = build_fibre(NormalForm(n + 1, tuple(range(1, n + 1))))
        text, peaks[n] = traced_peak_mb(lambda: dumps(complex_to_json(fibre)))
        assert json.loads(text)["cuts"] == list(fibre.cuts)
    assert peaks[100] <= 20 * peaks[25]
    assert peaks[100] < 10.5
