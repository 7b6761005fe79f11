"""The exhaustive suites' enumeration, and that each suite can still fail."""

import re
from ast import literal_eval

import pytest

from degenlab import verify
from degenlab.base import BaseTuple
from degenlab.configurations import place
from degenlab.verify import presentations, weighted_configurations


def test_presentation_configs_are_the_placed_configurations():
    yielded = [
        (presentation, list(configs))
        for presentation, configs in verify._presentation_configs(4, 2, 4)
    ]
    assert [p for p, _ in yielded] == list(presentations(4, 4))
    assert BaseTuple((1, 0, 1)) in [p for p, _ in yielded]
    for presentation, configs in yielded:
        expected = [
            place(presentation, points)
            for points in weighted_configurations(presentation.height, 2)
        ]
        assert configs == expected, presentation.exponents


@pytest.mark.parametrize(
    "suite,name,broken",
    [
        (verify.check_stability_equivalence, "exists_stabilizing_linearization",
         lambda original: lambda cfg: None),
        (verify.check_positivity, "_terms",
         lambda original: lambda table, s: [-term for term in original(table, s)]),
        (verify.check_bijection, "is_lw_stable", lambda original: lambda cfg: False),
    ],
    ids=["stability-equivalence", "positivity", "bijection"],
)
def test_each_suite_fails_on_a_broken_verdict(monkeypatch, suite, name, broken):
    monkeypatch.setattr(verify, name, broken(getattr(verify, name)))
    result = suite(max_k=3, max_m=2)
    assert not result.ok
    named = re.match(r"presentation (\([\d, ]*\)) ", result.detail)
    assert named, result.detail
    assert literal_eval(named.group(1)) in {p.exponents for p in presentations(3)}
