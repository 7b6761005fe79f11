"""The exhaustive suites' enumeration, and that each suite can still fail."""

import re
from ast import literal_eval

import pytest

from degenlab import verify
from degenlab.base import BaseTuple
from degenlab.configurations import place, stabilizer_rank, unoccupied_level_values
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


def test_occupancy_on_the_shared_locations_is_the_valuation_rule():
    """Unit slots give the level values 0 and k, occupied by a = 0, b = k
    and by a = k, b = 0."""
    boundary_levels = set()
    for presentation, configs in verify._presentation_configs(4, 2, 4):
        k = presentation.height
        values = presentation.level_values
        boundary_levels |= {v for v in values if v in (0, k)}
        for cfg in configs:
            def occupied(v):
                return any(p.a == v or p.b == k - v for p in cfg.points)

            expected = tuple(sorted(v for v in set(values) if not occupied(v)))
            assert unoccupied_level_values(cfg) == expected, (values, cfg.points)
            cuts = cfg.fibre.cuts
            assert stabilizer_rank(cfg) == sum(1 for s in cuts if not occupied(s))
    assert boundary_levels == {0, 1, 2, 3, 4}


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
