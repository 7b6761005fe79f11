"""Exhaustive invariant suites over small instances.

Each check sweeps a finite family and returns a result record; the command
line prints one line per suite and the test suite asserts on them.  The
enumerations here are deliberately brute force so they can serve as oracles
for the constructive algorithms.

The three configuration suites sweep presentations in the outer loop.  The
weighted point multisets are listed once per height.  Per presentation, one
``place`` call computes the normal form and the location of every triangle
position, with its half-level coordinates.  The configurations of a
presentation share its ``BaseTuple`` and its fibre, so what is kept on them
is also computed once per presentation: the level values and coordinates,
the vanishing pattern with its admissible sign vectors (read by the
stability test and by positivity) and the zero-free tuple that
``normalize_pair`` and ``stabilizer_rank`` read.  Every configuration still
goes through the verdict functions; its occupancy is an OR over its shared
locations.

A configuration costs a tuple (``PointConfiguration`` is a ``NamedTuple``)
and the verdicts asked of it: occupancy is tested before a lift is built,
so only occupied configurations reach the constructive lift, which reads
each placement once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, groupby
from operator import attrgetter
from typing import Iterator

from .base import BaseTuple, NormalForm, make_base_tuple, normal_form, tau_move
from .configurations import (
    PointConfiguration,
    SupportPoint,
    is_lw_stable,
    is_sws_stable,
    is_ws_stable,
    normalize_pair,
    place,
)
from .dual_complex import build_fibre, complex_counts
from .limits import flat_limit, unique_stable_subdivision_oracle
from .weights import (
    _lift_table,
    _terms,
    constructive_linearization,
    exists_stabilizing_linearization,
)

__all__ = [
    "SuiteResult",
    "check_counts",
    "check_tau_fixpoints",
    "check_limit_oracle",
    "check_stability_equivalence",
    "check_positivity",
    "check_bijection",
    "run_all",
    "presentations",
    "weighted_configurations",
]


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str


def expected_counts(n: int) -> tuple[int, int, int]:
    """Closed-form (V, E, F) for a fibre with n cuts."""
    return (
        3 + 3 * n + n * (n - 1) // 2,
        3 * (n + 1) + n * (n + 1),
        1 + n + n * (n + 1) // 2,
    )


def check_counts(max_n: int = 8) -> SuiteResult:
    """Vertex/edge/cell counts match the closed formulas, Euler number 1."""
    checked = 0
    for n in range(max_n + 1):
        # several cut spacings per n: combinatorics must not depend on them
        cut_sets = [tuple(range(1, n + 1))]
        if n >= 1:
            cut_sets.append(tuple(2 * i for i in range(1, n + 1)))
            cut_sets.append(tuple(i * i for i in range(1, n + 1)))
        for cuts in cut_sets:
            k = (cuts[-1] + 1) if cuts else 1
            fibre = build_fibre(NormalForm(k, cuts))
            v, e, f = complex_counts(fibre)
            if (v, e, f) != expected_counts(n):
                return SuiteResult(
                    "counts",
                    False,
                    f"n={n} cuts={cuts}: got {(v, e, f)}, expected {expected_counts(n)}",
                )
            if v - e + f != 1:
                return SuiteResult("counts", False, f"Euler failure at n={n}")
            checked += 1
    return SuiteResult("counts", True, f"{checked} fibres, n <= {max_n}")


def check_tau_fixpoints(max_size: int = 6) -> SuiteResult:
    """No slot move with distinct index sets fixes a matching tuple."""
    checked = 0
    for size in range(1, max_size + 1):
        idx = list(range(1, size + 1))
        for r in range(1, size + 1):
            for source in combinations(idx, r):
                for target in combinations(idx, r):
                    if source == target:
                        continue
                    exps = [0] * size
                    for rank, i in enumerate(source):
                        exps[i - 1] = rank + 1  # distinct positive orders
                    t = BaseTuple(tuple(exps))
                    moved = tau_move(t, frozenset(target), frozenset(source))
                    if moved == t:
                        return SuiteResult(
                            "tau-fixpoints",
                            False,
                            f"move {source}->{target} fixes {t.exponents}",
                        )
                    vanish = frozenset(
                        i + 1 for i, g in enumerate(moved.exponents) if g > 0
                    )
                    if vanish != frozenset(target):
                        return SuiteResult(
                            "tau-fixpoints",
                            False,
                            f"move {source}->{target} sent zeros to {sorted(vanish)}",
                        )
                    checked += 1
    return SuiteResult("tau-fixpoints", True, f"{checked} moves, size <= {max_size}")


def triangle_positions(k: int) -> list[tuple[int, int, int]]:
    return [
        (a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)
    ]


def weighted_configurations(k: int, max_m: int) -> Iterator[tuple[SupportPoint, ...]]:
    """All weighted point multisets of total multiplicity 0..max_m."""
    positions = triangle_positions(k)
    yield ()
    for m in range(1, max_m + 1):
        for combo in combinations_with_replacement(positions, m):
            points = []
            for pos in sorted(set(combo)):
                points.append(SupportPoint(pos, combo.count(pos)))
            yield tuple(points)


def presentations(max_k: int, max_len: int = 4) -> Iterator[BaseTuple]:
    """All base tuples of height 1..max_k and length 1..max_len."""

    def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first, *rest)

    for k in range(1, max_k + 1):
        for length in range(1, max_len + 1):
            for exps in compositions(k, length):
                yield make_base_tuple(list(exps))


def check_limit_oracle(max_k: int = 6, max_m: int = 3) -> SuiteResult:
    """Brute force agrees with the direct limit construction, uniquely."""
    checked = 0
    for k in range(1, max_k + 1):
        positions = triangle_positions(k)
        for m in range(1, max_m + 1):
            for combo in combinations_with_replacement(positions, m):
                points = [(pos, 1) for pos in combo]
                report = flat_limit(points, k)
                winners = unique_stable_subdivision_oracle(
                    points, k, max_height=max(max_k, 8),
                    max_multiplicity=max(max_m, 4),
                )
                if winners != [report.fibre.nf]:
                    return SuiteResult(
                        "limit-oracle",
                        False,
                        f"k={k} points={combo}: oracle {winners}, "
                        f"limit {report.fibre.nf}",
                    )
                if not report.stability.sws_stable or not report.stability.lw_stable:
                    return SuiteResult(
                        "limit-oracle",
                        False,
                        f"k={k} points={combo}: limit not stable",
                    )
                checked += 1
    return SuiteResult(
        "limit-oracle", True, f"{checked} point multisets, k <= {max_k}, m <= {max_m}"
    )


def _presentation_configs(
    max_k: int, max_m: int, max_len: int
) -> Iterator[tuple[BaseTuple, Iterator[PointConfiguration]]]:
    """Every presentation with the lazy stream of its configurations.

    Per height, the weighted multisets are listed once.  Per presentation,
    ``place`` locates every triangle position once, and each multiset's
    configuration reads its locations from that one placement, so it equals
    ``place(presentation, points)``.
    """
    for k, group in groupby(presentations(max_k, max_len), key=attrgetter("height")):
        multisets = tuple(weighted_configurations(k, max_m))
        every_position = [(pos, 1) for pos in triangle_positions(k)]
        for presentation in group:
            yield presentation, _configs(place(presentation, every_position), multisets)


def _configs(
    placed: PointConfiguration, multisets: tuple[tuple[SupportPoint, ...], ...]
) -> Iterator[PointConfiguration]:
    fibre, presentation, every_point, every_location = placed
    where = dict(zip((p.valuations for p in every_point), every_location))
    new = tuple.__new__  # as ``PointConfiguration._make``, minus its checks
    for points in multisets:
        placements = tuple([where[p.valuations] for p in points])
        yield new(PointConfiguration, (fibre, presentation, points, placements))


def check_stability_equivalence(
    max_k: int = 5, max_m: int = 3, max_len: int = 4
) -> SuiteResult:
    """A stabilizing lift exists exactly when every level is occupied.

    The constructive lift is re-verified at the dominating scale inside
    ``exists_stabilizing_linearization``.
    """
    checked = 0
    for _, configs in _presentation_configs(max_k, max_m, max_len):
        for cfg in configs:
            occupied = is_ws_stable(cfg)
            lin = exists_stabilizing_linearization(cfg)
            if (lin is not None) != occupied:
                return SuiteResult(
                    "stability-equivalence",
                    False,
                    f"presentation {cfg.presentation.exponents} points "
                    f"{[p.valuations for p in cfg.points]}: occupancy {occupied} "
                    f"but linearization {'found' if lin else 'missing'}",
                )
            checked += 1
    return SuiteResult(
        "stability-equivalence",
        True,
        f"{checked} configurations, k <= {max_k}, m <= {max_m}",
    )


def check_positivity(max_k: int = 5, max_m: int = 3, max_len: int = 4) -> SuiteResult:
    """Per-level terms of the constructive weight are positive off zero,
    read per sign vector from the configuration's one combinatorial table."""
    checked = 0
    for presentation, configs in _presentation_configs(max_k, max_m, max_len):
        signs = presentation.vanishing_pattern().sign_vectors
        for cfg in configs:
            if not is_ws_stable(cfg) or cfg.m == 0:
                continue
            table = _lift_table(cfg, constructive_linearization(cfg))
            for s in signs:
                for j, term in enumerate(_terms(table, s)):
                    if term < 0 or (term == 0) != (s[j] == 0):
                        return SuiteResult(
                            "positivity",
                            False,
                            f"presentation {presentation.exponents} points "
                            f"{[p.valuations for p in cfg.points]} s={s}: "
                            f"level {j + 1} term {term}",
                        )
                checked += 1
    return SuiteResult("positivity", True, f"{checked} (configuration, s) pairs")


def check_bijection(max_k: int = 5, max_m: int = 3, max_len: int = 4) -> SuiteResult:
    """Finite-automorphism stability matches normalized strict stability."""
    checked = 0
    zero_free_seen: dict[NormalForm, int] = {}
    for presentation in presentations(max_k, max_len):
        nf = normal_form(presentation)
        if all(g > 0 for g in presentation.exponents):
            zero_free_seen[nf] = zero_free_seen.get(nf, 0) + 1
    bad = {nf: c for nf, c in zero_free_seen.items() if c != 1}
    if bad:
        return SuiteResult(
            "bijection", False, f"classes without a unique zero-free presentation: {bad}"
        )
    for _, configs in _presentation_configs(max_k, max_m, max_len):
        for cfg in configs:
            lw = is_lw_stable(cfg)
            sws_normalized = is_sws_stable(normalize_pair(cfg))
            if lw != sws_normalized:
                return SuiteResult(
                    "bijection",
                    False,
                    f"presentation {cfg.presentation.exponents} points "
                    f"{[p.valuations for p in cfg.points]}: lw={lw} "
                    f"normalized sws={sws_normalized}",
                )
            if is_sws_stable(cfg) and not lw:
                return SuiteResult(
                    "bijection",
                    False,
                    f"sws without lw at {cfg.presentation.exponents}",
                )
            checked += 1
    return SuiteResult(
        "bijection",
        True,
        f"{checked} configurations over {len(zero_free_seen)} classes",
    )


def run_all(max_k: int = 5, max_m: int = 3) -> list[SuiteResult]:
    """Run every suite at the given size caps."""
    return [
        check_counts(max_n=8),
        check_tau_fixpoints(max_size=min(max_k + 1, 6)),
        check_limit_oracle(max_k=min(max_k + 1, 6), max_m=max_m),
        check_stability_equivalence(max_k=max_k, max_m=max_m),
        check_positivity(max_k=max_k, max_m=max_m),
        check_bijection(max_k=max_k, max_m=max_m),
    ]
