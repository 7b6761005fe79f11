"""Constructive flat limits over a rank-one valuation.

Given the valuation triples of the points of a generic-fibre subscheme, the
limit subdivision is read off directly: the candidate cut values are the
first-coordinate valuations together with the height minus the second
coordinates, and the cuts are those candidates falling strictly inside the
height interval.  The induced zero-free presentation places every point at a
vertex and occupies every level, so the limit pair is stable.

``unique_stable_subdivision_oracle`` confirms the uniqueness claim by brute
force over all cut sets, independently of the list construction above and of
``locate``: it decides which points are vertices and which levels are
occupied by its own line rules.  Those rules read valuations only, so each
distinct valuation is tested once, and the search costs ``2^(k-1)`` cut sets
whatever the multiplicities; heights above ``MAX_ORACLE_HEIGHT`` are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .base import BaseTuple, NormalForm
from .configurations import (
    PointConfiguration,
    StabilityReport,
    _as_points,
    place,
    stability_report,
)
from .dual_complex import ExpandedFibre, refines
from .errors import (
    HeightMismatch,
    InvalidInput,
    RefuseBruteForce,
    TropicalIncompatibility,
)

__all__ = [
    "LimitReport",
    "flat_limit",
    "unique_stable_subdivision_oracle",
    "associated_pair",
]

# The oracle walks 2^(k-1) cut sets, so its time doubles with each unit of
# height; its memory does not grow.  With three points on a 2-core host it
# took 0.02 s at height 12, 0.08 s at 14 and 0.35 s at 16, at 16 MB RSS.
MAX_ORACLE_HEIGHT = 12


@dataclass(frozen=True)
class LimitReport:
    """Output of the limit construction: fibre, placement and verdicts."""

    base_tuple: BaseTuple
    fibre: ExpandedFibre
    configuration: PointConfiguration
    stability: StabilityReport


def flat_limit(points: Iterable, k: int) -> LimitReport:
    """Limit fibre and placement for points with valuations summing to k.

    The candidate vanishing orders are every first-coordinate valuation and
    every value ``k - b`` for a second-coordinate valuation b.  The base
    tuple takes one entry per distinct candidate: the consecutive
    differences of the sorted candidates, closed off by the gap up to k.
    Candidates at 0 or k contribute unit directions; the ones strictly
    inside become the cut levels.
    """
    if k < 1:
        raise InvalidInput(f"height must be >= 1, got {k}")
    pts = _as_points(points)
    powers = sorted({p.a for p in pts} | {k - p.b for p in pts})
    base = BaseTuple(tuple([b - a for a, b in zip([0, *powers], [*powers, k])]))
    cfg = place(base, pts)
    report = stability_report(cfg)
    return LimitReport(cfg.presentation, cfg.fibre, cfg, report)


def unique_stable_subdivision_oracle(points: Iterable, k: int) -> list[NormalForm]:
    """All cut sets giving an admissible, fully occupied placement.

    Pure brute force over the ``2^(k-1)`` subsets of the interior levels;
    separatedness of the construction predicts a single winner.  The points
    are read once, for their distinct valuations; heights above
    ``MAX_ORACLE_HEIGHT`` are refused rather than ground through.
    """
    if k > MAX_ORACLE_HEIGHT:
        raise RefuseBruteForce(
            f"height {k} exceeds the brute-force cap {MAX_ORACLE_HEIGHT}"
        )
    valuations = set()
    for p in _as_points(points):
        if sum(p.valuations) != k:
            raise HeightMismatch(
                f"point {p.valuations} does not have height {k}"
            )
        valuations.add(p.valuations)
    return [NormalForm(k, cuts) for cuts in _stable_cut_sets(valuations, k)]


def _stable_cut_sets(valuations: set, k: int) -> list[tuple[int, ...]]:
    """The sorted cut sets of height k that make every valuation a vertex
    and leave no cut unoccupied.

    A valuation (a, b, c) is a vertex when two or more of the lines a = 0,
    b = 0, c = 0, a = s and b = k - s pass through it, and a cut s is
    occupied when some valuation has a = s or b = k - s: the levels hit,
    ``{a} | {k - b}``, are listed once per call, and a cut set is occupied
    when it lies inside them.  Each cut set is tested by plain loops, the
    vertex test stopping at the first valuation off the vertices.
    """
    hit = set()
    for a, b, _ in valuations:
        hit.add(a)
        hit.add(k - b)
    winners = []
    for mask in range(1 << max(k - 1, 0)):
        cuts = [s for s in range(1, k) if mask >> (s - 1) & 1]
        levels = set(cuts)
        if not levels <= hit:
            continue
        for a, b, c in valuations:
            if (a == 0) + (b == 0) + (c == 0) + (a in levels) + (k - b in levels) < 2:
                break
        else:
            winners.append(tuple(cuts))
    return sorted(winners)


def associated_pair(points: Iterable, k: int, coarse: NormalForm) -> LimitReport:
    """Flat limit constrained to refine a declared generic-fibre subdivision.

    Raises when the computed limit does not subdivide the coarse fibre; that
    signals inconsistent input, typically a generic-fibre bubble left with no
    point of the support.
    """
    report = flat_limit(points, k)
    if not refines(report.fibre.nf, coarse):
        raise TropicalIncompatibility(
            f"limit cuts {report.fibre.nf.cuts} at height {k} do not refine "
            f"cuts {coarse.cuts} at height {coarse.height}"
        )
    return report

