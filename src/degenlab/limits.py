"""Constructive flat limits over a rank-one valuation.

Given the valuation triples of the points of a generic-fibre subscheme, the
limit subdivision is read off directly: the candidate cut values are the
first-coordinate valuations together with the height minus the second
coordinates, and the cuts are those candidates falling strictly inside the
height interval.  The induced zero-free presentation places every point at a
vertex and occupies every level, so the limit pair is stable.

``unique_stable_subdivision_oracle`` confirms the uniqueness claim by
minimality, independently of the list construction above and of ``locate``:
its own line rules (``_on_vertices``) read each distinct valuation, at the
levels hit and at each one-level removal, so it runs at any height and
whatever the multiplicities.
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
from .errors import HeightMismatch, InvalidInput, TropicalIncompatibility

__all__ = [
    "LimitReport",
    "flat_limit",
    "unique_stable_subdivision_oracle",
    "associated_pair",
]

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
    """The cut sets giving an admissible, fully occupied placement, found
    by minimality.

    A cut set wins when every valuation is a vertex by the line rules
    (``_on_vertices``) and every cut is occupied, hit as a or as k - b by
    some valuation.  So every winner lies inside the levels hit, C* =
    ({a} | {k - b}) & (0, k), and since the vertex test can only pass more
    often as levels are added, two tests decide the answer:

    - when C* fails, no cut set wins, and the result is ``[]``, exactly;
    - when every one-level removal C* - {h} fails, C* is the only winner
      (a smaller winner C would make C* - {h} win for any h of C* outside
      C), and the result is ``[C*]``, exactly;
    - otherwise the result is C* followed by the removals that win: more
      than one winner, though not necessarily all of them.

    Separatedness of the construction predicts ``[C*]``: every point lies on
    a = 0 or a cut a, and on b = 0 or a cut k - b, or is a corner, so C*
    wins; the point that hit h lies on one line only without it, so each
    removal fails.  The rules run |C*| + 1 times over the distinct
    valuations; the brute force over all cut sets is the tests' oracle.
    """
    valuations = set()
    for p in _as_points(points):
        if sum(p.valuations) != k:
            raise HeightMismatch(f"point {p.valuations} does not have height {k}")
        valuations.add(p.valuations)
    levels = set()
    for a, b, _ in valuations:
        levels.add(a)
        levels.add(k - b)
    levels.discard(0)
    levels.discard(k)
    if not _on_vertices(valuations, k, levels):
        return []
    cuts = sorted(levels)
    winners = [NormalForm(k, tuple(cuts))]
    for h in cuts:
        levels.remove(h)
        if _on_vertices(valuations, k, levels):
            winners.append(NormalForm(k, tuple(sorted(levels))))
        levels.add(h)
    return winners


def _on_vertices(valuations: set, k: int, levels: set) -> bool:
    """The line rules: does every valuation (a, b, c) lie on two or more of
    the lines a = 0, b = 0, c = 0, a = s and b = k - s for the cuts s in
    ``levels``?  A plain loop, stopping at the first valuation off the
    vertices."""
    for a, b, c in valuations:
        if (a == 0) + (b == 0) + (c == 0) + (a in levels) + (k - b in levels) < 2:
            return False
    return True


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

