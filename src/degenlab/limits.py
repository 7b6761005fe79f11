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
occupied by its own line rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .base import BaseTuple, NormalForm
from .configurations import (
    PointConfiguration,
    StabilityReport,
    _as_points,
    is_sws_stable,
    place,
    stability_report,
)
from .dual_complex import ExpandedFibre, refines
from .errors import (
    HeightMismatch,
    InvalidInput,
    NeedsRefinedInput,
    RefuseBruteForce,
    TropicalIncompatibility,
)

__all__ = [
    "LimitReport",
    "flat_limit",
    "unique_stable_subdivision_oracle",
    "associated_pair",
    "extend_special",
    "DEFAULT_MAX_HEIGHT",
    "DEFAULT_MAX_MULTIPLICITY",
]

DEFAULT_MAX_HEIGHT = 8
DEFAULT_MAX_MULTIPLICITY = 4


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
    for p in pts:
        if sum(p.valuations) != k:
            raise HeightMismatch(
                f"point {p.valuations} does not have height {k}"
            )
    powers = sorted({p.a for p in pts} | {k - p.b for p in pts})
    base = BaseTuple(tuple([b - a for a, b in zip([0, *powers], [*powers, k])]))
    cfg = place(base, pts)
    report = stability_report(cfg)
    return LimitReport(cfg.presentation, cfg.fibre, cfg, report)


def unique_stable_subdivision_oracle(
    points: Iterable,
    k: int,
    *,
    max_height: int = DEFAULT_MAX_HEIGHT,
    max_multiplicity: int = DEFAULT_MAX_MULTIPLICITY,
) -> list[NormalForm]:
    """All cut sets giving an admissible, fully occupied placement.

    Pure brute force over the ``2^(k-1)`` subsets of the interior levels;
    separatedness of the construction predicts a single winner.  A point
    (a, b, c) is a vertex when two or more of the lines a = 0, b = 0, c = 0,
    a = s and b = k - s pass through it, and a cut s is occupied when some
    point has a = s or b = k - s.  Instances above the size caps are refused
    rather than ground through.
    """
    if k > max_height:
        raise RefuseBruteForce(
            f"height {k} exceeds the brute-force cap {max_height}"
        )
    pts = _as_points(points)
    total = sum(p.multiplicity for p in pts)
    if total > max_multiplicity:
        raise RefuseBruteForce(
            f"total multiplicity {total} exceeds the brute-force cap "
            f"{max_multiplicity}"
        )
    for p in pts:
        if sum(p.valuations) != k:
            raise HeightMismatch(
                f"point {p.valuations} does not have height {k}"
            )
    valuations = [p.valuations for p in pts]
    winners = []
    for mask in range(1 << max(k - 1, 0)):
        cuts = [s for s in range(1, k) if mask >> (s - 1) & 1]
        levels = set(cuts)
        admissible = all(
            (a == 0) + (b == 0) + (c == 0) + (a in levels) + (k - b in levels) >= 2
            for a, b, c in valuations
        )
        occupied = all(
            any(a == s or b == k - s for a, b, _ in valuations) for s in cuts
        )
        if admissible and occupied:
            winners.append(tuple(cuts))
    return [NormalForm(k, cuts) for cuts in sorted(winners)]


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


def extend_special(
    cfg: PointConfiguration,
    refined_points: Iterable | None = None,
    refined_height: int | None = None,
    drift_profiles: Sequence | Mapping | None = None,
) -> LimitReport:
    """Stable extension of a pair already living over an expanded fibre.

    With refined valuations at a finer height, the extension is the
    associated pair of the refined data, checked for compatibility against
    the current subdivision.  Without refinement the pair extends to itself,
    provided all points sharing a bubble drift together; distinguishable
    drift cannot be resolved from valuations alone.
    """
    if not is_sws_stable(cfg):
        raise InvalidInput("only stable pairs admit a canonical extension")
    if refined_points is not None:
        if refined_height is None:
            raise InvalidInput("refined points need a refined height")
        if refined_height % cfg.height != 0:
            raise InvalidInput(
                f"refined height {refined_height} is not a multiple of "
                f"{cfg.height}"
            )
        return associated_pair(refined_points, refined_height, cfg.fibre.nf)
    if drift_profiles is not None:
        profiles = (
            dict(enumerate(drift_profiles))
            if not isinstance(drift_profiles, Mapping)
            else dict(drift_profiles)
        )
        by_bubble: dict = {}
        for i, loc in enumerate(cfg.placements):
            by_bubble.setdefault(loc, set()).add(profiles.get(i))
        mixed = [loc for loc, seen in by_bubble.items() if len(seen) > 1]
        if mixed:
            raise NeedsRefinedInput(
                "points sharing a bubble have distinct drift profiles; "
                "supply refined valuations to separate them"
            )
    return LimitReport(cfg.presentation, cfg.fibre, cfg, stability_report(cfg))
