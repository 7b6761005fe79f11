"""Weighted point configurations on expanded fibres and their stability.

A length-m subscheme is modelled by its support points: valuation triples
with multiplicities, placed on the dual complex of a fibre.  A configuration
is admissible when every point sits at a vertex, i.e. in the smooth interior
of a component.

Stability comes in three executable flavours:

* finite-automorphism stability: admissible, and on the normalized
  presentation every cut level is hit by some point (``is_lw_stable``);
* weak strict stability: for the given presentation, every torus level is
  occupied in the chart sense, so some linearization makes the configuration
  invariant-theoretically stable (``is_ws_stable``);
* its smoothly supported refinement (``is_sws_stable``).

Occupancy of a level with cut value v means some point has first coordinate
``a = v`` or second coordinate ``b = k - v``: exactly the points on which the
corresponding torus factor acts through a unit chart coordinate.  Degenerate
levels (``v = 0`` or ``v = k``) are covered by the same rule, which then
selects the ``a = 0`` and ``b = 0`` boundary sides.

Occupancy is read off the placement: each ``Location`` keeps the
half-level coordinates of ``a`` and ``k - b`` among the levels
``(0, *cuts, k)``, each presentation the coordinate ``2p`` of each level
value, and a level is occupied when some point has a coordinate equal to it.

A ``PointConfiguration`` is a ``NamedTuple`` of the fibre, the presentation,
the points and their placements, so the exhaustive suites of ``verify``,
which build one per configuration, pay for a tuple and not an object.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .base import BaseTuple, NormalForm, normal_form
from .dual_complex import ExpandedFibre, Location, locate
from .errors import InvalidInput

__all__ = [
    "SupportPoint",
    "PointConfiguration",
    "StabilityReport",
    "place",
    "is_admissible",
    "occupied_bits",
    "stabilizer_rank",
    "is_lw_stable",
    "is_ws_stable",
    "is_sws_stable",
    "normalize_pair",
    "stability_report",
]


class SupportPoint(NamedTuple("SupportPoint", [
    ("valuations", tuple[int, int, int]), ("multiplicity", int), ("scheme", object)
])):
    """A support point: valuation triple, multiplicity, optional local data.

    ``scheme`` is a local monomial structure used only by the weight
    calculus; reduced points leave it as None.
    """

    __slots__ = ()

    def __new__(
        cls, valuations: tuple[int, int, int], multiplicity: int = 1, scheme: object | None = None
    ) -> SupportPoint:
        if multiplicity < 1:
            raise InvalidInput(f"multiplicity must be >= 1, got {multiplicity}")
        if len(valuations) != 3 or min(valuations) < 0:
            raise InvalidInput(f"bad valuation triple {valuations}")
        return tuple.__new__(cls, (valuations, multiplicity, scheme))

    @classmethod
    def _make(cls, fields) -> SupportPoint:  # checked, and so is ``_replace``
        return cls(*fields)

    @property
    def a(self) -> int:
        return self.valuations[0]

    @property
    def b(self) -> int:
        return self.valuations[1]


class PointConfiguration(NamedTuple):
    """Points placed on a fibre, remembering the presenting base tuple.

    ``placements[i]`` is the location of ``points[i]``; ``m`` is the total
    multiplicity and ``height`` the fibre's.  Built positionally or by
    keyword; ``verify``'s configuration stream, which makes thousands, builds
    it by ``tuple.__new__`` on the four fields.  Like every value type, it
    equals and hashes as the plain tuple of its fields (README, "Value
    types").
    """

    fibre: ExpandedFibre
    presentation: BaseTuple
    points: tuple[SupportPoint, ...]
    placements: tuple[Location, ...]

    @property
    def m(self) -> int:
        m = 0
        for p in self.points:
            m += p.multiplicity
        return m

    @property
    def height(self) -> int:
        return self.fibre.height


class StabilityReport(NamedTuple):
    admissible: bool
    stabilizer_rank: int
    lw_stable: bool
    ws_stable: bool
    sws_stable: bool
    unoccupied_levels: tuple[int, ...]


def _as_points(raw: Iterable) -> tuple[SupportPoint, ...]:
    points = []
    for item in raw:
        if isinstance(item, SupportPoint):
            points.append(item)
        else:
            val, mult = item
            points.append(SupportPoint(tuple(val), mult))
    return tuple(points)


def place(fibre_or_presentation, raw_points: Iterable) -> PointConfiguration:
    """Locate every point on the fibre and freeze the configuration.

    Accepts an ExpandedFibre, a NormalForm, or a BaseTuple presentation;
    raw points are SupportPoints or ``(valuations, multiplicity)`` pairs.
    Placement reads only the normal form and never builds the dual complex.
    """
    if isinstance(fibre_or_presentation, BaseTuple):
        presentation = fibre_or_presentation
        fibre = ExpandedFibre(normal_form(presentation))
    elif isinstance(fibre_or_presentation, NormalForm):
        fibre = ExpandedFibre(fibre_or_presentation)
        presentation = fibre.canonical_tuple
    elif isinstance(fibre_or_presentation, ExpandedFibre):
        fibre = fibre_or_presentation
        presentation = fibre.canonical_tuple
    else:
        raise InvalidInput(
            f"cannot place points on {type(fibre_or_presentation).__name__}"
        )
    points = _as_points(raw_points)
    placements = tuple(locate(fibre, p.valuations) for p in points)
    return PointConfiguration(fibre, presentation, points, placements)


def is_admissible(cfg: PointConfiguration) -> bool:
    """True when no point of the support lies on a double curve or worse."""
    for loc in cfg.placements:
        if not loc.is_vertex:
            return False
    return True


def occupied_bits(placements: tuple[Location, ...]) -> int:
    """Bit c set for each half-level coordinate c of some point's a or k - b.

    This is the one OR over the placements; the verdicts below and
    ``verify``'s sweep, which ORs each multiset once for all presentations
    of its normal form, read occupancy through it.
    """
    bits = 0
    for loc in placements:
        bits |= 1 << loc.x | 1 << loc.y
    return bits


def _unoccupied(presentation: BaseTuple, occupied: int) -> tuple[int, ...]:
    """Level values of the presentation with no coordinate among ``occupied``."""
    if not presentation.level_bits & ~occupied:
        return ()
    pairs = zip(presentation.level_values, presentation.level_coords)
    return tuple(dict.fromkeys(v for v, c in pairs if not occupied >> c & 1))


def stabilizer_rank(cfg: PointConfiguration) -> int:
    """Dimension of the torus subgroup fixing the normalized configuration.

    One rank for each cut level that no support point touches: the
    corresponding torus factor then acts trivially on the whole support.
    The cuts are the level values of the zero-free presentation.
    """
    return _rank(cfg, occupied_bits(cfg.placements))


def _rank(cfg: PointConfiguration, occupied: int) -> int:
    return (cfg.fibre.canonical_tuple.level_bits & ~occupied).bit_count()


def is_lw_stable(cfg: PointConfiguration) -> bool:
    """Admissible with finite automorphism group."""
    return is_admissible(cfg) and stabilizer_rank(cfg) == 0


def is_ws_stable(cfg: PointConfiguration) -> bool:
    """Every torus level of the presentation is occupied.

    This is the criterion for the existence of a stabilizing linearization;
    see the weight calculus module for the constructive counterpart.
    """
    return not cfg.presentation.level_bits & ~occupied_bits(cfg.placements)


def is_sws_stable(cfg: PointConfiguration) -> bool:
    """Smoothly supported and weakly strictly stable."""
    return is_admissible(cfg) and is_ws_stable(cfg)


def normalize_pair(cfg: PointConfiguration) -> PointConfiguration:
    """Replace the presentation by the zero-free one; points are unchanged."""
    canonical = cfg.fibre.canonical_tuple
    if canonical.exponents == cfg.presentation.exponents:
        return cfg
    return PointConfiguration(cfg.fibre, canonical, cfg.points, cfg.placements)


def stability_report(cfg: PointConfiguration) -> StabilityReport:
    """All verdicts from one admissibility test and one pass over the placements."""
    admissible = is_admissible(cfg)
    occupied = occupied_bits(cfg.placements)
    unoccupied = _unoccupied(cfg.presentation, occupied)
    rank = _rank(cfg, occupied)
    return StabilityReport(
        admissible=admissible,
        stabilizer_rank=rank,
        lw_stable=admissible and rank == 0,
        ws_stable=not unoccupied,
        sws_stable=admissible and not unoccupied,
        unoccupied_levels=unoccupied,
    )
