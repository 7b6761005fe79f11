"""Torus weight calculus for point configurations on expanded fibres.

Each torus factor j of a presentation acts on two exceptional charts: the
first-family chart at cut value ``v_j`` (ratio with valuation ``a - v_j``)
and the second-family chart at ``k - v_j`` (valuation ``b - (k - v_j)``).
A point sits on the ``(1:0)`` side of a chart when the ratio valuation is
negative, on the ``(0:1)`` side when it is positive, and on the component
itself when the ratio is a unit.

A one-parameter subgroup ``s = (s_1, ..., s_n)`` has a limit over the base
point exactly when the chain ``0 >= s_1 >= ... >= s_n >= 0`` holds at every
inequality whose basis direction is invertible.  Under the flow, on-component
points fall to the ``(0:1)`` fixpoint of the first-family chart when
``s_j > 0`` and to ``(1:0)`` when ``s_j < 0``; second-family charts move the
opposite way.

The invariant of a configuration against ``s`` splits as

    total(s) = bounded(s) + l * combinatorial(s),

where the combinatorial part sums the lift weights of the line bundle over
the limit positions (per unit of multiplicity: ``-a_j s_j`` at ``(1:0)`` and
``+b_j s_j`` at ``(0:1)`` for the first family, ``+c_j s_j`` and ``-d_j s_j``
for the second), while the bounded part comes from the local monomial
structure and satisfies ``|b_j| <= 2 m^2`` regardless of the lift.  Level j
of the flow reads only the sign of ``s_j``, so ``total(s)`` is the sum of
``s_j (b_j + l c_j)`` with both coefficients read at ``sign(s_j)`` from
per-level sign tables at ``s_j = -1`` and ``s_j = +1``: the bounded one,
``(-d_j, d_j)`` for the scheme degree d_j of level j, so ``bounded(s) =
sum |s_j| d_j``, and the lift's.  The stability test reads one list, the
two tables added at scale l (``_combined``).  The flow itself is defined,
on plain valuations, by the test oracle (``tests/oracles._limit_side``,
``bounded_terms`` and ``combinatorial_terms``).

As in the torus-factor form of the Hilbert–Mumford criterion of
Gulbrandsen–Halle–Hulek, a configuration enters the combinatorial part only
through its ``profile``: the total multiplicity and, per level, the
multiplicity on each side of it.  ``count_sides`` reads every placement
once: ``a`` and ``k - b`` order against a level value exactly as the
``Location``'s half-level coordinates ``x`` and ``y`` order against the
value's coordinate ``2p``.  The constructive lift (``Profile.lift``) and the
sign table (``Profile.lift_table``) are arithmetic over the profile, which
reads no scheme; ``_bounded_table`` alone reads the degrees d_j and
validates the schemes.  Each public function builds one profile, and equal
profiles give equal lifts and tables.

Stability for a fixed lift and scale factor means a strictly positive
invariant for every admissible nonzero subgroup; by piecewise linearity it
suffices to test sign vectors, since every extreme ray of the admissible
chain cone intersected with a sign orthant has entries in {-1, 0, 1}.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .base import VanishingPattern
from .configurations import PointConfiguration, SupportPoint, is_ws_stable
from .dual_complex import Location
from .errors import CriterionViolated, InvalidInput, InvalidLocalScheme, NoLimit

__all__ = [
    "Chart",
    "LevelLift",
    "Linearization",
    "LocalMonomialScheme",
    "Profile",
    "profile",
    "count_sides",
    "admissible_1ps",
    "weight_rows",
    "bounded_weight",
    "hm_invariant",
    "constructive_linearization",
    "is_git_stable",
    "exists_stabilizing_linearization",
    "default_scale",
]


class Chart(str, Enum):
    """The two families of exceptional charts."""

    DELTA1 = "delta1"
    DELTA2 = "delta2"


class LevelLift(NamedTuple):
    """Lift exponents (a, b, c, d) of one torus factor."""

    a: int
    b: int
    c: int
    d: int


class Linearization(NamedTuple("Linearization", [("levels", tuple[LevelLift, ...])])):
    """One lift per torus level; both chart degrees must be positive."""

    __slots__ = ()

    def __new__(cls, levels: tuple[LevelLift, ...]) -> Linearization:
        for lift in levels:
            a, b, c, d = lift
            if a < 0 or b < 0 or c < 0 or d < 0:
                raise InvalidInput(f"lift exponents must be non-negative: {lift}")
            if a + b < 1 or c + d < 1:
                raise InvalidInput(f"each chart of {lift} needs total degree >= 1")
        return tuple.__new__(cls, (levels,))

    @classmethod
    def _make(cls, fields) -> Linearization:  # checked, and so is ``_replace``
        return cls(*fields)


Monomial = tuple[tuple[tuple[int, Chart], int], ...]


def _normalize_monomial(data: Mapping | Monomial) -> Monomial:
    items = data.items() if isinstance(data, Mapping) else data
    out = []
    for key, exp in items:
        level, chart = key
        chart = Chart(chart)
        if exp < 0:
            raise InvalidInput(f"monomial exponent must be >= 0, got {exp}")
        if exp > 0:
            out.append(((int(level), chart), int(exp)))
    return tuple(sorted(out))


class LocalMonomialScheme(NamedTuple):
    """Monomial model of the local structure at a fat point.

    The coordinate ring of a length-r local scheme is spanned by r monomials
    in the chart coordinates through the point, one of which is constant and
    each of degree at most r.
    """

    monomials: tuple[Monomial, ...]

    @staticmethod
    def of(monomials: Sequence[Mapping | Monomial]) -> LocalMonomialScheme:
        return LocalMonomialScheme(tuple(_normalize_monomial(m) for m in monomials))


def admissible_1ps(pattern: VanishingPattern, s: Sequence[int]) -> bool:
    """Does the subgroup have a limit over a point with this vanishing set?

    Inequality i of the chain ``0 >= s_1 >= ... >= s_n >= 0`` is enforced
    exactly when basis direction i is nonzero.
    """
    n = pattern.size - 1
    if len(s) != n:
        raise InvalidInput(f"expected {n} weights for size {pattern.size}, got {len(s)}")
    chain = (0, *s, 0)
    return all(
        chain[i - 1] >= chain[i]
        for i in range(1, pattern.size + 1)
        if i not in pattern.vanishing
    )


def _check_limit(cfg: PointConfiguration, s: Sequence[int]) -> None:
    if not admissible_1ps(cfg.presentation.vanishing_pattern(), s):
        raise NoLimit(f"subgroup {tuple(s)} has no limit over {cfg.presentation.exponents}")


class Profile(NamedTuple):
    """A configuration as the weight calculus reads it, built by ``profile``.

    ``m`` is the total multiplicity and ``sides[j] = (lt, eq1, gt, eq2)``
    the multiplicities with ``x < c``, ``x = c``, ``y > c`` and ``y = c``
    at the coordinate c of level j.
    """

    m: int
    sides: tuple[tuple[int, int, int, int], ...]

    def lift(self, level_values: Sequence[int]) -> Linearization:
        """The constructive lift of ``constructive_linearization``, which
        names an unoccupied level by its value in ``level_values``.

        Its table entries at level j have the signs that stability needs,
        one level at a time.  They read only (m, lt, eq1, gt, eq2) at level
        j, and every point has x <= y (a <= k - b).  In the ``eq1`` branch,
        with the lift ``(m (m - lt), m (lt + 1), 0, 1)``,

            neg_j = m ((m - lt) - eq1 (m + 1)) - (m - gt) <= -m (lt + 1) < 0,
            pos_j = m (m - lt) - (m - gt - eq2) >= m - (m - 1) > 0:

        eq1 >= 1 and gt <= m bound neg_j; m - lt >= eq1 >= 1, and m - gt -
        eq2 counts the points with y < c, which miss the eq1 points at x = c
        (their y >= c).  In the mirror ``eq2`` branch (eq1 = 0), with the
        lift ``(0, 1, m (m - gt), m (gt + 1))``,

            neg_j = (m - lt) - m (m - gt) <= (m - 1) - m < 0,
            pos_j = (m - lt) + m (m - gt) (eq2 - 1) + m (gt + 1) eq2 >= m > 0:

        the eq2 >= 1 points at y = c have x < c, so lt >= 1, and m - gt >=
        eq2 >= 1.  So every nonzero s_j adds a positive combinatorial term,
        and with the bounded part's ``s_j b_j = |s_j| d_j >= 0`` the lift is
        stable at every scale l >= 1 and every number of levels.  Criterion 4
        (``verify.check_stability_equivalence``) checks these signs over its
        sweep.
        """
        m = self.m
        new = tuple.__new__  # as ``LevelLift._make``, minus its checks
        lifts = []
        for (lt, eq1, gt, eq2), v in zip(self.sides, level_values):
            if eq1:
                lifts.append(new(LevelLift, (m * (m - lt), m * (lt + 1), 0, 1)))
            elif eq2:
                lifts.append(new(LevelLift, (0, 1, m * (m - gt), m * (gt + 1))))
            else:
                raise CriterionViolated(
                    f"no point of the support occupies the level at cut value {v}"
                )
        # valid as built: non-negative exponents, and each chart has degree
        # m (m + 1) or 1, with m >= eq1 + eq2 >= 1
        return tuple.__new__(Linearization, (tuple(lifts),))

    def lift_table(self, lin: Linearization) -> list[tuple[int, int]]:
        """Combinatorial sign table ``(c_j at s_j = -1, c_j at s_j = +1)``.

        The flow is defined by ``tests/oracles._limit_side``: level j sends a
        point to a fixpoint of each chart by its side and the sign of s_j, so
        ``table[j]`` is ``(-t, t')`` for the oracle's ``combinatorial_terms``
        t at s_j = -1 and t' at s_j = +1.  At level coordinate c, the
        first-family chart is at (1:0) when ``x <= c`` for s_j = -1 and when
        ``x < c`` for s_j = +1; the second-family chart is at (1:0) when
        ``y > c`` and when ``y >= c``.  So with the lift ``(a, b, c, d)``,

            neg_j = -a (lt + eq1) + b (m - lt - eq1) + c gt - d (m - gt),
            pos_j = -a lt + b (m - lt) + c (gt + eq2) - d (m - gt - eq2).
        """
        if len(lin.levels) != len(self.sides):
            raise InvalidInput(
                f"linearization has {len(lin.levels)} levels, presentation needs {len(self.sides)}"
            )
        m = self.m
        table = []
        for (lt, eq1, gt, eq2), (lift_a, lift_b, lift_c, lift_d) in zip(self.sides, lin.levels):
            below, above = lt + eq1, gt + eq2
            table.append((
                -lift_a * below + lift_b * (m - below) + lift_c * gt - lift_d * (m - gt),
                -lift_a * lt + lift_b * (m - lt) + lift_c * above - lift_d * (m - above),
            ))
        return table


def profile(cfg: PointConfiguration) -> Profile:
    """The configuration's ``Profile``: its ``count_sides`` at the level
    coordinates of its presentation.  No scheme is read."""
    counts = count_sides(cfg.points, cfg.placements, cfg.presentation.level_coords)
    return tuple.__new__(Profile, counts)  # as ``Profile._make``


def count_sides(
    points: Sequence[SupportPoint], placements: Sequence[Location], coords: Iterable[int]
) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
    """``(m, sides)`` from one read of each placement: the total
    multiplicity and, per coordinate c of ``coords``, the multiplicities
    ``(lt, eq1, gt, eq2)`` with ``x < c``, ``x = c``, ``y > c`` and ``y = c``.

    This is where the lift and its table compare a point's half-level
    coordinates with a level.  ``profile`` counts at a presentation's
    level coordinates; ``verify`` counts a multiset once at every level
    coordinate of its normal form and selects each presentation's from
    those.
    """
    m = 0
    placed = []
    for p, loc in zip(points, placements):
        mult = p.multiplicity
        m += mult
        placed.append((loc.x, loc.y, mult))
    sides = []
    for c in coords:
        lt = eq1 = gt = eq2 = 0
        for x, y, mult in placed:
            if x < c:
                lt += mult
            elif x == c:
                eq1 += mult
            if y > c:
                gt += mult
            elif y == c:
                eq2 += mult
        sides.append((lt, eq1, gt, eq2))
    return m, tuple(sides)


def _bounded_table(cfg: PointConfiguration) -> list[tuple[int, int]]:
    """Bounded sign table ``(b_j at s_j = -1, b_j at s_j = +1)``, the one
    place schemes are validated and b_j's sign is set.

    A nontrivial scheme sits at a vertex and uses only charts through its
    point, which flows to the side where the chart coordinate has weight
    sign(s_j): each exponent at level j adds sign(s_j) to b_j, so the entry
    is ``(-d_j, d_j)`` for the scheme degree d_j of level j.
    """
    coords = cfg.presentation.level_coords
    degrees = [0] * len(coords)
    for p, loc in zip(cfg.points, cfg.placements):
        scheme = p.scheme
        if scheme is None:
            continue
        if not isinstance(scheme, LocalMonomialScheme):
            raise InvalidLocalScheme(f"unsupported local scheme {scheme!r}")
        monomials = scheme.monomials
        if len(monomials) != p.multiplicity:
            raise InvalidLocalScheme(
                f"scheme has {len(monomials)} monomials but the point has "
                f"multiplicity {p.multiplicity}"
            )
        if () not in monomials:
            raise InvalidLocalScheme("the constant monomial is required")
        for mono in monomials:
            if sum(e for _, e in mono) > p.multiplicity:
                shown = json.dumps([[level, chart.value, exp] for (level, chart), exp in mono])
                raise InvalidLocalScheme(f"monomial degree exceeds the multiplicity: {shown}")
        if any(monomials) and not loc.is_vertex:
            raise InvalidLocalScheme("a nontrivial local scheme must sit at a torus fixpoint")
        for mono in monomials:
            for (level, chart), exp in mono:
                if not 1 <= level <= len(coords):
                    raise InvalidLocalScheme(f"level {level} out of range")
                j = level - 1
                if (loc.x if chart is Chart.DELTA1 else loc.y) != coords[j]:
                    raise InvalidLocalScheme(
                        f"monomial uses chart ({level}, {chart.value}) but the "
                        f"point {p.valuations} is not on that component"
                    )
                degrees[j] += exp
    return [(-d, d) for d in degrees]


def bounded_weight(
    cfg: PointConfiguration, s: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Scheme-structure part of the invariant, with its level coefficients.

    Returns ``(value, (b_1, ..., b_n))`` with ``value = sum b_j s_j``; b_j is
    zero where s_j is.
    """
    _check_limit(cfg, s)
    coeffs = tuple(pair[s_j > 0] if s_j else 0 for pair, s_j in zip(_bounded_table(cfg), s))
    return sum(b * s_j for b, s_j in zip(coeffs, s)), coeffs


def weight_rows(
    cfg: PointConfiguration, lin: Linearization, subgroups: Sequence[Sequence[int]] | None = None
) -> list[tuple[Sequence[int], int, int]]:
    """``(s, bounded, combinatorial)`` per subgroup, read from two sign tables.

    Subgroups default to every admissible sign vector.  Checks run in order:
    the subgroups, the local schemes, the lift.
    """
    if subgroups is None:
        subgroups = cfg.presentation.vanishing_pattern().sign_vectors
    else:
        for s in subgroups:
            _check_limit(cfg, s)
    bounded, table = _bounded_table(cfg), profile(cfg).lift_table(lin)
    return [(s, sum([s_j * pair[s_j > 0] for pair, s_j in zip(bounded, s)]),
             sum([s_j * pair[s_j > 0] for pair, s_j in zip(table, s)])) for s in subgroups]


def hm_invariant(
    cfg: PointConfiguration, s: Sequence[int], lin: Linearization, l: int
) -> int:
    """Full invariant ``bounded + l * combinatorial`` at scale factor l.

    Checks run in order: the scale, the subgroup, the local schemes, the lift.
    """
    if l < 1:
        raise InvalidInput(f"scale factor must be >= 1, got {l}")
    [(_, bounded, combinatorial)] = weight_rows(cfg, lin, [s])
    return bounded + l * combinatorial


def default_scale(m: int) -> int:
    """Smallest scale factor guaranteed to dominate the bounded weight."""
    return 2 * m * m + 1


def constructive_linearization(cfg: PointConfiguration) -> Linearization:
    """Lift exponents with per-level strictly positive combinatorial weight.

    For each level: if some point sits on the first-family component, weight
    that chart by ``(m(m - m'), m(m' + 1))`` where m' is the multiplicity
    strictly on its (1:0) side, and give the second chart the neutral pair
    (0, 1).  Otherwise a point must sit on the second-family component;
    mirror the construction with m'' the multiplicity on its (1:0) side.
    Both are read from the configuration's ``profile``: m' is the ``x < c``
    count, m'' the ``y > c`` count, and a point sits on a component when
    its ``=`` count is positive.  No scheme is read.

    Level values never decrease, so the first level that no point occupies
    names the smallest unoccupied value, and ``CriterionViolated`` names it.
    """
    return profile(cfg).lift(cfg.presentation.level_values)


def is_git_stable(cfg: PointConfiguration, lin: Linearization, l: int) -> bool:
    """Strict positivity of the invariant on every admissible sign vector.

    Exact for all integer subgroups: the invariant is linear on each sign
    orthant of the admissible cone, whose extreme rays have entries in
    {-1, 0, 1}.  The combined table is built, and the schemes validated,
    once, even when no sign vector is admissible; the sign vectors are kept
    on the presentation's vanishing pattern.
    """
    if l < 1:
        raise InvalidInput(f"scale factor must be >= 1, got {l}")
    return _stable(cfg, _combined(_bounded_table(cfg), profile(cfg).lift_table(lin), l))


def _combined(
    bounded: list[tuple[int, int]], table: list[tuple[int, int]], l: int
) -> list[tuple[int, int]]:
    """``(b_neg + l c_neg, b_pos + l c_pos)``: s_j's coefficient at -1 and +1."""
    return [(b_neg + l * c_neg, b_pos + l * c_pos)
            for (b_neg, b_pos), (c_neg, c_pos) in zip(bounded, table)]


def _stable(cfg: PointConfiguration, terms: list[tuple[int, int]]) -> bool:
    """The sign-vector loop: is ``sum s_j t_j``, with t_j read from the
    combined table at sign(s_j), positive at every admissible sign vector?"""
    for s in cfg.presentation.vanishing_pattern().sign_vectors:
        total = 0
        for pair, s_j in zip(terms, s):
            if s_j:
                total += s_j * pair[s_j > 0]
        if total <= 0:
            return False
    return True


def exists_stabilizing_linearization(
    cfg: PointConfiguration,
) -> Linearization | None:
    """The constructive lift when every level is occupied, else None.

    Occupancy is tested first, by ``is_ws_stable``, so an unoccupied
    configuration builds no lift and raises nothing; then the lift is built
    from one profile, and the schemes are validated (``_bounded_table``).
    The lift is stable at ``default_scale(m)``, so it is not checked here.
    A valid scheme has ``mult_p`` monomials of degree at most ``mult_p``, so
    ``d_j <= sum mult_p^2 <= m^2 < 2 m^2 + 1``, and by the lemma of
    ``Profile.lift`` each c_j has its stabilizing sign and ``|c_j| >= 1``:
    each level's term ``+-d_j + l c_j`` has c_j's sign under either sign of
    b_j.  Criterion 4 (``verify.check_stability_equivalence``) checks the
    table's signs over its sweep, and a property test checks stability
    with schemes.
    """
    if not is_ws_stable(cfg):
        return None
    lin = profile(cfg).lift(cfg.presentation.level_values)
    _bounded_table(cfg)
    return lin
