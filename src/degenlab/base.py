"""Points of the expanded base and their equivalences.

A point of the expanded base over a rank-one valuation is recorded by the
vanishing orders ``(g_1, ..., g_{n+1})`` of its basis directions.  The total
order ``k = sum(g_i)`` is the height of the degeneration.  Two tuples present
the same expanded fibre exactly when they induce the same set of cut levels,
the partial sums ``g_1 + ... + g_j`` that land strictly inside ``(0, k)``.
That set, together with the height, is the canonical normal form.

The equivalences of the moduli construction act on tuples as

* unit insertion (standard embedding): add entries of vanishing order zero,
* slot permutations that relocate vanishing entries while preserving the
  relative order of the others (``tau_move``),
* the torus rescaling, which for closed points makes every unit value
  immaterial once at least one entry vanishes.

All values are immutable; every function here is pure.  So the facts that
a value derives from its fields are computed on first read and kept on it,
through the one rule ``cached``.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import NamedTuple

from .errors import InvalidComparison, InvalidInput

__all__ = [
    "BaseTuple",
    "NormalForm",
    "VanishingPattern",
    "ClosedPoint",
    "make_base_tuple",
    "make_closed_point",
    "normal_form",
    "canonical_tuple",
    "standard_embed",
    "tau_move",
    "equivalent",
    "cached",
]


class cached:
    """A fact of an immutable value, computed on its first read and stored
    in the instance ``__dict__`` under the fact's name.

    The descriptor defines no ``__set__``, so every later read finds the
    stored value in ``__dict__`` and never calls it again.  This is
    ``functools.cached_property`` as Python 3.12 has it.  The 3.11 version
    also takes an ``RLock`` on every first read, and the sweeps of
    ``verify`` make tens of thousands of first reads.  No lock is needed:
    each fact kept this way is a pure function of its value's frozen
    fields, so two threads that both miss compute equal values, and either
    may be kept.  The facts of ``BaseTuple``, ``VanishingPattern`` and
    ``dual_complex.ExpandedFibre`` are kept this way.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def half_level(levels, v: int) -> int:
    """Half-level coordinate of ``levels[0] <= v <= levels[-1]`` among the
    increasing ``levels``: ``2p`` when v is ``levels[p]``, ``2p + 1`` when it
    lies strictly between ``levels[p]`` and ``levels[p + 1]``.

    This is the one rank rule of the library: a presentation's level
    coordinates and the ``x``, ``y`` of a ``Location`` are both read by it.
    """
    p = bisect_left(levels, v)
    return 2 * p if levels[p] == v else 2 * p - 1


class BaseTuple(NamedTuple("BaseTuple", [("exponents", tuple[int, ...])])):
    """Vanishing orders of the basis directions at a valued base point.

    The level facts depend only on the exponents and are computed together,
    on the first read of any of them, by one pass (``_levels``): the level
    values, their half-level coordinates, the coordinate bits and the
    interior cuts, which ``normal_form`` reads.  Each is then kept in the
    instance ``__dict__``, as is the vanishing pattern (see ``cached``);
    equality, hashing and the ``repr`` read the exponents alone.
    """

    @property
    def height(self) -> int:
        return sum(self.exponents)

    @property
    def length(self) -> int:
        return len(self.exponents)

    @cached
    def level_values(self) -> tuple[int, ...]:
        """Partial sums v_1..v_n of the exponents (one per torus factor)."""
        return self._levels()[0]

    @cached
    def level_coords(self) -> tuple[int, ...]:
        """Each level value's half-level coordinate among the levels
        ``(0, *cuts, k)`` of the presented fibre (see ``half_level``)."""
        return self._levels()[1]

    @cached
    def level_bits(self) -> int:
        """Bit c set for each level coordinate c."""
        return self._levels()[2]

    @cached
    def cuts(self) -> tuple[int, ...]:
        """The distinct level values strictly inside ``(0, k)``, increasing:
        the cuts of the normal form."""
        return self._levels()[3]

    def _levels(self) -> tuple[tuple[int, ...], tuple[int, ...], int, tuple[int, ...]]:
        """``(level_values, level_coords, level_bits, cuts)`` in one pass,
        each also stored under its name, so that the first read of any of
        them is the only one that reaches a ``cached`` descriptor.  Each
        level is ranked by one ``half_level`` call."""
        values = tuple(accumulate(self.exponents[:-1]))
        k = self.height
        cuts = tuple(sorted({v for v in values if 0 < v < k}))
        levels = (0, *cuts, k)
        coords = tuple([half_level(levels, v) for v in values])
        bits = 0
        for c in coords:
            bits |= 1 << c
        vars(self).update(level_values=values, level_coords=coords, level_bits=bits, cuts=cuts)
        return values, coords, bits, cuts

    def vanishing_pattern(self) -> VanishingPattern:
        """Which basis directions vanish (1-based indices)."""
        return self._vanishing_pattern

    @cached
    def _vanishing_pattern(self) -> VanishingPattern:
        vanishing = frozenset(i + 1 for i, g in enumerate(self.exponents) if g > 0)
        return tuple.__new__(VanishingPattern, (self.length, vanishing))  # indices in 1..length


class NormalForm(NamedTuple("NormalForm", [("height", int), ("cuts", tuple[int, ...])])):
    """Height plus the strictly increasing cut levels inside ``(0, k)``."""

    __slots__ = ()

    def __new__(cls, height: int, cuts: tuple[int, ...]) -> NormalForm:
        if height < 1:
            raise InvalidInput(f"height must be >= 1, got {height}")
        if list(cuts) != sorted(set(cuts)):
            raise InvalidInput(f"cuts must be strictly increasing: {cuts}")
        if cuts and not (0 < cuts[0] and cuts[-1] < height):
            raise InvalidInput(f"cuts must lie strictly inside (0, {height}): {cuts}")
        return tuple.__new__(cls, (height, cuts))

    @classmethod
    def _make(cls, fields) -> NormalForm:  # checked, and so is ``_replace``
        return cls(*fields)

    def rescale(self, factor: int) -> NormalForm:
        """Finite base change: multiply the height and every cut by ``factor``."""
        if factor < 1:
            raise InvalidInput(f"rescale factor must be >= 1, got {factor}")
        return NormalForm(self.height * factor, tuple(s * factor for s in self.cuts))


class VanishingPattern(
    NamedTuple("VanishingPattern", [("size", int), ("vanishing", frozenset[int])])
):
    """Subset of ``{1, ..., size}`` of basis directions that vanish."""

    def __new__(cls, size: int, vanishing: frozenset[int]) -> VanishingPattern:
        if size < 1:
            raise InvalidInput("pattern size must be >= 1")
        if not vanishing <= frozenset(range(1, size + 1)):
            raise InvalidInput(f"vanishing set {sorted(vanishing)} not within 1..{size}")
        return tuple.__new__(cls, (size, vanishing))

    @classmethod
    def _make(cls, fields) -> VanishingPattern:  # checked, and so is ``_replace``
        return cls(*fields)

    @property
    def base_codimension(self) -> int:
        return len(self.vanishing)

    @cached
    def sign_vectors(self) -> tuple[tuple[int, ...], ...]:
        """The admissible nonzero vectors in {-1, 0, 1}^(size - 1), in
        ``product`` order, listed once per pattern object.

        Inequality i of the chain ``0 >= s_1 >= ... >= s_n >= 0`` holds
        wherever direction i is nonzero (``weights.admissible_1ps``).  It
        links only chain entries i - 1 and i, so the chains grow entry by
        entry from the leading 0, keeping the admitted prefixes.
        """
        chains = [(0,)]
        for i in range(1, self.size + 1):
            steps = (-1, 0, 1) if i < self.size else (0,)  # the trailing 0
            free = i in self.vanishing
            chains = [c + (x,) for c in chains for x in steps if free or c[-1] >= x]
        return tuple(c[1:-1] for c in chains if any(c))


UnitLabel = str | int | Fraction


class ClosedPoint(NamedTuple):
    """A closed base point: each entry is either zero or an abstract unit.

    ``entries[i] is None`` marks a vanishing direction; any other value is an
    opaque unit label.  The label "1" (or the number 1) is the neutral unit
    inserted by standard embeddings.
    """

    entries: tuple[UnitLabel | None, ...]

    @property
    def zero_count(self) -> int:
        return sum(1 for e in self.entries if e is None)

    def unit_product(self) -> tuple[Fraction, tuple[str, ...]]:
        """Formal product of the non-vanishing entries.

        Numeric labels multiply exactly; symbolic labels form a commutative
        word, returned as a sorted tuple.  A product too long for ``str``
        (``sys.get_int_max_str_digits()``) raises InvalidInput at once.
        """
        limit = sys.get_int_max_str_digits()
        numeric = Fraction(1)
        symbols: list[str] = []
        for e in self.entries:
            if e is None:
                continue
            value = _numeric_value(e)
            if value is None:
                symbols.append(e)
                continue
            numeric *= value
            if limit and max(abs(numeric.numerator), numeric.denominator) >= 10**limit:
                raise InvalidInput(f"the unit product has more than {limit} digits")
        return numeric, tuple(sorted(symbols))


_DIGITS = re.compile(r"\d+")


def _numeric_value(label: UnitLabel) -> Fraction | None:
    """The number a unit label denotes, or None for a symbolic label.

    A numeric string whose digits plus decimal exponent exceed
    ``sys.get_int_max_str_digits()`` is refused with InvalidInput before
    ``Fraction`` expands it, which for ``"1e2000000"`` takes seconds.
    """
    if isinstance(label, str):
        try:  # whether a string is a number depends only on where its digits are
            Fraction(_DIGITS.sub("1", label))
        except ValueError:
            return None
        mantissa, _, exponent = label.lower().partition("e")
        exponent = "".join(_DIGITS.findall(exponent)).lstrip("0")
        digits = sum(map(len, _DIGITS.findall(mantissa)))
        limit = sys.get_int_max_str_digits()
        if limit and (len(exponent) > len(str(limit)) or digits + int(exponent or 0) > limit):
            shown = label if len(label) <= 20 else label[:20] + "..."
            raise InvalidInput(f"unit label {shown!r} needs more than {limit} digits")
    return Fraction(label)


def make_base_tuple(exponents: list[int] | tuple[int, ...]) -> BaseTuple:
    """Build a valued base point from its vanishing orders.

    Height zero means no degeneration at all and is rejected.
    """
    exps = tuple(exponents)
    if not exps:
        raise InvalidInput("base tuple needs at least one entry")
    if any(not isinstance(g, int) or g < 0 for g in exps):
        raise InvalidInput(f"exponents must be non-negative integers: {exps}")
    if sum(exps) == 0:
        raise InvalidInput("height 0 means no degeneration")
    return BaseTuple(exps)


def make_closed_point(entries) -> ClosedPoint:
    """Build a closed base point from zero markers and unit labels.

    A numeric label must denote a nonzero number: ``"0"`` and ``"1/0"`` are
    not units.
    """
    parsed: list[UnitLabel | None] = []
    for e in entries:
        if e is None or e == 0:
            parsed.append(None)
        elif isinstance(e, (str, int, Fraction)):
            try:
                value = _numeric_value(e)
            except ZeroDivisionError:
                raise InvalidInput(f"unit label {e!r} has a zero denominator") from None
            if value == 0:
                raise InvalidInput(f"unit label {e!r} is zero, not a unit")
            parsed.append(e)
        else:
            raise InvalidInput(f"entry {e!r} is neither zero nor a unit label")
    if not parsed:
        raise InvalidInput("closed point needs at least one entry")
    return ClosedPoint(tuple(parsed))


def normal_form(t: BaseTuple) -> NormalForm:
    """Canonical form of a valued base point: height and interior cut levels.

    The cuts are the distinct partial sums of the exponents that fall
    strictly between 0 and the height.  Partial sums equal to 0 or k mark
    components that coincide with unexpanded pieces of the fibre, so they do
    not subdivide anything.
    """
    k = t.height
    if k < 1:
        raise InvalidInput("normal form requires height >= 1")
    return tuple.__new__(NormalForm, (k, t.cuts))  # ``cuts`` increase inside (0, k)


def canonical_tuple(nf: NormalForm) -> BaseTuple:
    """The unique zero-free presentation of a normal form.

    Consecutive differences of ``0 < s_1 < ... < s_n < k`` padded to total k.
    """
    levels = (0, *nf.cuts, nf.height)
    return BaseTuple(tuple(b - a for a, b in zip(levels, levels[1:])))


def standard_embed(t: BaseTuple, positions) -> BaseTuple:
    """Insert unit directions (exponent 0) at the given indices.

    ``positions`` are indices into the enlarged tuple; the original entries
    keep their relative order.  The normal form is unchanged.
    """
    given = tuple(positions)
    pos = set(given)
    new_len = t.length + len(pos)
    if len(pos) != len(given):
        raise InvalidInput("insertion positions must be distinct")
    if any(not isinstance(p, int) or p < 0 or p >= new_len for p in pos):
        raise InvalidInput(f"insertion positions {sorted(pos)} invalid for length {new_len}")
    out: list[int] = []
    src = iter(t.exponents)
    for i in range(new_len):
        out.append(0 if i in pos else next(src))
    return BaseTuple(tuple(out))


def tau_move(point: BaseTuple | ClosedPoint, target: frozenset[int], source: frozenset[int]):
    """Relocate the vanishing slots from ``source`` positions to ``target``.

    Defined only on points whose vanishing entries all sit inside ``source``;
    the entry at the l-th position of ``source`` moves to the l-th position
    of ``target`` and the remaining entries fill the complement in order.
    """
    if isinstance(point, BaseTuple):
        entries = point.exponents
        is_unit = [g == 0 for g in entries]
    elif isinstance(point, ClosedPoint):
        entries = point.entries
        is_unit = [e is not None for e in entries]
    else:
        raise InvalidComparison(f"tau_move does not apply to {type(point).__name__}")
    size = len(entries)
    target = frozenset(target)
    source = frozenset(source)
    if len(target) != len(source):
        raise InvalidInput("tau moves require source and target of equal size")
    if not (target <= frozenset(range(1, size + 1)) and source <= frozenset(range(1, size + 1))):
        raise InvalidInput("tau move index sets must live inside 1..n+1")
    for i in range(size):
        if not is_unit[i] and (i + 1) not in source:
            raise InvalidInput(
                f"entry {i + 1} vanishes outside the source set {sorted(source)}"
            )

    def order(subset: frozenset[int]) -> list[int]:  # the subset ascending, then the rest
        return sorted(subset) + [i for i in range(1, size + 1) if i not in subset]

    out = [None] * size
    for t, s in zip(order(target), order(source)):
        out[t - 1] = entries[s - 1]
    return type(point)(tuple(out))


def equivalent(p, q) -> bool:
    """Decide whether two base points present the same expanded fibre.

    Valued points compare by normal form after rescaling to a common height
    (finite base change).  Closed points with at least one vanishing entry
    compare by the number of vanishing entries alone, because slot moves
    relocate zeros freely and the torus is transitive on the remaining unit
    values.  Closed points with no vanishing entry compare by the product of
    their units.
    """
    if isinstance(p, BaseTuple) and isinstance(q, BaseTuple):
        nf_p, nf_q = normal_form(p), normal_form(q)
        common = lcm(nf_p.height, nf_q.height)
        return nf_p.rescale(common // nf_p.height) == nf_q.rescale(common // nf_q.height)
    if isinstance(p, ClosedPoint) and isinstance(q, ClosedPoint):
        zp, zq = p.zero_count, q.zero_count
        if zp >= 1 or zq >= 1:
            return zp == zq
        return p.unit_product() == q.unit_product()
    raise InvalidComparison(
        f"cannot compare {type(p).__name__} with {type(q).__name__}"
    )
