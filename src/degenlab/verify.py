"""Exhaustive invariant suites over small instances.

Each check sweeps a finite family and returns a result record; the command
line prints one line per suite and the test suite asserts on them.  The
enumerations here are deliberately brute force so they can serve as oracles
for the constructive algorithms.

The three configuration suites sweep presentations in the outer loop.  The
presentations of each height and length are the compositions of the height,
listed by stars and bars (``presentations``) and built without re-checking,
since each is valid by construction.  The weighted point multisets are
listed once per height, from one shared ``SupportPoint`` per (position,
multiplicity).  The expanded fibre, and so the location of every point,
depends only on the normal form: per normal form, one ``place`` call locates
the shared multiplicity-one points, one per triangle position, with their
half-level coordinates, and each multiset's placements tuple is built once
and shared by every presentation of that normal form (``_Placed``).  So is
what the suites read of a placements tuple: its occupied coordinates, from
one ``occupied_bits``, and, counted on first need, its ``count_sides`` at
every level coordinate of the normal form.  On a presentation, occupancy
is one int test against its ``level_bits`` and the profile is the counts
at its ``level_coords``, selected by one ``operator.itemgetter`` per
presentation (``_at``).  What the presentation itself reads is kept on its
``BaseTuple`` (``base.cached``): the level values and coordinates, the
level bits and the cuts of its normal form, from one pass, the vanishing
pattern with its admissible sign vectors (read by the stability test and
by positivity) and the zero-free tuple that ``normalize_pair`` and
``stabilizer_rank`` read.  The presentations alone outlive a suite call:
the module keeps a table of the presentations of each height, each with
its normal form (``_presented``), listed when a sweep first reaches that
height and kept, with the facts cached on each ``BaseTuple``, for the life
of the process.  It holds inputs only, and a stated number of them: after
sweeps with caps up to K, exactly C(K + 5, 4) - 5 rows, 121 at K = 4 and
205 at the command line's largest cap, 5.  Everything else a suite reads
or decides, each ``_Placed``, lift and verdict, is built again by every
call.  A
``PointConfiguration`` is built only where a library verdict takes one or
a failure names one.

A verdict runs once per value of what it reads, at the first configuration
in sweep order that has that value, and the later configurations read the
stored result; so a verdict that fails, fails at the same configuration as
when every configuration computed it.  The swept points carry no local
scheme, so the constructive lift, its sign table and, in
stability-equivalence, the per-level stability re-check read a
configuration only through its profile: stability-equivalence runs them
once per profile over the whole suite, whatever the presentation.
Positivity also reads the admissible sign vectors of its presentation's
vanishing pattern, so it runs them once per (vanishing pattern, profile).
On an unoccupied configuration ``exists_stabilizing_linearization`` reads only
occupancy, so it runs once per (presentation, occupied coordinates).
Li–Wu stability reads only the fibre and the points, so the bijection suite
decides it, normalizes and compares once per (normal form, multiset), on
the normal form's zero-free presentation, where it also reads the verdict,
and the stratum of each one-point multiset, off the valuations by the line
rules; a presentation with a unit slot tests only that the zero-free level
bits are among its own, so that strict stability there implies Li–Wu
stability.  Every verdict over the placements is a plain loop, with no
generator frame per point or per configuration.  The limit oracle tests
the set of levels hit by the points and each one-level removal of it, so
its cost grows with the number of those levels, not with the number of cut
sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, repeat
from operator import itemgetter
from typing import Iterator

from .base import BaseTuple, NormalForm, normal_form, tau_move
from .configurations import (
    PointConfiguration,
    SupportPoint,
    is_lw_stable,
    is_sws_stable,
    normalize_pair,
    occupied_bits,
    place,
)
from .dual_complex import build_fibre, complex_counts
from .errors import DegenLabError
from .limits import _on_vertices, flat_limit, unique_stable_subdivision_oracle
from .weights import Profile, count_sides, exists_stabilizing_linearization

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

MAX_LENGTH = 4  # the configuration suites' presentations: up to three torus levels


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
                    vanish = frozenset([i + 1 for i, g in enumerate(moved.exponents) if g > 0])
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


def weighted_configurations(k: int, max_m: int) -> list[tuple[SupportPoint, ...]]:
    """All weighted point multisets of total multiplicity 0..max_m.

    For each m, the multisets of m triangle positions come in the order of
    ``combinations_with_replacement``, each position once, in order, with
    its count.  Each (position, multiplicity) is one ``SupportPoint``,
    shared by every multiset that holds it.
    """
    return _weighted(k, max_m)[1]


def _weighted(k: int, max_m: int) -> tuple[list[SupportPoint], list[tuple[SupportPoint, ...]]]:
    """The multiplicity-one point at every triangle position, and
    ``weighted_configurations(k, max_m)`` built from the same points."""
    positions = triangle_positions(k)
    shared = [[SupportPoint(pos, mult) for mult in range(1, max(max_m, 1) + 1)] for pos in positions]
    multisets = [()]
    for m in range(1, max_m + 1):
        for combo in combinations_with_replacement(range(len(positions)), m):
            multisets.append(tuple([shared[i][combo.count(i) - 1] for i in dict.fromkeys(combo)]))
    return [points[0] for points in shared], multisets


def presentations(max_k: int) -> Iterator[BaseTuple]:
    """All base tuples of height 1..max_k and length 1..MAX_LENGTH: by
    height, then by length, the compositions in lexicographic order."""
    for k in range(1, max_k + 1):
        yield from _of_height(k)


def _of_height(k: int) -> Iterator[BaseTuple]:
    """The base tuples of height k in ``presentations`` order.

    The compositions of k into n parts are, by stars and bars, the gaps
    around n - 1 bars placed among k + n - 1 slots, and ``combinations``
    lists the bars in the same order.  Each is valid by construction, so the
    tuple is built without ``make_base_tuple``'s checks.
    """
    for length in range(1, MAX_LENGTH + 1):
        slots = k + length - 1
        for bars in combinations(range(slots), length - 1):
            yield BaseTuple(tuple([b - a - 1 for a, b in zip((-1, *bars), (*bars, slots))]))


# entry k - 1: the (presentation, normal form) rows of height k
_PRESENTED: list[tuple[tuple[BaseTuple, NormalForm], ...]] = []


def _presented(max_k: int) -> list[tuple[tuple[BaseTuple, NormalForm], ...]]:
    """The rows of heights 1..max_k, one tuple per height: each presentation
    of ``presentations(max_k)`` with its normal form, in that order.

    A height is listed by the first call that reaches it and kept for the
    life of the process, so after calls with caps up to K the table holds
    the C(K + 5, 4) - 5 presentations of height at most K: the compositions
    of k into at most four parts number C(k + 4, 3).  A height is stored by
    a slice, so that a thread that listed the same height first has its
    equal rows replaced, not followed by a second copy.
    """
    for k in range(len(_PRESENTED) + 1, max_k + 1):
        _PRESENTED[k - 1:k] = [tuple([(p, normal_form(p)) for p in _of_height(k)])]
    return _PRESENTED[:max_k]


def check_limit_oracle(max_k: int = 6, max_m: int = 3) -> SuiteResult:
    """The uniqueness oracle, decided by minimality, finds exactly the
    direct limit construction's subdivision on every nonempty multiset of
    ``weighted_configurations``."""
    checked = 0
    for k in range(1, max_k + 1):
        for points in weighted_configurations(k, max_m):
            if not points:
                continue
            report = flat_limit(points, k)
            winners = unique_stable_subdivision_oracle(points, k)
            if winners != [report.fibre.nf]:
                problem = f"oracle {winners}, limit {report.fibre.nf}"
            elif not report.stability.sws_stable or not report.stability.lw_stable:
                problem = "limit not stable"
            else:
                checked += 1
                continue
            shown = [(p.valuations, p.multiplicity) for p in points]
            return SuiteResult("limit-oracle", False, f"k={k} points={shown}: {problem}")
    return SuiteResult(
        "limit-oracle", True, f"{checked} point multisets, k <= {max_k}, m <= {max_m}"
    )


class _Placed:
    """The multisets of one height as every presentation of one normal
    form reads them.

    ``place`` locates every triangle position once, and ``placements[i]``,
    the locations of multiset i, is read from that one placement.  Beside
    it, ``bits[i]`` is its ``occupied_bits`` and ``counts[i]`` its
    ``count_sides`` at every level coordinate of the normal form, ``0, 2,
    ..., 2n + 2``, counted on first need.  On a presentation, multiset i is
    occupied when ``level_bits & ~bits[i]`` is 0, and its profile is
    ``counts[i]`` with the sides at the presentation's ``level_coords``
    selected by its ``_at`` (``key``).
    """

    __slots__ = ("fibre", "multisets", "placements", "bits", "counts", "coords")

    def __init__(
        self, nf: NormalForm, multisets: list[tuple[SupportPoint, ...]], every_point
    ) -> None:
        fibre, _, points, locations = place(nf, every_point)
        where = dict(zip((p.valuations for p in points), locations))
        self.fibre = fibre
        self.multisets = multisets
        self.placements = tuple(
            [tuple([where[p.valuations] for p in points]) for points in multisets]
        )
        self.bits = [occupied_bits(placements) for placements in self.placements]
        self.counts: list[tuple[int, tuple] | None] = [None] * len(multisets)
        self.coords = range(0, 2 * len(nf.cuts) + 3, 2)

    def key(self, i: int, select: itemgetter) -> tuple[int, tuple]:
        """The profile of multiset i on a presentation whose ``_at`` is
        ``select``, as a plain ``(m, sides)`` tuple, which equals and hashes
        as the ``Profile``."""
        counts = self.counts[i]
        if counts is None:
            counts = self.counts[i] = count_sides(
                self.multisets[i], self.placements[i], self.coords
            )
        return counts[0], select(counts[1])

    def config(self, presentation: BaseTuple, i: int) -> PointConfiguration:
        """Multiset i on the presentation, equal to ``place(presentation, points)``."""
        fields = (self.fibre, presentation, self.multisets[i], self.placements[i])
        return tuple.__new__(PointConfiguration, fields)  # as ``_make``, minus its checks

    def configs(self, presentation: BaseTuple) -> Iterator[PointConfiguration]:
        """Every multiset on the presentation, one tuple per configuration built in C."""
        fields = zip(repeat(self.fibre), repeat(presentation), self.multisets, self.placements)
        return map(tuple.__new__, repeat(PointConfiguration), fields)


def _sweep(max_k: int, max_m: int) -> Iterator[tuple[BaseTuple, _Placed]]:
    """Every presentation with its normal form's ``_Placed`` multisets.

    The presentations and their normal forms are the table's rows
    (``_presented``).  Per height, the weighted multisets are listed once,
    and ``place`` locates the same multiplicity-one points that they share;
    per normal form, one ``_Placed`` is built and shared by every
    presentation of it.
    """
    for k, rows in enumerate(_presented(max_k), 1):
        every_point, multisets = _weighted(k, max_m)
        placed: dict[NormalForm, _Placed] = {}
        for presentation, nf in rows:
            shared = placed.get(nf)
            if shared is None:
                shared = placed[nf] = _Placed(nf, multisets, every_point)
            yield presentation, shared


def _at(presentation: BaseTuple) -> itemgetter:
    """Selects the sides at the presentation's level coordinates from a
    multiset's sides in ``_Placed.counts``, as a tuple: one ``itemgetter``,
    over a slice when there are fewer than two levels (``itemgetter(j)``
    would give the item itself, and ``itemgetter()`` is refused)."""
    at = [c >> 1 for c in presentation.level_coords]
    if len(at) >= 2:
        return itemgetter(*at)
    return itemgetter(slice(at[0], at[0] + 1) if at else slice(0))


def _config_failure(name: str, cfg: PointConfiguration, problem: str) -> SuiteResult:
    """A failed suite that names the configuration it failed on."""
    return SuiteResult(
        name,
        False,
        f"presentation {cfg.presentation.exponents} points "
        f"{[p.valuations for p in cfg.points]}: {problem}",
    )


def check_stability_equivalence(max_k: int = 5, max_m: int = 3) -> SuiteResult:
    """A stabilizing lift exists exactly when every level is occupied.

    ``exists_stabilizing_linearization`` is called on the first occupied
    configuration of each profile over the whole sweep, whose lift every
    later occupied configuration with that profile reuses, on any
    presentation: the swept points carry no scheme, so the lift and its
    per-level re-check read nothing else.  On an unoccupied
    configuration it reads only occupancy, so it is called once per
    (presentation, occupied bits).  A lift that fails its re-verification
    at the dominating scale, or any other ``DegenLabError``, fails the
    suite at that configuration: the first of its group, so the first in
    sweep order to fail.
    """
    checked = 0
    lifts = {}  # profile -> its lift
    for presentation, placed in _sweep(max_k, max_m):
        level_bits, select = presentation.level_bits, _at(presentation)
        unoccupied = {}  # occupied bits -> None, on this presentation
        for i, bits in enumerate(placed.bits):
            occupied = not level_bits & ~bits
            if occupied:
                key, known = placed.key(i, select), lifts
            else:
                key, known = bits, unoccupied
            if key not in known:
                cfg = placed.config(presentation, i)
                try:
                    lin = exists_stabilizing_linearization(cfg)
                except DegenLabError as exc:
                    return _config_failure("stability-equivalence", cfg, str(exc))
                if (lin is not None) != occupied:
                    found = "found" if lin else "missing"
                    return _config_failure(
                        "stability-equivalence", cfg,
                        f"occupancy {occupied} but linearization {found}",
                    )
                known[key] = lin
            checked += 1
    return SuiteResult(
        "stability-equivalence",
        True,
        f"{checked} configurations, k <= {max_k}, m <= {max_m}",
    )


def check_positivity(max_k: int = 5, max_m: int = 3) -> SuiteResult:
    """Per-level terms of the constructive weight are positive off zero.

    The term of s at level j is ``s_j * table[j][s_j > 0]``, so each (level,
    sign) entry that some admissible s uses is checked once per table; a
    failure names the first s that uses a failing entry.  The entries are
    listed once per vanishing pattern.  The lift and its table are built
    from one ``Profile`` and checked once per (vanishing pattern, profile)
    over the whole sweep, at its first occupied configuration, and every
    occupied configuration counts its ``len(signs)`` pairs.  A
    ``DegenLabError`` from the constructive lift fails the suite at the
    first configuration of its group.
    """
    checked = 0
    patterns = {}  # vanishing pattern -> (its entries, len(signs), profiles that pass)
    for presentation, placed in _sweep(max_k, max_m):
        pattern = presentation.vanishing_pattern()
        if pattern not in patterns:
            signs = pattern.sign_vectors
            first_use: dict[tuple[int, int], tuple[int, ...]] = {}
            for s in signs:
                for j, s_j in enumerate(s):
                    if s_j:
                        first_use.setdefault((j, s_j), s)
            entries = [(j, s_j, s) for (j, s_j), s in first_use.items()]
            patterns[pattern] = entries, len(signs), set()
        entries, pairs, passed = patterns[pattern]
        level_bits, select = presentation.level_bits, _at(presentation)
        for i, bits in enumerate(placed.bits):
            if level_bits & ~bits:
                continue
            key = placed.key(i, select)
            if key in passed:
                checked += pairs
                continue
            profile = Profile(*key)
            try:
                table = profile.lift_table(profile.lift(presentation.level_values))
            except DegenLabError as exc:
                return _config_failure("positivity", placed.config(presentation, i), str(exc))
            for j, s_j, s in entries:
                term = s_j * table[j][s_j > 0]
                if term <= 0:
                    return SuiteResult(
                        "positivity",
                        False,
                        f"presentation {presentation.exponents} points "
                        f"{[p.valuations for p in placed.multisets[i]]} s={s}: "
                        f"level {j + 1} term {term}",
                    )
            passed.add(key)
            checked += pairs
    return SuiteResult("positivity", True, f"{checked} (configuration, s) pairs")


def check_bijection(max_k: int = 5, max_m: int = 3) -> SuiteResult:
    """Finite-automorphism stability matches normalized strict stability.

    Li–Wu stability reads only the fibre and the points, so when the sweep
    first meets a normal form, ``is_lw_stable``, ``normalize_pair`` and the
    comparison with the normalized ``is_sws_stable`` run once per multiset, on
    the normal form's zero-free presentation.  There Li–Wu stability is also
    decided from the valuations alone, by the line rules of the limit oracle:
    every point on two or more lines, and every cut some point's a or k - b.
    By the same lines, the placement of each one-point multiset there is a
    vertex on two or more, an edge on one and a cell on none.  Strict
    stability is admissibility with the presentation's level bits occupied,
    and Li–Wu stability the same with the zero-free presentation's bits, so on
    a presentation with a unit slot strict stability implies Li–Wu stability
    when the zero-free bits are among its own: one bit test per presentation.
    The zero-free presentations are counted per normal form as the sweep goes;
    each must have one.
    """
    checked, height = 0, 0
    zero_free: dict[NormalForm, int] = {}  # normal form -> its zero-free presentations
    for presentation, placed in _sweep(max_k, max_m):
        if presentation.height != height:
            height = presentation.height
            valuations = [[p.valuations for p in points] for points in placed.multisets]
            hits = [{a for a, _, _ in v} | {height - b for _, b, _ in v} for v in valuations]
        nf, canonical = placed.fibre.nf, placed.fibre.canonical_tuple
        if nf not in zero_free:
            zero_free[nf] = 0
            cuts = set(nf.cuts)
            for i, cfg in enumerate(placed.configs(canonical)):
                lw = is_lw_stable(cfg)
                sws_normalized = is_sws_stable(normalize_pair(cfg))
                if lw != sws_normalized:
                    return _config_failure(
                        "bijection", cfg, f"lw={lw} normalized sws={sws_normalized}"
                    )
                by_lines = cuts <= hits[i] and _on_vertices(valuations[i], height, cuts)
                if lw != by_lines:
                    return _config_failure(
                        "bijection", cfg, f"lw={lw} by the line rules={by_lines}"
                    )
                if len(valuations[i]) == 1:
                    (a, b, c), = valuations[i]
                    lines = (a == 0) + (b == 0) + (c == 0) + (a in cuts) + (height - b in cuts)
                    stratum = "vertex" if lines >= 2 else "edge" if lines else "cell"
                    if cfg.placements[0].stratum != stratum:
                        return _config_failure(
                            "bijection", cfg,
                            f"placed on a {cfg.placements[0].stratum}, on {lines} lines",
                        )
        if 0 not in presentation.exponents:
            zero_free[nf] += 1
        elif canonical.level_bits & ~presentation.level_bits:
            return SuiteResult("bijection", False, f"sws without lw at {presentation.exponents}")
        checked += len(placed.multisets)
    bad = {nf: c for nf, c in zero_free.items() if c != 1}
    if bad:
        return SuiteResult(
            "bijection", False, f"classes without a unique zero-free presentation: {bad}"
        )
    return SuiteResult(
        "bijection", True, f"{checked} configurations over {len(zero_free)} classes"
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
