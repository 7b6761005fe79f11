"""Independent computations that every benchmark operation is checked against.

Nothing here imports ``degenlab``.  Each function recomputes, from the
generated inputs alone, a quantity the paper's constructions fix: the cut
levels of a flat limit, the lines of the subdivision through a point, the
closed-form cell counts, the occupancy of torus levels, the chain condition
on one-parameter subgroups and the sizes of the exhaustive ``verify``
families.  A check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb


SUITES = (
    "counts", "tau_fixpoints", "limit_oracle",
    "stability_equivalence", "positivity", "bijection",
)


class CheckFailed(Exception):
    """An operation's output contradicts the benchmark's own computation."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# --- base points --------------------------------------------------------------

def partial_sums(exponents) -> tuple[int, ...]:
    """Level values v_1..v_n: the partial sums g_1 + ... + g_j for j <= n."""
    out, acc = [], 0
    for g in exponents[:-1]:
        acc += g
        out.append(acc)
    return tuple(out)


def interior_cuts(exponents) -> tuple[int, ...]:
    """The distinct partial sums strictly inside (0, k)."""
    k = sum(exponents)
    return tuple(sorted({v for v in partial_sums(exponents) if 0 < v < k}))


def chain_admissible(exponents, s) -> bool:
    """The chain 0 >= s_1 >= ... >= s_n >= 0, one inequality per unit entry.

    Inequality i is imposed exactly when the i-th basis direction does not
    vanish, i.e. when its exponent is zero.
    """
    chain = (0, *s, 0)
    for i, g in enumerate(exponents, start=1):
        if g == 0 and chain[i - 1] < chain[i]:
            return False
    return True


def admissible_sign_count(exponents) -> int:
    """Nonzero sign vectors in {-1, 0, 1}^n satisfying the chain."""
    n = len(exponents) - 1
    return sum(
        1 for s in product((-1, 0, 1), repeat=n)
        if any(s) and chain_admissible(exponents, s)
    )


# --- the subdivided triangle --------------------------------------------------

def limit_levels(valuations, k: int) -> tuple[int, ...]:
    """Level values of the flat limit's presentation: every a and every k - b."""
    return tuple(sorted({a for a, _, _ in valuations} | {k - b for _, b, _ in valuations}))


def limit_cuts(valuations, k: int) -> tuple[int, ...]:
    """Cut levels of the flat limit: the level values inside (0, k)."""
    return tuple(v for v in limit_levels(valuations, k) if 0 < v < k)


def occupied(v: int, valuations, k: int) -> bool:
    """Level v is occupied when some point has a = v or b = k - v."""
    return any(a == v or b == k - v for a, b, _ in valuations)


def lines_through(pos, k: int, cuts) -> int:
    """Subdividing lines through a point: sides, chords a = s and b = k - s."""
    a, b, c = pos
    cuts = set(cuts)
    return (
        (a == 0) + (b == 0) + (c == 0)
        + (a in cuts) + ((k - b) in cuts)
    )


def expected_counts(n: int) -> tuple[int, int, int]:
    """(V, E, F) of a fibre with n cuts."""
    return (
        3 + 3 * n + n * (n - 1) // 2,
        3 * (n + 1) + n * (n + 1),
        1 + n + n * (n + 1) // 2,
    )


def vertex_positions(k: int, cuts) -> list[tuple[int, int, int]]:
    """Every vertex of the subdivision: two or more lines meet there."""
    return [
        (a, b, k - a - b)
        for a in range(k + 1)
        for b in range(k + 1 - a)
        if lines_through((a, b, k - a - b), k, cuts) >= 2
    ]


def check_placement(loc, pos, k: int, cuts, vertices, edges) -> None:
    """A placement's stratum and cell of the subdivision match the point."""
    lines = lines_through(pos, k, cuts)
    stratum = "vertex" if lines >= 2 else "edge" if lines == 1 else "cell"
    require(
        loc.stratum == stratum,
        f"point {pos} on {lines} lines placed on a {loc.stratum}",
    )
    if stratum == "vertex":
        require(
            tuple(vertices[loc.index].position) == tuple(pos),
            f"point {pos} placed at vertex {vertices[loc.index].position}",
        )
    elif stratum == "edge":
        u, w = (tuple(vertices[i].position) for i in edges[loc.index])
        inside = all(min(x, y) <= p <= max(x, y) for x, y, p in zip(u, w, pos))
        require(inside, f"point {pos} placed on edge {u}-{w}")


def check_complex(dc, n: int) -> None:
    """Closed-form counts and Euler characteristic 1 of a dual complex."""
    counts = (len(dc.vertices), len(dc.edges), len(dc.cells))
    require(counts == expected_counts(n), f"(V, E, F) = {counts} for n = {n}")
    v, e, f = counts
    require(v - e + f == 1, f"Euler characteristic {v - e + f}")


def count_svg(svg: str) -> tuple[int, int]:
    """Circles and lines drawn by an SVG document."""
    return svg.count("<circle "), svg.count("<line ")


def check_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


# --- the exhaustive verify families -------------------------------------------

def triangle_size(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def multisets(n_items: int, size: int) -> int:
    return comb(n_items + size - 1, size)


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def presentation_count(k: int, max_len: int) -> int:
    """Compositions of k into 1..max_len non-negative parts."""
    return sum(comb(k + length - 1, length - 1) for length in range(1, max_len + 1))


def configuration_count(k: int, max_m: int) -> int:
    """Weighted point multisets of total multiplicity 0..max_m at height k."""
    return sum(multisets(triangle_size(k), m) for m in range(max_m + 1))


@lru_cache(maxsize=None)
def positivity_count(max_k: int, max_m: int, max_len: int = 4) -> int:
    """(configuration, sign vector) pairs the positivity suite must test.

    Every configuration with m > 0 and every level occupied contributes its
    admissible nonzero sign vectors.
    """
    total = 0
    for k in range(1, max_k + 1):
        positions = [(a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)]
        for length in range(1, max_len + 1):
            for exps in compositions(k, length):
                levels = partial_sums(exps)
                n_adm = admissible_sign_count(exps)
                if n_adm == 0:
                    continue
                for m in range(1, max_m + 1):
                    for combo in combinations_with_replacement(positions, m):
                        if all(occupied(v, combo, k) for v in levels):
                            total += n_adm
    return total


def suite_cases(suite: str, caps: dict) -> tuple[int, ...]:
    """The numbers a suite's detail line must report, in order."""
    if suite == "counts":
        return (1 + 3 * caps["max_n"],)
    if suite == "tau_fixpoints":
        return (sum(
            comb(size, r) * (comb(size, r) - 1)
            for size in range(1, caps["max_size"] + 1)
            for r in range(1, size + 1)
        ),)
    if suite == "limit_oracle":
        return (sum(
            multisets(triangle_size(k), m)
            for k in range(1, caps["max_k"] + 1)
            for m in range(1, caps["max_m"] + 1)
        ),)
    configurations = sum(
        presentation_count(k, 4) * configuration_count(k, caps["max_m"])
        for k in range(1, caps["max_k"] + 1)
    )
    if suite == "stability_equivalence":
        return (configurations,)
    if suite == "positivity":
        return (positivity_count(caps["max_k"], caps["max_m"]),)
    if suite == "bijection":
        classes = sum(
            comb(k - 1, length - 1)
            for k in range(1, caps["max_k"] + 1)
            for length in range(1, min(4, k) + 1)
        )
        return (configurations, classes)
    raise ValueError(f"unknown suite {suite}")


def detail_numbers(detail: str) -> tuple[int, ...]:
    """The case counts a suite prints: the leading number, and for the
    bijection suite also the number before ``classes``."""
    words = detail.replace(",", " ").split()
    numbers = [int(words[0])] if words and words[0].isdigit() else []
    if "classes" in words:
        i = words.index("classes")
        if i >= 1 and words[i - 1].isdigit():
            numbers.append(int(words[i - 1]))
    return tuple(numbers)


def check_suite(result, suite: str, caps: dict) -> int:
    """A suite passed and checked exactly the expected number of cases."""
    require(result.ok, f"suite {suite} {caps} failed: {result.detail}")
    expected = suite_cases(suite, caps)
    got = detail_numbers(result.detail)
    require(got == expected, f"suite {suite} {caps} reports {got}, expected {expected}")
    return expected[0]
