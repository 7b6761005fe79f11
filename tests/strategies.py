"""Generated inputs for the property tests, one copy of each draw.

Plain data, as in ``oracles.py``: a presentation is its tuple of vanishing
orders, a point ``(valuations, multiplicity)`` or, with local data,
``(valuations, multiplicity, scheme)``, and a lift an ``(a, b, c, d)`` tuple.
The strategies share their draws as functions of ``draw``: nesting one
strategy in another about doubles the time Hypothesis takes to generate.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from hypothesis import strategies as st

from degenlab import Chart, LocalMonomialScheme, NormalForm, SupportPoint, build_fibre, place
from oracles import reference_dual_complex


def valuation(draw, k):
    """A valuation triple of height k, anywhere in the triangle."""
    a = draw(st.integers(0, k))
    b = draw(st.integers(0, k - a))
    return a, b, k - a - b


@st.composite
def normal_forms(draw, max_height, max_cuts):
    """A normal form of height at most ``max_height`` with at most ``max_cuts`` cuts."""
    k = draw(st.integers(1, max_height))
    cuts = draw(st.lists(st.integers(1, max(k - 1, 1)), max_size=min(max_cuts, k - 1), unique=True))
    return NormalForm(k, tuple(sorted(cuts)))


def points_of(draw, k, max_size, max_multiplicity=3, vertices=(), repeats=False):
    """Up to ``max_size`` points of height k, each anywhere, at one of
    ``vertices``, or with ``repeats`` at an earlier point's valuation."""
    points = []
    for _ in range(draw(st.integers(0, max_size))):
        if repeats and points and draw(st.booleans()):
            val = draw(st.sampled_from([val for val, _ in points]))
        elif vertices and draw(st.booleans()):
            val = draw(st.sampled_from(vertices))
        else:
            val = valuation(draw, k)
        points.append((val, draw(st.integers(1, max_multiplicity))))
    return points


# the same draw as a strategy, for tests that draw the height themselves
weighted_points = st.composite(points_of)


def local_scheme(draw, exponents, val, multiplicity, valid):
    """None or a scheme: a list of monomials ``{(level, "delta1" | "delta2"):
    exponent}``.  A valid one is ``multiplicity`` monomials, the constant one
    among them, each of degree at most ``multiplicity`` in the charts through
    the point and nontrivial only at a vertex; others may break any rule."""
    k, (a, b, c) = sum(exponents), val
    levels = list(accumulate(exponents[:-1]))
    through = [(j, "delta1") for j, v in enumerate(levels, 1) if a == v]
    through += [(j, "delta2") for j, v in enumerate(levels, 1) if b == k - v]
    shape = draw(st.sampled_from(["reduced", "fat", "fat", "any"][: 3 if valid else 4]))
    if shape == "reduced":
        return None
    if valid:
        cuts = {v for v in levels if 0 < v < k}
        vertex = (a == 0) + (b == 0) + (c == 0) + (a in cuts) + (k - b in cuts) >= 2
        keys = st.lists(st.sampled_from(through), max_size=multiplicity) if through and vertex else st.just([])
        monomials = keys.map(lambda chosen: dict(Counter(chosen)))
    else:
        anywhere = st.tuples(st.integers(0, len(levels) + 1), st.sampled_from(["delta1", "delta2"]))
        keys = st.sampled_from(through) if through and draw(st.booleans()) else anywhere
        monomials = st.dictionaries(keys, st.integers(1, multiplicity), max_size=2)
    if shape == "fat":
        return [{}, *draw(st.lists(monomials, min_size=multiplicity - 1, max_size=multiplicity - 1))]
    return draw(st.lists(monomials, min_size=1, max_size=4))


def presentation(draw, max_height, max_levels, min_levels=0):
    """The vanishing orders of a presentation of height at most
    ``max_height`` with ``min_levels`` to ``max_levels`` torus levels, unit
    slots (zero entries) included."""
    k = draw(st.integers(1, max_height))
    marks = sorted(draw(st.lists(st.integers(0, k), min_size=min_levels, max_size=max_levels)))
    return tuple(b - a for a, b in zip([0, *marks], [*marks, k]))


@st.composite
def padded_presentations(draw, max_height, max_levels, max_pad=2):
    """A ``presentation`` with up to ``max_pad`` more unit slots in front and
    at the end, so leading, trailing and inner zeros all occur."""
    exponents = presentation(draw, max_height, max_levels)
    lead, trail = draw(st.integers(0, max_pad)), draw(st.integers(0, max_pad))
    return (0,) * lead + exponents + (0,) * trail


def fibre_vertices(exponents):
    """The valuations of the vertices of the presentation's fibre."""
    k, levels = sum(exponents), accumulate(exponents[:-1])
    return [pos for _, pos, _ in reference_dual_complex(k, sorted(set(levels) - {0, k}))[0]]


@st.composite
def presented_points(draw, max_height, max_levels, max_points, at_vertices=False, schemes=None,
                     min_levels=0):
    """``(exponents, points)``: a ``presentation`` and up to ``max_points``
    points of multiplicity 1-3, anywhere or with ``at_vertices`` also at the
    vertices of its fibre.  With ``schemes`` "valid" or "any", each point
    carries a ``local_scheme``."""
    exponents = presentation(draw, max_height, max_levels, min_levels)
    vertices = fibre_vertices(exponents) if at_vertices else ()
    points = points_of(draw, sum(exponents), max_points, vertices=vertices)
    if schemes:
        points = [(val, mult, local_scheme(draw, exponents, val, mult, schemes == "valid"))
                  for val, mult in points]
    return exponents, points


@st.composite
def side_twins(draw, max_height, max_levels, max_points):
    """``(exponents, points, twin_exponents, twin)``: a presentation with at
    least one torus level, a second presentation with the same vanishing
    pattern (each nonzero vanishing order grown by 0-2, so possibly the
    same one), and a scheme-free point list on each with the same
    multiplicity on each side of every level.  A valuation's sides at level
    value v are the orders of a and of k - b against v; the twin sends each
    unit of multiplicity of ``points`` to a valuation of the second
    presentation with the same sides at every level, and merges the units
    that land on one valuation.  Growing the gaps between the levels keeps
    every side pattern of the first presentation on the second."""
    exponents = presentation(draw, max_height, max_levels, min_levels=1)
    twin_exponents = tuple(g + draw(st.integers(0, 2)) if g else 0 for g in exponents)

    def sides(val, exps):
        (a, b, _), k = val, sum(exps)
        return [((a > v) - (a < v), (k - b > v) - (k - b < v)) for v in accumulate(exps[:-1])]

    points = points_of(draw, sum(exponents), max_points, vertices=fibre_vertices(exponents))
    k = sum(twin_exponents)
    triangle = [(a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)]
    units = Counter()
    for val, mult in points:
        own = sides(val, exponents)
        same = [other for other in triangle if sides(other, twin_exponents) == own]
        units.update(draw(st.sampled_from(same)) for _ in range(mult))
    return exponents, points, twin_exponents, sorted(units.items())


@st.composite
def slotted_points(draw, max_height, max_levels, max_slots, max_points):
    """``(exponents, slots, points)``: a ``presentation``, one to
    ``max_slots`` distinct positions at which ``base.standard_embed`` inserts
    unit slots, and up to ``max_points`` points of multiplicity 1-3, anywhere
    or at the vertices of its fibre."""
    exponents = presentation(draw, max_height, max_levels)
    count = draw(st.integers(1, max_slots))
    slots = draw(st.lists(st.integers(0, len(exponents) + count - 1), min_size=count,
                          max_size=count, unique=True))
    points = points_of(draw, sum(exponents), max_points, vertices=fibre_vertices(exponents))
    return exponents, slots, points


_LIFT = st.tuples(*[st.integers(0, 3)] * 4).filter(lambda x: x[0] + x[1] >= 1 and x[2] + x[3] >= 1)


@st.composite
def lift_tuples(draw, n, wrong_length=False):
    """n lifts with entries 0-3, each chart of degree at least 1; with
    ``wrong_length`` one draw in five has n - 1 (at least 0) or n + 1."""
    count = draw(st.sampled_from([n] * 8 + [max(n - 1, 0), n + 1])) if wrong_length else n
    return tuple(draw(st.lists(_LIFT, min_size=count, max_size=count)))


def support_points(points):
    """Plain ``(valuations, multiplicity, scheme)`` points as ``SupportPoint``s."""
    return [SupportPoint(val, mult, None if scheme is None else LocalMonomialScheme.of(scheme))
            for val, mult, scheme in points]


def random_bound_case(rng, max_m):
    """``(cfg, s)``, seeded: up to two fat points of total multiplicity at
    most ``max_m`` at vertices of a height of at most 5, with random local
    schemes through their charts, and an admissible sign vector s."""
    k = rng.randint(1, 5)
    cuts = tuple(sorted(rng.sample(range(1, k), rng.randint(0, min(3, k - 1)))))
    m = rng.randint(1, max_m)
    sizes = [m] if m == 1 or rng.random() < 0.5 else [m - 1, 1]
    vertices = [tuple(v.position) for v in build_fibre(NormalForm(k, cuts)).dual_complex.vertices]
    points = []
    for size in sizes:
        a, b, _ = pos = rng.choice(vertices)
        charts = [(j, chart) for j, v in enumerate(cuts, 1)
                  for chart, on in ((Chart.DELTA1, a == v), (Chart.DELTA2, b == k - v)) if on]
        monomials = [Counter(rng.choice(charts) for _ in range(rng.randint(0, size))) if charts else {}
                     for _ in range(size - 1)]
        points.append(SupportPoint(pos, size, LocalMonomialScheme.of([{}, *monomials])))
    cfg = place(NormalForm(k, cuts), points)
    return cfg, rng.choice(list(cfg.presentation.vanishing_pattern().sign_vectors) or [(0,) * len(cuts)])
