"""Walkthrough: stability notions and the torus weight calculus.

Run with:  python3 demos/03_stability_and_weights.py
"""

from degenlab import (
    NormalForm,
    constructive_linearization,
    default_scale,
    exists_stabilizing_linearization,
    is_git_stable,
    make_base_tuple,
    normalize_pair,
    place,
    stability_report,
    weight_rows,
)

# A configuration on the two-cut fibre: one point on the mixed bubble, one
# on a pure bubble.  Every torus level is occupied.
cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
print("report:", stability_report(cfg))

# The constructive linearization weights each level so that the per-level
# combinatorial term is strictly positive for every admissible subgroup.
lin = constructive_linearization(cfg)
print("lift exponents:", [tuple(x) for x in lin.levels])
scale = default_scale(cfg.m)
print(f"{'s':<10} {'bounded':>8} {'combinatorial':>14} {'total':>6}")
for s, mu_b, mu_c in weight_rows(cfg, lin):
    print(f"{str(list(s)):<10} {mu_b:>8} {mu_c:>14} {mu_b + scale * mu_c:>6}")
print("stable at scale", scale, ":", is_git_stable(cfg, lin, scale))

# A configuration missing a level admits no stabilizing lift at all.
corner = place(NormalForm(2, (1,)), [((0, 0, 2), 1)])
print("corner point lift:", exists_stabilizing_linearization(corner))

# Presentations with boundary unit directions can fail strict stability even
# when the class is stable; normalization exhibits the bijection.
cfg = place(make_base_tuple([2, 0]), [((0, 2, 0), 1)])
print("on (2, 0):        ", stability_report(cfg))
print("normalized to (2):", stability_report(normalize_pair(cfg)))
