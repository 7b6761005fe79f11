"""Executable combinatorics of expanded degenerations of the model xyz = t.

The package models the pieces that make the construction computable:

* ``base``: points of the expanded base, normal forms, slot moves and the
  equivalence of presentations;
* ``dual_complex``: the subdivided tropical triangle of an expanded fibre;
* ``configurations``: weighted point placements and the stability notions;
* ``weights``: one-parameter subgroup flows and the weight calculus;
* ``limits``: the constructive flat-limit algorithm and its uniqueness
  oracle, decided by minimality;
* ``render``/``scenario``/``cli``: diagrams, JSON surface and commands.

Importing the package imports none of them.  Each layer below, and each
name listed under it, is imported on first access (PEP 562), so a command
imports only the layers it runs; ``degenlab.X``, ``from degenlab import X``,
the star import and ``dir`` read the same table.
"""

from importlib import import_module

_EXPORTS = {
    "base": (
        "BaseTuple",
        "ClosedPoint",
        "NormalForm",
        "VanishingPattern",
        "canonical_tuple",
        "equivalent",
        "make_base_tuple",
        "make_closed_point",
        "normal_form",
        "standard_embed",
        "tau_move",
    ),
    "configurations": (
        "PointConfiguration",
        "StabilityReport",
        "SupportPoint",
        "is_admissible",
        "is_lw_stable",
        "is_sws_stable",
        "is_ws_stable",
        "normalize_pair",
        "place",
        "stability_report",
        "stabilizer_rank",
    ),
    "dual_complex": (
        "DCVertex",
        "DualComplex",
        "ExpandedFibre",
        "Location",
        "TropPosition",
        "VertexKind",
        "build_fibre",
        "complex_counts",
        "locate",
        "refines",
    ),
    "errors": (
        "CriterionViolated",
        "DegenLabError",
        "HeightMismatch",
        "InvalidComparison",
        "InvalidInput",
        "InvalidLocalScheme",
        "NoLimit",
        "ParseError",
        "TropicalIncompatibility",
        "ValidationError",
    ),
    "limits": (
        "LimitReport",
        "associated_pair",
        "flat_limit",
        "unique_stable_subdivision_oracle",
    ),
    "render": ("render_fibre",),
    "scenario": ("Scenario", "parse_scenario"),
    "weights": (
        "Chart",
        "LevelLift",
        "Linearization",
        "LocalMonomialScheme",
        "admissible_1ps",
        "bounded_weight",
        "constructive_linearization",
        "default_scale",
        "exists_stabilizing_linearization",
        "hm_invariant",
        "is_git_stable",
        "weight_rows",
    ),
}

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_LAYER_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # the layer itself, which the import binds here
        return import_module(f".{name}", __name__)
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
