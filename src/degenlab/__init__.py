"""Executable combinatorics of expanded degenerations of the model xyz = t.

The package models the pieces that make the construction computable:

* ``base``: points of the expanded base, normal forms, slot moves and the
  equivalence of presentations;
* ``dual_complex``: the subdivided tropical triangle of an expanded fibre;
* ``configurations``: weighted point placements and the stability notions;
* ``weights``: one-parameter subgroup flows and the weight calculus;
* ``limits``: the constructive flat-limit algorithm with brute-force
  uniqueness oracles;
* ``render``/``scenario``/``cli``: diagrams, JSON surface and commands.
"""

from .base import (
    BaseTuple,
    ClosedPoint,
    NormalForm,
    VanishingPattern,
    canonical_tuple,
    equivalent,
    make_base_tuple,
    make_closed_point,
    normal_form,
    standard_embed,
    tau_move,
)
from .configurations import (
    PointConfiguration,
    StabilityReport,
    SupportPoint,
    is_admissible,
    is_lw_stable,
    is_sws_stable,
    is_ws_stable,
    normalize_pair,
    place,
    stability_report,
    stabilizer_rank,
    unoccupied_level_values,
)
from .dual_complex import (
    DCVertex,
    DualComplex,
    ExpandedFibre,
    Location,
    TropPosition,
    VertexKind,
    build_fibre,
    complex_counts,
    locate,
    refines,
)
from .errors import (
    CriterionViolated,
    DegenLabError,
    HeightMismatch,
    InvalidComparison,
    InvalidInput,
    InvalidLocalScheme,
    NeedsRefinedInput,
    NoLimit,
    ParseError,
    RefuseBruteForce,
    TropicalIncompatibility,
    ValidationError,
)
from .limits import (
    LimitReport,
    associated_pair,
    extend_special,
    flat_limit,
    unique_stable_subdivision_oracle,
)
from .render import render_fibre
from .scenario import Scenario, parse_scenario
from .weights import (
    Chart,
    LevelLift,
    Linearization,
    LocalMonomialScheme,
    Side,
    admissible_1ps,
    bounded_weight,
    combinatorial_level_terms,
    constructive_linearization,
    default_scale,
    exists_stabilizing_linearization,
    flow_limit,
    hm_invariant,
    is_git_stable,
    side_of,
    weight_rows,
)

__version__ = "0.1.0"
