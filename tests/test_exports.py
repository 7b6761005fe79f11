"""Every name a layer lists in ``__all__`` is bound in that layer, and a
layer imports from its siblings only what they export.  The package
imports no layer until one of its names is read, and the command line
imports neither ``verify`` nor ``limits`` until a command runs them.

A tracer that wraps each public function reads every listed name with
``getattr``, so a name deleted from a module but left in its ``__all__``
breaks every traced run.  No layer caches through
``functools.cached_property``: ``base.cached`` is the one caching rule.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degenlab

LAYERS = (
    "base", "dual_complex", "configurations", "weights", "limits",
    "render", "scenario", "verify", "cli",
)

# (importing module, name): the sibling imports that its ``__all__`` leaves out
UNEXPORTED_IMPORTS = {
    ("dual_complex", "half_level"),  # per-point; kept out so a tracer does not wrap it
    ("limits", "_as_points"),
    ("render", "_SURFACE"),
    ("verify", "_on_vertices"),  # the valuation line rules, criterion 7's second reading
}


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_is_bound(layer):
    module = importlib.import_module(f"degenlab.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _exported(sibling):
    """The names ``from sibling import *`` binds: its ``__all__``, or, with
    none, every name without a leading underscore."""
    module = importlib.import_module(f"degenlab.{sibling}")
    return set(getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")]))


def test_sibling_imports_are_exported():
    unexported = set()
    for path in Path(degenlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                exported = _exported(node.module)
                unexported |= {
                    (path.stem, alias.name) for alias in node.names if alias.name not in exported
                }
    assert unexported == UNEXPORTED_IMPORTS


def test_no_layer_caches_through_functools_cached_property():
    """Facts of immutable values are kept through ``base.cached``, which
    takes no lock; on Python 3.11 ``functools.cached_property`` takes an
    ``RLock`` on every first read, and the ``verify`` sweeps make tens of
    thousands of them."""
    found = []
    for path in sorted(Path(degenlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [path.name for alias in node.names if alias.name == "cached_property"]
            elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
                found.append(path.name)
    assert found == []


# What ``import degenlab`` bound when it imported every layer: each layer
# and the names the package took from it.
PACKAGE_EXPORTS = {
    "base": [
        "BaseTuple", "ClosedPoint", "NormalForm", "VanishingPattern", "canonical_tuple",
        "equivalent", "make_base_tuple", "make_closed_point", "normal_form", "standard_embed",
        "tau_move",
    ],
    "configurations": [
        "PointConfiguration", "StabilityReport", "SupportPoint", "is_admissible", "is_lw_stable",
        "is_sws_stable", "is_ws_stable", "normalize_pair", "place", "stability_report",
        "stabilizer_rank",
    ],
    "dual_complex": [
        "DCVertex", "DualComplex", "ExpandedFibre", "Location", "TropPosition", "VertexKind",
        "build_fibre", "complex_counts", "locate", "refines",
    ],
    "errors": [
        "CriterionViolated", "DegenLabError", "HeightMismatch", "InvalidComparison",
        "InvalidInput", "InvalidLocalScheme", "NoLimit", "ParseError", "TropicalIncompatibility",
        "ValidationError",
    ],
    "limits": ["LimitReport", "associated_pair", "flat_limit", "unique_stable_subdivision_oracle"],
    "render": ["render_fibre"],
    "scenario": ["Scenario", "parse_scenario"],
    "weights": [
        "Chart", "LevelLift", "Linearization", "LocalMonomialScheme", "admissible_1ps",
        "bounded_weight", "constructive_linearization", "default_scale",
        "exists_stabilizing_linearization", "hm_invariant", "is_git_stable", "weight_rows",
    ],
}

# Run in a fresh interpreter; prints what each import added to
# ``sys.modules``, what ``dir`` listed before any name was read, and the
# names that did not resolve to their layer's object.
_PROBE = """
import importlib, json, sys
exports = json.loads(sys.argv[1])
before = set(sys.modules)
import degenlab
package = set(sys.modules) - before
listed = dir(degenlab)
import degenlab.cli
cli = set(sys.modules) - before
wrong = []
for layer, names in exports.items():
    module = importlib.import_module("degenlab." + layer)
    for name in names:
        scope = {}
        exec("from degenlab import " + name, scope)
        if scope[name] is not getattr(module, name):
            wrong.append(name)
    scope = {}
    exec("from degenlab import " + layer, scope)
    if scope[layer] is not module:
        wrong.append(layer)
starred = {}
exec("from degenlab import *", starred)
try:
    degenlab.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "package": sorted(package), "cli": sorted(cli), "listed": listed, "wrong": wrong,
    "starred": sorted(starred), "unknown": unknown,
}))
"""


def test_each_import_loads_only_the_layers_it_runs():
    """In a fresh interpreter on the tree this ``degenlab`` came from:
    ``import degenlab`` imports no layer, ``import degenlab.cli`` neither
    ``verify``, ``limits`` nor ``dataclasses``, and every name the package
    bound when it imported every layer is listed by ``dir``, bound by the
    star import and resolves through ``from degenlab import`` to its
    layer's object; an unknown name raises ``AttributeError``."""
    src = Path(degenlab.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(PACKAGE_EXPORTS)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    found = json.loads(done.stdout)
    assert [name for name in found["package"] if name.startswith("degenlab.")] == []
    assert {"degenlab.verify", "degenlab.limits", "dataclasses"} & set(found["cli"]) == set()
    exported = {*PACKAGE_EXPORTS, *(name for names in PACKAGE_EXPORTS.values() for name in names)}
    assert exported - set(found["listed"]) == set()
    assert exported - set(found["starred"]) == set()
    assert found["wrong"] == []
    assert found["unknown"] == "AttributeError"
