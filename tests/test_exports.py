"""Every name a layer lists in ``__all__`` is bound in that layer, and a
layer imports from its siblings only what they export.

A tracer that wraps each public function reads every listed name with
``getattr``, so a name deleted from a module but left in its ``__all__``
breaks every traced run.  No layer caches through
``functools.cached_property``: ``base.cached`` is the one caching rule.
"""

import ast
import importlib
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
