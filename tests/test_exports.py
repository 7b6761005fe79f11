"""Every name a layer lists in ``__all__`` is bound in that layer.

A tracer that wraps each public function reads every listed name with
``getattr``, so a name deleted from a module but left in its ``__all__``
breaks every traced run.
"""

import importlib

import pytest

LAYERS = (
    "base", "dual_complex", "configurations", "weights", "limits",
    "render", "scenario", "verify", "cli",
)


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_is_bound(layer):
    module = importlib.import_module(f"degenlab.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
