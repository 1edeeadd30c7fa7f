"""The package's public surface."""

import importlib

MODULES = ("cli", "curvfn", "diagnostics", "dualmap", "flow", "hgeom", "sphere_grid")


def test_every_exported_name_exists():
    for mod_name in MODULES:
        mod = importlib.import_module(f"dualflow.{mod_name}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"dualflow.{mod_name}.__all__ names missing attributes {missing}"
