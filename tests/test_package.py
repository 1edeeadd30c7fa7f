"""The package's public surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import dualflow

MODULES = ("cli", "curvfn", "diagnostics", "dualmap", "flow", "hgeom", "sphere_grid")


def test_every_exported_name_exists():
    for mod_name in MODULES:
        mod = importlib.import_module(f"dualflow.{mod_name}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"dualflow.{mod_name}.__all__ names missing attributes {missing}"


def test_package_imports_no_test_dependency():
    # pyproject.toml declares numpy alone: a fresh interpreter that imports
    # every module loads none of the test extras, nor the test oracles
    src = str(Path(dualflow.__file__).resolve().parent.parent)
    code = (f"import sys; import {', '.join(f'dualflow.{m}' for m in MODULES)}; "
            "print(sorted({'scipy', 'hypothesis', 'pytest', 'oracles'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_package_imports_no_process_pool_nor_argument_parser():
    # only `dualflow sweep` starts a process pool and only the console
    # script parses arguments: a fresh interpreter that imports every module
    # loads neither
    src = str(Path(dualflow.__file__).resolve().parent.parent)
    code = (f"import sys; import {', '.join(f'dualflow.{m}' for m in MODULES)}; "
            "print(sorted({'concurrent.futures', 'multiprocessing', 'argparse'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
