"""The public surface of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import zzmorse


def test_public_names():
    assert sorted(zzmorse.__all__) == sorted([
        "BlockOp", "ForwardCell", "Interval", "Metrics",
        "ScalarImage", "circle_points", "even_levels", "fourier_image",
        "furthest_point_ordering", "levelset_stream",
        "oscillating_rips_stream", "run_stream", "__version__"])
    assert all(hasattr(zzmorse, name) for name in zzmorse.__all__)


def test_import_loads_neither_click_nor_the_cli():
    # a subprocess does not see pytest's pythonpath setting, hence PYTHONPATH
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = ("import sys, zzmorse; print(sorted("
             "{'click', 'zzmorse.cli', 'zzmorse.oracle', 'zzmorse.linalg'}"
             " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def imported_modules(name):
    """Every module a source file of the package imports, as written there."""
    path = Path(__file__).resolve().parents[1] / "src" / "zzmorse" / name
    tree = ast.parse(path.read_text())
    return ({node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)}
            | {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names})


def test_the_column_kernel_imports_only_cells_and_errors():
    # the matrix knows nothing of the Morse layer, the op stream or the door
    assert imported_modules("matrix.py") == {"heapq", "cells", "errors"}


def test_the_random_streams_need_no_dense_linear_algebra():
    # random_block_stream finds its cycles with its own small kernel basis
    assert "linalg" not in imported_modules("generators.py")


def test_the_matcher_imports_only_cells_and_errors():
    # coreduction and the flows know nothing of the kernel, the op stream
    # or the door
    assert imported_modules("morse.py") == {"heapq", "cells", "errors"}


def test_the_oracle_imports_no_engine_module():
    # the reference shares the door in cells with run_stream, and no code
    # of the kernel, the column matrix, the Morse layer or the op stream
    assert imported_modules("oracle.py") == {"numpy", "cells", "errors",
                                             "linalg"}
