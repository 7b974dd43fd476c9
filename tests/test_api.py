"""The public surface of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import zzmorse


def test_public_names():
    assert sorted(zzmorse.__all__) == sorted([
        "BlockOp", "Complex", "ForwardCell", "Interval", "Metrics",
        "ScalarImage", "circle_points", "even_levels", "fourier_image",
        "furthest_point_ordering", "levelset_stream",
        "oscillating_rips_stream", "run_stream", "__version__"])
    assert all(hasattr(zzmorse, name) for name in zzmorse.__all__)


def test_import_loads_neither_click_nor_the_cli():
    # a subprocess does not see pytest's pythonpath setting, hence PYTHONPATH
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = ("import sys, zzmorse; print(sorted("
             "{'click', 'zzmorse.cli', 'zzmorse.oracle'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def test_validate_does_not_know_the_op_vocabulary():
    # an import check cannot show this: importing zzmorse.validate runs
    # zzmorse/__init__.py, which loads the kernel and, through it, stream
    path = Path(__file__).resolve().parents[1] / "src" / "zzmorse" / "validate.py"
    tree = ast.parse(path.read_text())
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert "stream" not in modules
