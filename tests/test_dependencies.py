"""Declared runtime dependencies match what the package imports, and the
library itself loads without the CLI's JSON parser."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opintlab"


def _imported_top_levels(path: Path) -> set:
    """Top-level names of the absolute imports anywhere in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    third_party = set()
    for path in sorted(PACKAGE.glob("*.py")):
        third_party |= _imported_top_levels(path) - set(sys.stdlib_module_names)
    assert {"numpy", "orjson"} <= third_party
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"


def test_library_import_leaves_orjson_out():
    # orjson parses the CLI's input files only; `import opintlab` stays
    # numpy-only.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys, opintlab; print('orjson' in sys.modules, 'numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]
