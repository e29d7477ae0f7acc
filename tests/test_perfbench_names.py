"""The benchmark tracer wraps library functions by name and reads solver
fields off the result; a refactor that renames them breaks the traced run."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from opintlab.norms import NormEstimate
from opintlab.sdp import SdpSolution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for module, name in spans.TRACED:
        home = importlib.import_module(f"{spans.PACKAGE}.{module}")
        assert callable(getattr(home, name, None)), f"{module}.{name}"


def _attrs_branches():
    """(traced names, argument keys) of each ``if name ...`` branch of the
    tracer's ``_attrs``, which reads arguments as ``call["<parameter>"]``."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    attrs = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_attrs"
    )
    for branch in attrs.body:
        if not isinstance(branch, ast.If):
            continue
        names = [node.value for node in ast.walk(branch.test)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        keys = {
            node.slice.value
            for stmt in branch.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "call"
            and isinstance(node.slice, ast.Constant)
        }
        yield names, keys


def test_traced_argument_names_are_parameters():
    branches = list(_attrs_branches())
    assert sum(bool(keys) for _, keys in branches) >= 6
    for names, keys in branches:
        assert names
        for name in names:
            module, func = name.split(".")
            home = importlib.import_module(f"opintlab.{module}")
            params = inspect.signature(getattr(home, func)).parameters
            missing = keys - set(params)
            assert not missing, f"{name} has no parameter {sorted(missing)}"


def test_sdp_solution_keeps_traced_fields():
    fields = {f.name for f in dataclasses.fields(SdpSolution)}
    assert {"iterations", "status"} <= fields


def test_norm_estimate_keeps_traced_fields():
    fields = {f.name for f in dataclasses.fields(NormEstimate)}
    assert "converged" in fields
