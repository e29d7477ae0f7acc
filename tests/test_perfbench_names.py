"""The benchmark tracer wraps library functions by name and reads solver
fields off the result; a refactor that renames them breaks the traced run."""

from __future__ import annotations

import dataclasses
import importlib
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


def test_sdp_solution_keeps_traced_fields():
    fields = {f.name for f in dataclasses.fields(SdpSolution)}
    assert {"iterations", "status"} <= fields


def test_norm_estimate_keeps_traced_fields():
    fields = {f.name for f in dataclasses.fields(NormEstimate)}
    assert "converged" in fields
