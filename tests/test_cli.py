"""Command-line interface: reports, exit codes, formats, and determinism.

Every invocation goes through ``main(argv)`` in-process; stdout is captured
with capsys and parsed back.  Exit-code contract: 0 success, 1 usage or
input problems, 2 a numerical check that ran but failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opintlab import __version__, matrix_to_json, grid_to_json, normal_eig, SymbolGrid
from opintlab import cli, norms, sdp
from opintlab.cli import main

from conftest import random_normal_matrix

RNG = np.random.default_rng(31337)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _matrix_file(tmp_path, name, matrix):
    return _write(tmp_path, name, matrix_to_json(np.asarray(matrix, dtype=complex)))


def _normal_ops_and_grid(tmp_path, dims, seed=0):
    rng = np.random.default_rng(seed)
    paths = []
    ops = []
    for idx, d in enumerate(dims):
        m = random_normal_matrix(rng, d)
        ops.append(normal_eig(m))
        paths.append(_matrix_file(tmp_path, f"op{idx}.json", m))
    values = rng.standard_normal(tuple(dims)).astype(complex)
    grid = SymbolGrid(axes=tuple(op.eigenvalues for op in ops), values=values)
    grid_path = _write(tmp_path, "grid.json", grid_to_json(grid))
    return paths, grid_path, ops, grid


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# eig


def test_eig_reports_spectrum(tmp_path, capsys):
    path = _matrix_file(tmp_path, "m.json", np.diag([2.0, 0.0, 1.0]))
    code, doc = _run_json(capsys, ["eig", path])
    assert code == 0
    assert doc["command"] == "eig"
    assert doc["tool_version"]
    assert sorted(doc["outputs"]["eigenvalues_re"]) == [0.0, 1.0, 2.0]
    assert doc["outputs"]["residuals"]["reconstruction"] < 1e-10
    # The input digest is the real sha256 of the file on disk.
    digest = hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest()
    assert doc["inputs"]["matrix"] == digest


def test_eig_non_normal_exits_two(tmp_path, capsys):
    path = _matrix_file(tmp_path, "j.json", [[1.0, 1.0], [0.0, 1.0]])
    code, doc = _run_json(capsys, ["eig", path])
    assert code == 2
    assert doc["outputs"]["error"] == "NotNormal"


# ---------------------------------------------------------------------------
# integral application commands


def test_doi_toi_moi_agree(tmp_path, capsys):
    op_paths, grid_path, ops, grid = _normal_ops_and_grid(tmp_path, [3, 2, 3], seed=4)
    x = _matrix_file(tmp_path, "x.json", RNG.standard_normal((3, 2)))
    y = _matrix_file(tmp_path, "y.json", RNG.standard_normal((2, 3)))

    code, toi_doc = _run_json(
        capsys,
        ["toi", "--op-a", op_paths[0], "--op-b", op_paths[1], "--op-c", op_paths[2],
         "--grid", grid_path, "--x", x, "--y", y],
    )
    assert code == 0
    assert toi_doc["outputs"]["bound_ok"] is True

    code, moi_doc = _run_json(
        capsys,
        ["moi", "--op", op_paths[0], "--op", op_paths[1], "--op", op_paths[2],
         "--grid", grid_path, "--arg", x, "--arg", y],
    )
    assert code == 0
    assert moi_doc["outputs"]["result"] == toi_doc["outputs"]["result"]


def test_doi_applies_two_variable_grid(tmp_path, capsys):
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [3, 3], seed=5)
    x = _matrix_file(tmp_path, "x.json", RNG.standard_normal((3, 3)))
    code, doc = _run_json(
        capsys,
        ["doi", "--op-a", op_paths[0], "--op-b", op_paths[1],
         "--grid", grid_path, "--x", x],
    )
    assert code == 0
    assert doc["outputs"]["result"]["rows"] == 3


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e20, 1e150])
@pytest.mark.parametrize("command", ["doi", "toi", "moi"])
def test_contraction_bound_holds_at_any_scale(tmp_path, capsys, command, scale):
    # A grid of constant modulus attains the bound sup|grid| * ||X||_2
    # (times ||Y||_2 for toi and moi, whose middle axis has length one), so
    # only a relative slack accepts it at every scale.
    dims = [4, 4] if command == "doi" else [4, 1, 4]
    op_paths, _, ops, _ = _normal_ops_and_grid(tmp_path, dims, seed=3)
    rng = np.random.default_rng(3)
    values = scale * np.exp(2j * np.pi * rng.uniform(size=dims))
    grid = SymbolGrid(axes=tuple(op.eigenvalues for op in ops), values=values)
    grid_path = _write(tmp_path, "grid.json", grid_to_json(grid))
    argv = [command, "--grid", grid_path]
    flags = ["--op"] * 3 if command == "moi" else ["--op-a", "--op-b", "--op-c"]
    arg_flags = ["--arg"] * 2 if command == "moi" else ["--x", "--y"]
    for flag, path in zip(flags, op_paths):
        argv += [flag, path]
    for _ in range(20):
        x = rng.standard_normal((dims[0], dims[1]))
        y = rng.standard_normal((dims[1], dims[-1]))
        args = [arg_flags[0], _matrix_file(tmp_path, "x.json", x)]
        bound = scale * np.linalg.norm(x)
        if command != "doi":
            args += [arg_flags[1], _matrix_file(tmp_path, "y.json", y)]
            bound *= np.linalg.norm(y)
        code, doc = _run_json(capsys, argv + args)
        assert code == 0
        assert doc["outputs"]["bound_ok"] is True
        assert doc["outputs"]["result_s2"] == pytest.approx(bound, rel=1e-12)


_SPIKE = np.ones((2, 2, 2))
_SPIKE[1, 1, 1] = 1e300


@pytest.mark.parametrize("values, x, y, bound, result_s2", [
    # sup|grid| * ||X||_2 * ||Y||_2 is about 1e320, but the huge entry meets
    # a zero of X: the result diag(1e20, 0) is checked against the bound,
    # and the bound is reported as null.
    (_SPIKE, np.diag([1e10, 0.0]), np.diag([1e10, 1.0]), None, 1e20),
    # 1e-300 * ||1e300 I||_2 * ||1e10 I||_2 = 2e10 holds the result's norm
    # sqrt(2) * 1e10, although ||result||_2 / sup|grid| alone overflows.
    (np.full((2, 2, 2), 1e-300), 1e300 * np.eye(2), 1e10 * np.eye(2), 2e10,
     np.sqrt(2.0) * 1e10),
], ids=["beyond", "both-ends"])
def test_contraction_bound_at_the_ends_of_the_float_range(
    tmp_path, capsys, values, x, y, bound, result_s2
):
    op = _matrix_file(tmp_path, "op.json", np.diag([1.0, 2.0]))
    axes = (np.array([1.0, 2.0]),) * 3
    grid = _write(tmp_path, "grid.json", grid_to_json(SymbolGrid(axes=axes, values=values)))
    argv = ["toi", "--op-a", op, "--op-b", op, "--op-c", op, "--grid", grid,
            "--x", _matrix_file(tmp_path, "x.json", x),
            "--y", _matrix_file(tmp_path, "y.json", y)]
    code, doc = _run_json(capsys, argv)
    assert code == 0
    out = doc["outputs"]
    assert out["bound_ok"] is True
    if bound is None:
        assert out["contraction_bound"] is None
    else:
        assert out["contraction_bound"] == pytest.approx(bound, rel=1e-14)
    assert out["result_s2"] == pytest.approx(result_s2, rel=1e-14)


@pytest.mark.parametrize("command", ["doi", "toi"])
def test_overflowing_transform_exits_one(tmp_path, capsys, command):
    dims = [2, 2] if command == "doi" else [2, 2, 2]
    op_paths, _, ops, _ = _normal_ops_and_grid(tmp_path, dims, seed=4)
    grid = SymbolGrid(axes=tuple(op.eigenvalues for op in ops), values=np.full(dims, 1e200))
    argv = [command, "--grid", _write(tmp_path, "grid.json", grid_to_json(grid)),
            "--x", _matrix_file(tmp_path, "x.json", np.full((2, 2), 1e200))]
    if command == "toi":
        argv += ["--y", _matrix_file(tmp_path, "y.json", np.eye(2))]
    for flag, path in zip(["--op-a", "--op-b", "--op-c"], op_paths):
        argv += [flag, path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the result overflowed: largest grid modulus 1e+200" in captured.err


# ---------------------------------------------------------------------------
# norms


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e200])
def test_norm_s2_report(tmp_path, capsys, scale):
    # The witness residual is relative, so it reads the same at any scale.
    op_paths, _, _, grid = _normal_ops_and_grid(tmp_path, [2, 3, 2], seed=6)
    grid = SymbolGrid(axes=grid.axes, values=scale * np.asarray(grid.values))
    grid_path = _write(tmp_path, "grid.json", grid_to_json(grid))
    code, doc = _run_json(
        capsys,
        ["norm-s2", "--op-a", op_paths[0], "--op-b", op_paths[1],
         "--op-c", op_paths[2], "--grid", grid_path],
    )
    assert code == 0
    assert doc["outputs"]["estimate"]["value"] == pytest.approx(
        np.abs(np.asarray(grid.values)).max(), rel=1e-12
    )
    assert doc["outputs"]["witness_residual"] < 1e-9


def test_norm_s1_is_deterministic(tmp_path, capsys):
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [2, 2, 2], seed=7)
    argv = ["norm-s1", "--op-a", op_paths[0], "--op-b", op_paths[1],
            "--op-c", op_paths[2], "--grid", grid_path,
            "--restarts", "8", "--seed", "5"]
    code_a, doc_a = _run_json(capsys, argv)
    code_b, doc_b = _run_json(capsys, argv)
    assert code_a == code_b == 0
    assert doc_a["outputs"] == doc_b["outputs"]
    assert doc_a["seed"] == 5


def test_oversized_restart_counts_exit_one_before_drawing(tmp_path, capsys, monkeypatch):
    # 10**12 restarts would need about 10**14 bytes of starts; the ascent's
    # budget check refuses them before its generator is built.
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [2, 2, 2])

    def no_draws(*args, **kwargs):
        raise AssertionError("drew starts before the budget check")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    argv = ["norm-s1", "--op-a", op_paths[0], "--op-b", op_paths[1],
            "--op-c", op_paths[2], "--grid", grid_path, "--restarts", str(10**12)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("opintlab: error: 1000000000000 restarts on a 2x2x2 grid")
    assert "budget" in captured.err


def test_gamma2_golden_and_diagnostics(tmp_path, capsys):
    path = _matrix_file(tmp_path, "s.json", np.eye(4))
    code, doc = _run_json(capsys, ["gamma2", path])
    assert code == 0
    out = doc["outputs"]
    assert out["value"] == pytest.approx(1.0, abs=1e-6)
    assert out["status"] == "Optimal"
    assert out["duality_gap"] <= 1e-7
    assert out["feasibility"]["min_eigenvalue"] >= -1e-8
    assert out["feasibility"]["diag_excess"] <= 1e-7
    assert out["feasibility"]["data_block_residual"] == 0.0


def test_factor_reconstructs(tmp_path, capsys):
    path = _matrix_file(tmp_path, "s.json", RNG.standard_normal((3, 3)))
    code, doc = _run_json(capsys, ["factor", path])
    assert code == 0
    out = doc["outputs"]
    assert out["reconstruction_residual"] <= 1e-6
    assert out["norm_a"] * out["norm_b"] <= out["value"] + 1e-5


@pytest.mark.parametrize(
    "scale, matrix",
    [(1e-150, None), (1e150, None), (1e308, [[1 + 1j]])],
    ids=["1e-150", "1e150", "1x1-1e308"],
)
def test_factor_at_any_scale(tmp_path, capsys, scale, matrix):
    # Each case also runs the unscaled matrix, which it is compared with.
    base = np.random.default_rng(5).standard_normal((3, 4)) if matrix is None else matrix
    outs = []
    for c in (1.0, scale):
        path = _matrix_file(tmp_path, "s.json", c * np.asarray(base, dtype=complex))
        code, doc = _run_json(capsys, ["factor", path])
        assert code == 0
        outs.append(doc["outputs"])
    ref, out = outs
    assert out["value"] / scale == pytest.approx(ref["value"], rel=1e-9)
    assert out["reconstruction_residual"] <= 1e-12
    assert out["norm_product"] <= out["value"] * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# verify-main


def test_verify_main_json(capsys):
    code, doc = _run_json(
        capsys,
        ["verify-main", "--dims", "2,2,2", "--trials", "3", "--restarts", "32"],
    )
    assert code == 0
    out = doc["outputs"]
    assert out["passed"] is True
    assert len(out["results"]) == 3
    assert out["max_rel_gap"] <= 1e-3
    for row in out["results"]:
        assert row["lower"] <= row["upper"] + 1e-9


def test_verify_main_csv(capsys):
    code, out = _run(
        capsys,
        ["verify-main", "--dims", "2,2,2", "--trials", "2", "--restarts", "32",
         "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["trial", "lower", "upper", "rel_gap"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row[1]) <= float(row[2]) + 1e-9


def test_verify_main_impossible_tolerance_exits_two(capsys):
    code, doc = _run_json(
        capsys,
        ["verify-main", "--dims", "2,2,2", "--trials", "2", "--restarts", "8",
         "--tol", "1e-16"],
    )
    assert code == 2
    assert doc["outputs"]["passed"] is False


def test_verify_main_budget_cap(capsys):
    code, _ = _run(capsys, ["verify-main", "--dims", "5,2,2", "--trials", "1"])
    assert code == 1


def test_verify_main_passes_max_iter(capsys):
    argv = ["verify-main", "--dims", "3,2,3", "--trials", "1", "--restarts", "1"]
    _, full = _run_json(capsys, argv)
    _, capped = _run_json(capsys, argv + ["--max-iter", "1"])
    assert capped["outputs"]["results"][0]["lower"] < full["outputs"]["results"][0]["lower"]


def test_run_verify_main_rejects_zero_trials():
    with pytest.raises(ValueError):
        cli.run_verify_main((2, 2, 2), trials=0)


def test_verify_main_zero_trials_exits_one(capsys):
    code, out = _run(capsys, ["verify-main", "--dims", "2,2,2", "--trials", "0"])
    assert code == 1
    assert out == ""


def test_verify_main_complex_entries(capsys):
    code, doc = _run_json(
        capsys,
        ["verify-main", "--dims", "2,2,2", "--trials", "2", "--restarts", "32",
         "--complex"],
    )
    assert code == 0
    assert doc["outputs"]["passed"] is True


# ---------------------------------------------------------------------------
# worked examples and the two-operator sandwich


def test_example_ex1(capsys):
    code, doc = _run_json(capsys, ["examples", "ex1", "--n", "4"])
    assert code == 0
    out = doc["outputs"]
    assert out["identity_residual"] <= 1e-11
    assert out["norm_error"] <= 1e-6


def test_example_ex2(capsys):
    code, doc = _run_json(capsys, ["examples", "ex2"])
    assert code == 0
    out = doc["outputs"]
    assert out["canonical_norm"] == pytest.approx(np.sqrt(2.0), abs=1e-5)
    assert out["canonical_sup"] == 1.0
    growth = [row["value"] for row in out["growth"]]
    assert all(b > a for a, b in zip(growth, growth[1:]))
    assert out["passed"] is True


def test_peller_sandwich(tmp_path, capsys):
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [3, 3], seed=9)
    code, doc = _run_json(
        capsys,
        ["peller", "--op-a", op_paths[0], "--op-b", op_paths[1],
         "--grid", grid_path],
    )
    assert code == 0
    out = doc["outputs"]
    assert out["lower"] <= out["upper"] + 1e-9
    assert out["rel_gap"] <= 1e-3
    assert out["passed"] is True


def test_peller_bounds_do_not_depend_on_seed(tmp_path, capsys):
    # Both bounds come from one solve; --seed only draws the reduction
    # check's inputs.
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [4, 4], seed=12)
    argv = ["peller", "--op-a", op_paths[0], "--op-b", op_paths[1], "--grid", grid_path]
    first, *others = [
        _run_json(capsys, argv + ["--seed", seed])[1]["outputs"]
        for seed in ("1", "2", "1000")
    ]
    for out in others:
        for key in ("lower", "upper", "converged"):
            assert out[key] == first[key]


def test_peller_rejects_ascent_flags(tmp_path, capsys):
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [2, 2])
    argv = ["peller", "--op-a", op_paths[0], "--op-b", op_paths[1], "--grid", grid_path]
    assert main(argv + ["--restarts", "4"]) == 1
    assert main(argv + ["--max-iter", "4"]) == 1
    # Nor the ascent's agreement tolerance: its gap is the solve's certified
    # gap, so the solve's status decides.
    assert main(argv + ["--tol", "1e-3"]) == 1


def test_starved_peller_fails(tmp_path, capsys, monkeypatch):
    # A solve cut off before its gap certifies fails peller, although its
    # bounds are still valid.
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [4, 4], seed=12)
    code, doc = _run_json(
        capsys,
        ["peller", "--op-a", op_paths[0], "--op-b", op_paths[1], "--grid", grid_path],
    )
    out = doc["outputs"]
    assert code == 2
    assert out["passed"] is False
    assert out["converged"] is False
    assert out["lower"] <= out["upper"]


def test_peller_solves_the_sdp_once(tmp_path, capsys, monkeypatch):
    calls = []
    solve = norms.solve_gamma2_sdp

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(norms, "solve_gamma2_sdp", counting_solve)
    monkeypatch.setattr(cli, "solve_gamma2_sdp", counting_solve)
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [3, 3], seed=9)
    code, doc = _run_json(
        capsys,
        ["peller", "--op-a", op_paths[0], "--op-b", op_paths[1],
         "--grid", grid_path],
    )
    assert code == 0
    assert doc["outputs"]["factor_residual"] <= 1e-5
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the report envelope shared by every subcommand

SEEDED = {"norm-s1", "verify-main", "examples ex1", "examples ex2", "peller"}


def _envelope_case(tmp_path, command):
    """argv of one subcommand and the files it declares, keyed by label."""
    (tmp_path / "two").mkdir()
    (tmp_path / "three").mkdir()
    (a, b), psi, _, _ = _normal_ops_and_grid(tmp_path / "two", [2, 2], seed=1)
    (p, q, r), phi, _, _ = _normal_ops_and_grid(tmp_path / "three", [2, 2, 2], seed=2)
    x = _matrix_file(tmp_path, "x.json", RNG.standard_normal((2, 2)))
    y = _matrix_file(tmp_path, "y.json", RNG.standard_normal((2, 2)))
    s = _matrix_file(tmp_path, "s.json", np.eye(2))
    three = {"op_a": p, "op_b": q, "op_c": r, "grid": phi}
    three_argv = ["--op-a", p, "--op-b", q, "--op-c", r, "--grid", phi]
    cases = {
        "eig": (["eig", s], {"matrix": s}),
        "doi": (["doi", "--op-a", a, "--op-b", b, "--grid", psi, "--x", x],
                {"op_a": a, "op_b": b, "grid": psi, "x": x}),
        "toi": (["toi", *three_argv, "--x", x, "--y", y], {**three, "x": x, "y": y}),
        "moi": (["moi", "--op", p, "--op", q, "--op", r, "--grid", phi,
                 "--arg", x, "--arg", y],
                {"op_0": p, "op_1": q, "op_2": r, "arg_0": x, "arg_1": y, "grid": phi}),
        "norm-s2": (["norm-s2", *three_argv], three),
        "norm-s1": (["norm-s1", *three_argv, "--restarts", "4"], three),
        "gamma2": (["gamma2", s], {"matrix": s}),
        "factor": (["factor", s], {"matrix": s}),
        "verify-main": (["verify-main", "--trials", "1", "--restarts", "8"], {}),
        "examples ex1": (["examples", "ex1", "--n", "2"], {}),
        "examples ex2": (["examples", "ex2", "--n", "2"], {}),
        "peller": (["peller", "--op-a", a, "--op-b", b, "--grid", psi],
                   {"op_a": a, "op_b": b, "grid": psi}),
    }
    argv, files = cases[command]
    if command in SEEDED:
        argv = argv + ["--seed", "3"]
    return argv, files


@pytest.mark.parametrize(
    "command",
    ["eig", "doi", "toi", "moi", "norm-s2", "norm-s1", "gamma2", "factor",
     "verify-main", "examples ex1", "examples ex2", "peller"],
)
def test_report_envelope(tmp_path, capsys, command):
    argv, files = _envelope_case(tmp_path, command)
    code, doc = _run_json(capsys, argv)
    assert code == 0
    assert list(doc) == ["command", "inputs", "outputs", "timings", "seed", "tool_version"]
    assert doc["command"] == command
    digests = {
        label: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for label, path in files.items()
    }
    assert doc["inputs"] == digests
    assert list(doc["inputs"]) == list(files)
    assert doc["seed"] == (3 if command in SEEDED else None)
    extra = ["ascent", "slice_sdp"] if command == "verify-main" else []
    assert list(doc["timings"]) == ["total", *extra]
    assert all(value >= 0.0 for value in doc["timings"].values())
    assert doc["tool_version"] == __version__


# ---------------------------------------------------------------------------
# failure modes and plumbing


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    path = _matrix_file(tmp_path, "sign.json", [[1.0, 1.0], [1.0, -1.0]])
    code, first = _run_json(capsys, ["gamma2", path])
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    again, second = _run_json(capsys, ["gamma2", path])
    assert code == again == 0
    assert second["outputs"] == first["outputs"]
    # A usage error after a good call still exits 1, and a good call after
    # it still succeeds, all on the parser built before.
    assert main(["gamma2"]) == 1
    assert main(["gamma2", path]) == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_missing_file_exits_one(capsys):
    assert main(["eig", "/nonexistent/matrix.json"]) == 1


def test_invalid_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["eig", str(path)]) == 1


def test_malformed_matrix_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"rows": 2, "cols": 2, "re": [[1, 2]]})
    assert main(["eig", path]) == 1


def test_csv_rejected_outside_verify_main(tmp_path, capsys):
    path = _matrix_file(tmp_path, "m.json", np.eye(2))
    assert main(["gamma2", path, "--format", "csv"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["examples", "ex1", "--n", "0"],
        ["examples", "ex2", "--n", "0"],
        ["gamma2", "MATRIX", "--tol", "nan"],
        ["gamma2", "MATRIX", "--tol", "inf"],
        ["verify-main", "--trials", "1", "--tol", "-1"],
        ["verify-main", "--trials", "1", "--tol", "nan"],
        ["eig", "MATRIX", "--tol", "nan"],
        ["eig", "MATRIX", "--tol", "inf"],
        ["eig", "MATRIX", "--tol", "-1"],
        ["norm-s1", "--op-a", "OP3_A", "--op-b", "OP3_B", "--op-c", "OP3_C", "--grid", "GRID3",
         "--max-iter", "0"],
        ["norm-s1", "--op-a", "OP3_A", "--op-b", "OP3_B", "--op-c", "OP3_C", "--grid", "GRID3",
         "--max-iter", "-3"],
        ["verify-main", "--dims", "2,2,2", "--trials", "1", "--max-iter", "0"],
        ["verify-main", "--dims", "2,2,2", "--trials", "1", "--max-iter", "-3"],
        ["eig", "NESTED"],
    ],
    ids=["ex1-n0", "ex2-n0", "gamma2-nan", "gamma2-inf", "verify-neg", "verify-nan",
         "eig-nan", "eig-inf", "eig-neg", "norm-s1-sweeps0",
         "norm-s1-sweeps-neg", "verify-sweeps0", "verify-sweeps-neg", "eig-nested"],
)
def test_rejected_arguments_exit_one(tmp_path, capsys, argv):
    op_paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, [2, 2])
    (tmp_path / "three").mkdir()
    op3_paths, grid3_path, _, _ = _normal_ops_and_grid(tmp_path / "three", [2, 2, 2])
    files = {"MATRIX": _matrix_file(tmp_path, "m.json", [[2.0]]), "OP_A": op_paths[0],
             "OP_B": op_paths[1], "GRID": grid_path, "OP3_A": op3_paths[0],
             "OP3_B": op3_paths[1], "OP3_C": op3_paths[2], "GRID3": grid3_path}
    files["NESTED"] = str(tmp_path / "nested.json")
    Path(files["NESTED"]).write_text("[" * 200000)
    code = main([files.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("opintlab: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "payload",
    [b"[" * 200000, b'{"rows": 1, "cols": 1, "re": [[1]], "im": [[0]], "note": "\xff"}',
     b"\xef\xbb\xbf" + json.dumps(matrix_to_json(np.eye(1))).encode()],
    ids=["nested", "invalid-utf8", "bom"],
)
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    assert main(["eig", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"opintlab: error: {path} is not valid JSON")
    assert "Traceback" not in err


def test_semantic_input_error_names_its_file(tmp_path, capsys):
    paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, (2, 2))
    x = _write(tmp_path, "x.json", {"rows": 2, "cols": 2, "re": [[0, 0], [0, 0]]})
    argv = ["doi", "--op-a", paths[0], "--op-b", paths[1], "--grid", grid_path, "--x", x]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"opintlab: error: {x}: matrix JSON is missing required key 'im'\n"


def test_non_normal_operator_names_its_file(tmp_path, capsys):
    paths, grid_path, _, _ = _normal_ops_and_grid(tmp_path, (2, 2))
    jordan = _matrix_file(tmp_path, "jordan.json", [[1.0, 1.0], [0.0, 1.0]])
    x = _matrix_file(tmp_path, "x.json", np.eye(2))
    argv = ["doi", "--op-a", paths[0], "--op-b", jordan, "--grid", grid_path, "--x", x]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"opintlab: error: {jordan}: ")


def test_missing_file_reported_before_malformed_one(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"rows": 1})
    missing = str(tmp_path / "missing.json")
    assert main(["doi", "--op-a", bad, "--op-b", bad, "--grid", bad, "--x", missing]) == 1
    assert capsys.readouterr().err.startswith(f"opintlab: error: cannot read {missing}")


@pytest.mark.parametrize("command", ["toi", "moi"])
def test_each_input_file_is_opened_once(tmp_path, capsys, monkeypatch, command):
    # The digest and the parse of each input come from one read of its bytes.
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    argv, files = _envelope_case(tmp_path, command)
    code, _ = _run_json(capsys, argv)
    assert code == 0
    assert sorted(opened) == sorted(files.values())


@pytest.mark.parametrize(
    "command, matrix",
    [("eig", np.diag([1e-200, -1e-200])), ("eig", [[1e308]]), ("eig", [[1e-320, 0.0], [0.0, 0.0]]),
     ("gamma2", [[1e308 * (1 + 1j)]])],
    ids=["eig-tiny", "eig-huge", "eig-subnormal", "gamma2-huge"],
)
def test_extreme_scale_reports_are_strict_json(tmp_path, capsys, command, matrix):
    path = _matrix_file(tmp_path, "m.json", matrix)
    code, out = _run(capsys, [command, path])
    assert code == 0

    def reject(constant):
        raise ValueError(f"report holds {constant}")

    doc = json.loads(out, parse_constant=reject)
    if command == "eig":
        assert doc["outputs"]["residuals"]["reconstruction"] <= 1e-12
        assert doc["outputs"]["residuals"]["normality"] <= 1e-12
    else:
        value = doc["outputs"]["value"]
        assert doc["outputs"]["feasibility"]["min_eigenvalue"] >= -1e-8 * value


def test_relative_gap_has_no_floor():
    assert cli._relative(2e-200 - 1e-200, 2e-200) == 0.5
    assert cli._relative(np.full((2, 2), 1e-200), np.full((2, 2), 4e-200)) == 0.25
    assert cli._relative(np.full((2, 2), 1e200), np.full((2, 2), 4e200)) == 0.25
    assert cli._relative(0.0, 0.0) == 0.0


@pytest.mark.parametrize("which", ["ex1", "ex2"])
def test_examples_reject_large_n_before_allocating(capsys, which):
    # n = 129 needs 2n = 258 > MAX_SIDE; the n^3 grids must not be built first.
    tracemalloc.start()
    try:
        code = main(["examples", which, "--n", "129"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("opintlab: error: ")
    assert peak < 5e6


def test_unwritable_out_path_exits_one(tmp_path, capsys):
    path = _matrix_file(tmp_path, "m.json", np.eye(2))
    target = tmp_path / "missing" / "report.json"
    assert main(["eig", path, "--out", str(target)]) == 1
    assert capsys.readouterr().err.startswith("opintlab: error: ")


def test_out_flag_writes_file(tmp_path, capsys):
    path = _matrix_file(tmp_path, "m.json", np.eye(2))
    target = tmp_path / "report.json"
    code = main(["gamma2", path, "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["outputs"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "opintlab" in capsys.readouterr().out
