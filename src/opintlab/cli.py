"""Command-line interface.

Every subcommand declares its JSON input files (dense complex matrices,
normal operators and symbol value grids).  The shared runner reads each
declared file once, hashes and parses those same bytes, and hands the
parsed objects to the subcommand, which only computes.  The run report
holds the command, the sha256 of each input's bytes, outputs, stage
timings, seed and tool version.  Reports go to stdout or to --out as
strict JSON (no NaN or infinity); verify-main can emit its trial table as
CSV.

Exit status: 0 when all checks pass, 2 when a numerical check or tolerance
fails, 1 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time

import numpy as np
import orjson

from . import __version__
from .errors import BudgetExceeded, NotNormal, OpintError, ParseError
from .linalg import (
    NORMALITY_TOL,
    NormalOperator,
    divide_by_largest,
    matrix_from_json,
    matrix_to_json,
    normal_eig,
    schatten_norm,
    trace_pairing,
)
from .norms import (
    AGREEMENT_TOL,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    DEFAULT_SWEEPS,
    doi_s1_norm,
    norm_estimate_to_json,
    recover_factorization,
    s1_bilinear_norm_lower,
    s2s2_to_s2_norm,
    trilinear_factor_norm,
)
from .opint import doi_apply, doi_via_toi, moi_apply, toi_apply
from .sdp import GAP_TOL, MAX_SIDE, solve_gamma2_sdp
from .symbols import SymbolGrid, grid_from_json, sup_norm

_VERIFY_DIM_CAP = 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _relative(residual, reference) -> float:
    """||residual||_2 / ||reference||_2, or ||residual||_2 when the reference
    vanishes.  Each norm is taken on its argument divided by its largest
    entry modulus, so neither under- nor overflows at any scale."""
    top_res, res = divide_by_largest(np.asarray(residual))
    top_ref, ref = divide_by_largest(np.asarray(reference))
    if top_ref == 0.0:
        return top_res * float(np.linalg.norm(res))
    return top_res / top_ref * float(np.linalg.norm(res) / np.linalg.norm(ref))


def _operator_to_json(op: NormalOperator) -> dict:
    _, unit = divide_by_largest(op.matrix)
    adj = unit.conj().T
    recon = op.eigenbasis @ (op.eigenvalues[:, None] * op.eigenbasis.conj().T)
    return {
        "dim": op.dim,
        "eigenvalues_re": op.eigenvalues.real.tolist(),
        "eigenvalues_im": op.eigenvalues.imag.tolist(),
        "eigenbasis": matrix_to_json(op.eigenbasis),
        "residuals": {
            "normality": _relative(unit @ adj - adj @ unit, unit)
            / (float(np.linalg.norm(unit)) or 1.0),
            "orthonormality": float(
                np.linalg.norm(op.eigenbasis @ op.eigenbasis.conj().T - np.eye(op.dim))
            ),
            "reconstruction": _relative(recon - op.matrix, op.matrix),
        },
    }


def _diag_op(dim: int) -> NormalOperator:
    return NormalOperator.from_eigensystem(np.arange(dim, dtype=np.float64))


def _diag_axes(dims) -> tuple:
    return tuple(np.arange(d, dtype=np.complex128) for d in dims)


def _random_grid(rng, dims, complex_entries: bool) -> SymbolGrid:
    if complex_entries:
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=dims))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=dims)
        values = radius * np.exp(1j * angle)
    else:
        values = rng.uniform(-1.0, 1.0, size=dims)
    return SymbolGrid(axes=_diag_axes(dims), values=values)


# ---------------------------------------------------------------------------
# subcommands: each computes on its parsed inputs and returns (outputs, passed)


def cmd_eig(args):
    try:
        op = normal_eig(args.matrix, normality_tol=args.tol)
    except NotNormal as exc:
        return {"error": "NotNormal", "message": str(exc)}, False
    return _operator_to_json(op), True


def _transform_report(result, grid: SymbolGrid, args):
    """A transform's result and the contraction check ||result||_2 <=
    sup|grid| * ||X1||_2 * ... * ||Xn||_2.

    Every norm is split into a mantissa and a power of two, and the check
    compares the product of the factors' mantissas with ||result||_2 scaled
    by the summed powers, so no intermediate leaves the float range and a
    bound beyond it still decides the check.  Where the product stays in
    range this is the plain comparison bit for bit.  The bound itself is
    reported as null when it is not representable.
    """
    mantissa, exponent = 1.0, 0
    for factor in [sup_norm(grid)] + [schatten_norm(arg, 2) for arg in args]:
        part, power = math.frexp(factor)
        mantissa, exponent = mantissa * part, exponent + power
    out_norm = schatten_norm(result, 2)
    part, power = math.frexp(out_norm)
    # The right side is below 2, so a power of two past 2**64 cannot change
    # the answer.
    scaled = math.ldexp(part, min(power - exponent, 64))
    bound_ok = bool(out_norm == 0.0 or scaled <= mantissa * (1.0 + 1e-10))
    try:
        bound = math.ldexp(mantissa, exponent)
    except OverflowError:
        bound = None
    return {
        "result": matrix_to_json(result),
        "result_s2": out_norm,
        "contraction_bound": bound,
        "bound_ok": bound_ok,
    }, bound_ok


def cmd_doi(args):
    result = doi_apply(args.op_a, args.op_b, args.grid, args.x)
    return _transform_report(result, args.grid, [args.x])


def cmd_toi(args):
    result = toi_apply(args.op_a, args.op_b, args.op_c, args.grid, args.x, args.y)
    return _transform_report(result, args.grid, [args.x, args.y])


def cmd_moi(args):
    return _transform_report(moi_apply(args.op, args.grid, args.arg), args.grid, args.arg)


def cmd_norm_s2(args):
    ops = (args.op_a, args.op_b, args.op_c, args.grid)
    est = s2s2_to_s2_norm(*ops)
    achieved = schatten_norm(toi_apply(*ops, est.witness["X"], est.witness["Y"]), 2)
    return {
        "estimate": norm_estimate_to_json(est),
        "witness_value": achieved,
        "witness_residual": _relative(achieved - est.value, est.value),
    }, True


def cmd_norm_s1(args):
    ops = (args.op_a, args.op_b, args.op_c, args.grid)
    est = s1_bilinear_norm_lower(
        *ops, restarts=args.restarts, max_iter=args.max_iter, seed=args.seed
    )
    reeval = abs(
        trace_pairing(toi_apply(*ops, est.witness["X"], est.witness["Y"]), est.witness["Z"])
    )
    return {
        "estimate": norm_estimate_to_json(est),
        "witness_value": reeval,
        "witness_residual": _relative(reeval - est.value, est.value),
    }, True


def cmd_gamma2(args):
    mat = args.matrix
    sol = solve_gamma2_sdp(mat, gap_tol=args.tol)
    p, q = mat.shape
    top, unit = divide_by_largest(sol.gram)
    min_eig = top * float(np.linalg.eigvalsh((unit + unit.conj().T) / 2.0)[0])
    diag = np.diag(sol.gram).real
    return {
        "value": sol.value,
        "duality_gap": sol.duality_gap,
        "iterations": sol.iterations,
        "status": sol.status,
        "gram": matrix_to_json(sol.gram),
        "feasibility": {
            "min_eigenvalue": min_eig,
            "diag_excess": float(max(0.0, np.max(diag) - sol.value)),
            "data_block_residual": float(np.linalg.norm(sol.gram[:p, p:] - mat)),
        },
    }, sol.status == "Optimal"


def cmd_factor(args):
    mat = args.matrix
    p, q = mat.shape
    sol = solve_gamma2_sdp(mat, gap_tol=args.tol)
    pair = recover_factorization(sol.gram, p, q)
    residual = _relative(pair.reconstruct() - mat, mat)
    return {
        "value": sol.value,
        "duality_gap": sol.duality_gap,
        "status": sol.status,
        "hilbert_dim": pair.hilbert_dim,
        "norm_a": pair.norm_a,
        "norm_b": pair.norm_b,
        "norm_product": pair.norm_a * pair.norm_b,
        "reconstruction_residual": residual,
        "a": matrix_to_json(pair.a),
        "b": matrix_to_json(pair.b),
    }, sol.status == "Optimal" and residual <= 1e-6


def run_verify_main(
    dims,
    trials: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    tol: float = AGREEMENT_TOL,
    complex_entries: bool = False,
    max_iter: int = DEFAULT_SWEEPS,
) -> dict:
    """Check lower/upper agreement for the trace-norm-output trilinear norm.

    For each trial a random grid is drawn on the given dimensions, the
    multi-start ascent produces a lower bound, the slice factorization norms
    an upper bound, and the relative gap must not exceed ``tol``.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"need three positive dimensions, got {dims}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    if any(d > _VERIFY_DIM_CAP for d in dims):
        raise BudgetExceeded(
            f"dimensions {dims} exceed the default verification budget "
            f"(each must be <= {_VERIFY_DIM_CAP})"
        )
    ops = tuple(_diag_op(d) for d in dims)
    rows = []
    t_lower = t_upper = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        grid = _random_grid(rng, dims, complex_entries)
        t0 = time.perf_counter()
        lower = s1_bilinear_norm_lower(
            *ops, grid, restarts=restarts, max_iter=max_iter, seed=seed ^ (trial + 1)
        ).value
        t1 = time.perf_counter()
        upper = trilinear_factor_norm(grid)[0].value
        t2 = time.perf_counter()
        t_lower += t1 - t0
        t_upper += t2 - t1
        rows.append(
            {
                "trial": trial,
                "lower": lower,
                "upper": upper,
                "rel_gap": _relative(upper - lower, upper),
            }
        )
    max_gap = max(row["rel_gap"] for row in rows)
    return {
        "dims": list(dims),
        "trials": trials,
        "restarts": restarts,
        "tolerance": tol,
        "complex": complex_entries,
        "results": rows,
        "max_rel_gap": max_gap,
        "passed": bool(max_gap <= tol),
        "timings": {"ascent": t_lower, "slice_sdp": t_upper},
    }


def cmd_verify_main(args):
    dims = tuple(int(part) for part in args.dims.split(","))
    outcome = run_verify_main(
        dims,
        trials=args.trials,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        complex_entries=args.complex,
        max_iter=args.max_iter,
    )
    return outcome, outcome["passed"]


def _check_example_size(n: int) -> None:
    """Reject n before the examples allocate their n^3 grids: both solve
    n-by-n slices, which the dense solver caps at 2n <= MAX_SIDE."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if 2 * n > MAX_SIDE:
        raise BudgetExceeded(f"n = {n} exceeds the dense solver budget 2n <= {MAX_SIDE}")


def run_example_ex1(n: int, seed: int = DEFAULT_SEED) -> dict:
    """Grid constant along its first axis: the transform is X times a
    Schur multiplier of Y, and the trace-output norm is the largest entry."""
    _check_example_size(n)
    rng = np.random.default_rng([seed, 1])
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    ops = (_diag_op(n), _diag_op(n), _diag_op(n))
    axes = _diag_axes((n, n, n))
    grid = SymbolGrid(axes=axes, values=np.broadcast_to(s[None, :, :], (n, n, n)).copy())
    schur = SymbolGrid(axes=axes[1:], values=s.astype(np.complex128))
    x = rng.uniform(-1.0, 1.0, size=(n, n))
    y = rng.uniform(-1.0, 1.0, size=(n, n))
    lhs = toi_apply(*ops, grid, x, y)
    rhs = x @ doi_apply(ops[1], ops[2], schur, y)
    residual = _relative(lhs - rhs, lhs)
    value = trilinear_factor_norm(grid)[0].value
    expected = float(np.max(np.abs(s)))
    return {
        "n": n,
        "identity_residual": residual,
        "norm_value": value,
        "expected_value": expected,
        "norm_error": abs(value - expected),
        "passed": bool(residual <= 1e-11 and abs(value - expected) <= 1e-6),
    }


def _embed_middle_slice(s: np.ndarray, width: int) -> SymbolGrid:
    """Order-3 grid whose first middle slice is ``s`` and the rest vanish."""
    n1, n3 = s.shape
    values = np.zeros((n1, width, n3), dtype=np.complex128)
    values[:, 0, :] = s
    return SymbolGrid(axes=_diag_axes((n1, width, n3)), values=values)


def run_example_ex2(n: int, seed: int = DEFAULT_SEED) -> dict:
    """Single-slice grids and the separation between sup and trace norms.

    The canonical 2-by-2 sign matrix gives trace-output norm sqrt(2) against
    sup norm 1, and the factorization norm of the lower-triangular all-ones
    matrix grows strictly with its size.
    """
    _check_example_size(n)
    canonical = np.array([[1.0, 1.0], [1.0, -1.0]])
    canon_grid = _embed_middle_slice(canonical, 2)
    canon_value = trilinear_factor_norm(canon_grid)[0].value
    canon_sup = sup_norm(canon_grid)

    rng = np.random.default_rng([seed, 2])
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    embed_value = trilinear_factor_norm(_embed_middle_slice(s, n))[0].value
    direct_value = solve_gamma2_sdp(s).value

    growth = []
    for size in (2, 4, 8, 16):
        tri = np.tril(np.ones((size, size)))
        growth.append({"n": size, "value": solve_gamma2_sdp(tri).value})
    increasing = all(
        growth[i + 1]["value"] > growth[i]["value"] for i in range(len(growth) - 1)
    )
    passed = (
        abs(canon_value - np.sqrt(2.0)) <= 1e-5
        and abs(canon_sup - 1.0) <= 1e-12
        and abs(embed_value - direct_value) <= 1e-6
        and increasing
    )
    return {
        "n": n,
        "canonical_norm": canon_value,
        "canonical_sup": canon_sup,
        "separation_ratio": canon_value / canon_sup,
        "embedded_norm": embed_value,
        "direct_factor_norm": direct_value,
        "growth": growth,
        "growth_strictly_increasing": increasing,
        "passed": bool(passed),
    }


def cmd_examples(args):
    run = run_example_ex1 if args.which == "ex1" else run_example_ex2
    outcome = run(args.n, seed=args.seed)
    return outcome, outcome["passed"]


def cmd_peller(args):
    op_a, op_b, psi = args.op_a, args.op_b, args.grid
    est = doi_s1_norm(op_a, op_b, psi)
    upper = est.upper_certificate
    gap = _relative(upper - est.value, upper)

    pair = recover_factorization(est.witness["gram"], op_a.dim, op_b.dim)
    recon_residual = _relative(pair.reconstruct() - psi.values, psi.values)

    rng = np.random.default_rng([args.seed, 3])
    mid = _diag_op(op_a.dim)
    x = rng.uniform(-1.0, 1.0, size=(op_a.dim, mid.dim))
    y = rng.uniform(-1.0, 1.0, size=(mid.dim, op_b.dim))
    via = doi_via_toi(op_a, op_b, psi, x, y, mid)
    direct = doi_apply(op_a, op_b, psi, x @ y)
    reduction_residual = _relative(via - direct, direct)

    passed = bool(
        est.converged
        and recon_residual <= 1e-5
        and reduction_residual <= 1e-11
        and pair.norm_a * pair.norm_b <= upper * (1.0 + 1e-5)
    )
    return {
        "lower": est.value,
        "upper": upper,
        "rel_gap": gap,
        "converged": est.converged,
        "factor_norm_product": pair.norm_a * pair.norm_b,
        "factor_residual": recon_residual,
        "reduction_residual": reduction_residual,
        "passed": passed,
    }, passed


# ---------------------------------------------------------------------------
# parser and the shared report path


def _read_inputs(args) -> dict:
    """Read every declared input file once and return the sha256 of its
    bytes by report label (repeated flags get _0, _1, ...).

    All files are read, in declaration order, before any is parsed.  The
    same bytes then go straight to orjson, which rejects invalid UTF-8, a
    byte-order mark, ``NaN``/``Infinity``, numbers beyond the double range
    and too deep nesting as invalid JSON.  The documents are parsed by
    name: ``op*`` to certified spectral data, ``grid`` to a symbol grid,
    anything else to a matrix; an error raised there keeps its type and
    names the file.  Each parsed object replaces its path on ``args``.
    """
    blobs = []
    for spec in args.files:
        dest = spec.strip("-*").replace("-", "_")
        value = getattr(args, dest)
        repeated = isinstance(value, list)
        for m, path in enumerate(value if repeated else [value]):
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                raise ParseError(f"cannot read {path}: {exc}") from exc
            blobs.append((dest, f"{dest}_{m}" if repeated else dest, path, data))
    parsed = {}
    for dest, _, path, data in blobs:
        try:
            obj = orjson.loads(data)
        except orjson.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        try:
            if dest.startswith("op"):
                obj = normal_eig(matrix_from_json(obj))
            elif dest == "grid":
                obj = grid_from_json(obj)
            else:
                obj = matrix_from_json(obj)
        except OpintError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        parsed.setdefault(dest, []).append(obj)
    for dest, objs in parsed.items():
        setattr(args, dest, objs if isinstance(getattr(args, dest), list) else objs[0])
    return {label: hashlib.sha256(data).hexdigest() for _, label, _, data in blobs}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: the subcommands look
    up the library functions they call when they run."""
    parser = _Parser(prog="opintlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"opintlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, files=(), seed=False, restarts=False, tol=None):
        """One subcommand.  ``files`` names its input files, in report order:
        a bare name is positional, ``--flag`` is required, and ``--flag*``
        is required and repeatable."""
        p = sub.add_parser(name, help=help)
        for spec in files:
            flag = spec.rstrip("*")
            if not flag.startswith("--"):
                p.add_argument(flag)
            elif spec.endswith("*"):
                p.add_argument(flag, action="append", required=True, help="repeatable")
            else:
                p.add_argument(flag, required=True)
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if restarts:
            p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
            p.add_argument("--max-iter", type=int, default=DEFAULT_SWEEPS)
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)
        p.set_defaults(func=func, files=files)
        return p

    grid2 = ("--op-a", "--op-b", "--grid")
    grid3 = ("--op-a", "--op-b", "--op-c", "--grid")
    add("eig", cmd_eig, "spectral data of a normal matrix", ("matrix",), tol=NORMALITY_TOL)
    add("doi", cmd_doi, "apply a two-operator integral", grid2 + ("--x",))
    add("toi", cmd_toi, "apply a three-operator integral", grid3 + ("--x", "--y"))
    add("moi", cmd_moi, "apply an n-operator integral", ("--op*", "--arg*", "--grid"))
    add("norm-s2", cmd_norm_s2, "exact Hilbert-Schmidt bilinear norm", grid3)
    add("norm-s1", cmd_norm_s1, "trace-norm-output lower bound by ascent", grid3,
        seed=True, restarts=True)
    add("gamma2", cmd_gamma2, "factorization norm of a matrix", ("matrix",), tol=GAP_TOL)
    add("factor", cmd_factor, "factorization norm with recovered vectors", ("matrix",),
        tol=GAP_TOL)

    p = add("verify-main", cmd_verify_main,
            "lower/upper agreement for the trilinear trace norm",
            seed=True, restarts=True, tol=AGREEMENT_TOL)
    p.add_argument("--dims", default="2,2,2", help="comma-separated dimensions")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--complex", action="store_true", help="complex unit-disk entries")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format; csv writes the trial table")

    p = add("examples", cmd_examples, "built-in worked examples", seed=True)
    p.add_argument("which", choices=("ex1", "ex2"))
    p.add_argument("--n", type=int, default=3)

    add("peller", cmd_peller, "trace-to-trace sandwich for one symbol", grid2, seed=True)
    return parser


def _run(args) -> int:
    """Run one parsed subcommand, write its report, and return the exit code."""
    t0 = time.perf_counter()
    inputs = _read_inputs(args)
    outputs, passed = args.func(args)
    timings = {"total": time.perf_counter() - t0, **outputs.pop("timings", {})}
    if getattr(args, "format", "json") == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(("trial", "lower", "upper", "rel_gap"))
        writer.writerows(
            (row["trial"], row["lower"], row["upper"], row["rel_gap"])
            for row in outputs["results"]
        )
        text = buffer.getvalue()
    else:
        report = {
            "command": f"examples {args.which}" if args.command == "examples" else args.command,
            "inputs": inputs,
            "outputs": outputs,
            "timings": timings,
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
        }
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except NotNormal as exc:
        sys.stderr.write(f"opintlab: error: {exc}\n")
        return 2
    except (OpintError, ValueError, OSError) as exc:
        sys.stderr.write(f"opintlab: error: {exc}\n")
        return 1
