"""The three workloads: inputs from a seed, requests, and their checks.

gamma2_cert         CLI ``gamma2`` and ``factor``; the SDP solve is the work.
trilinear_sandwich  CLI ``verify-main``, ``norm-s1``, ``peller``, ``examples``;
                    ascent kernels and slice SDPs share the time.
transform_apply     library transforms (``apply``) and CLI ``eig``/``toi``/``moi``
                    on JSON files (``io``); no SDP or ascent work at all.
"""

from __future__ import annotations

import os

import numpy as np

from common import (
    CliRunner,
    Outcome,
    Request,
    Workload,
    digest,
    first_reason,
    grid_obj,
    hs_bound,
    matrix_digest,
    matrix_from,
    matrix_obj,
    normal_matrix,
    random_unitary,
    same_spectrum,
    shared_real_spectrum,
    trig_symbol,
    write_json,
)

SQRT2 = float(np.sqrt(2.0))
REL = 1e-9  # roundoff allowance on certified bounds
GOLDEN_REL = 1e-6  # agreement asked of an Optimal value with a known norm
SCALES = (-8, -4, 4, 8)


def _row_col_bound(s: np.ndarray) -> float:
    """gamma2(S) <= largest row (or column) Euclidean norm."""
    return min(np.max(np.linalg.norm(s, axis=1)), np.max(np.linalg.norm(s, axis=0)))


# ---------------------------------------------------------------------------
# gamma2_cert


def _check_gamma2(s: np.ndarray, golden: float | None):
    p, q = s.shape
    top = float(np.max(np.abs(s)))

    def check(code: int, out: dict) -> Outcome:
        value = float(out["value"])
        gram = matrix_from(out["gram"])
        herm = (gram + gram.conj().T) / 2.0
        evals = np.linalg.eigvalsh(herm)
        scale = max(float(np.max(np.abs(evals))), 1e-300)
        hard = [
            ("data_block", np.linalg.norm(gram[:p, p:] - s) > 1e-12 * np.linalg.norm(s)),
            ("gram_psd", evals[0] < -1e-9 * scale),
            ("diag_above_value", np.max(np.diag(gram).real) > value * (1 + REL)),
            ("below_max_entry", value < top * (1 - REL)),
            ("below_golden", golden is not None and value < golden * (1 - REL)),
        ]
        soft = [
            ("loose:row_bound", value > _row_col_bound(s) * (1 + GOLDEN_REL)),
            ("golden", golden is not None and value > golden * (1 + GOLDEN_REL)),
        ]
        reason = first_reason(hard, code, out.get("status", "?"), soft)
        return Outcome(reason, digest(value, code), value)

    return check


def _check_factor(s: np.ndarray, golden: float | None):
    top = float(np.max(np.abs(s)))

    def check(code: int, out: dict) -> Outcome:
        value = float(out["value"])
        a = matrix_from(out["a"])
        b = matrix_from(out["b"])
        recon = a @ b.conj().T
        norms = np.max(np.linalg.norm(a, axis=1)) * np.max(np.linalg.norm(b, axis=1))
        claimed = code == 0
        hard = [
            ("reconstruction", claimed and np.linalg.norm(recon - s) > 1e-6 * np.linalg.norm(s)),
            ("factor_norms", claimed and norms > value * (1 + 1e-6)),
            ("below_max_entry", value < top * (1 - REL)),
            ("below_golden", golden is not None and value < golden * (1 - REL)),
        ]
        soft = [
            ("loose:row_bound", value > _row_col_bound(s) * (1 + GOLDEN_REL)),
            ("golden", golden is not None and value > golden * (1 + GOLDEN_REL)),
        ]
        reason = first_reason(hard, code, out.get("status", "?"), soft)
        return Outcome(reason, digest(value, code), value)

    return check


def build_gamma2_cert(rng, workdir: str, mods) -> Workload:
    runner = CliRunner(mods.cli, workdir)
    cases = []  # (rid, class, subcommand, matrix, golden)

    def real(*shape):
        return rng.standard_normal(shape)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for n in (4, 8, 12, 16):
        cases.append((f"real{n}", "gamma2/real", "gamma2", real(n, n), None))
    for n in (4, 6, 8):
        cases.append((f"complex{n}", "gamma2/complex", "gamma2", cplx(n, n), None))
    cases.append(("rect6x10", "gamma2/real", "gamma2", real(6, 10), None))
    cases.append(("factor_real8", "factor/real", "factor", real(8, 8), None))
    cases.append(("factor_rect10x6", "factor/real", "factor", real(10, 6), None))
    cases.append(("factor_complex5", "factor/complex", "factor", cplx(5, 5), None))

    sign = np.array([[1.0, 1.0], [1.0, -1.0]])
    cases.append(("golden_sign", "golden/sign", "gamma2", sign, SQRT2))
    zero_row = np.vstack([np.kron(sign, sign), np.zeros((1, 4))])
    zero_row = zero_row[rng.permutation(5)]
    cases.append(("golden_zero_row", "golden/zero_row", "gamma2", zero_row, 2.0))
    u = cplx(6)
    v = cplx(5)
    rank_one = np.outer(u, v.conj())
    cases.append(("golden_rank_one", "golden/rank_one", "factor", rank_one,
                  float(np.max(np.abs(u)) * np.max(np.abs(v)))))
    for n in (4, 8, 16):
        cases.append((f"golden_tri{n}", "golden/tri", "gamma2", np.tril(np.ones((n, n))), None))

    twin = real(6, 6)
    cases.append(("scale_twin", "gamma2/real", "gamma2", twin, None))
    for e in SCALES:
        cases.append((f"scale_1e{e:+d}", "scaled/real", "gamma2", twin * 10.0**e, None))

    requests = []
    for rid, klass, sub, mat, golden in cases:
        path = os.path.join(workdir, f"{rid}.json")
        write_json(path, matrix_obj(mat))
        check = (_check_gamma2 if sub == "gamma2" else _check_factor)(mat, golden)
        requests.append(runner.request(rid, klass, [sub, path], check))

    def round_check(kept: dict) -> dict:
        bad = {}
        tri = [kept.get(f"golden_tri{n}") for n in (4, 8, 16)]
        if None not in tri and not (tri[0] < tri[1] < tri[2]):
            bad.update({f"golden_tri{n}": "golden:tri_increasing" for n in (4, 8, 16)})
        base = kept.get("scale_twin")
        for e in SCALES:
            rid = f"scale_1e{e:+d}"
            value = kept.get(rid)
            if base is not None and value is not None:
                if abs(value / 10.0**e - base) > 1e-6 * base:
                    bad[rid] = "homogeneity"
        return bad

    sign_path = os.path.join(workdir, "golden_sign.json")

    def warmup():
        runner.run(["gamma2", sign_path])
        runner.run(["factor", sign_path])

    # p90 over 22 requests a round: five rounds leave >= 10 samples beyond.
    return Workload(requests, round_check, 90.0, 5, warmup,
                    largest_grid_bytes=0, input_sets=6)


# ---------------------------------------------------------------------------
# trilinear_sandwich


def _check_verify(code: int, out: dict) -> Outcome:
    rows = out["results"]
    lows = [r["lower"] for r in rows]
    ups = [r["upper"] for r in rows]
    hard = [("lower_above_upper", any(lo > up * (1 + REL) for lo, up in zip(lows, ups)))]
    reason = first_reason(hard, code, "gap" if not out["passed"] else "?", [])
    return Outcome(reason, digest(*lows, *ups), None)


def _check_norm_s1(ops, values, toi_apply, trace_pairing, grid):
    n1, _, n3 = values.shape
    cap = np.sqrt(min(n1, n3)) * float(np.max(np.abs(values)))

    def check(code: int, out: dict) -> Outcome:
        est = out["estimate"]
        value = float(est["value"])
        w = {k: matrix_from(m) for k, m in est["witness"].items()}
        reeval = abs(trace_pairing(toi_apply(*ops, grid, w["X"], w["Y"]), w["Z"]))
        hard = [
            ("witness_value", abs(reeval - value) > 1e-8 * max(value, 1.0)),
            ("witness_norm", max(np.linalg.norm(w["X"]), np.linalg.norm(w["Y"]),
                                 np.linalg.norm(w["Z"], 2)) > 1 + REL),
            ("above_s2_bound", value > cap * (1 + REL)),
        ]
        reason = first_reason(hard, code, "?", [])
        return Outcome(reason, digest(value), value)

    return check


def _check_peller(values: np.ndarray):
    top = float(np.max(np.abs(values)))
    cap = _row_col_bound(values)

    def check(code: int, out: dict) -> Outcome:
        lower, upper = float(out["lower"]), float(out["upper"])
        claimed = code == 0
        hard = [
            ("lower_above_upper", lower > upper * (1 + REL)),
            ("upper_below_max_entry", upper < top * (1 - REL)),
            ("factor_norms", claimed and out["factor_norm_product"] > upper * (1 + 1e-6)),
        ]
        soft = [("loose:row_bound", upper > cap * (1 + GOLDEN_REL))]
        reason = first_reason(hard, code, "gap", soft)
        return Outcome(reason, digest(lower, upper), None)

    return check


def _check_ex1(code: int, out: dict) -> Outcome:
    value, expected = float(out["norm_value"]), float(out["expected_value"])
    hard = [
        ("ex1_identity", out["identity_residual"] > 1e-11),
        ("ex1_below_value", value < expected * (1 - REL)),
    ]
    soft = [("golden", value > expected * (1 + GOLDEN_REL))]
    return Outcome(first_reason(hard, code, "ex1", soft), digest(value, expected), None)


def _check_ex2(code: int, out: dict) -> Outcome:
    canon = float(out["canonical_norm"])
    growth = [g["value"] for g in out["growth"]]
    hard = [("ex2_below_sqrt2", canon < SQRT2 * (1 - REL))]
    soft = [
        ("golden", canon > SQRT2 * (1 + 1e-5)),
        ("golden:tri_increasing", not all(a < b for a, b in zip(growth, growth[1:]))),
        ("embedding", abs(out["embedded_norm"] - out["direct_factor_norm"]) > 1e-6),
    ]
    return Outcome(first_reason(hard, code, "ex2", soft), digest(canon, *growth), None)


def build_trilinear_sandwich(rng, workdir: str, mods) -> Workload:
    runner = CliRunner(mods.cli, workdir)
    normal_eig = mods.linalg.normal_eig
    toi_apply = mods.opint.toi_apply
    trace_pairing = mods.linalg.trace_pairing
    SymbolGrid = mods.symbols.SymbolGrid
    requests = []

    def seed():
        return int(rng.integers(0, 2**31 - 1))

    for dims, trials in (("2,2,2", 2), ("3,2,3", 2), ("4,4,4", 1)):
        for kind in ("real", "complex"):
            for trial in range(trials):
                argv = ["verify-main", "--dims", dims, "--trials", "1", "--seed", str(seed())]
                if kind == "complex":
                    argv.append("--complex")
                rid = f"verify_{kind}_{dims.replace(',', 'x')}_{trial}"
                requests.append(runner.request(rid, f"verify/{kind}", argv, _check_verify))

    def operators(dims, tag):
        """Operator files plus the eigenvalue lists a user reads from ``eig``."""
        paths, ops = [], []
        for slot, n in enumerate(dims):
            mat, _ = normal_matrix(rng, n)
            path = os.path.join(workdir, f"{tag}_op{slot}.json")
            write_json(path, matrix_obj(mat))
            paths.append(path)
            ops.append(normal_eig(mat))
        return paths, ops

    for dims in ((4, 4, 4), (3, 5, 4), (6, 6, 6)):
        tag = "s1_" + "x".join(map(str, dims))
        paths, ops = operators(dims, tag)
        axes = [op.eigenvalues for op in ops]
        values = trig_symbol(rng, axes)
        grid_path = os.path.join(workdir, f"{tag}_grid.json")
        write_json(grid_path, grid_obj(axes, values))
        grid = SymbolGrid(axes=tuple(axes), values=values)
        argv = ["norm-s1", "--op-a", paths[0], "--op-b", paths[1], "--op-c", paths[2],
                "--grid", grid_path, "--seed", str(seed())]
        check = _check_norm_s1(ops, values, toi_apply, trace_pairing, grid)
        requests.append(runner.request(tag, "norm-s1/s1", argv, check))

    for n in (3, 4, 6, 8):
        tag = f"peller{n}"
        paths, ops = operators((n, n), tag)
        axes = [op.eigenvalues for op in ops]
        values = trig_symbol(rng, axes)
        grid_path = os.path.join(workdir, f"{tag}_grid.json")
        write_json(grid_path, grid_obj(axes, values))
        argv = ["peller", "--op-a", paths[0], "--op-b", paths[1], "--grid", grid_path,
                "--seed", str(seed())]
        requests.append(runner.request(tag, "peller/doi", argv, _check_peller(values)))

    for n in (4, 6):
        argv = ["examples", "ex1", "--n", str(n), "--seed", str(seed())]
        requests.append(runner.request(f"ex1_n{n}", "examples/ex1", argv, _check_ex1))
    argv = ["examples", "ex2", "--n", "4", "--seed", str(seed())]
    requests.append(runner.request("ex2", "examples/ex2", argv, _check_ex2))

    def warmup():
        runner.run(["verify-main", "--dims", "2,2,2", "--trials", "1", "--restarts", "4"])
        runner.run(["examples", "ex1", "--n", "2"])

    # p85 over 20 requests a round: four rounds leave >= 10 samples beyond.
    return Workload(requests, lambda kept: {}, 85.0, 4, warmup,
                    largest_grid_bytes=16 * 6**3, input_sets=4)


# ---------------------------------------------------------------------------
# transform_apply


def _chain_oracle(ops, values, args) -> np.ndarray:
    """Direct einsum of the rotated chain, for the small cases."""
    n = values.ndim
    letters = "abcdefg"[:n]
    spec = ",".join([letters] + [letters[m:m + 2] for m in range(n - 1)])
    rotated = [ops[m].eigenbasis.conj().T @ a @ ops[m + 1].eigenbasis for m, a in enumerate(args)]
    core = np.einsum(spec + "->" + letters[0] + letters[-1], values, *rotated)
    return ops[0].eigenbasis @ core @ ops[-1].eigenbasis.conj().T


def _close(a, b, rel: float = 1e-9) -> bool:
    return bool(np.linalg.norm(a - b) <= rel * max(np.linalg.norm(b), 1e-300))


def _check_transform(bound: float, oracle=None):
    def check(result) -> Outcome:
        hard = [("hs_contraction", np.linalg.norm(result) > bound * (1 + REL))]
        if oracle is not None:
            hard.append(("oracle", not _close(result, oracle)))
        return Outcome(first_reason(hard, 0, "", []), matrix_digest(result), result)

    return check


def _spectrum_digest(lam) -> str:
    return digest(*np.sort_complex(np.round(lam, 6)).view(float)[:8])


def _check_eig(matrix, spectrum):
    scale = max(float(np.max(np.abs(spectrum))), 1.0)

    def check(op) -> Outcome:
        u, lam = op.eigenbasis, op.eigenvalues
        hard = [
            ("eig_spectrum", not same_spectrum(lam, spectrum, 1e-9 * scale)),
            ("eig_unitary", np.linalg.norm(u.conj().T @ u - np.eye(lam.size)) > 1e-9),
            ("eig_reconstruct", not _close((u * lam) @ u.conj().T, matrix)),
        ]
        return Outcome(first_reason(hard, 0, "", []), _spectrum_digest(lam))

    return check


def _report_matrix_check(bound: float, oracle):
    """The report's result matrix, judged as a library call's, plus the exit code."""
    judge = _check_transform(bound, oracle)

    def check(code: int, out: dict) -> Outcome:
        outcome = judge(matrix_from(out["result"]))
        if outcome.reason is None and code != 0:
            outcome.reason = f"exit{code}:?"
        return outcome

    return check


def _report_eig_check(spectrum):
    scale = max(float(np.max(np.abs(spectrum))), 1.0)

    def check(code: int, out: dict) -> Outcome:
        lam = np.array(out["eigenvalues_re"]) + 1j * np.array(out["eigenvalues_im"])
        res = out["residuals"]
        hard = [
            ("eig_spectrum", not same_spectrum(lam, spectrum, 1e-9 * scale)),
            ("eig_residuals", max(res["orthonormality"], res["reconstruction"]) > 1e-9),
        ]
        return Outcome(first_reason(hard, code, "?", []), _spectrum_digest(lam))

    return check


def _random_grid_values(rng, shape) -> np.ndarray:
    """Complex normal values, drawn without a second full-size temporary."""
    values = rng.standard_normal(2 * int(np.prod(shape))).view(np.complex128)
    return values.reshape(shape)


def build_transform_apply(rng, workdir: str, mods) -> Workload:
    runner = CliRunner(mods.cli, workdir)
    linalg, opint = mods.linalg, mods.opint
    NormalOperator = linalg.NormalOperator
    SymbolGrid = mods.symbols.SymbolGrid
    requests = []
    pairs = []  # (rid, rid) whose outputs must agree

    def op(n):
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return NormalOperator.from_eigensystem(lam, random_unitary(rng, n))

    def cmat(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def apply(rid, klass, fn, check):
        requests.append(Request(rid, f"apply/{klass}", fn, check))

    for n in (32, 64, 128):
        mat, lam = normal_matrix(rng, n, shared_real_spectrum(rng, n))
        apply(f"eig{n}", "eig", lambda mat=mat: linalg.normal_eig(mat), _check_eig(mat, lam))

    largest = 0
    for n in (32, 64, 128, 256):
        ops = [op(n) for _ in range(3)]
        grid = SymbolGrid(axes=tuple(o.eigenvalues for o in ops),
                          values=_random_grid_values(rng, (n, n, n)))
        largest = max(largest, grid.values.nbytes)
        x, y = cmat(n), cmat(n)
        bound = hs_bound(float(np.max(np.abs(grid.values))), x, y)
        oracle = _chain_oracle(ops, grid.values, [x, y]) if n <= 64 else None
        apply(f"toi{n}", "toi", lambda ops=ops, g=grid, x=x, y=y: opint.toi_apply(*ops, g, x, y),
              _check_transform(bound, oracle))
        apply(f"moi3_{n}", "moi3", lambda ops=ops, g=grid, x=x, y=y: opint.moi_apply(ops, g, [x, y]),
              _check_transform(bound, oracle))
        pairs.append((f"moi3_{n}", f"toi{n}"))

    for order, n in ((4, 24), (5, 12), (6, 8)):
        ops = [op(n) for _ in range(order)]
        grid = SymbolGrid(axes=tuple(o.eigenvalues for o in ops),
                          values=_random_grid_values(rng, (n,) * order))
        args = [cmat(n) for _ in range(order - 1)]
        bound = hs_bound(float(np.max(np.abs(grid.values))), *args)
        apply(f"moi{order}_{n}", "moi456",
              lambda ops=ops, g=grid, args=args: opint.moi_apply(ops, g, args),
              _check_transform(bound, _chain_oracle(ops, grid.values, args)))

    # doi_apply directly, and the same product through doi_via_toi.
    n = 128
    ops = [op(n), op(n)]
    psi = SymbolGrid(axes=tuple(o.eigenvalues for o in ops), values=_random_grid_values(rng, (n, n)))
    x = cmat(n)
    apply("doi128", "doi", lambda ops=ops, g=psi, x=x: opint.doi_apply(*ops, g, x),
          _check_transform(hs_bound(float(np.max(np.abs(psi.values))), x),
                           _chain_oracle(ops, psi.values, [x])))
    n = 64
    ops = [op(n), op(n)]
    mid = op(n)
    psi = SymbolGrid(axes=tuple(o.eigenvalues for o in ops), values=_random_grid_values(rng, (n, n)))
    x, y = cmat(n), cmat(n)
    bound = hs_bound(float(np.max(np.abs(psi.values))), x @ y)
    apply("doi64", "doi", lambda ops=ops, g=psi, xy=x @ y: opint.doi_apply(*ops, g, xy),
          _check_transform(bound, _chain_oracle(ops, psi.values, [x @ y])))
    apply("doi_via_toi64", "doi",
          lambda ops=ops, g=psi, x=x, y=y, mid=mid: opint.doi_via_toi(*ops, g, x, y, mid),
          _check_transform(hs_bound(float(np.max(np.abs(psi.values))), x, y)))
    pairs.append(("doi_via_toi64", "doi64"))

    # separable_apply against moi_apply on the summed elementary tensors.
    n, terms = 64, 4
    ops = [op(n) for _ in range(3)]
    factors = [[rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
               for _ in range(terms)]
    summed = sum(np.einsum("i,j,k->ijk", *f) for f in factors)
    grid = SymbolGrid(axes=tuple(o.eigenvalues for o in ops), values=summed)
    x, y = cmat(n), cmat(n)
    bound = hs_bound(float(np.max(np.abs(summed))), x, y)
    apply("separable64", "separable",
          lambda ops=ops, t=factors, x=x, y=y: opint.separable_apply(ops, t, [x, y]),
          _check_transform(bound))
    apply("moi3_sum64", "moi3", lambda ops=ops, g=grid, x=x, y=y: opint.moi_apply(ops, g, [x, y]),
          _check_transform(bound, _chain_oracle(ops, summed, [x, y])))
    pairs.append(("separable64", "moi3_sum64"))

    # io: the same kinds of work through the CLI and its JSON files.
    for n in (32, 48):
        spectra, paths, cli_ops = [], [], []
        for slot in range(3):
            mat, lam = normal_matrix(rng, n, shared_real_spectrum(rng, n))
            path = os.path.join(workdir, f"io{n}_op{slot}.json")
            write_json(path, matrix_obj(mat))
            spectra.append(lam)
            paths.append(path)
            cli_ops.append(linalg.normal_eig(mat))
        axes = [o.eigenvalues for o in cli_ops]
        values = trig_symbol(rng, axes) * np.exp(1j * trig_symbol(rng, axes))
        grid_path = os.path.join(workdir, f"io{n}_grid.json")
        write_json(grid_path, grid_obj(axes, values))
        x, y = cmat(n), cmat(n)
        xy_paths = []
        for name, arg in (("x", x), ("y", y)):
            xy_paths.append(os.path.join(workdir, f"io{n}_{name}.json"))
            write_json(xy_paths[-1], matrix_obj(arg))
        bound = hs_bound(float(np.max(np.abs(values))), x, y)
        oracle = _chain_oracle(cli_ops, values, [x, y])
        requests.append(runner.request(f"io_eig{n}", "io/eig", ["eig", paths[0]],
                                       _report_eig_check(spectra[0])))
        requests.append(runner.request(
            f"io_toi{n}", "io/toi",
            ["toi", "--op-a", paths[0], "--op-b", paths[1], "--op-c", paths[2],
             "--grid", grid_path, "--x", xy_paths[0], "--y", xy_paths[1]],
            _report_matrix_check(bound, oracle)))
        requests.append(runner.request(
            f"io_moi{n}", "io/moi",
            ["moi", "--op", paths[0], "--op", paths[1], "--op", paths[2], "--grid", grid_path,
             "--arg", xy_paths[0], "--arg", xy_paths[1]],
            _report_matrix_check(bound, oracle)))
        pairs.append((f"io_moi{n}", f"io_toi{n}"))

    def round_check(kept: dict) -> dict:
        bad = {}
        for left, right in pairs:
            a, b = kept.get(left), kept.get(right)
            if a is not None and b is not None and not _close(a, b, 1e-10):
                bad[left] = f"cert:{left.rstrip('0123456789_')}_vs_{right.rstrip('0123456789_')}"
        return bad

    small = [r for r in requests if r.rid in ("toi32", "moi3_32", "eig32", "io_eig32")]

    def warmup():
        for req in small:
            req.check(req.call())

    # p95 over 25 requests a round: eight rounds leave >= 10 samples beyond.
    return Workload(requests, round_check, 95.0, 8, warmup,
                    largest_grid_bytes=largest)


BUILDERS = {
    "gamma2_cert": build_gamma2_cert,
    "trilinear_sandwich": build_trilinear_sandwich,
    "transform_apply": build_transform_apply,
}
