"""Acceptance suite: one test per advertised guarantee, one verdict line each.

The sign-grid gate runs first: it validates the ascent/factorization
agreement on an exhaustive family before the randomized equivalence check
is given any weight.  Each test prints `criterion N <label>: PASS/FAIL`
with its wall time so a log scan shows the whole scorecard.
"""

from __future__ import annotations

import time

import numpy as np

from opintlab import (
    NormalOperator,
    SymbolGrid,
    doi_apply,
    doi_s1_norm,
    doi_via_toi,
    elementary_tensor,
    embed_two_to_three,
    middle_slices,
    moi_apply,
    pointwise_product,
    recover_factorization,
    s1_bilinear_norm_lower,
    s2s2_to_s2_norm,
    schatten_norm,
    separable_apply,
    solve_gamma2_sdp,
    sup_norm,
    toi_apply,
    trilinear_factor_norm,
)
from opintlab.cli import run_verify_main

from conftest import random_complex, random_normal_operator


def _verdict(num, label, ok, t0):
    line = f"criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'} ({time.perf_counter() - t0:.1f}s)"
    print(line, flush=True)
    assert ok, line


def _diag_ops(dims):
    return [NormalOperator.from_eigensystem(np.arange(float(d))) for d in dims]


def _grid_on(ops, values):
    return SymbolGrid(
        axes=tuple(op.eigenvalues for op in ops),
        values=np.asarray(values, dtype=complex),
    )


# -- criterion 2 (gate, runs first) -----------------------------------------


def test_criterion_02_exhaustive_sign_grid_gate():
    t0 = time.perf_counter()
    ops = _diag_ops((2, 2, 2))
    worst = 0.0
    for bits in range(256):
        signs = np.array(
            [1.0 if (bits >> k) & 1 else -1.0 for k in range(8)]
        ).reshape(2, 2, 2)
        upper = max(
            solve_gamma2_sdp(signs[:, k, :]).value for k in range(2)
        )
        lower = s1_bilinear_norm_lower(
            *ops, _grid_on(ops, signs), restarts=256, seed=bits
        ).value
        worst = max(worst, abs(upper - lower) / upper)
    _verdict(2, f"exhaustive sign grids (worst rel gap {worst:.2e})", worst <= 1e-3, t0)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_01_lower_upper_equivalence():
    t0 = time.perf_counter()
    small = run_verify_main(dims=(2, 2, 2), trials=50, restarts=64, seed=0, tol=1e-3)
    ok = small["passed"] and all(r["rel_gap"] <= 1e-3 for r in small["results"])
    mixed = run_verify_main(dims=(3, 2, 3), trials=20, restarts=64, seed=1, tol=3e-3)
    ok = ok and mixed["passed"] and all(r["rel_gap"] <= 3e-3 for r in mixed["results"])
    label = (
        "trace-norm equivalence "
        f"(max rel gap {max(small['max_rel_gap'], mixed['max_rel_gap']):.2e})"
    )
    _verdict(1, label, ok, t0)


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_hilbert_schmidt_isometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        dims = rng.integers(2, 5, size=3)
        ops = [random_normal_operator(rng, int(d)) for d in dims]
        values = rng.uniform(-1, 1, tuple(dims)) + 1j * rng.uniform(-1, 1, tuple(dims))
        grid = _grid_on(ops, values)
        est = s2s2_to_s2_norm(*ops, grid)
        ok = ok and est.value == sup_norm(grid)
        achieved = schatten_norm(
            toi_apply(*ops, grid, est.witness["X"], est.witness["Y"]), 2
        )
        ok = ok and abs(achieved - est.value) <= 1e-12
    _verdict(3, "Hilbert-Schmidt norm equals symbol sup", ok, t0)


# -- criterion 4 -------------------------------------------------------------


def test_criterion_04_contraction_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    min_slack = np.inf
    for _ in range(1000):
        dims = rng.integers(2, 7, size=3)
        ops = [random_normal_operator(rng, int(d)) for d in dims]
        grid = _grid_on(ops, random_complex(rng, tuple(dims)))
        x = random_complex(rng, (int(dims[0]), int(dims[1])))
        y = random_complex(rng, (int(dims[1]), int(dims[2])))
        out = toi_apply(*ops, grid, x, y)
        bound = sup_norm(grid) * schatten_norm(x, 2) * schatten_norm(y, 2)
        min_slack = min(min_slack, bound - schatten_norm(out, 2))
    _verdict(4, f"contraction bound (min slack {min_slack:.2e})", min_slack >= -1e-10, t0)


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_product_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        da, db, dc = (int(d) for d in rng.integers(2, 6, size=3))
        op_a = random_normal_operator(rng, da)
        op_b = random_normal_operator(rng, db)
        op_c = random_normal_operator(rng, dc)
        u = _grid_on((op_a, op_b), random_complex(rng, (da, db)))
        v = _grid_on((op_b, op_c), random_complex(rng, (db, dc)))
        phi = pointwise_product(
            embed_two_to_three(u, "left", op_c.eigenvalues),
            embed_two_to_three(v, "right", op_a.eigenvalues),
        )
        x = random_complex(rng, (da, db))
        y = random_complex(rng, (db, dc))
        got = toi_apply(op_a, op_b, op_c, phi, x, y)
        want = doi_apply(op_a, op_b, u, x) @ doi_apply(op_b, op_c, v, y)
        scale = max(1.0, np.abs(want).max())
        worst = max(worst, np.abs(got - want).max() / scale)
    _verdict(5, f"product formula (worst residual {worst:.2e})", worst <= 1e-11, t0)


# -- criterion 6 -------------------------------------------------------------


def test_criterion_06_trace_norm_sandwich_two_operators():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    worst_gap = 0.0
    for trial in range(20):
        op_a = random_normal_operator(rng, 3)
        op_b = random_normal_operator(rng, 3)
        values = rng.standard_normal((3, 3))
        psi = _grid_on((op_a, op_b), values)
        est = doi_s1_norm(op_a, op_b, psi)
        upper = est.upper_certificate
        gap = (upper - est.value) / max(upper, 1e-30)
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 1e-3 and est.value <= upper + 1e-9

        sol = solve_gamma2_sdp(values)
        pair = recover_factorization(sol.gram, 3, 3)
        ok = ok and np.abs(pair.reconstruct() - values).max() <= 1e-5
        ok = ok and pair.norm_a * pair.norm_b <= sol.value + 1e-5
    _verdict(6, f"two-operator sandwich (worst rel gap {worst_gap:.2e})", ok, t0)


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_pair_contraction_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        da, dm, db = (int(d) for d in rng.integers(2, 5, size=3))
        op_a = random_normal_operator(rng, da)
        op_b = random_normal_operator(rng, db)
        op_mid = random_normal_operator(rng, dm)
        psi = _grid_on((op_a, op_b), random_complex(rng, (da, db)))
        x = random_complex(rng, (da, dm))
        y = random_complex(rng, (dm, db))
        got = doi_via_toi(op_a, op_b, psi, x, y, op_mid)
        want = doi_apply(op_a, op_b, psi, x @ y)
        scale = max(1.0, np.abs(want).max())
        worst = max(worst, np.abs(got - want).max() / scale)
    _verdict(7, f"pair-argument reduction (worst residual {worst:.2e})", worst <= 1e-11, t0)


# -- criterion 8 -------------------------------------------------------------


def test_criterion_08_right_multiplier_example():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    ok = True
    for n in range(2, 9):
        s = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        ops = _diag_ops((n, n, n))
        grid = _grid_on(ops, np.broadcast_to(s[None, :, :], (n, n, n)))
        x = random_complex(rng, (n, n))
        y = random_complex(rng, (n, n))
        got = toi_apply(*ops, grid, x, y)
        want = x @ (s * y)
        ok = ok and np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())
        est, _ = trilinear_factor_norm(grid)
        ok = ok and abs(est.value - np.abs(s).max()) <= 1e-6
    _verdict(8, "one-sided multiplier example (n up to 8)", ok, t0)


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_separation_example():
    t0 = time.perf_counter()
    sign = np.array([[1.0, 1.0], [1.0, -1.0]])
    ops = _diag_ops((2, 1, 2))
    grid = _grid_on(ops, sign[:, None, :])
    est, _ = trilinear_factor_norm(grid)
    ok = abs(est.value - np.sqrt(2.0)) <= 1e-5
    ok = ok and sup_norm(grid) == 1.0

    previous = 0.0
    for n in (2, 4, 8, 16):
        value = solve_gamma2_sdp(np.tril(np.ones((n, n)))).value
        ok = ok and value > previous
        previous = value
    _verdict(9, "sup/trace-norm separation and triangular growth", ok, t0)


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_factorization_norm_goldens():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)

    def feasibility(sol, s):
        gram = sol.gram
        p = s.shape[0]
        eig_defect = max(0.0, -float(np.linalg.eigvalsh(gram)[0]))
        data_defect = float(np.abs(gram[:p, p:] - s).max())
        diag_defect = max(0.0, float(np.diag(gram).real.max() - sol.value))
        return max(eig_defect, data_defect, diag_defect)

    ok = True
    for n in range(1, 17):
        sol = solve_gamma2_sdp(np.eye(n))
        ok = ok and abs(sol.value - 1.0) <= 1e-6
        ok = ok and sol.duality_gap <= 1e-7
        ok = ok and feasibility(sol, np.eye(n).astype(complex)) <= 1e-8

    ones = np.ones((3, 5))
    sol = solve_gamma2_sdp(ones)
    ok = ok and abs(sol.value - 1.0) <= 1e-6
    ok = ok and sol.duality_gap <= 1e-7 and feasibility(sol, ones.astype(complex)) <= 1e-8

    for _ in range(20):
        p, q = (int(d) for d in rng.integers(2, 7, size=2))
        u = random_complex(rng, p)
        v = random_complex(rng, q)
        s = np.outer(u, v.conj())
        sol = solve_gamma2_sdp(s)
        want = np.abs(u).max() * np.abs(v).max()
        ok = ok and abs(sol.value - want) <= 1e-6 * max(1.0, want)
        ok = ok and sol.duality_gap <= 1e-7 * max(1.0, want)
        ok = ok and feasibility(sol, s) <= 1e-8 * max(1.0, want)
    _verdict(10, "factorization-norm golden values", ok, t0)


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_separable_path():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(50):
        order = int(rng.integers(2, 5))
        dims = [int(d) for d in rng.integers(2, 5, size=order)]
        ops = [random_normal_operator(rng, d) for d in dims]
        axes = [op.eigenvalues for op in ops]
        terms = []
        total = None
        for _ in range(int(rng.integers(1, 4))):
            vecs = [random_complex(rng, d) for d in dims]
            terms.append(vecs)
            part = elementary_tensor(vecs, axes).values
            total = part if total is None else total + part
        grid = SymbolGrid(axes=tuple(axes), values=total)
        args = [
            random_complex(rng, (dims[m], dims[m + 1])) for m in range(order - 1)
        ]
        got = separable_apply(ops, terms, args)
        want = moi_apply(ops, grid, args)
        scale = max(1.0, np.abs(want).max())
        worst = max(worst, np.abs(got - want).max() / scale)
    _verdict(11, f"separable fast path (worst residual {worst:.2e})", worst <= 1e-11, t0)
