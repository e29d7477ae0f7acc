"""Factorization-norm solver: analytic goldens, invariances, and a dual search.

The independence argument for the oracle below: for fixed probability
weights (d, e) on the rows and columns, every coupling W with
[[diag(d), W], [W*, diag(e)]] >= 0 satisfies 2 Re<W, S> <= 2 ||sqrt(D) S
sqrt(E)||_1, with equality attained by a polar choice of W.  Maximizing that
trace-norm expression over the weight simplex therefore recovers the exact
factorization norm from below, through a formula that shares nothing with
the interior-point implementation under test.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from opintlab import NotPsd, NumericalBreakdown, recover_factorization, solve_gamma2_sdp
from opintlab import sdp
from opintlab.sdp import _NewtonSystem

from conftest import random_complex

RNG = np.random.default_rng(99)

VALUE_TOL = 1e-6


def dual_search(s, starts=8, seed=0):
    """Maximize 2 ||sqrt(D) S sqrt(E)||_1 over probability weights (d, e)."""
    s = np.asarray(s, dtype=complex)
    p, q = s.shape

    def negated(x):
        w = x * x
        total = w.sum()
        if total <= 0.0:
            return 0.0
        w = w / total
        scaled = np.sqrt(w[:p])[:, None] * s * np.sqrt(w[p:])[None, :]
        return -2.0 * np.linalg.svd(scaled, compute_uv=False).sum()

    rng = np.random.default_rng(seed)
    best = 0.0
    x0s = [np.ones(p + q)]
    x0s += [rng.uniform(0.2, 1.0, p + q) for _ in range(starts - 1)]
    for x0 in x0s:
        res = minimize(
            negated,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20000, "maxfev": 20000},
        )
        best = max(best, -res.fun)
    return best


def _check_certificates(sol, s):
    """Invariants every solution must carry, regardless of the instance."""
    s = np.asarray(s, dtype=complex)
    p, q = s.shape
    gram = sol.gram
    assert gram.shape == (p + q, p + q)
    np.testing.assert_allclose(gram, gram.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(gram).min() >= -1e-8
    # The data block is reproduced exactly, not approximately.
    np.testing.assert_array_equal(gram[:p, p:], s)
    assert np.diag(gram).real.max() <= sol.value + 1e-7
    assert sol.duality_gap >= -1e-9
    # The lower bound is the weighted trace norm of the dual weights, which
    # are probability vectors on the rows and on the columns.
    a, b = sol.dual_weights
    assert a.shape == (p,) and b.shape == (q,)
    assert a.min() >= 0.0 and b.min() >= 0.0
    assert a.sum() == pytest.approx(1.0, abs=1e-14)
    assert b.sum() == pytest.approx(1.0, abs=1e-14)
    top = np.abs(s).max()
    unit = s / top if top > 0.0 else s
    weighted = np.sqrt(a)[:, None] * unit * np.sqrt(b)[None, :]
    lower = top * np.linalg.svd(weighted, compute_uv=False).sum()
    assert lower >= (sol.value - sol.duality_gap) * (1.0 - 1e-14)


# ---------------------------------------------------------------------------
# analytic goldens


def test_scalar_matrix():
    sol = solve_gamma2_sdp(np.array([[3.0 - 4.0j]]))
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(5.0, abs=VALUE_TOL)


def test_identity_is_one():
    sol = solve_gamma2_sdp(np.eye(6))
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(1.0, abs=VALUE_TOL)
    _check_certificates(sol, np.eye(6))


def test_all_ones_is_one():
    sol = solve_gamma2_sdp(np.ones((3, 5)))
    assert sol.value == pytest.approx(1.0, abs=VALUE_TOL)


def test_sign_matrix_is_sqrt_two():
    s = np.array([[1.0, 1.0], [1.0, -1.0]])
    sol = solve_gamma2_sdp(s)
    assert sol.value == pytest.approx(np.sqrt(2.0), abs=VALUE_TOL)

    # Explicit factorization at the optimum: b_j = 2^(1/4) e_j and
    # a_i = row_i / 2^(1/4) reproduce S with norm product exactly sqrt(2),
    # so the solver's value is also an upper bound for sqrt(2) from above.
    c = 2.0 ** 0.25
    a = s / c
    b = c * np.eye(2)
    np.testing.assert_allclose(a @ b.T, s, atol=1e-12)
    product = np.linalg.norm(a, axis=1).max() * np.linalg.norm(b, axis=1).max()
    assert product == pytest.approx(np.sqrt(2.0), rel=1e-12)
    # ... and the dual search certifies sqrt(2) from below.
    assert dual_search(s) == pytest.approx(np.sqrt(2.0), abs=1e-7)


def test_rank_one_is_product_of_max_entries():
    u = np.array([0.5, -2.0, 1.0])
    v = np.array([3.0, 0.25])
    sol = solve_gamma2_sdp(np.outer(u, v))
    assert sol.value == pytest.approx(6.0, abs=VALUE_TOL)


def test_diagonal_is_max_abs():
    sol = solve_gamma2_sdp(np.diag([0.5, -2.5, 1.0]))
    assert sol.value == pytest.approx(2.5, abs=VALUE_TOL)


def test_zero_matrix():
    sol = solve_gamma2_sdp(np.zeros((2, 3)))
    assert sol.value == pytest.approx(0.0, abs=VALUE_TOL)
    assert sol.status == "Optimal"
    _check_certificates(sol, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# dual-route agreement on random instances


@pytest.mark.parametrize("shape,seed", [((2, 2), 0), ((3, 4), 1), ((4, 4), 2)])
def test_agrees_with_dual_search_real(shape, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(shape)
    sol = solve_gamma2_sdp(s)
    assert sol.status == "Optimal"
    _check_certificates(sol, s)
    assert sol.value == pytest.approx(dual_search(s, seed=seed), abs=2e-5)


def test_agrees_with_dual_search_complex():
    s = random_complex(RNG, (3, 3))
    sol = solve_gamma2_sdp(s)
    assert sol.status == "Optimal"
    _check_certificates(sol, s)
    assert sol.value == pytest.approx(dual_search(s, seed=5), abs=2e-5)


# ---------------------------------------------------------------------------
# invariances


def test_absolute_homogeneity():
    s = RNG.standard_normal((3, 3))
    base = solve_gamma2_sdp(s).value
    for alpha in (2.0, -0.5, 1.5j, 0.3 - 0.4j):
        scaled = solve_gamma2_sdp(alpha * s).value
        assert scaled == pytest.approx(abs(alpha) * base, abs=1e-6 * max(1, abs(alpha)))


def test_permutation_and_adjoint_invariance():
    s = random_complex(RNG, (3, 4))
    base = solve_gamma2_sdp(s).value
    perm_rows = np.random.default_rng(0).permutation(3)
    perm_cols = np.random.default_rng(1).permutation(4)
    assert solve_gamma2_sdp(s[perm_rows][:, perm_cols]).value == pytest.approx(
        base, abs=2e-6
    )
    assert solve_gamma2_sdp(s.conj().T).value == pytest.approx(base, abs=2e-6)


def test_submatrix_monotone():
    s = RNG.standard_normal((4, 4))
    whole = solve_gamma2_sdp(s).value
    part = solve_gamma2_sdp(s[:2, :3]).value
    assert part <= whole + 1e-6


def test_triangle_inequality():
    a = RNG.standard_normal((3, 3))
    b = RNG.standard_normal((3, 3))
    va = solve_gamma2_sdp(a).value
    vb = solve_gamma2_sdp(b).value
    vab = solve_gamma2_sdp(a + b).value
    assert vab <= va + vb + 1e-6


# ---------------------------------------------------------------------------
# certificates, factor recovery, and argument validation


def test_gap_certificate_is_tight():
    s = RNG.standard_normal((5, 5))
    sol = solve_gamma2_sdp(s, gap_tol=1e-7)
    assert sol.status == "Optimal"
    assert 0.0 <= sol.duality_gap <= 1e-7


def test_recover_factorization_reconstructs():
    s = random_complex(RNG, (3, 4))
    sol = solve_gamma2_sdp(s)
    pair = recover_factorization(sol.gram, 3, 4)
    np.testing.assert_allclose(pair.reconstruct(), s, atol=1e-6)
    assert pair.norm_a * pair.norm_b <= sol.value + 1e-5


def test_recover_factorization_rejects_indefinite():
    gram = np.diag([1.0, -1.0])
    with pytest.raises(NotPsd):
        recover_factorization(gram, 1, 1)


def test_max_iter_still_gives_upper_bound():
    s = np.random.default_rng(17).standard_normal((6, 6))
    full = solve_gamma2_sdp(s)
    starved = solve_gamma2_sdp(s, max_iter=3)
    assert starved.status == "MaxIter"
    assert starved.iterations <= 3 + 1
    # Whatever the budget, the reported value stays a true upper bound.
    assert starved.value >= full.value - 1e-9
    assert starved.duality_gap >= full.duality_gap


def test_wide_input_below_the_precision_floor():
    # Without the tangent predictor this 4x16 input ran out of steps at a
    # relative gap of 1.67e-7 after MAX_ITER steps; it now certifies in 86.
    rng = np.random.default_rng(7)
    for shape in [(3, 12)] * 6 + [(12, 3)] * 6 + [(4, 16)]:
        rng.standard_normal(shape)
    s = rng.standard_normal((4, 16))
    sol = solve_gamma2_sdp(s)
    assert sol.status == "Optimal"
    assert sol.iterations < 150
    assert sol.duality_gap <= 1e-7 * np.abs(s).max()
    _check_certificates(sol, s)


def test_step_budget():
    """The tangent predictor saves at least 15% of the Newton steps on a
    fixed set of inputs; the same solver starting every line search at the
    full step took 899 steps on it (this one takes 670)."""
    rng = np.random.default_rng(1)
    inputs = [rng.standard_normal((n, n)) for n in (4, 8, 12, 16)]
    inputs += [random_complex(rng, (n, n)) for n in (4, 6, 8)]
    inputs += [rng.standard_normal((6, 10)), np.tril(np.ones((16, 16)))]
    sols = [solve_gamma2_sdp(s) for s in inputs]
    assert all(sol.status == "Optimal" for sol in sols)
    assert sum(sol.iterations for sol in sols) <= 0.85 * 899


def _step_rule_inputs():
    rng = np.random.default_rng(5)
    return (rng.standard_normal((6, 6)), random_complex(rng, (4, 5)),
            np.tril(np.ones((8, 8))))


def test_cholesky_is_the_only_cone_test(monkeypatch):
    """The line search sizes every step by backtracking on the barrier's
    Cholesky, so the only eigenvalue solves in a solve are the primal
    certificate checks."""
    calls = {"eigvalsh": 0, "primal": 0}
    eigvalsh, verified_primal = np.linalg.eigvalsh, sdp._verified_primal

    def counting_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_primal(*args):
        calls["primal"] += 1
        return verified_primal(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(sdp, "_verified_primal", counting_primal)
    for s in _step_rule_inputs():
        assert solve_gamma2_sdp(s).status == "Optimal"
    assert calls["primal"] > 0
    assert calls["eigvalsh"] == calls["primal"]


def test_harvest_skips_primal_candidates_that_cannot_win(monkeypatch):
    """A verified value is at least the candidate's largest diagonal entry,
    so no candidate reaching the best value found so far is checked."""
    verified_primal = sdp._verified_primal
    checked = []

    def recording_primal(s, p, q):
        out = verified_primal(s, p, q)
        top = max(np.max(np.diag(p).real), np.max(np.diag(q).real))
        checked.append((top, np.inf if out is None else out[2]))
        return out

    monkeypatch.setattr(sdp, "_verified_primal", recording_primal)
    for s in _step_rule_inputs():
        checked.clear()
        assert solve_gamma2_sdp(s).status == "Optimal"
        best = np.inf
        for top, value in checked:
            assert top < best
            best = min(best, value)
        assert len(checked) > 1


@pytest.mark.parametrize("failing", ["norm", "newton", "dual-bound"])
def test_linear_algebra_failure_is_a_breakdown(monkeypatch, failing):
    """A LinAlgError anywhere in a solve surfaces as NumericalBreakdown:
    here from the initial norm, a Newton system or a dual bound's SVD."""
    svd = np.linalg.svd
    seen = {"norm": 0, "newton": 0, "dual-bound": 0}

    def failing_svd(a, *args, compute_uv=True, **kwargs):
        kind = "newton" if compute_uv else ("norm" if seen["norm"] == 0 else "dual-bound")
        seen[kind] += 1
        if kind == failing and seen[kind] == (3 if kind == "newton" else 1):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NumericalBreakdown, match="SVD did not converge"):
        solve_gamma2_sdp(np.array([[1.0, 1.0], [1.0, -1.0]]))


def test_rejects_bad_arguments():
    for gap_tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            solve_gamma2_sdp(np.eye(2), gap_tol=gap_tol)
    with pytest.raises(ValueError):
        solve_gamma2_sdp(np.ones((200, 100)))


def test_complex_gram_blocks_are_hermitian():
    s = random_complex(RNG, (2, 3))
    sol = solve_gamma2_sdp(s)
    pb = sol.gram[:2, :2]
    qb = sol.gram[2:, 2:]
    np.testing.assert_allclose(pb, pb.conj().T, atol=1e-10)
    np.testing.assert_allclose(qb, qb.conj().T, atol=1e-10)
    assert np.abs(np.diag(pb).imag).max() < 1e-10


# ---------------------------------------------------------------------------
# scale independence, the Newton system in the field of the data, and memory


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("scale", [2.0**-1030, 1e-150, 1e-8, 1e8, 1e150])
def test_status_and_value_do_not_depend_on_scale(field, scale):
    rng = np.random.default_rng(23)
    s = rng.standard_normal((4, 4)) if field == "real" else random_complex(rng, (4, 4))
    base = solve_gamma2_sdp(s)
    sol = solve_gamma2_sdp(scale * s)
    assert sol.status == "Optimal"
    assert sol.value / scale == pytest.approx(base.value, rel=1e-9)
    for w, w_base in zip(sol.dual_weights, base.dual_weights):
        np.testing.assert_allclose(w, w_base, rtol=0.0, atol=1e-9)
    assert sol.duality_gap / scale <= 1e-7 * np.abs(s).max()
    np.testing.assert_array_equal(sol.gram[:4, 4:], scale * s)
    unit = sol.gram.real / scale + 1j * (sol.gram.imag / scale)
    assert np.linalg.eigvalsh(unit).min() >= -1e-8
    assert np.diag(unit).real.max() <= sol.value / scale * (1.0 + 1e-12)


def _hermitian_basis(n: int, offset: int, size: int, complex_field: bool) -> list:
    """Orthonormal basis of the n-square real symmetric (or Hermitian)
    matrices, placed on the diagonal of a size-square matrix at ``offset``."""
    elems = []
    for a in range(offset, offset + n):
        for b in range(a, offset + n):
            e = np.zeros((size, size), dtype=complex)
            e[a, b] = e[b, a] = 1.0 if a == b else np.sqrt(0.5)
            elems.append(e)
            if complex_field and a < b:
                e = np.zeros((size, size), dtype=complex)
                e[a, b], e[b, a] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
                elems.append(e)
    return elems


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3), (4, 6)])
def test_hessian_blocks_match_trace_formula(field, p, q):
    """The block-elimination Newton step solves the dense Newton system.

    The dense system is assembled over an orthonormal basis B_k of the
    block-diagonal matrices from the trace formula Re tr(M B_k M B_l),
    M = G^-1, plus the slack barrier on the diagonal entries and t, at a
    random interior point.
    """
    complex_field = field == "complex"
    n = p + q
    rng = np.random.default_rng(10 * p + q)
    z = random_complex(rng, (n, n)) if complex_field else rng.standard_normal((n, n))
    g = z @ z.conj().T + 0.5 * np.eye(n)
    t = float(np.max(np.diag(g).real)) + 0.7
    m = np.linalg.inv(g)
    slack = t - np.diag(g).real

    basis = (_hermitian_basis(p, 0, n, complex_field)
             + _hermitian_basis(q, p, n, complex_field))
    assert len(basis) == (p * p + q * q if complex_field else (p * (p + 1) + q * (q + 1)) // 2)
    gram = [[np.trace(a.conj().T @ b).real for b in basis] for a in basis]
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-15)

    k = len(basis)
    diags = np.array([np.diag(b).real for b in basis])  # (k, n)
    hess = np.zeros((k + 1, k + 1))
    hess[:k, :k] = [[np.trace(m @ a @ m @ b).real for b in basis] for a in basis]
    hess[:k, :k] += diags @ np.diag(slack**-2) @ diags.T
    hess[:k, k] = hess[k, :k] = -diags @ slack**-2
    hess[k, k] = np.sum(slack**-2)
    barrier_grad = np.append(diags @ (1.0 / slack) - [np.trace(m @ b).real for b in basis],
                             -np.sum(1.0 / slack))

    # One factorization serves every barrier weight.
    system = _NewtonSystem(g, np.linalg.cholesky(g), t, p)
    np.testing.assert_allclose(system.m, m, rtol=0.0, atol=1e-12 * np.abs(m).max())
    for mu in (0.3, 0.03):
        grad = mu * barrier_grad  # of t + mu * (-logdet G - sum log slacks)
        grad[k] += 1.0
        step = np.linalg.solve(mu * hess, -grad)
        dense_dg = np.tensordot(step[:k], np.array(basis), axes=1)

        dg, dt, decrement = system.step(mu)
        scale = np.abs(dense_dg).max()
        np.testing.assert_allclose(dg, dense_dg, rtol=0.0, atol=1e-10 * scale)
        assert dt == pytest.approx(step[k], rel=1e-10)
        assert decrement == pytest.approx(-grad @ step, rel=1e-10)


@pytest.mark.parametrize(
    "s,limit",
    [
        (np.tril(np.ones((16, 16))), 2.5e6),
        (random_complex(np.random.default_rng(8), (8, 8)), 2.5e6),
        (np.random.default_rng(32).standard_normal((32, 32)), 4e6),
    ],
    ids=["real16", "complex8", "real32"],
)
def test_solver_memory_peak_stays_small(s, limit):
    # The block-elimination step keeps no k-by-k array (k = n(n+1)/2 basis
    # elements per block): the peaks are near 0.4 MB (real16), 0.15 MB
    # (complex8) and 1.9 MB (real32) here, against 1.4, 0.55 and 18.6 MB
    # with a dense Newton system.
    tracemalloc.start()
    try:
        solve_gamma2_sdp(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
