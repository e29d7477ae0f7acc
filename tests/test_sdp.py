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
from scipy.linalg import hadamard
from scipy.optimize import minimize

from opintlab import (
    BudgetExceeded,
    NotPsd,
    NumericalBreakdown,
    recover_factorization,
    solve_gamma2_sdp,
)
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


def test_max_iter_still_gives_upper_bound(monkeypatch):
    s = np.random.default_rng(17).standard_normal((6, 6))
    full = solve_gamma2_sdp(s)
    monkeypatch.setattr(sdp, "MAX_ITER", 3)
    starved = solve_gamma2_sdp(s)
    assert starved.status == "MaxIter"
    assert starved.iterations <= 3 + 1
    # Whatever the budget, the reported value stays a true upper bound.
    assert starved.value >= full.value - 1e-9
    assert starved.duality_gap >= full.duality_gap


def test_wide_input_below_the_precision_floor():
    # A wide input on which a solver with a precision floor near a relative
    # gap of 1e-7 runs out of iterations; this one certifies in 13.
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
    """The iterations on a fixed set of random and structured inputs stay
    within a budget; they total about 129, and the bound keeps the headroom
    of 300 for the 93 that the random inputs alone take."""
    rng = np.random.default_rng(1)
    inputs = [rng.standard_normal((n, n)) for n in (4, 8, 12, 16)]
    inputs += [random_complex(rng, (n, n)) for n in (4, 6, 8)]
    inputs += [rng.standard_normal((6, 10)), np.tril(np.ones((16, 16)))]
    zero_row = rng.standard_normal((8, 8))
    zero_row[3] = 0.0
    duplicated = rng.standard_normal((8, 8))
    duplicated[5] = duplicated[1]
    inputs += [hadamard(16).astype(float), hadamard(32).astype(float), zero_row,
               np.outer(rng.standard_normal(7), rng.standard_normal(9)), duplicated,
               np.exp(2j * np.pi * rng.random((8, 8)))]
    sols = [solve_gamma2_sdp(s) for s in inputs]
    assert all(sol.status == "Optimal" for sol in sols)
    assert sum(sol.iterations for sol in sols) <= 416


def test_iterations_do_not_follow_rounding():
    """Bounds are checked at every iterate, so the iteration count does not
    jump with the rounding of the input: a method that checks them only now
    and then spends a whole stage more on an input whose gap lands just
    above the tolerance, and not on its perturbations."""
    rng = np.random.default_rng(2)
    inputs = [rng.standard_normal((8, 8)) for _ in range(4)]
    inputs += [rng.standard_normal((10, 6)) for _ in range(4)]
    for s in inputs:
        counts = [solve_gamma2_sdp(s).iterations]
        for _ in range(5):
            sol = solve_gamma2_sdp(s * (1.0 + 1e-15 * rng.standard_normal(s.shape)))
            assert sol.status == "Optimal"
            counts.append(sol.iterations)
        assert max(counts) - min(counts) <= 2


def _step_rule_inputs():
    rng = np.random.default_rng(5)
    return (rng.standard_normal((6, 6)), random_complex(rng, (4, 5)),
            np.tril(np.ones((8, 8))))


def test_cholesky_is_the_only_cone_test(monkeypatch):
    """Every step is sized by backtracking on Cholesky factorizations of the
    trial points, so the only eigenvalue solves in a solve are the primal
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


def test_steps_take_the_trial_point_that_passed(monkeypatch):
    """Each rung factors the open members' trial points in one call, a
    member takes the trial that passed with its factor, a member whose rungs
    all fail keeps its point and factor, and nothing is factored after the
    last rung."""
    rng = np.random.default_rng(4)
    n = 5
    base = rng.standard_normal((5, n, n))
    x = base @ base.swapaxes(-1, -2) + n * np.eye(n)
    dx = rng.standard_normal((4, n, n))
    dx = (dx + dx.swapaxes(-1, -2)) * np.array([0.01, 1.0, 5.0, 10.0])[:, None, None]
    # The last member's direction leaves the cone on every rung.
    dx = np.concatenate([dx, -1e4 * np.eye(n)[None]])
    v = rng.uniform(1.0, 2.0, (5, 3))
    dv = rng.standard_normal((5, 3))
    # The ratio test bounds the second member's step by 0.5.
    dv[1] = -2.0 * v[1]
    factors = np.linalg.cholesky(x)
    calls, depth, cholesky = [], [], sdp._cholesky

    def recording(a):
        depth.append(None)  # _cholesky calls itself on the halves of a stack
        out = cholesky(a)
        depth.pop()
        if not depth:
            calls.append((a.copy(), out[0].copy(), out[1].copy()))
        return out

    monkeypatch.setattr(sdp, "_cholesky", recording)
    monkeypatch.setattr(sdp, "_TRIES", 6)
    step, new_x, new_v, chol = sdp._steps(x, dx, v, dv, 0.5, factors)

    assert step[0] == step[1] / 0.5 == sdp._STEP
    assert (step[:-1] > 0.0).all() and step[-1] == 0.0
    assert len(calls) == 6
    open_rows = len(x)
    for trials, found, ok in calls:
        # Each call factors exactly the members still open, once.
        assert len(trials) == open_rows
        open_rows -= ok.sum()
    assert open_rows == 1
    for i in range(len(x) - 1):
        taken = [(trial, factor) for trials, found, ok in calls
                 for trial, factor, passed in zip(trials, found, ok)
                 if passed and np.array_equal(trial, new_x[i])]
        assert len(taken) == 1
        np.testing.assert_array_equal(chol[i], taken[0][1])
        np.testing.assert_array_equal(new_x[i], x[i] + step[i] * dx[i])
    np.testing.assert_array_equal(new_x[-1], x[-1])
    np.testing.assert_array_equal(chol[-1], factors[-1])
    np.testing.assert_array_equal(new_v, v + step[:, None] * dv)
    assert (new_v > 0.0).all()


def test_harvest_skips_primal_candidates_that_cannot_win(monkeypatch):
    """A verified value is at least the candidate's largest diagonal entry,
    so no candidate reaching the best value found so far is checked."""
    verified_primal = sdp._verified_primal
    checked = []

    def recording_primal(g):
        out = verified_primal(g)
        for cand, value in zip(g, out[1]):
            checked.append((np.max(np.diag(cand).real), value))
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


def test_certificates_of_a_stack_take_two_rounds_an_iteration(monkeypatch):
    # Each iteration checks the whole stack's iterates in one round and their
    # extrapolations in another, each with one eigenvalue call and one dual
    # bound SVD, however many members the stack has.
    eigvalsh, svd, newton = np.linalg.eigvalsh, np.linalg.svd, sdp._NewtonSystem
    # Per iteration, (eigvalsh, SVD without vectors) calls; each Newton system
    # opens the next iteration, and the initial norm's SVD is not counted.
    calls = [[0, -1]]

    def counting_eigvalsh(*args, **kwargs):
        calls[-1][0] += 1
        return eigvalsh(*args, **kwargs)

    def counting_svd(a, *args, compute_uv=True, **kwargs):
        calls[-1][1] += not compute_uv
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    def counting_newton(*args):
        calls.append([0, 0])
        return newton(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(sdp, "_NewtonSystem", counting_newton)
    rng = np.random.default_rng(45)
    sdp._solve_stack([rng.standard_normal((4, 5)) for _ in range(8)])
    assert calls[0] == [1, 1] and len(calls) > 2
    assert all(e <= 2 and v <= 2 for e, v in calls)


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


def test_dual_certificate_reads_weight_vectors(monkeypatch):
    # The certificate check reads the dual weights w, one per row and
    # column, not the dual matrix.
    seen = []
    bound = sdp._verified_dual_bound

    def recording_bound(s, w):
        seen.extend(np.shape(row) for row in w)
        return bound(s, w)

    monkeypatch.setattr(sdp, "_verified_dual_bound", recording_bound)
    sol = solve_gamma2_sdp(random_complex(np.random.default_rng(5), (3, 4)))
    assert sol.status == "Optimal"
    assert seen and set(seen) == {(7,)}


def test_rejects_bad_arguments():
    for gap_tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            solve_gamma2_sdp(np.eye(2), gap_tol=gap_tol)
    with pytest.raises(BudgetExceeded):
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
# the stacked core: one member alone and among others, and pruning


def _same_solution(a, b):
    assert a.value == b.value
    np.testing.assert_array_equal(a.gram, b.gram)
    assert a.duality_gap == b.duality_gap
    assert a.iterations == b.iterations
    assert a.status == b.status
    for w, w_alone in zip(a.dual_weights, b.dual_weights):
        np.testing.assert_array_equal(w, w_alone)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_member_is_solved_alone_and_in_any_stack_alike(field, scale):
    # Each member keeps its own primal-dual iterates, step lengths, budget
    # and certificates, and every stacked call works on each member alone: a
    # member that is not pruned is bit-identical alone, in a stack, in
    # another order, or with a zero matrix that takes the zero path beside
    # it.  The members are scaled to nearly the same norm, so that few of
    # them can be pruned.
    rng = np.random.default_rng(41)
    mats = [rng.standard_normal((3, 4)) for _ in range(5)]
    if field == "complex":
        mats = [m + 1j * rng.standard_normal((3, 4)) for m in mats]
    mats = [scale / solve_gamma2_sdp(m).value * m for m in mats]
    alone = [solve_gamma2_sdp(m) for m in mats]
    kept = 0
    for order in ([0, 1, 2, 3, 4], [4, 2, 0], [3, 1]):
        stacked = sdp._solve_stack([mats[k] for k in order] + [np.zeros((3, 4))])
        assert stacked[-1].value == 0.0 and stacked[-1].status == "Optimal"
        for k, sol in zip(order, stacked):
            if sol.status != "Dominated":
                _same_solution(sol, alone[k])
                kept += 1
    assert kept >= 8


def test_pruning_leaves_unpruned_members_unchanged():
    rng = np.random.default_rng(42)
    mats = [scale * rng.standard_normal((4, 4)) for scale in (1.0, 3.0, 1.1, 0.2, 1.05)]
    pruned = sdp._solve_stack(mats)
    assert any(sol.status == "Dominated" for sol in pruned)
    for mat, sol in zip(mats, pruned):
        if sol.status != "Dominated":
            _same_solution(sol, solve_gamma2_sdp(mat))


def test_dominated_members_cannot_win():
    # A member leaves as Dominated once its certified upper bound is at or
    # below another member's certified lower bound; its Gram matrix is still
    # a feasible factorization of its own data.
    rng = np.random.default_rng(43)
    mats = [scale * random_complex(rng, (3, 5)) for scale in (1.0, 0.9, 1.2, 0.5, 1.15, 1.0)]
    sols = sdp._solve_stack(mats)
    dominated = [k for k, sol in enumerate(sols) if sol.status == "Dominated"]
    assert dominated
    winner = max(sols, key=lambda sol: sol.value)
    assert winner.status == "Optimal"
    k_win = sols.index(winner)
    a, b = winner.dual_weights
    top = np.abs(mats[k_win]).max()
    weighted = np.sqrt(a)[:, None] * (mats[k_win] / top) * np.sqrt(b)[None, :]
    winner_lower = top * np.linalg.svd(weighted, compute_uv=False).sum()
    for k in dominated:
        sol = sols[k]
        assert sol.value <= winner_lower
        assert sol.iterations < solve_gamma2_sdp(mats[k]).iterations
        _check_certificates(sol, mats[k])


def test_each_field_is_solved_in_its_own_stack():
    # Real and complex members are solved apart, each as it would be alone,
    # and the complex stack, solved after the real one, is pruned against the
    # real members' lower bounds.
    rng = np.random.default_rng(44)
    mats = [3.0 * rng.standard_normal((3, 4)), random_complex(rng, (3, 4)),
            rng.standard_normal((3, 4)), 0.5 * random_complex(rng, (3, 4))]
    sols = sdp._solve_stack(mats)
    assert sols[0].status == "Optimal"
    _same_solution(sols[0], solve_gamma2_sdp(mats[0]))
    assert [sols[k].status for k in (1, 3)] == ["Dominated", "Dominated"]
    for k in (1, 2, 3):
        if sols[k].status != "Dominated":
            _same_solution(sols[k], solve_gamma2_sdp(mats[k]))
        assert sols[k].value <= sols[0].value - sols[0].duality_gap
        _check_certificates(sols[k], mats[k])


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


def _hermitian_power(a: np.ndarray, power: float) -> np.ndarray:
    lam, vec = np.linalg.eigh(a)
    return (vec * lam**power) @ vec.conj().T


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3), (4, 6)])
def test_hessian_blocks_match_trace_formula(field, p, q):
    """The block-elimination Nesterov-Todd step solves the dense Newton system.

    At a random primal-dual point (G, s) and (Z, w), Z not dual feasible,
    the NT scaling point W = G^1/2 (G^1/2 Z G^1/2)^-1/2 G^1/2 is formed by
    eigendecompositions and N = W^-1.  The dense system is assembled over an
    orthonormal basis B_k of the block-diagonal matrices from the trace
    formula Re tr(N B_k N B_l), with the multipliers dw on the diagonal,
    the dual residual Pi_bd(Z) - Diag(w) on the right, w o ds + s o dw = r_lp
    with ds = dt - diag dG, and sum(dw) = 1 - sum(w).  dZ = C - N dG N.
    """
    complex_field = field == "complex"
    n = p + q
    rng = np.random.default_rng(10 * p + q)

    def spd():
        z = random_complex(rng, (n, n)) if complex_field else rng.standard_normal((n, n))
        return z @ z.conj().T + 0.5 * np.eye(n)

    g, z = spd(), spd()
    slack = rng.uniform(0.2, 1.5, n)
    w = rng.uniform(0.05, 0.5, n)
    root = _hermitian_power(g, 0.5)
    scaling = root @ _hermitian_power(root @ z @ root, -0.5) @ root
    np.testing.assert_allclose(scaling @ z @ scaling, g, atol=1e-10 * np.abs(g).max())
    n_mat = np.linalg.inv(scaling)

    basis = (_hermitian_basis(p, 0, n, complex_field)
             + _hermitian_basis(q, p, n, complex_field))
    assert len(basis) == (p * p + q * q if complex_field else (p * (p + 1) + q * (q + 1)) // 2)
    gram = [[np.trace(a.conj().T @ b).real for b in basis] for a in basis]
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-15)

    k = len(basis)
    diags = np.array([np.diag(b).real for b in basis])  # (k, n)
    dense = np.zeros((k + 1 + n, k + 1 + n))  # unknowns: dG coefficients, dt, dw
    dense[:k, :k] = [[np.trace(n_mat @ a @ n_mat @ b).real for b in basis] for a in basis]
    dense[:k, k + 1:] = diags
    dense[k:k + n, :k] = -w[:, None] * diags.T
    dense[k:k + n, k] = w
    dense[k:k + n, k + 1:] = np.diag(slack)
    dense[k + n, k + 1:] = 1.0

    # One factorization serves the predictor and any corrector.
    system = _NewtonSystem(scaling, n_mat, z, slack, w, p)
    corrector = 0.3 * np.linalg.inv(g) - z
    for c in (None, (corrector + corrector.conj().T) / 2.0):
        r_lp = -slack * w if c is None else 0.2 - slack * w
        c_full = -n_mat @ g @ n_mat if c is None else c
        e = c_full + z - np.diag(w)
        projected = [np.trace(b.conj().T @ e).real for b in basis]
        rhs = np.concatenate([projected, r_lp, [1.0 - w.sum()]])
        sol = np.linalg.solve(dense, rhs)
        dense_dg = np.tensordot(sol[:k], np.array(basis), axes=1)
        dense_dz = c_full - n_mat @ dense_dg @ n_mat

        dg, dt, dz, dw = system.solve(c, r_lp)
        scale = np.abs(dense_dg).max()
        np.testing.assert_allclose(dg, dense_dg, rtol=0.0, atol=1e-10 * scale)
        np.testing.assert_allclose(dz, dense_dz, rtol=0.0, atol=1e-10 * np.abs(dense_dz).max())
        assert dt == pytest.approx(sol[k], rel=1e-10)
        dense_dw = sol[k + 1:]
        np.testing.assert_allclose(dw, dense_dw, rtol=0.0, atol=1e-10 * np.abs(dense_dw).max())


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
