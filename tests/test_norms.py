"""Norm estimators: exact Hilbert-Schmidt norm, trace-norm sandwich, factors."""

from __future__ import annotations

import numpy as np
import pytest

from opintlab import norms, sdp
from opintlab.errors import BudgetExceeded
from opintlab import (
    NormalOperator,
    SymbolGrid,
    doi_apply,
    doi_s1_norm,
    gamma2,
    middle_slices,
    norm_estimate_to_json,
    normal_eig,
    s1_bilinear_norm_lower,
    s2s2_to_s2_norm,
    schatten_norm,
    solve_gamma2_sdp,
    sup_norm,
    toi_apply,
    trace_pairing,
    trilinear_factor_norm,
)

from conftest import random_normal_operator, random_unitary

RNG = np.random.default_rng(2718)


def _instance(dims, seed, complex_entries=True):
    rng = np.random.default_rng(seed)
    ops = [random_normal_operator(rng, d) for d in dims]
    values = rng.standard_normal(dims)
    if complex_entries:
        values = values + 1j * rng.standard_normal(dims)
    grid = SymbolGrid(
        axes=tuple(op.eigenvalues for op in ops), values=values.astype(complex)
    )
    return ops, grid


# ---------------------------------------------------------------------------
# Hilbert-Schmidt-to-Hilbert-Schmidt: the norm is the sup of the symbol


def test_s2_norm_equals_sup():
    ops, grid = _instance((3, 4, 2), seed=1)
    est = s2s2_to_s2_norm(*ops, grid)
    assert est.value == pytest.approx(sup_norm(grid), rel=1e-12)
    assert est.converged


def test_s2_norm_witness_attains_value():
    ops, grid = _instance((3, 3, 3), seed=2)
    est = s2s2_to_s2_norm(*ops, grid)
    x, y = est.witness["X"], est.witness["Y"]
    assert schatten_norm(x, 2) == pytest.approx(1.0, rel=1e-12)
    assert schatten_norm(y, 2) == pytest.approx(1.0, rel=1e-12)
    out = toi_apply(*ops, grid, x, y)
    assert schatten_norm(out, 2) == pytest.approx(est.value, rel=1e-11)


# ---------------------------------------------------------------------------
# trace-norm output: ascent lower bound against the factorization upper bound


def test_sandwich_orders_correctly():
    ops, grid = _instance((2, 3, 2), seed=3)
    lower = s1_bilinear_norm_lower(*ops, grid, restarts=48, seed=11)
    upper, _ = trilinear_factor_norm(grid)
    assert lower.value <= upper.value + 1e-9
    # Generic small instances close the sandwich to solver precision.
    assert upper.value - lower.value <= 1e-5 * max(1.0, upper.value)


def test_lower_witness_certifies_value():
    ops, grid = _instance((3, 2, 3), seed=4)
    est = s1_bilinear_norm_lower(*ops, grid, restarts=32, seed=7)
    x, y, z = est.witness["X"], est.witness["Y"], est.witness["Z"]
    assert schatten_norm(x, 2) == pytest.approx(1.0, rel=1e-10)
    assert schatten_norm(y, 2) == pytest.approx(1.0, rel=1e-10)
    assert schatten_norm(z, "op") <= 1.0 + 1e-10
    pairing = trace_pairing(toi_apply(*ops, grid, x, y), z)
    assert abs(pairing) == pytest.approx(est.value, rel=1e-9)
    # The witness pairing really does bound the trace norm from below.
    assert abs(pairing) <= schatten_norm(toi_apply(*ops, grid, x, y), 1) + 1e-9


def test_lower_bound_more_restarts_never_worse():
    for complex_entries in (False, True):
        ops, grid = _instance((2, 2, 2), seed=5, complex_entries=complex_entries)
        few = s1_bilinear_norm_lower(*ops, grid, restarts=1, seed=3)
        many = s1_bilinear_norm_lower(*ops, grid, restarts=16, seed=3)
        assert many.value >= few.value
        assert many.restarts_used == 16


def _unit_starts(dims, restarts, seed, field="complex"):
    rng = np.random.default_rng(seed)
    da, db, dc = dims
    xs = rng.standard_normal((restarts, da, db)) + 1j * rng.standard_normal((restarts, da, db))
    ys = rng.standard_normal((restarts, db, dc)) + 1j * rng.standard_normal((restarts, db, dc))
    if field == "real":
        xs, ys = xs.real, ys.real
    xs /= np.linalg.norm(xs, axis=(1, 2), keepdims=True)
    ys /= np.linalg.norm(ys, axis=(1, 2), keepdims=True)
    return xs, ys


def _grid_and_starts(field):
    """A 3x2x3 grid and 16 unit starts, both real or both complex."""
    _, grid = _instance((3, 2, 3), seed=8, complex_entries=field == "complex")
    return grid, *_unit_starts(grid.shape, 16, seed=9, field=field)


def _recording_polar(monkeypatch):
    """Wrap ``_polar_batch``; returns the list of (dtype, trace norms) per call."""
    polar = norms._polar_batch
    calls = []

    def recording(t):
        z, traces = polar(t)
        calls.append((t.dtype, traces.copy()))
        return z, traces

    monkeypatch.setattr(norms, "_polar_batch", recording)
    return calls


@pytest.mark.parametrize("field", ["real", "complex"])
def test_restarts_do_not_depend_on_the_batch(field):
    grid, xs, ys = _grid_and_starts(field)
    batch = norms._ascent_trilinear(grid.values, xs, ys, 500)
    alone = [
        norms._ascent_trilinear(grid.values, xs[r : r + 1], ys[r : r + 1], 500)
        for r in range(16)
    ]
    best = max(alone, key=lambda result: result[3])
    assert batch[3] == best[3]
    np.testing.assert_array_equal(batch[0], best[0])
    assert batch[4] == best[4]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_settled_restarts_leave_the_batch(monkeypatch, field):
    # Each restart sweeps until it settles, then only the final polar step
    # sees it again: the batch does the work of its restarts run alone.
    grid, xs, ys = _grid_and_starts(field)
    calls = _recording_polar(monkeypatch)
    norms._ascent_trilinear(grid.values, xs, ys, 500)
    batch_total = sum(tr.size for _, tr in calls)
    calls.clear()
    for r in range(16):
        norms._ascent_trilinear(grid.values, xs[r : r + 1], ys[r : r + 1], 500)
    assert batch_total == sum(tr.size for _, tr in calls)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_ascent_runs_in_the_field_of_the_grid(monkeypatch, complex_entries):
    calls = _recording_polar(monkeypatch)
    ops, grid = _instance((3, 2, 4), seed=12, complex_entries=complex_entries)
    assert np.asarray(grid.values).dtype == np.complex128
    s1_bilinear_norm_lower(*ops, grid, restarts=8, seed=1)
    assert calls
    want = np.complex128 if complex_entries else np.float64
    assert {dtype for dtype, _ in calls} == {np.dtype(want)}


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_starts_are_the_seeded_complex_draws_or_their_real_parts(monkeypatch, complex_entries):
    # Restart r takes the r-th block of one generator's draws: a complex
    # grid its two halves as real and imaginary parts, a real grid the
    # first half, the real part of that complex start.
    ops, grid = _instance((2, 3, 4), seed=13, complex_entries=complex_entries)
    got = {}

    def capture(values, xs, ys, max_iter):
        got["xs"], got["ys"] = xs, ys
        return xs[0], ys[0], np.zeros((4, 2)), 0.0, True

    monkeypatch.setattr(norms, "_ascent_trilinear", capture)
    s1_bilinear_norm_lower(*ops, grid, restarts=5, seed=21)
    draws = np.random.default_rng(21).standard_normal((5, 2, 2 * 3 + 3 * 4))
    starts = draws[:, 0] + 1j * draws[:, 1]
    if not complex_entries:
        starts = starts.real
    xs, ys = starts[:, :6].reshape(5, 2, 3), starts[:, 6:].reshape(5, 3, 4)
    assert got["xs"].dtype == xs.dtype and got["ys"].dtype == ys.dtype
    np.testing.assert_array_equal(got["xs"], xs / np.linalg.norm(xs, axis=(1, 2), keepdims=True))
    np.testing.assert_array_equal(got["ys"], ys / np.linalg.norm(ys, axis=(1, 2), keepdims=True))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_one_restart_never_loses_ground_over_500_sweeps(monkeypatch, field):
    # A smooth symbol whose restarts end in slow linear tails, so that
    # candidates are tried and taken.  The settle test is switched off, so
    # the restart runs all 500 sweeps.  Each polar call holds the iterate's
    # T, then the candidate's when one is tried; the value reached at a
    # call is the larger, and the next call's iterate starts at or above
    # it.  Trace norms are rounded sums, so a few units in the last place
    # are allowed.
    rng = np.random.default_rng(3)
    axes = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    values = _trig_symbol(rng, axes)
    if field == "complex":
        values = values * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, values.shape))
    xs, ys = _unit_starts(values.shape, 1, seed=3, field=field)
    calls = _recording_polar(monkeypatch)
    monkeypatch.setattr(norms, "_SWEEP_TOL", -1.0)
    norms._ascent_trilinear(values, xs, ys, 500)
    assert len(calls) == 501
    traces = [tr for _, tr in calls]
    for before, after in zip(traces, traces[1:]):
        assert after[0] >= before.max() * (1.0 - 1e-14)
    tried = [tr for tr in traces if tr.size == 2]
    assert len(tried) >= 10
    assert sum(tr[1] > tr[0] for tr in tried) >= 10


def test_lower_bound_rejects_oversized_restart_counts(monkeypatch):
    # 10**12 restarts would need about 10**14 bytes of draws: the request is
    # refused before the generator is built or anything is allocated.
    def no_draws(*args, **kwargs):
        raise AssertionError("drew starts before the budget check")

    ops, grid = _instance((2, 2, 2), seed=7)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(BudgetExceeded, match="budget"):
        s1_bilinear_norm_lower(*ops, grid, restarts=10**12)


def test_lower_bound_is_seed_deterministic():
    ops, grid = _instance((2, 3, 2), seed=6)
    a = s1_bilinear_norm_lower(*ops, grid, restarts=8, seed=42)
    b = s1_bilinear_norm_lower(*ops, grid, restarts=8, seed=42)
    assert a.value == b.value
    np.testing.assert_array_equal(a.witness["X"], b.witness["X"])


def test_ascent_builds_one_generator_per_call(monkeypatch):
    calls = []
    make = np.random.default_rng

    def counting_rng(*args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)

    ops, grid = _instance((2, 3, 2), seed=6)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    s1_bilinear_norm_lower(*ops, grid, restarts=8, seed=42)
    assert len(calls) == 1
    psi = SymbolGrid(axes=grid.axes[::2], values=np.asarray(grid.values)[:, 0, :])
    doi_s1_norm(ops[0], ops[2], psi)
    assert len(calls) == 1


def test_lower_bound_rejects_zero_restarts():
    ops, grid = _instance((2, 2, 2), seed=7)
    with pytest.raises(ValueError):
        s1_bilinear_norm_lower(*ops, grid, restarts=0)


def test_multiplication_map_has_unit_norm():
    # With the constant-one symbol the transform is (X, Y) -> XY, whose
    # trace-norm-output norm is exactly one.
    ops, grid = _instance((2, 2, 2), seed=8)
    ones = SymbolGrid(axes=grid.axes, values=np.ones((2, 2, 2), dtype=complex))
    lower = s1_bilinear_norm_lower(*ops, ones, restarts=16, seed=1)
    upper, _ = trilinear_factor_norm(ones)
    assert upper.value == pytest.approx(1.0, abs=1e-6)
    assert lower.value == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the factorization route


class TestTrilinearFactor:
    def test_value_is_max_slice_norm(self):
        _, grid = _instance((3, 4, 2), seed=9)
        est, _ = trilinear_factor_norm(grid)
        slice_norms = [solve_gamma2_sdp(m).value for m in middle_slices(grid)]
        assert est.value == pytest.approx(max(slice_norms), rel=1e-9)
        assert est.converged
        assert est.upper_certificate == est.value

    def test_pair_reconstructs_grid(self):
        _, grid = _instance((2, 3, 2), seed=10)
        est, pair = trilinear_factor_norm(grid)
        np.testing.assert_allclose(
            pair.reconstruct(), np.asarray(grid.values), atol=1e-6
        )
        assert pair.norm_a * pair.norm_b <= est.value + 1e-9
        assert pair.hilbert_dim == 2 + 2

    def test_zero_middle_slice_is_skipped(self):
        _, grid = _instance((2, 3, 2), seed=11)
        values = np.asarray(grid.values).copy()
        values[:, 1, :] = 0.0
        grid = SymbolGrid(axes=grid.axes, values=values)
        est, pair = trilinear_factor_norm(grid)
        others = [solve_gamma2_sdp(values[:, k, :]).value for k in (0, 2)]
        assert est.value == pytest.approx(max(others), rel=1e-9)
        np.testing.assert_allclose(pair.reconstruct(), values, atol=1e-6)

    def test_zero_grid(self):
        _, grid = _instance((2, 2, 2), seed=12)
        zeros = SymbolGrid(axes=grid.axes, values=np.zeros((2, 2, 2), dtype=complex))
        est, pair = trilinear_factor_norm(zeros)
        assert est.value == 0.0
        np.testing.assert_array_equal(pair.reconstruct(), zeros.values)

    def test_every_slice_goes_through_the_solver(self, monkeypatch):
        # The nonzero slices go through one call of the stacked core; zero
        # slices take the solver's own zero path; the witness is the best
        # slice's Gram matrix.
        _, grid = _instance((2, 3, 2), seed=11)
        values = np.asarray(grid.values).copy()
        values[:, 1, :] = 0.0
        grid = SymbolGrid(axes=grid.axes, values=values)
        stacks, solved = [], []
        core, solve_stack = sdp._solve, norms._solve_stack

        def counting_core(s, *args):
            stacks.append(s.shape[0])
            return core(s, *args)

        def recording_stack(mats, *args, **kwargs):
            sols = solve_stack(mats, *args, **kwargs)
            solved.extend(sols)
            return sols

        monkeypatch.setattr(sdp, "_solve", counting_core)
        monkeypatch.setattr(norms, "_solve_stack", recording_stack)
        est, _ = trilinear_factor_norm(grid)
        assert stacks == [2]
        assert len(solved) == 3
        assert solved[1].value == 0.0 and solved[1].status == "Optimal"
        best = max(solved, key=lambda sol: sol.value)
        assert est.witness["gram"] is best.gram

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    @pytest.mark.parametrize("n,field", [(16, "real"), (6, "complex"), (3, "mixed")])
    def test_value_is_the_largest_slice_solve_exactly(self, n, field, scale):
        # Pruned slices cannot win, and the others are solved as alone; in
        # the mixed grid, the slices with no imaginary part are real.
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, n, n))
        if field != "real":
            values = values + 1j * rng.standard_normal((n, n, n))
        if field == "mixed":
            values[:, ::2, :] = values[:, ::2, :].real
        axes = (np.arange(n, dtype=complex),) * 3
        grid = SymbolGrid(axes=axes, values=scale * values)
        est, _ = trilinear_factor_norm(grid)
        alone = [solve_gamma2_sdp(m) for m in middle_slices(grid)]
        best = max(alone, key=lambda sol: sol.value)
        assert est.value == best.value
        np.testing.assert_array_equal(est.witness["gram"], best.gram)
        assert est.converged


# ---------------------------------------------------------------------------
# two-operator trace-to-trace sandwich


def test_doi_sandwich():
    rng = np.random.default_rng(15)
    op_a = random_normal_operator(rng, 3)
    op_b = random_normal_operator(rng, 3)
    psi = SymbolGrid(
        axes=(op_a.eigenvalues, op_b.eigenvalues),
        values=rng.standard_normal((3, 3)).astype(complex),
    )
    est = doi_s1_norm(op_a, op_b, psi)
    assert est.upper_certificate is not None
    assert est.value <= est.upper_certificate + 1e-9
    assert est.upper_certificate - est.value <= 1e-5 * max(1.0, est.value)

    # Witness: a unit-trace-norm rank-one argument paired with a contraction.
    x, z = est.witness["X"], est.witness["Z"]
    assert schatten_norm(x, 1) == pytest.approx(1.0, rel=1e-12)
    assert schatten_norm(z, "op") <= 1.0 + 1e-12
    pairing = trace_pairing(doi_apply(op_a, op_b, psi, x), z)
    assert abs(pairing) == pytest.approx(est.value, rel=1e-12)


def test_doi_identity_symbol_has_unit_norm():
    rng = np.random.default_rng(16)
    op_a = random_normal_operator(rng, 4)
    op_b = random_normal_operator(rng, 4)
    ones = SymbolGrid(
        axes=(op_a.eigenvalues, op_b.eigenvalues),
        values=np.ones((4, 4), dtype=complex),
    )
    est = doi_s1_norm(op_a, op_b, ones)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    assert est.upper_certificate == pytest.approx(1.0, abs=1e-6)


def test_doi_lower_bound_is_deterministic():
    rng = np.random.default_rng(17)
    op_a = random_normal_operator(rng, 4)
    op_b = random_normal_operator(rng, 3)
    psi = SymbolGrid(
        axes=(op_a.eigenvalues, op_b.eigenvalues),
        values=rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
    )
    first = doi_s1_norm(op_a, op_b, psi)
    second = doi_s1_norm(op_a, op_b, psi)
    assert first.value == second.value
    assert first.restarts_used == 0
    for name in ("X", "Z"):
        np.testing.assert_array_equal(first.witness[name], second.witness[name])


# ---------------------------------------------------------------------------
# lower bounds are scale free: the ascent and the solver both work on
# values / max|values|


def _diag_ops(dims):
    return [NormalOperator.from_eigensystem(np.arange(d, dtype=float)) for d in dims]


def _ascent_values_at(scale):
    """doi_s1_norm on a real, a complex and a triangular symbol, then the
    trilinear ascent, all at ``scale``; each doi estimate comes with the
    duality gap of its solve."""
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((4, 4))
    phi = rng.standard_normal((3, 2, 3))
    two, three = _diag_ops((4, 4)), _diag_ops((3, 2, 3))
    axes = tuple(op.eigenvalues for op in two)
    out = []
    for values in (psi, psi + 1j * rng.standard_normal((4, 4)), np.triu(psi)):
        gap = solve_gamma2_sdp(values * scale).duality_gap
        out.append((doi_s1_norm(*two, SymbolGrid(axes=axes, values=values * scale)), gap))
    tri = s1_bilinear_norm_lower(
        *three, SymbolGrid(axes=tuple(op.eigenvalues for op in three), values=phi * scale)
    )
    return out + [(tri, None)]


@pytest.mark.parametrize(
    "scale", [1e-8, 1e-150, 2.0**-1030, 1e150], ids=["1e-8", "1e-150", "2^-1030", "1e150"]
)
def test_ascent_lower_bounds_do_not_depend_on_scale(scale):
    base = _ascent_values_at(1.0)
    scaled = _ascent_values_at(scale)
    for (ref, _), (est, gap) in zip(base, scaled):
        assert est.value / scale == pytest.approx(ref.value, rel=1e-9)
        assert est.converged == ref.converged
    # doi_s1_norm's lower bound is within its solve's gap of the upper one.
    for est, gap in base[:3] + scaled[:3]:
        assert est.upper_certificate - gap <= est.value <= est.upper_certificate


def test_doi_s1_norm_runs_no_ascent(monkeypatch):
    def no_ascent(*args, **kwargs):
        raise AssertionError("doi_s1_norm ran the ascent")

    monkeypatch.setattr(norms, "_ascent_trilinear", no_ascent)
    rng = np.random.default_rng(22)
    op_a, op_b = random_normal_operator(rng, 3), random_normal_operator(rng, 3)
    psi = SymbolGrid(axes=(op_a.eigenvalues, op_b.eigenvalues), values=rng.random((3, 3)))
    assert doi_s1_norm(op_a, op_b, psi).converged


def _peller_operator(rng, n):
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = random_unitary(rng, n)
    return normal_eig((u * lam) @ u.conj().T)


def _trig_symbol(rng, axes, terms=3):
    """A random real trigonometric symbol in the eigenvalues' real and
    imaginary parts; with :func:`_peller_operator`, the recipe of the
    benchmark's ``peller`` inputs."""
    mesh = np.meshgrid(*axes, indexing="ij")
    out = np.zeros(mesh[0].shape)
    for _ in range(terms):
        phase = np.full(mesh[0].shape, rng.uniform(0.0, 2.0 * np.pi))
        for m in mesh:
            phase += rng.normal(0.0, 1.5) * m.real + rng.normal(0.0, 1.5) * m.imag
        out += rng.uniform(0.5, 1.0) * np.cos(phase)
    return out / terms


def test_doi_sandwich_closes_on_trig_symbols():
    # Smooth symbols on random spectra of sizes 3 to 8: every sandwich is
    # certified by the solver, to its relative gap tolerance.
    rng = np.random.default_rng(1)
    for n in (3, 4, 6, 8) * 4:
        op_a, op_b = _peller_operator(rng, n), _peller_operator(rng, n)
        axes = (op_a.eigenvalues, op_b.eigenvalues)
        est = doi_s1_norm(op_a, op_b, SymbolGrid(axes=axes, values=_trig_symbol(rng, axes)))
        assert est.converged
        assert est.upper_certificate - est.value <= 1e-7 * est.upper_certificate


def _smooth_real_instances():
    """Real trigonometric symbols on random complex spectra, the recipe of
    the benchmark's norm-s1 inputs: four each of shapes 4x4x4, 3x5x4 and
    6x6x6, with diagonal operators on those spectra."""
    for dims in ((4, 4, 4), (3, 5, 4), (6, 6, 6)):
        for seed in range(4):
            rng = np.random.default_rng([seed, *dims])
            axes = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in dims)
            ops = [NormalOperator.from_eigensystem(axis) for axis in axes]
            yield seed, ops, SymbolGrid(axes=axes, values=_trig_symbol(rng, axes))


def test_ascent_work_budget(monkeypatch):
    # The polar steps are most of the ascent's time.  Complex sweeps from
    # complex starts, without jumps, took 135,099 of them on this set; real
    # sweeps with the jump every third sweep take 61,562.  The budget is
    # half the former.
    calls = _recording_polar(monkeypatch)
    for seed, ops, grid in _smooth_real_instances():
        s1_bilinear_norm_lower(*ops, grid, restarts=64, seed=seed)
    assert sum(tr.size for _, tr in calls) <= 135_099 // 2


def test_ascent_meets_the_slice_bound_on_random_grids():
    # Sides 2 to 6, real and complex entries: the ascent's lower bound
    # reaches the slices' certified upper bound to 1e-6 relative.
    draw = np.random.default_rng(29)
    for trial in range(30):
        dims = tuple(int(d) for d in draw.integers(2, 7, size=3))
        ops, grid = _instance(dims, seed=trial, complex_entries=trial % 2 == 1)
        lower = s1_bilinear_norm_lower(*ops, grid, seed=trial).value
        upper = trilinear_factor_norm(grid)[0].value
        assert lower <= upper * (1.0 + 1e-9)
        assert lower >= upper * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# wrappers and serialization


def test_gamma2_wrapper_exposes_gram_witness():
    s = RNG.standard_normal((3, 3))
    est = gamma2(s)
    assert est.converged
    assert est.value == pytest.approx(solve_gamma2_sdp(s).value, rel=1e-9)
    gram = est.witness["gram"]
    assert gram.shape == (6, 6)


def test_gamma2_wrapper_reports_non_convergence(monkeypatch):
    s = np.random.default_rng(18).standard_normal((6, 6))
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    est = gamma2(s)
    assert not est.converged


def test_norm_estimate_json():
    ops, grid = _instance((2, 2, 2), seed=19)
    est = s1_bilinear_norm_lower(*ops, grid, restarts=4, seed=0)
    doc = norm_estimate_to_json(est)
    assert set(doc) == {
        "value",
        "upper_certificate",
        "converged",
        "restarts_used",
        "witness",
    }
    assert doc["upper_certificate"] is None
    assert isinstance(doc["value"], float)
    assert set(doc["witness"]) == {"X", "Y", "Z"}
    assert doc["witness"]["X"]["rows"] == 2
