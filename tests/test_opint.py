"""Operator integrals checked against independent reference computations.

Two oracle routes are used throughout:

* a spectral-projection reference that assembles the integral as an explicit
  triple/quadruple sum over rank-one eigenprojections (no shared code with
  the production contraction), and
* first-order perturbation theory: the derivative of exp at a Hermitian
  matrix equals the two-variable integral of the divided-difference table of
  exp, which we compare against a central finite difference of scipy's expm.
"""

from __future__ import annotations

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from opintlab import (
    NormalOperator,
    NumericalBreakdown,
    OrderTooLarge,
    ShapeMismatch,
    SymbolGrid,
    apply_function,
    doi_apply,
    doi_via_toi,
    elementary_tensor,
    embed_two_to_three,
    grid_from_function,
    moi_apply,
    normal_eig,
    pointwise_product,
    schatten_norm,
    separable_apply,
    toi_apply,
)
from opintlab import opint

from conftest import (
    random_complex,
    random_hermitian,
    random_normal_operator,
    random_unitary,
)

RNG = np.random.default_rng(20240817)


def _projection(basis, idx):
    col = basis[:, idx]
    return np.outer(col, col.conj())


def toi_reference(op_a, op_b, op_c, grid, x, y):
    """Triple sum over eigenprojections: sum_ikj phi[i,k,j] P_i X Q_k Y R_j."""
    out = np.zeros((op_a.dim, op_c.dim), dtype=complex)
    vals = np.asarray(grid.values)
    for i in range(op_a.dim):
        pa = _projection(op_a.eigenbasis, i)
        for k in range(op_b.dim):
            left = pa @ x @ _projection(op_b.eigenbasis, k) @ y
            for j in range(op_c.dim):
                out += vals[i, k, j] * (left @ _projection(op_c.eigenbasis, j))
    return out


def moi_reference_order4(ops, grid, args):
    out = np.zeros((ops[0].dim, ops[3].dim), dtype=complex)
    vals = np.asarray(grid.values)
    for i0 in range(ops[0].dim):
        p0 = _projection(ops[0].eigenbasis, i0)
        for i1 in range(ops[1].dim):
            p1 = _projection(ops[1].eigenbasis, i1)
            for i2 in range(ops[2].dim):
                p2 = _projection(ops[2].eigenbasis, i2)
                for i3 in range(ops[3].dim):
                    p3 = _projection(ops[3].eigenbasis, i3)
                    out += vals[i0, i1, i2, i3] * (
                        p0 @ args[0] @ p1 @ args[1] @ p2 @ args[2] @ p3
                    )
    return out


def moi_reference(ops, grid, args):
    """Nested sum over eigenprojections: sum grid[i0..in] P_i0 X1 P_i1 ... P_in."""
    out = np.zeros((ops[0].dim, ops[-1].dim), dtype=complex)
    vals = np.asarray(grid.values)
    for idx in itertools.product(*(range(op.dim) for op in ops)):
        term = _projection(ops[0].eigenbasis, idx[0])
        for m, arg in enumerate(args):
            term = term @ arg @ _projection(ops[m + 1].eigenbasis, idx[m + 1])
        out += vals[idx] * term
    return out


def _random_grid(rng, axes_ops):
    axes = [op.eigenvalues for op in axes_ops]
    shape = tuple(op.dim for op in axes_ops)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SymbolGrid(axes=tuple(axes), values=values)


# ---------------------------------------------------------------------------
# scalar functional calculus


def test_apply_function_exp_matches_scipy():
    h = random_hermitian(RNG, 5)
    op = normal_eig(h)
    got = apply_function(op, np.exp(op.eigenvalues))
    np.testing.assert_allclose(got, expm(h), rtol=1e-10, atol=1e-10)


def test_apply_function_square_matches_matmul():
    op = random_normal_operator(RNG, 4)
    m = (op.eigenbasis * op.eigenvalues) @ op.eigenbasis.conj().T
    got = apply_function(op, op.eigenvalues**2)
    np.testing.assert_allclose(got, m @ m, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# two-variable integrals


def test_doi_is_first_derivative_of_exp():
    # d/ds exp(A + sX) at s=0 equals the two-variable integral of the
    # divided-difference table of exp over the spectrum of A.
    h = random_hermitian(RNG, 4)
    x = random_hermitian(RNG, 4)
    op = normal_eig(h)

    def dd_exp(a, b):
        if abs(a - b) < 1e-9:
            return np.exp((a + b) / 2.0)
        return (np.exp(a) - np.exp(b)) / (a - b)

    grid = grid_from_function(dd_exp, [op.eigenvalues, op.eigenvalues])
    got = doi_apply(op, op, grid, x)

    step = 1e-5
    fd = (expm(h + step * x) - expm(h - step * x)) / (2.0 * step)
    np.testing.assert_allclose(got, fd, rtol=0, atol=1e-7 * schatten_norm(fd, "op"))


def test_doi_matches_projection_sum():
    op_a = random_normal_operator(RNG, 3)
    op_b = random_normal_operator(RNG, 4)
    psi = _random_grid(RNG, [op_a, op_b])
    x = random_complex(RNG, (3, 4))
    got = doi_apply(op_a, op_b, psi, x)
    want = np.zeros((3, 4), dtype=complex)
    for i in range(3):
        for j in range(4):
            want += psi.values[i, j] * (
                _projection(op_a.eigenbasis, i) @ x @ _projection(op_b.eigenbasis, j)
            )
    np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_doi_constant_symbol_is_identity_map():
    op = random_normal_operator(RNG, 5)
    ones = SymbolGrid(
        axes=(op.eigenvalues, op.eigenvalues),
        values=np.ones((5, 5), dtype=complex),
    )
    x = random_complex(RNG, (5, 5))
    np.testing.assert_allclose(doi_apply(op, op, ones, x), x, atol=1e-12)


def test_doi_rejects_wrong_axis():
    op = random_normal_operator(RNG, 3)
    bad = SymbolGrid(
        axes=(op.eigenvalues + 0.5, op.eigenvalues),
        values=np.ones((3, 3), dtype=complex),
    )
    with pytest.raises(ShapeMismatch):
        doi_apply(op, op, bad, np.eye(3, dtype=complex))


# ---------------------------------------------------------------------------
# three-variable integrals


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4, 2), (4, 3, 5)])
def test_toi_matches_projection_sum(dims):
    da, db, dc = dims
    op_a = random_normal_operator(RNG, da)
    op_b = random_normal_operator(RNG, db)
    op_c = random_normal_operator(RNG, dc)
    phi = _random_grid(RNG, [op_a, op_b, op_c])
    x = random_complex(RNG, (da, db))
    y = random_complex(RNG, (db, dc))
    got = toi_apply(op_a, op_b, op_c, phi, x, y)
    want = toi_reference(op_a, op_b, op_c, phi, x, y)
    np.testing.assert_allclose(got, want, atol=1e-11 * max(1.0, np.abs(want).max()))


def test_toi_adjoint_identity():
    # Taking adjoints reverses the argument order and conjugate-reverses the
    # symbol: Gamma_{A,B,C}(phi)(X, Y)^* = Gamma_{C,B,A}(phi~)(Y^*, X^*).
    op_a = random_normal_operator(RNG, 3)
    op_b = random_normal_operator(RNG, 2)
    op_c = random_normal_operator(RNG, 4)
    phi = _random_grid(RNG, [op_a, op_b, op_c])
    x = random_complex(RNG, (3, 2))
    y = random_complex(RNG, (2, 4))

    direct = toi_apply(op_a, op_b, op_c, phi, x, y).conj().T
    flipped = SymbolGrid(
        axes=(op_c.eigenvalues, op_b.eigenvalues, op_a.eigenvalues),
        values=np.conj(np.transpose(np.asarray(phi.values), (2, 1, 0))),
    )
    other = toi_apply(op_c, op_b, op_a, flipped, y.conj().T, x.conj().T)
    np.testing.assert_allclose(other, direct, atol=1e-12 * max(1.0, np.abs(direct).max()))


def test_toi_product_formula():
    # When the symbol factors through the middle variable as a product of
    # two-variable symbols, the integral splits into a product of
    # two-variable integrals.
    op_a = random_normal_operator(RNG, 3)
    op_b = random_normal_operator(RNG, 4)
    op_c = random_normal_operator(RNG, 3)
    psi1 = _random_grid(RNG, [op_a, op_b])
    psi2 = _random_grid(RNG, [op_b, op_c])
    phi = pointwise_product(
        embed_two_to_three(psi1, "left", op_c.eigenvalues),
        embed_two_to_three(psi2, "right", op_a.eigenvalues),
    )
    x = random_complex(RNG, (3, 4))
    y = random_complex(RNG, (4, 3))
    got = toi_apply(op_a, op_b, op_c, phi, x, y)
    want = doi_apply(op_a, op_b, psi1, x) @ doi_apply(op_b, op_c, psi2, y)
    np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_toi_contraction_bound():
    for _ in range(25):
        op_a = random_normal_operator(RNG, 3)
        op_b = random_normal_operator(RNG, 3)
        op_c = random_normal_operator(RNG, 3)
        phi = _random_grid(RNG, [op_a, op_b, op_c])
        x = random_complex(RNG, (3, 3))
        y = random_complex(RNG, (3, 3))
        out = toi_apply(op_a, op_b, op_c, phi, x, y)
        bound = (
            np.abs(phi.values).max() * schatten_norm(x, 2) * schatten_norm(y, 2)
        )
        assert schatten_norm(out, 2) <= bound + 1e-10 * max(1.0, bound)


def test_toi_basis_covariance():
    # Conjugating every operator by fixed unitaries commutes with the
    # integral: arguments rotate on the way in, the result on the way out.
    dims = (3, 2, 4)
    ops = [random_normal_operator(RNG, d) for d in dims]
    phi = _random_grid(RNG, ops)
    x = random_complex(RNG, (3, 2))
    y = random_complex(RNG, (2, 4))
    ws = [random_unitary(RNG, d) for d in dims]
    rotated_ops = [
        NormalOperator.from_eigensystem(op.eigenvalues, w @ op.eigenbasis)
        for op, w in zip(ops, ws)
    ]
    base = toi_apply(*ops, phi, x, y)
    rotated = toi_apply(
        *rotated_ops,
        phi,
        ws[0] @ x @ ws[1].conj().T,
        ws[1] @ y @ ws[2].conj().T,
    )
    want = ws[0] @ base @ ws[2].conj().T
    np.testing.assert_allclose(rotated, want, atol=1e-11 * max(1.0, np.abs(want).max()))


def test_transforms_reject_grid_of_wrong_order():
    op = random_normal_operator(RNG, 2)
    psi = _random_grid(RNG, [op, op])
    phi = _random_grid(RNG, [op, op, op])
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ShapeMismatch):
        doi_apply(op, op, phi, eye)
    with pytest.raises(ShapeMismatch):
        toi_apply(op, op, op, psi, eye, eye)
    with pytest.raises(ShapeMismatch):
        moi_apply([op, op, op], psi, [eye, eye])


def test_toi_rejects_wrong_argument_shape():
    op = random_normal_operator(RNG, 3)
    phi = _random_grid(RNG, [op, op, op])
    with pytest.raises(ShapeMismatch):
        toi_apply(op, op, op, phi, np.eye(2, dtype=complex), np.eye(3, dtype=complex))


@pytest.mark.filterwarnings("error")
def test_overflowing_result_is_a_breakdown():
    """A result that overflows raises a typed error naming the overflow and
    the largest moduli, at every order, on the separable path too, and with
    no numpy warning."""
    op = random_normal_operator(RNG, 2)
    big = np.full((2, 2), 1e200, dtype=complex)
    eye = np.eye(2, dtype=complex)
    psi = SymbolGrid(axes=(op.eigenvalues,) * 2, values=np.full((2, 2), 1e200))
    phi = SymbolGrid(axes=(op.eigenvalues,) * 3, values=np.full((2, 2, 2), 1e200))
    calls = [
        lambda: doi_apply(op, op, psi, big),
        lambda: toi_apply(op, op, op, phi, big, eye),
        lambda: moi_apply([op] * 3, phi, [big, eye]),
        lambda: separable_apply([op] * 2, [[np.full(2, 1e200), np.ones(2)]], [big]),
    ]
    for call in calls:
        with pytest.raises(NumericalBreakdown,
                           match=r"overflowed: largest (grid|term value) modulus 1e\+200"):
            call()
    # sup|phi| * ||X||_2 * ||Y||_2 overflows, but the huge entry meets a zero
    # of X, so the result is finite and is returned.
    diag = NormalOperator.from_eigensystem(np.arange(2.0))
    values = np.ones((2, 2, 2))
    values[1, 1, 1] = 1e300
    phi = SymbolGrid(axes=(diag.eigenvalues,) * 3, values=values)
    out = toi_apply(diag, diag, diag, phi, np.diag([1e10, 0.0]), np.diag([1e10, 1.0]))
    np.testing.assert_array_equal(out, np.diag([1e20, 0.0]))


def test_huge_symbol_against_huge_and_tiny_arguments():
    # 1e300 * 1e100 overflows on the way, but the result 1e300 * I does not;
    # 1e-300 * 1e-100 underflows on the way, but the result 1e-300 * I does not.
    op = NormalOperator.from_eigensystem(np.arange(3.0))
    for scale, first, second in ((1e300, 1e100, 1e-100), (1e-300, 1e-100, 1e100)):
        phi = SymbolGrid(axes=(op.eigenvalues,) * 3, values=np.full((3, 3, 3), scale))
        args = [first * np.eye(3), second * np.eye(3)]
        terms = [[np.full(3, scale), np.ones(3), np.ones(3)]]
        for out in (toi_apply(op, op, op, phi, *args), moi_apply([op] * 3, phi, args),
                    separable_apply([op] * 3, terms, args)):
            np.testing.assert_allclose(out, scale * np.eye(3), rtol=1e-15, atol=0.0)
    # A chain that stays in range is not rescaled: a symbol at the float
    # limit against small arguments, and a tiny symbol against a large and
    # then a small argument, whose products would turn subnormal if the large
    # argument were scaled down.
    phi = SymbolGrid(axes=(op.eigenvalues,) * 3, values=np.full((3, 3, 3), 1e308))
    tiny = np.full((3, 3), 1e-10)
    out = toi_apply(op, op, op, phi, tiny, tiny)
    np.testing.assert_allclose(out, np.full((3, 3), 3e288), rtol=1e-15, atol=0.0)
    phi = SymbolGrid(axes=(op.eigenvalues,) * 3, values=np.full((3, 3, 3), 1e-300))
    out = toi_apply(op, op, op, phi, 1e20 * np.eye(3), 1e-20 * np.eye(3))
    np.testing.assert_allclose(out, 1e-300 * np.eye(3), rtol=1e-15, atol=0.0)
    terms = [[np.full(3, 1e-300), np.ones(3), np.ones(3)]]
    out = separable_apply([op] * 3, terms, [1e20 * np.eye(3), 1e-20 * np.eye(3)])
    np.testing.assert_allclose(out, 1e-300 * np.eye(3), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("scale", [1e-10, 1e-271])
def test_argument_at_the_float_limit_is_scaled_before_its_rotation(scale):
    # The operators' eigenbasis is the 2x2 Hadamard matrix / sqrt(2), which
    # takes X = 1.5e308 everywhere to 3e308 in one entry: each argument is
    # scaled before its rotation, from its own largest modulus and the
    # rotation's growth bound, so the representable result comes back.
    # Against the 1e-271 grid, the chain never leaves the range: X is scaled
    # down only because it would leave it on its own.
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    ops = [NormalOperator(matrix=hadamard @ np.diag(lam) @ hadamard,
                          eigenvalues=np.asarray(lam, dtype=complex),
                          eigenbasis=hadamard.astype(complex))
           for lam in ([1.0, 2.0], [3.0, 5.0])]
    grid = SymbolGrid(axes=(ops[0].eigenvalues, ops[1].eigenvalues),
                      values=np.full((2, 2), scale, dtype=complex))
    x = np.full((2, 2), 1.5e308, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = doi_apply(*ops, grid, x)
    np.testing.assert_allclose(out, scale * x, rtol=1e-14, atol=0.0)


def test_separable_apply_takes_one_exponent_per_slot(monkeypatch):
    """One reduction per slot over every term, and one per argument, give
    the shifts of the term-by-term exponents."""
    rng = np.random.default_rng(12)
    dims = (3, 2, 4)
    ops = [random_normal_operator(rng, d) for d in dims]
    args = [1e150 * random_complex(rng, (3, 2)), 1e-200 * random_complex(rng, (2, 4))]
    terms = [[10.0 ** rng.integers(-40, 40) * random_complex(rng, d) for d in dims]
             for _ in range(6)]
    calls, seen = [], []
    exponent, shifts = opint._exponent, opint._shifts

    def counting_exponent(values):
        calls.append(1)
        return exponent(values)

    def recording_shifts(level, steps):
        steps = list(steps)
        seen.append((level, steps))
        return shifts(level, steps)

    monkeypatch.setattr(opint, "_exponent", counting_exponent)
    monkeypatch.setattr(opint, "_shifts", recording_shifts)
    out = separable_apply(ops, terms, args)
    assert len(calls) == len(dims) + len(args)
    tops = [max(exponent(term[m]) for term in terms) for m in range(len(dims))]
    assert seen == [(tops[0], [exponent(arg) + top for arg, top in zip(args, tops[1:])])]
    assert np.all(np.isfinite(out))


def test_chains_in_range_match_the_plain_contraction():
    # Only an overflowing contraction is rescaled: random chains of every
    # order match the plain formulas bit for bit.
    rng = np.random.default_rng(77)
    for trial in range(30):
        order = 2 + trial % 5
        dims = [int(d) for d in rng.integers(1, 5, size=order)]
        ops = [random_normal_operator(rng, d) for d in dims]
        grid = _random_grid(rng, ops)
        args = [10.0 ** rng.integers(-20, 21) * random_complex(rng, (dims[m], dims[m + 1]))
                for m in range(order - 1)]
        rotated = [ops[m].eigenbasis.conj().T @ arg @ ops[m + 1].eigenbasis
                   for m, arg in enumerate(args)]
        letters = "abcdefg"[:order]
        spec = ",".join([letters] + [letters[m : m + 2] for m in range(order - 1)])
        core = np.einsum(f"{spec}->{letters[0]}{letters[-1]}", grid.values, *rotated)
        plain = ops[0].eigenbasis @ core @ ops[-1].eigenbasis.conj().T
        np.testing.assert_array_equal(moi_apply(ops, grid, args), plain)

        terms = [[random_complex(rng, d) for d in dims] for _ in range(2)]
        plain = np.zeros((dims[0], dims[-1]), dtype=complex)
        for term in terms:
            acc = apply_function(ops[0], term[0])
            for m in range(order - 1):
                acc = acc @ args[m] @ apply_function(ops[m + 1], term[m + 1])
            plain += acc
        np.testing.assert_array_equal(separable_apply(ops, terms, args), plain)


def _times_power_of_two(x, exponent):
    """x * 2**exponent, each part scaled exactly."""
    x = np.asarray(x, dtype=complex)
    return np.ldexp(x.real, exponent) + 1j * np.ldexp(x.imag, exponent)


def test_extreme_scale_chains_match_the_unit_scale_contraction():
    # Grids near 1e+-300 against arguments near 1e+-150, by exact powers of
    # two: a result whose true largest modulus is at least 2**-1000 equals
    # the contraction of the unit-scale inputs scaled back, and a breakdown
    # means that the true result overflows.
    rng = np.random.default_rng(41)
    checked = raised = 0
    for trial in range(300):
        order = 2 + trial % 5
        dims = [int(d) for d in rng.integers(1, 4, size=order)]
        ops = [random_normal_operator(rng, d) for d in dims]
        unit_grid = _random_grid(rng, ops)
        unit_args = [random_complex(rng, (dims[m], dims[m + 1])) for m in range(order - 1)]
        unit_terms = [[random_complex(rng, d) for d in dims] for _ in range(2)]
        k_grid = int(rng.integers(-996, 997))
        k_args = [int(k) for k in rng.integers(-498, 499, size=order - 1)]
        grid = SymbolGrid(axes=unit_grid.axes,
                          values=_times_power_of_two(unit_grid.values, k_grid))
        args = [_times_power_of_two(a, k) for a, k in zip(unit_args, k_args)]
        terms = [[_times_power_of_two(t[0], k_grid)] + t[1:] for t in unit_terms]
        total = k_grid + sum(k_args)
        pairs = [
            (lambda: moi_apply(ops, grid, args), moi_apply(ops, unit_grid, unit_args)),
            (lambda: separable_apply(ops, terms, args),
             separable_apply(ops, unit_terms, unit_args)),
        ]
        for call, unit in pairs:
            try:
                out = call()
            except NumericalBreakdown:
                top_part = np.max(np.maximum(np.abs(unit.real), np.abs(unit.imag)))
                assert np.log2(top_part) + total > 1024 - 1e-9
                raised += 1
                continue
            if np.log2(np.max(np.abs(unit))) + total >= -1000:
                back = _times_power_of_two(out, -total)
                assert np.linalg.norm(back - unit) <= 1e-14 * np.linalg.norm(unit)
                checked += 1
    assert checked > 200 and raised > 20


def test_contraction_is_one_pass(monkeypatch):
    # The product 1e300 * 1e100 overflows on the way unless the arguments are
    # scaled first; the scaling is worked out up front, so one pass suffices.
    op = NormalOperator.from_eigensystem(np.arange(3.0))
    phi = SymbolGrid(axes=(op.eigenvalues,) * 3, values=np.full((3, 3, 3), 1e300))
    args = [1e100 * np.eye(3), 1e-100 * np.eye(3)]
    terms = [[np.full(3, 1e300), np.ones(3), np.ones(3)]] * 2
    calls = []
    einsum, apply = np.einsum, opint.apply_function
    monkeypatch.setattr(np, "einsum", lambda *a: calls.append("einsum") or einsum(*a))
    monkeypatch.setattr(opint, "apply_function", lambda *a: calls.append("f") or apply(*a))
    for call in (lambda: toi_apply(op, op, op, phi, *args),
                 lambda: moi_apply([op] * 3, phi, args)):
        np.testing.assert_allclose(call(), 1e300 * np.eye(3), rtol=1e-15, atol=0.0)
        assert calls == ["einsum"]
        calls.clear()
    out = separable_apply([op] * 3, terms, args)
    np.testing.assert_allclose(out, 2e300 * np.eye(3), rtol=1e-15, atol=0.0)
    assert calls == ["f"] * 6


@pytest.mark.parametrize("scale", [1e-200, 1e-13, 1.0, 1e200])
def test_grid_axes_match_the_spectrum_relative_to_its_scale(scale):
    op = NormalOperator.from_eigensystem(scale * np.array([1.0, 2.0]))
    x = np.eye(2, dtype=complex)
    for axis in ([3.0, -5.0], [-1.0, 7.0]):
        bad = SymbolGrid(axes=(scale * np.array(axis), op.eigenvalues), values=np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            doi_apply(op, op, bad, x)
    near = op.eigenvalues * (1.0 + 1e-14 * np.array([1.0, -1.0]))
    grid = SymbolGrid(axes=(near, near), values=np.ones((2, 2)))
    np.testing.assert_array_equal(doi_apply(op, op, grid, x), x)


# ---------------------------------------------------------------------------
# higher orders


def test_moi_order_two_matches_doi():
    op_a = random_normal_operator(RNG, 3)
    op_b = random_normal_operator(RNG, 4)
    psi = _random_grid(RNG, [op_a, op_b])
    x = random_complex(RNG, (3, 4))
    np.testing.assert_allclose(
        moi_apply([op_a, op_b], psi, [x]),
        doi_apply(op_a, op_b, psi, x),
        atol=1e-13,
    )


def test_moi_order_three_matches_toi():
    ops = [random_normal_operator(RNG, d) for d in (2, 3, 2)]
    phi = _random_grid(RNG, ops)
    x = random_complex(RNG, (2, 3))
    y = random_complex(RNG, (3, 2))
    np.testing.assert_allclose(
        moi_apply(ops, phi, [x, y]),
        toi_apply(*ops, phi, x, y),
        atol=1e-13,
    )


def test_moi_order_four_matches_projection_sum():
    ops = [random_normal_operator(RNG, d) for d in (2, 3, 2, 3)]
    grid = _random_grid(RNG, ops)
    args = [
        random_complex(RNG, (2, 3)),
        random_complex(RNG, (3, 2)),
        random_complex(RNG, (2, 3)),
    ]
    got = moi_apply(ops, grid, args)
    want = moi_reference_order4(ops, grid, args)
    np.testing.assert_allclose(got, want, atol=1e-11 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize(
    "dims",
    [
        (1, 1), (1, 4), (3, 2),
        (1, 3, 1), (4, 1, 2), (2, 3, 4),
        (1, 2, 3, 4), (4, 3, 1, 2),
        (2, 1, 3, 1, 2), (3, 2, 2, 4, 1),
        (1, 2, 1, 2, 1, 2), (4, 1, 4, 2, 1, 3),
    ],
)
def test_moi_matches_projection_sum_at_every_order(dims):
    ops = [random_normal_operator(RNG, d) for d in dims]
    grid = _random_grid(RNG, ops)
    args = [random_complex(RNG, (dims[m], dims[m + 1])) for m in range(len(dims) - 1)]
    got = moi_apply(ops, grid, args)
    want = moi_reference(ops, grid, args)
    np.testing.assert_allclose(got, want, atol=1e-11 * max(1.0, np.abs(want).max()))
    if len(dims) == 2:
        np.testing.assert_array_equal(got, doi_apply(*ops, grid, *args))
    if len(dims) == 3:
        np.testing.assert_array_equal(got, toi_apply(*ops, grid, *args))


@pytest.mark.parametrize("order, n", [(3, 64), (4, 20)])
def test_moi_allocates_far_less_than_the_grid(order, n):
    # The contraction makes one pass over the grid; the only arrays it
    # allocates are the rotated arguments and the output.
    ops = [NormalOperator.from_eigensystem(np.arange(n, dtype=float)) for _ in range(order)]
    grid = _random_grid(RNG, ops)
    args = [random_complex(RNG, (n, n)) for _ in range(order - 1)]
    tracemalloc.start()
    try:
        moi_apply(ops, grid, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.values.nbytes / 4


def test_moi_rejects_order_beyond_cap():
    ops = [NormalOperator.from_eigensystem([0.0, 1.0]) for _ in range(7)]
    axes = tuple(op.eigenvalues for op in ops)
    grid = SymbolGrid(axes=axes, values=np.zeros((2,) * 7, dtype=complex))
    args = [np.eye(2, dtype=complex)] * 6
    with pytest.raises(OrderTooLarge):
        moi_apply(ops, grid, args)


def test_moi_rejects_wrong_argument_count():
    ops = [random_normal_operator(RNG, 2) for _ in range(3)]
    grid = _random_grid(RNG, ops)
    with pytest.raises(ShapeMismatch):
        moi_apply(ops, grid, [np.eye(2, dtype=complex)])


def test_separable_apply_matches_moi_on_tensor_sums():
    ops = [random_normal_operator(RNG, d) for d in (2, 3, 2)]
    axes = [op.eigenvalues for op in ops]
    terms = []
    acc = None
    for _ in range(3):
        vecs = [random_complex(RNG, op.dim) for op in ops]
        terms.append(vecs)
        tensor = elementary_tensor(vecs, axes)
        acc = tensor.values if acc is None else acc + tensor.values
    grid = SymbolGrid(axes=tuple(axes), values=acc)
    args = [random_complex(RNG, (2, 3)), random_complex(RNG, (3, 2))]
    got = separable_apply(ops, terms, args)
    want = moi_apply(ops, grid, args)
    np.testing.assert_allclose(got, want, atol=1e-11 * max(1.0, np.abs(want).max()))


def test_doi_via_toi_reduction():
    op_a = random_normal_operator(RNG, 3)
    op_b = random_normal_operator(RNG, 4)
    op_mid = random_normal_operator(RNG, 3)
    psi = _random_grid(RNG, [op_a, op_b])
    x = random_complex(RNG, (3, 3))
    y = random_complex(RNG, (3, 4))
    got = doi_via_toi(op_a, op_b, psi, x, y, op_mid)
    want = doi_apply(op_a, op_b, psi, x @ y)
    np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))
