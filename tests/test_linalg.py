"""Spectral decomposition, Schatten norms, and matrix JSON round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from opintlab import (
    NormalOperator,
    NotNormal,
    NotSquare,
    ParseError,
    ShapeMismatch,
    matrix_from_json,
    matrix_to_json,
    normal_eig,
    schatten_norm,
    trace_pairing,
)

from conftest import random_complex, random_hermitian, random_normal_matrix, random_unitary

RNG = np.random.default_rng(1234)


def _assert_valid_eig(op, matrix):
    recon = (op.eigenbasis * op.eigenvalues) @ op.eigenbasis.conj().T
    np.testing.assert_allclose(recon, matrix, atol=1e-10 * max(1.0, np.abs(matrix).max()))
    np.testing.assert_allclose(
        op.eigenbasis.conj().T @ op.eigenbasis, np.eye(op.dim), atol=1e-10
    )


def test_eig_hermitian():
    h = random_hermitian(RNG, 6)
    op = normal_eig(h)
    _assert_valid_eig(op, h)
    assert np.abs(op.eigenvalues.imag).max() < 1e-10


def test_eig_unitary():
    u = random_unitary(RNG, 5)
    op = normal_eig(u)
    _assert_valid_eig(op, u)
    np.testing.assert_allclose(np.abs(op.eigenvalues), 1.0, atol=1e-10)


def test_eig_generic_normal():
    m = random_normal_matrix(RNG, 7)
    _assert_valid_eig(normal_eig(m), m)


def test_eig_degenerate_real_parts():
    # Eigenvalues i and -i share the real part 0, so the Hermitian-part
    # spectrum is fully degenerate and the skew refinement has to do all
    # the work.  [[0, -1], [1, 0]] is the canonical instance.
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    op = normal_eig(j)
    _assert_valid_eig(op, j)
    got = np.sort_complex(op.eigenvalues)
    np.testing.assert_allclose(got, [-1j, 1j], atol=1e-12)


def test_eig_clustered_real_parts_with_distinct_imag():
    # Two well separated imaginary parts sitting on nearly identical real
    # parts: the grouping step must merge them before refining.
    u = random_unitary(RNG, 4)
    lam = np.array([1.0 + 2j, 1.0 + 1e-12 - 1j, 3.0, 4.0 + 0.5j])
    m = (u * lam) @ u.conj().T
    op = normal_eig(m)
    _assert_valid_eig(op, m)
    np.testing.assert_allclose(
        np.sort(op.eigenvalues.imag), np.sort(lam.imag), atol=1e-9
    )


def test_eig_rejects_rectangular():
    with pytest.raises(NotSquare):
        normal_eig(np.ones((2, 3)))


def test_eig_rejects_jordan_block():
    with pytest.raises(NotNormal):
        normal_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eig_tolerance_override():
    m = random_normal_matrix(RNG, 3)
    assert normal_eig(m).dim == 3
    with pytest.raises(NotNormal):
        # Zero tolerance trips on the float-level commutator residue.
        normal_eig(m, normality_tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0], ids=["nan", "inf", "neg"])
def test_eig_rejects_bad_tolerance(tol):
    # Checked before any work: a NaN or infinite tolerance would pass any
    # matrix through the normality gate, a negative one would fail every matrix.
    with pytest.raises(ValueError, match="normality_tol"):
        normal_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), normality_tol=tol)


SCALES = [1e-200, 1e-160, 1.0, 1e160, 1e200]


@pytest.mark.parametrize("c", SCALES)
def test_eig_rejects_scaled_nilpotent(c):
    # ||M||^2 under- or overflows at these scales unless the gate runs on M
    # divided by its largest entry modulus.
    with pytest.raises(NotNormal):
        normal_eig(c * np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("c", SCALES)
def test_eig_of_scaled_diagonal(c):
    op = normal_eig(c * np.diag([1.0, -1.0]))
    np.testing.assert_allclose(np.sort(op.eigenvalues.real), [-c, c], rtol=1e-12, atol=0.0)
    assert not np.any(op.eigenvalues.imag)


@pytest.mark.parametrize("c", SCALES)
def test_spectral_data_checked_at_any_scale(c):
    # Zero eigenvalues do not reconstruct c * [[0, 1], [0, 0]] at any c.
    with pytest.raises(ValueError, match="reconstruct"):
        NormalOperator(
            matrix=c * np.array([[0.0, 1.0], [0.0, 0.0]]),
            eigenvalues=np.zeros(2),
            eigenbasis=np.eye(2),
        )


@pytest.mark.parametrize("c", [1e-200, 1e200])
@pytest.mark.parametrize("p", [1, 2, 4, "op"])
def test_schatten_norm_at_extreme_scale(c, p):
    want = {1: 2.0, 2: np.sqrt(2.0), 4: 2.0**0.25, "op": 1.0}[p]
    assert schatten_norm(c * np.eye(2), p) == pytest.approx(c * want, rel=1e-15, abs=0.0)


def test_from_eigensystem_preserves_order():
    lam = np.array([3.0, -1.0, 2.0])
    op = NormalOperator.from_eigensystem(lam)
    np.testing.assert_array_equal(op.eigenvalues, lam.astype(complex))
    np.testing.assert_array_equal(op.eigenbasis, np.eye(3).astype(complex))


def test_from_eigensystem_rejects_non_unitary_basis():
    with pytest.raises(ValueError):
        NormalOperator.from_eigensystem([1.0, 2.0], np.ones((2, 2)))


@pytest.mark.parametrize("p", [1, 2, 4, "op"])
def test_schatten_norm_matches_singular_values(p):
    m = random_complex(RNG, (4, 6))
    sv = np.linalg.svd(m, compute_uv=False)
    if p == "op":
        want = sv.max()
    else:
        want = (sv**p).sum() ** (1.0 / p)
    assert schatten_norm(m, p) == pytest.approx(want, rel=1e-12)


def test_schatten_norm_golden():
    m = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert schatten_norm(m, 1) == pytest.approx(7.0)
    assert schatten_norm(m, 2) == pytest.approx(5.0)
    assert schatten_norm(m, "op") == pytest.approx(4.0)


def test_schatten_norm_rejects_unsupported_exponent():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 3)


def test_trace_pairing_matches_elementwise_sum():
    a = random_complex(RNG, (3, 5))
    b = random_complex(RNG, (5, 3))
    want = sum(a[i, k] * b[k, i] for i in range(3) for k in range(5))
    assert trace_pairing(a, b) == pytest.approx(want, rel=1e-12)


def test_trace_pairing_shape_check():
    with pytest.raises(ShapeMismatch):
        trace_pairing(np.ones((2, 3)), np.ones((2, 3)))


def test_matrix_json_round_trip():
    m = random_complex(RNG, (3, 4))
    again = matrix_from_json(matrix_to_json(m))
    np.testing.assert_array_equal(again, m)


def test_matrix_json_real_payload():
    m = np.array([[1.5, -2.0]])
    doc = matrix_to_json(m)
    assert doc["rows"] == 1 and doc["cols"] == 2
    np.testing.assert_array_equal(matrix_from_json(doc), m.astype(complex))


@pytest.mark.parametrize(
    "doc",
    [
        {"rows": 1, "cols": 1, "re": [[0.0]]},  # missing im
        {"rows": 2, "cols": 2, "re": [[1, 2], [3]], "im": [[0, 0], [0, 0]]},  # ragged
        {"rows": 1, "cols": 1, "re": [[float("nan")]], "im": [[0.0]]},  # non-finite
        {"rows": 2, "cols": 1, "re": [[1.0]], "im": [[0.0]]},  # shape lie
        "not a mapping",
    ],
)
def test_matrix_json_rejects_malformed(doc):
    with pytest.raises(ParseError):
        matrix_from_json(doc)
