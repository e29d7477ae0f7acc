"""Dense complex linear algebra kernel.

Spectral decompositions of normal matrices, Schatten norms, trace pairings
and polar factors, plus the JSON wire format for dense complex matrices.

Inner products throughout the package are linear in the first argument and
conjugate-linear in the second: <x, y> = sum_i x_i * conj(y_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, NotNormal, NotSquare, ParseError, ShapeMismatch

NORMALITY_TOL = 1e-10
ORTHO_TOL = 1e-10
RECON_TOL = 1e-9

# Eigenvalues of the Hermitian part closer than this (relative to its
# Schatten-2 norm) are treated as one eigenspace when the skew part is
# block-diagonalized inside it.
EIGENSPACE_GROUP_TOL = 1e-8


def as_matrix(data, *, square: bool = False) -> np.ndarray:
    """Coerce ``data`` to a dense complex matrix and validate it.

    Args:
        data: anything ``np.array`` accepts that yields a 2-d array.
        square: additionally require equal row and column counts.

    Returns:
        A C-contiguous complex128 copy.
    """
    mat = np.array(data, dtype=np.complex128, order="C")
    if mat.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValueError("matrix entries must be finite")
    if square and mat.shape[0] != mat.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {mat.shape}")
    return mat


def divide_by_largest(values: np.ndarray):
    """``(top, values / top)`` with ``top`` the largest entry modulus, or
    ``(0.0, values)`` if there is none.  Norms computed on the quotient and
    multiplied back by ``top`` have tolerances relative to it.  Real and
    imaginary parts are divided separately: complex division by a subnormal
    ``top`` overflows."""
    top = float(np.max(np.abs(values))) if values.size else 0.0
    if top == 0.0:
        return 0.0, values
    data = values.real / top
    if np.any(values.imag != 0.0):
        data = data + 1j * (values.imag / top)
    return top, data


@dataclass(frozen=True, eq=False)
class NormalOperator:
    """A normal matrix together with certified spectral data.

    ``matrix = eigenbasis @ diag(eigenvalues) @ eigenbasis*`` holds within
    RECON_TOL relative to the Schatten-2 norm of the matrix, and the
    eigenbasis is unitary within ORTHO_TOL.  Eigenvalues are listed with
    multiplicity, one per eigenbasis column; alignment between grids and
    spectral data is positional everywhere in this package.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray

    def __post_init__(self):
        mat = as_matrix(self.matrix, square=True)
        basis = as_matrix(self.eigenbasis, square=True)
        eigs = np.asarray(self.eigenvalues, dtype=np.complex128).reshape(-1)
        dim = mat.shape[0]
        if basis.shape != (dim, dim) or eigs.shape != (dim,):
            raise ShapeMismatch("spectral data does not match the matrix dimension")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenbasis", basis)
        object.__setattr__(self, "eigenvalues", eigs)
        ortho = np.linalg.norm(basis @ basis.conj().T - np.eye(dim))
        if ortho > ORTHO_TOL:
            raise ValueError(f"eigenbasis is not unitary (defect {ortho:.3e})")
        # Checked on the matrix and eigenvalues divided by its largest entry
        # modulus, so the norms neither under- nor overflow.
        top, unit = divide_by_largest(mat)
        if top:
            eigs = eigs.real / top + 1j * (eigs.imag / top)
        recon = basis @ (eigs[:, None] * basis.conj().T)
        if not np.linalg.norm(recon - unit) <= RECON_TOL * np.linalg.norm(unit):
            raise ValueError("spectral data does not reconstruct the matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_eigensystem(cls, eigenvalues, eigenbasis=None) -> "NormalOperator":
        """Build the operator ``U diag(eigenvalues) U*`` directly.

        With ``eigenbasis=None`` the standard basis is used, which gives a
        diagonal operator whose eigenvalue list keeps the supplied order.
        """
        eigs = np.asarray(eigenvalues, dtype=np.complex128).reshape(-1)
        if eigenbasis is None:
            basis = np.eye(eigs.size, dtype=np.complex128)
        else:
            basis = as_matrix(eigenbasis, square=True)
        mat = basis @ (eigs[:, None] * basis.conj().T)
        return cls(matrix=mat, eigenvalues=eigs, eigenbasis=basis)


def normal_eig(matrix, normality_tol: float = NORMALITY_TOL) -> NormalOperator:
    """Eigendecompose a normal matrix into certified spectral data.

    The matrix is split as M = H + iK with H, K Hermitian.  For normal M
    these commute, so H is diagonalized first and K is then diagonalized
    inside each (numerically grouped) eigenspace of H.  Only Hermitian
    eigensolves are ever performed.  All of it runs on M divided by its
    largest entry modulus, so no norm under- or overflows at any scale.

    Raises:
        ValueError: when ``normality_tol`` is negative or not finite.
        NotSquare: on rectangular input.
        NotNormal: when ||M M* - M* M||_2 > normality_tol * ||M||_2**2.
        EigFailure: if the underlying Hermitian eigensolver fails.
    """
    if not 0.0 <= normality_tol < np.inf:
        raise ValueError(f"normality_tol must be finite and non-negative, got {normality_tol}")
    mat = as_matrix(matrix, square=True)
    dim = mat.shape[0]
    top, unit = divide_by_largest(mat)
    adj = unit.conj().T
    scale = np.linalg.norm(unit)
    defect = np.linalg.norm(unit @ adj - adj @ unit)
    if defect > normality_tol * scale * scale:
        raise NotNormal(
            f"commutator norm {defect:.3e} exceeds {normality_tol:.1e} * ||M||^2 "
            "(M scaled to largest entry modulus 1)"
        )
    herm = (unit + adj) / 2.0
    skew = (unit - adj) / 2.0j
    try:
        hvals, basis = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigFailure("Hermitian eigensolver did not converge") from exc
    basis = basis.astype(np.complex128, copy=True)

    group_tol = EIGENSPACE_GROUP_TOL * np.linalg.norm(herm)
    start = 0
    for end in range(1, dim + 1):
        if end < dim and hvals[end] - hvals[end - 1] <= group_tol:
            continue
        if end - start > 1:
            cols = basis[:, start:end]
            block = cols.conj().T @ skew @ cols
            block = (block + block.conj().T) / 2.0
            try:
                _, rot = np.linalg.eigh(block)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise EigFailure("eigenspace refinement did not converge") from exc
            basis[:, start:end] = cols @ rot
        start = end

    eigs = top * np.sum(basis.conj() * (unit @ basis), axis=0)
    return NormalOperator(matrix=mat, eigenvalues=eigs, eigenbasis=basis)


def schatten_norm(matrix, p) -> float:
    """Schatten norm for p in {1, 2, 4} or the operator norm for p="op"."""
    top, unit = divide_by_largest(as_matrix(matrix))
    if p == 2:
        return top * float(np.linalg.norm(unit))
    sv = np.linalg.svd(unit, compute_uv=False)
    if p == 1:
        return top * float(sv.sum())
    if p == 4:
        return top * float(np.sum(sv**4) ** 0.25)
    if p == "op":
        return top * float(sv[0]) if sv.size else 0.0
    raise ValueError(f"unsupported Schatten exponent: {p!r}")


def trace_pairing(left, right) -> complex:
    """tr(left @ right) for a p-by-q and a q-by-p matrix."""
    lm = as_matrix(left)
    rm = as_matrix(right)
    if lm.shape[1] != rm.shape[0] or lm.shape[0] != rm.shape[1]:
        raise ShapeMismatch(
            f"trace pairing needs (p, q) against (q, p); got {lm.shape} and {rm.shape}"
        )
    return complex(np.einsum("ij,ji->", lm, rm))


def matrix_to_json(matrix) -> dict:
    """Wire format: {"rows", "cols", "re", "im"} with nested row lists."""
    mat = as_matrix(matrix)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix wire format; both "re" and "im" are mandatory."""
    if not isinstance(obj, dict):
        raise ParseError("matrix JSON must be an object")
    for key in ("rows", "cols", "re", "im"):
        if key not in obj:
            raise ParseError(f"matrix JSON is missing required key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise ParseError("matrix JSON needs positive integer 'rows' and 'cols'")
    try:
        re = np.array(obj["re"], dtype=np.float64)
        im = np.array(obj["im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError("matrix JSON parts must be rectangular numeric lists") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ParseError(
            f"matrix JSON parts must have shape ({rows}, {cols}); "
            f"got {re.shape} and {im.shape}"
        )
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ParseError("matrix JSON entries must be finite")
    return re + 1j * im
