"""Finite-dimensional multiple operator integrals.

Every transform here follows the same recipe: rotate the matrix arguments
into the eigenbases of the surrounding normal operators, contract them
against the symbol's value grid, and rotate the result back.  One kernel,
:func:`_chain_apply`, does this for every order: ``doi_apply`` (order 2,
an entrywise Schur product), ``toi_apply`` (order 3) and ``moi_apply``
(orders 2 to 6) all call it.  The contraction is the chain

    out[i1, in] = sum over i2..i_{n-1} of
        grid[i1, ..., in] * X1~[i1, i2] * ... * X_{n-1}~[i_{n-1}, in],

evaluated by one plain ``np.einsum`` in a single pass over the grid.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalBreakdown, OrderTooLarge, ShapeMismatch
from .linalg import NormalOperator, as_matrix
from .symbols import SymbolGrid, embed_two_to_three

MAX_ORDER = 6

_AXIS_LETTERS = "abcdefg"


def check_grid_ops(grid: SymbolGrid, ops) -> None:
    """Require one grid axis per operator, each equal to its eigenvalue list."""
    if grid.order != len(ops):
        raise ShapeMismatch(
            f"grid order {grid.order} does not match {len(ops)} operators"
        )
    for slot, op in enumerate(ops):
        axis = grid.axes[slot]
        if axis.size != op.dim:
            raise ShapeMismatch(
                f"grid axis {slot} has length {axis.size}, operator has dimension {op.dim}"
            )
        tol = 1e-12 * (1.0 + np.max(np.abs(op.eigenvalues)))
        if not np.allclose(axis, op.eigenvalues, rtol=0.0, atol=tol):
            raise ShapeMismatch(
                f"grid axis {slot} does not match the operator's eigenvalue list"
            )


def _check_chain(ops, args, grid: SymbolGrid | None = None) -> None:
    """Check, in this order, the argument count (n operators, n-1 arguments),
    the order 2 <= n <= MAX_ORDER, the grid when given, and argument shapes."""
    n = len(ops)
    if len(args) != n - 1:
        raise ShapeMismatch(f"got {n} operators but {len(args)} arguments")
    if n < 2 or n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} outside the supported range [2, {MAX_ORDER}]")
    if grid is not None:
        check_grid_ops(grid, ops)
    for m, arg in enumerate(args):
        rows, cols = ops[m].dim, ops[m + 1].dim
        if arg.shape != (rows, cols):
            raise ShapeMismatch(
                f"argument {m} must have shape ({rows}, {cols}), got {arg.shape}"
            )


def apply_function(op: NormalOperator, values) -> np.ndarray:
    """Assemble f(A) = U diag(values) U* from values on the eigenvalue list."""
    vals = np.asarray(values, dtype=np.complex128).reshape(-1)
    if vals.size != op.dim:
        raise ShapeMismatch(
            f"need one value per eigenvalue ({op.dim}), got {vals.size}"
        )
    u = op.eigenbasis
    return u @ (vals[:, None] * u.conj().T)


def _chain_apply(ops, grid: SymbolGrid, args) -> np.ndarray:
    """Rotate the arguments into the eigenbases, contract, rotate back.

    The einsum runs without ``optimize``, so it walks the grid once and
    allocates only the rotated arguments and the output, never an
    intermediate of grid size.  A result that overflows raises
    :class:`NumericalBreakdown`.
    """
    _check_chain(ops, args, grid)
    rotated = [
        ops[m].eigenbasis.conj().T @ arg @ ops[m + 1].eigenbasis
        for m, arg in enumerate(args)
    ]
    letters = _AXIS_LETTERS[: len(ops)]
    spec = ",".join([letters] + [letters[m : m + 2] for m in range(len(args))])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        core = np.einsum(f"{spec}->{letters[0]}{letters[-1]}", grid.values, *rotated)
        out = ops[0].eigenbasis @ core @ ops[-1].eigenbasis.conj().T
    if not np.all(np.isfinite(out)):
        moduli = ", ".join(f"{np.max(np.abs(arg)):.3g}" for arg in args)
        raise NumericalBreakdown(
            f"the result overflowed: largest grid modulus "
            f"{np.max(np.abs(grid.values)):.3g}, largest argument moduli {moduli}"
        )
    return out


def doi_apply(op_a: NormalOperator, op_b: NormalOperator, psi: SymbolGrid, x) -> np.ndarray:
    """Double operator integral: Schur multiplication in the rotated bases."""
    return _chain_apply((op_a, op_b), psi, [as_matrix(x)])


def toi_apply(
    op_a: NormalOperator,
    op_b: NormalOperator,
    op_c: NormalOperator,
    phi: SymbolGrid,
    x,
    y,
) -> np.ndarray:
    """Triple operator integral of an order-3 symbol against two arguments."""
    return _chain_apply((op_a, op_b, op_c), phi, [as_matrix(x), as_matrix(y)])


def moi_apply(ops, grid: SymbolGrid, args) -> np.ndarray:
    """n-fold operator integral for 2 <= n <= MAX_ORDER.

    ``ops`` is a sequence of n normal operators, ``args`` a sequence of n-1
    matrices where args[m] maps between the spaces of ops[m+1] and ops[m].
    The contraction allocates only the rotated arguments and the output.
    """
    return _chain_apply(list(ops), grid, [as_matrix(a) for a in args])


def separable_apply(ops, terms, args) -> np.ndarray:
    """Sum of products f1(A1) X1 f2(A2) X2 ... fn(An) over separable terms.

    Each term is a sequence of n value vectors, one per operator, sampled on
    that operator's eigenvalue list.  This is the direct evaluation path for
    symbols of the form sum_t f1_t (x) ... (x) fn_t; it must agree with
    :func:`moi_apply` on the summed elementary-tensor grid.
    """
    ops = list(ops)
    args = [as_matrix(a) for a in args]
    _check_chain(ops, args)
    n = len(ops)
    out = np.zeros((ops[0].dim, ops[-1].dim), dtype=np.complex128)
    for term in terms:
        factors = list(term)
        if len(factors) != n:
            raise ShapeMismatch("each term needs one value vector per operator")
        acc = apply_function(ops[0], factors[0])
        for m in range(n - 1):
            acc = acc @ args[m] @ apply_function(ops[m + 1], factors[m + 1])
        out += acc
    return out


def doi_via_toi(
    op_a: NormalOperator,
    op_b: NormalOperator,
    psi: SymbolGrid,
    x,
    y,
    op_mid: NormalOperator,
) -> np.ndarray:
    """Evaluate a double operator integral through a three-operator detour.

    The two-variable symbol is lifted with the "outer" embedding (the middle
    slot is ignored), the middle operator is ``op_mid``, and the arguments are
    contracted as a pair.  The result must equal
    ``doi_apply(op_a, op_b, psi, x @ y)``.
    """
    if psi.order != 2:
        raise ShapeMismatch(f"need an order-2 grid, got order {psi.order}")
    lifted = embed_two_to_three(psi, "outer", op_mid.eigenvalues)
    return toi_apply(op_a, op_mid, op_b, lifted, x, y)
