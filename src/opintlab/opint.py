"""Finite-dimensional multiple operator integrals.

Every transform here follows the same recipe: rotate the matrix arguments
into the eigenbases of the surrounding normal operators, contract them
against the symbol's value grid, and rotate the result back.  One kernel,
:func:`_chain_apply`, does this for every order: ``doi_apply`` (order 2,
an entrywise Schur product), ``toi_apply`` (order 3) and ``moi_apply``
(orders 2 to 6) all call it.  The contraction is the chain

    out[i1, in] = sum over i2..i_{n-1} of
        grid[i1, ..., in] * X1~[i1, i2] * ... * X_{n-1}~[i_{n-1}, in],

evaluated by one plain ``np.einsum`` in a single pass over the grid, on
arguments scaled up front by powers of two that keep every product in range.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalBreakdown, OrderTooLarge, ShapeMismatch
from .linalg import NormalOperator, as_matrix
from .symbols import SymbolGrid, embed_two_to_three

MAX_ORDER = 6

_AXIS_LETTERS = "abcdefg"


def check_grid_ops(grid: SymbolGrid, ops) -> None:
    """Require one grid axis per operator, each equal to its eigenvalue list
    up to 1e-12 times the larger of the two lists' largest moduli."""
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
        tol = 1e-12 * max(np.abs(axis).max(), np.abs(op.eigenvalues).max())
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


def _finite_result(out: np.ndarray, symbol: str, values, args) -> np.ndarray:
    """``out``, or a :class:`NumericalBreakdown` naming the largest moduli of
    the symbol ``values`` (a sequence of arrays) and ``args`` on overflow."""
    if not np.all(np.isfinite(out)):
        top = max(float(np.max(np.abs(v))) for v in values)
        moduli = ", ".join(f"{np.max(np.abs(arg)):.3g}" for arg in args)
        raise NumericalBreakdown(
            f"the result overflowed: largest {symbol} modulus {top:.3g}, "
            f"largest argument moduli {moduli}"
        )
    return out


def _ldexp(x: np.ndarray, exponent: int) -> np.ndarray:
    """``x`` times 2**exponent (``x`` itself for 0), exact unless it leaves
    the normal range; the real and imaginary parts are scaled apart, as the
    factor itself may not be representable."""
    if not exponent:
        return x
    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, exponent), np.ldexp(x.imag, exponent)
    return out


# Bound, as a power of two, on the running magnitude of a rescaled product
# chain, above and below 1; it leaves a factor 2**64 of headroom for the sums.
_RESCALED_LEVEL = 960


def _exponent(values) -> int:
    """The binary exponent e of the largest modulus m, 2**(e-1) <= m < 2**e
    (0 when every value is 0 or there is none)."""
    return int(np.frexp(np.abs(values).max(initial=0.0))[1])


def _shifts(level: int, steps) -> list[int]:
    """Powers of two to divide the arguments of a product chain by, so that
    its running magnitude stays within 2**-_RESCALED_LEVEL..2**_RESCALED_LEVEL.

    ``level`` bounds the binary exponent of the factor before the first
    argument, and ``steps[m]`` what argument m adds to it together with any
    factor that follows it.  An argument is scaled down above the range and
    up below it, each only as far as the bound needs, and never left above
    the range on its own, so a chain that stays in range gets all-zero
    shifts and keeps every bit.
    """
    shifts = []
    for step in steps:
        level += step
        shifts.append(max(level - min(max(level, -_RESCALED_LEVEL), _RESCALED_LEVEL),
                          step - _RESCALED_LEVEL))
        level -= shifts[-1]
    return shifts


def _rotation_growth(arg: np.ndarray) -> int:
    """A bound, as a power of two, on how much a unitary rotation U* X V can
    raise the largest modulus of X: no entry exceeds ||X||_2, which is at
    most sqrt(rows * cols) times it."""
    return ((arg.size - 1).bit_length() + 1) // 2


def _chain_apply(ops, grid: SymbolGrid, args) -> np.ndarray:
    """Rotate the arguments into the eigenbases, contract, rotate back.

    The einsum runs without ``optimize``, so it walks the grid once and
    allocates only the rotated arguments and the output, never an
    intermediate of grid size.  It multiplies grid * X1~ * X2~ ... left to
    right, on arguments scaled by the powers of two of :func:`_shifts`, so
    that no partial product leaves the range; the result is scaled back, and
    raises :class:`NumericalBreakdown` if that overflows.  Each argument is
    scaled before it is rotated, with its shift taken from its own largest
    modulus and the rotation's growth bound, so the rotation cannot
    overflow either.
    """
    _check_chain(ops, args, grid)
    shifts = _shifts(grid.exponent, [_exponent(arg) + _rotation_growth(arg) for arg in args])
    letters = _AXIS_LETTERS[: len(ops)]
    spec = ",".join([letters] + [letters[m : m + 2] for m in range(len(args))])
    spec = f"{spec}->{letters[0]}{letters[-1]}"
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rotated = [
            ops[m].eigenbasis.conj().T @ _ldexp(arg, -shift) @ ops[m + 1].eigenbasis
            for m, (arg, shift) in enumerate(zip(args, shifts))
        ]
        core = np.einsum(spec, grid.values, *rotated)
        out = _ldexp(ops[0].eigenbasis @ core @ ops[-1].eigenbasis.conj().T, sum(shifts))
    return _finite_result(out, "grid", [grid.values], args)


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
    :func:`moi_apply` on the summed elementary-tensor grid, overflow included.
    As there, the one pass runs on arguments scaled by powers of two, from
    the terms' and the arguments' largest moduli, and the result is scaled back.
    """
    ops = list(ops)
    args = [as_matrix(a) for a in args]
    _check_chain(ops, args)
    n = len(ops)
    terms = [list(term) for term in terms]
    if any(len(factors) != n for factors in terms):
        raise ShapeMismatch("each term needs one value vector per operator")
    # The frexp exponent grows with the modulus, so one reduction per slot
    # over every term gives the largest of the terms' exponents.
    tops = [_exponent(np.concatenate([np.ravel(term[m]) for term in terms])) if terms else 0
            for m in range(n)]
    shifts = _shifts(tops[0], [_exponent(arg) + top for arg, top in zip(args, tops[1:])])
    scaled = [_ldexp(arg, -shift) for arg, shift in zip(args, shifts)]
    out = np.zeros((ops[0].dim, ops[-1].dim), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for term in terms:
            acc = apply_function(ops[0], term[0])
            for m in range(n - 1):
                acc = acc @ scaled[m] @ apply_function(ops[m + 1], term[m + 1])
            out += acc
        out = _ldexp(out, sum(shifts))
    return _finite_result(out, "term value", [f for term in terms for f in term], args)


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
