"""Operator norms of bilinear Schur-type transforms, with certificates.

Three norms are computed for the transform attached to an order-3 symbol:

* as a bilinear map on pairs of Hilbert-Schmidt matrices with a
  Hilbert-Schmidt-norm output it is an exact supremum (the transform acts
  entrywise in the rotated bases, so the norm is the sup norm of the grid);
* with a trace-norm output, lower bounds come from a seeded multi-start
  block-coordinate ascent over (X, Y, Z) and upper bounds from the
  factorization norms of the grid's middle slices;
* for the two-operator transform, the trace-to-trace norm is the
  factorization norm of the full grid; one semidefinite solve gives the
  upper side, and the square roots of its dual weights a rank-one argument
  for the lower side.

The ascent works on the values divided by their largest modulus, so its
results do not depend on the scale of the data.  A real grid ascends in
real arithmetic from the real parts of the complex draws, since for real
values the supremum is attained at real arguments.  Every third sweep a
restart whose gains shrink geometrically also tries a safeguarded jump
along its last step, sized by the ratio of its last two gains; the jump is
kept only when it raises the trace norm, so the objective never decreases.
Each restart sweeps until it settles and then leaves the batch, and every
decision reads only its own numbers, so it follows the same path alone as
among others, and more restarts never lower the bound.  Lower bounds are
always reported as lower bounds; upper certificates come from the
semidefinite solver and are correct up to its duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NotPsd, ShapeMismatch
from .linalg import NormalOperator, as_matrix, divide_by_largest
from .opint import check_grid_ops
from .sdp import _solve_stack, solve_gamma2_sdp
from .symbols import SymbolGrid, middle_slices, sup_norm

DEFAULT_RESTARTS = 64
DEFAULT_SWEEPS = 500
DEFAULT_SEED = 0
AGREEMENT_TOL = 1e-3

_SWEEP_TOL = 1e-10
_JUMP_EVERY = 3
_ASCENT_BYTES = 1 << 30
_ZERO_NORM = 1e-300


@dataclass
class NormEstimate:
    """A norm value with the evidence that produced it.

    value: the reported norm (a certified lower bound for the ascent and
        for :func:`doi_s1_norm`, the exact or solver value otherwise).
    witness: named matrices achieving ``value`` when re-evaluated.
    upper_certificate: optional upper bound from a factorization certificate.
    restarts_used: number of ascent restarts behind the value (0 if none).
    converged: False when the best restart reached the sweep cap without
        settling, or a solve stopped short of its gap tolerance (a slice
        left as "Dominated", which cannot carry the value, does not count);
        the bounds are then still valid.
    """

    value: float
    witness: dict
    upper_certificate: float | None = None
    restarts_used: int = 0
    converged: bool = True


@dataclass
class FactorizationPair:
    """Vector families (a, b) with <a_row, b_col> reproducing a matrix or grid.

    ``a`` and ``b`` hold the vectors along their last axis.  For a matrix
    factorization the shapes are (p, d) and (q, d); for an order-3 grid they
    are (n1, n2, d) and (n3, n2, d), indexed by (row, middle) and
    (column, middle).
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def hilbert_dim(self) -> int:
        return self.a.shape[-1]

    @property
    def norm_a(self) -> float:
        return float(np.max(np.linalg.norm(self.a, axis=-1)))

    @property
    def norm_b(self) -> float:
        return float(np.max(np.linalg.norm(self.b, axis=-1)))

    def reconstruct(self) -> np.ndarray:
        """Pair the families back into the matrix (2-d) or grid (3-d) values."""
        if self.a.ndim == 2:
            return np.einsum("id,jd->ij", self.a, self.b.conj())
        if self.a.ndim == 3:
            return np.einsum("ikd,jkd->ikj", self.a, self.b.conj())
        raise ShapeMismatch(f"unsupported vector family rank {self.a.ndim}")


def s2s2_to_s2_norm(
    op_a: NormalOperator,
    op_b: NormalOperator,
    op_c: NormalOperator,
    phi: SymbolGrid,
) -> NormEstimate:
    """Norm of the transform as a bilinear map between Hilbert-Schmidt spaces.

    The transform is an isometric representation of the grid algebra, so the
    norm equals the sup norm of the grid exactly, attained on a rank-one pair
    built from the eigenbasis columns at the largest grid entry.
    """
    check_grid_ops(phi, (op_a, op_b, op_c))
    value = sup_norm(phi)
    i, k, j = np.unravel_index(int(np.argmax(np.abs(phi.values))), phi.shape)
    col_a = op_a.eigenbasis[:, i]
    col_b = op_b.eigenbasis[:, k]
    col_c = op_c.eigenbasis[:, j]
    x = np.outer(col_a, col_b.conj())
    y = np.outer(col_b, col_c.conj())
    return NormEstimate(
        value=value,
        witness={"X": x, "Y": y},
        upper_certificate=value,
        restarts_used=0,
        converged=True,
    )


def _polar_batch(t: np.ndarray):
    """The polar step, batched: the contraction Z with tr(T Z) = ||T||_1 for
    each matrix T of the batch, and those trace norms."""
    u, sv, vh = np.linalg.svd(t, full_matrices=False)
    z = vh.conj().swapaxes(-1, -2) @ u.conj().swapaxes(-1, -2)
    return z, sv.sum(axis=-1)


def _renormalize(batch: np.ndarray, old: np.ndarray):
    """Scale each batch entry to unit Frobenius norm, keeping zero updates."""
    flat = batch.reshape(batch.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1)
    ok = norms > 1e-200
    out = np.where(
        ok.reshape((-1,) + (1,) * (batch.ndim - 1)),
        batch / np.maximum(norms, _ZERO_NORM).reshape((-1,) + (1,) * (batch.ndim - 1)),
        old,
    )
    return out, norms, ok


def _trilinear(values, xs, ys):
    """T(X, Y) for each restart's pair: T_ij = sum_k values_ikj X_ik Y_kj."""
    return np.einsum("ikj,rik,rkj->rij", values, xs, ys)


def _ascent_trilinear(values: np.ndarray, xs: np.ndarray, ys: np.ndarray, max_iter: int):
    """Alternating ascent for the trace-norm output from the unit-norm starts
    ``xs``, ``ys`` (one per restart), returning the best restart.

    Works in the rotated bases (the value is basis independent) on
    ``values`` divided by their largest modulus, so the settle test and the
    zero-update cutoff are relative; the value is multiplied back.  It runs
    in the field of that quotient and the starts: float64 when both are
    real, complex128 otherwise.  Each sweep updates Z by the trace-norm
    polar step, then X and Y by normalizing the linear representative of
    the objective.  Every ``_JUMP_EVERY``-th sweep also tries to jump a
    linear tail: a restart whose last two gains g_prev > g > 0 shrink at
    the ratio rho = g / g_prev proposes X + beta (X - X_prev) with beta =
    rho / (1 - rho), and Y alike, both normalized.  Its T goes through the
    same polar call as the iterate's, and it replaces the iterate, with its
    Z, only when its trace norm is strictly larger, so the objective never
    decreases.  A restart leaves the batch after the first sweep that gains
    at most ``_SWEEP_TOL`` relative, and later sweeps run on the others
    only.  Every decision reads only the restart's own numbers, so each
    restart follows the path it would follow alone.
    """
    top, values = divide_by_largest(values)
    field = np.result_type(values, xs, ys)
    x_out, y_out = np.empty(xs.shape, field), np.empty(ys.shape, field)
    settled = np.zeros(xs.shape[0], dtype=bool)
    active = np.arange(xs.shape[0])
    xa, ya = xs.astype(field, copy=False), ys.astype(field, copy=False)
    x_prev, y_prev = xa, ya
    vals, gains = np.zeros(xs.shape[0]), np.zeros((2, xs.shape[0]))
    for sweep in range(1, max_iter + 1):
        t = _trilinear(values, xa, ya)
        g_prev, g = gains
        jump = (g > 0.0) & (g < g_prev) & (sweep % _JUMP_EVERY == 0)
        if jump.any():
            rho = g[jump] / g_prev[jump]
            beta = (rho / (1.0 - rho))[:, None, None]
            xe, _, _ = _renormalize(xa[jump] + beta * (xa[jump] - x_prev[jump]), xa[jump])
            ye, _, _ = _renormalize(ya[jump] + beta * (ya[jump] - y_prev[jump]), ya[jump])
            both, traces = _polar_batch(np.concatenate([t, _trilinear(values, xe, ye)]))
            n = active.size
            wins = traces[n:] > traces[:n][jump]
            where = np.flatnonzero(jump)[wins]
            xa, ya, z = xa.copy(), ya.copy(), both[:n]
            xa[where], ya[where], z[where] = xe[wins], ye[wins], both[n:][wins]
        else:
            z, _ = _polar_batch(t)
        x_prev, y_prev = xa, ya
        wx = np.einsum("ikj,rkj,rji->rik", values, ya, z)
        xa, _, _ = _renormalize(wx.conj(), xa)
        wy = np.einsum("ikj,rik,rji->rkj", values, xa, z)
        ya, new_vals, ok = _renormalize(wy.conj(), ya)
        new_vals = np.where(ok, new_vals, vals)
        gains = np.stack([gains[1], new_vals - vals])
        done = new_vals - vals <= _SWEEP_TOL * np.maximum(1.0, new_vals)
        vals = new_vals
        if done.any():
            x_out[active], y_out[active], settled[active] = xa, ya, done
            keep = ~done
            active, xa, ya, vals = active[keep], xa[keep], ya[keep], vals[keep]
            x_prev, y_prev, gains = x_prev[keep], y_prev[keep], gains[:, keep]
            if not active.size:
                break
    x_out[active], y_out[active] = xa, ya
    z, final_vals = _polar_batch(_trilinear(values, x_out, y_out))
    best = int(np.argmax(final_vals))
    return (
        x_out[best],
        y_out[best],
        z[best],
        top * float(final_vals[best]),
        bool(settled[best]),
    )


def s1_bilinear_norm_lower(
    op_a: NormalOperator,
    op_b: NormalOperator,
    op_c: NormalOperator,
    phi: SymbolGrid,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_SWEEPS,
    seed: int = DEFAULT_SEED,
) -> NormEstimate:
    """Lower bound on the trace-norm-output norm of the order-3 transform.

    Maximizes |tr(transform(X, Y) Z)| over unit Hilbert-Schmidt X, Y and
    operator-norm contractions Z by block-coordinate ascent from
    ``restarts`` Gaussian starts, drawn from one generator seeded with
    ``seed``; restart r takes the r-th block of draws, so it does not
    depend on how many follow.  A complex grid starts from complex draws
    (the block's two halves as real and imaginary parts) and a real grid
    from the real parts alone, so that its ascent runs in real arithmetic:
    for real values the supremum is attained at real arguments.  Requests
    whose per-restart arrays would exceed ``_ASCENT_BYTES`` raise
    :class:`BudgetExceeded` before anything is drawn; a restart is counted
    as 16 complex copies of its X, Y and T, ``256 * (n1 n2 + n2 n3 + n1 n3)``
    bytes.  The value is always
    a valid lower bound; pair it with :func:`trilinear_factor_norm` for the
    upper side.
    """
    check_grid_ops(phi, (op_a, op_b, op_c))
    if restarts < 1:
        raise ValueError("need at least one restart")
    if max_iter < 1:
        raise ValueError(f"need at least one sweep, got {max_iter}")
    da, db, dc = phi.shape
    if restarts * 256 * (da * db + db * dc + da * dc) > _ASCENT_BYTES:
        raise BudgetExceeded(
            f"{restarts} restarts on a {da}x{db}x{dc} grid exceed the ascent's "
            f"budget of {_ASCENT_BYTES} bytes"
        )
    draws = np.random.default_rng(seed).standard_normal((restarts, 2, da * db + db * dc))
    real = not np.any(np.imag(phi.values))
    starts = draws[:, 0] if real else draws[:, 0] + 1j * draws[:, 1]
    xs = starts[:, : da * db].reshape(restarts, da, db)
    ys = starts[:, da * db :].reshape(restarts, db, dc)
    xs /= np.linalg.norm(xs, axis=(1, 2), keepdims=True)
    ys /= np.linalg.norm(ys, axis=(1, 2), keepdims=True)
    xr, yr, zr, value, settled = _ascent_trilinear(phi.values, xs, ys, max_iter)
    ua, ub, uc = op_a.eigenbasis, op_b.eigenbasis, op_c.eigenbasis
    witness = {
        "X": ua @ xr @ ub.conj().T,
        "Y": ub @ yr @ uc.conj().T,
        "Z": uc @ zr @ ua.conj().T,
    }
    return NormEstimate(
        value=value,
        witness=witness,
        upper_certificate=None,
        restarts_used=restarts,
        converged=settled,
    )


def gamma2(s) -> NormEstimate:
    """Factorization norm of a matrix, with its Gram certificate attached."""
    sol = solve_gamma2_sdp(s)
    return NormEstimate(
        value=sol.value,
        witness={"gram": sol.gram},
        upper_certificate=sol.value,
        restarts_used=0,
        converged=sol.status == "Optimal",
    )


def recover_factorization(gram, p: int, q: int) -> FactorizationPair:
    """Split a positive semidefinite Gram block into explicit vector families.

    ``gram`` must be (p+q)-square with the factored matrix in its upper-right
    p-by-q corner.  The work is done on the Gram matrix divided by its
    largest entry modulus, so it holds at any scale: eigenvalues of that
    quotient below zero are clipped (a NotPsd error is raised if any falls
    under -1e-8), and rows of the resulting square root, multiplied back by
    the square root of the largest modulus, give the two families.
    """
    gm = as_matrix(gram, square=True)
    if gm.shape[0] != p + q:
        raise ShapeMismatch(f"gram must be {(p + q)}-square, got {gm.shape}")
    top, unit = divide_by_largest(gm)
    evals, evecs = np.linalg.eigh((unit + unit.conj().T) / 2.0)
    if evals.size and float(evals[0]) < -1e-8:
        raise NotPsd(f"gram has relative eigenvalue {evals[0]:.3e} below -1e-8")
    root = np.sqrt(top) * (evecs * np.sqrt(np.clip(evals, 0.0, None)))
    return FactorizationPair(a=root[:p], b=root[p:])


def trilinear_factor_norm(phi: SymbolGrid) -> tuple[NormEstimate, FactorizationPair]:
    """Trace-norm-output norm of the order-3 transform, by middle-axis slices.

    The norm equals the largest factorization norm among the grid's middle
    slices.  The nonzero slices are solved in one call, in one stack per
    field; only the largest has to be tight, so a slice leaves as
    "Dominated" once its upper bound is at or below another slice's lower
    bound.  ``converged`` holds when every slice is "Optimal" or
    "Dominated".  The returned pair places every slice's factorization in
    one (n1+n3)-dimensional space, as a(., k) only pairs with b(., k),
    rebalanced so that norm_a * norm_b does not exceed the reported value;
    slices of value 0 keep zero vectors.
    """
    n1, n2, n3 = phi.shape
    sols = _solve_stack(middle_slices(phi))
    best = max(sols, key=lambda sol: sol.value)
    value = best.value

    fam_a = np.zeros((n1, n2, n1 + n3), dtype=np.complex128)
    fam_b = np.zeros((n3, n2, n1 + n3), dtype=np.complex128)
    for k, sol in enumerate(sols):
        if sol.value == 0.0:
            continue
        pair = recover_factorization(sol.gram, n1, n3)
        scale = np.sqrt(value / sol.value)
        fam_a[:, k] = scale * pair.a
        fam_b[:, k] = pair.b / scale

    estimate = NormEstimate(
        value=value,
        witness={"gram": best.gram},
        upper_certificate=value,
        restarts_used=0,
        converged=all(sol.status in ("Optimal", "Dominated") for sol in sols),
    )
    return estimate, FactorizationPair(a=fam_a, b=fam_b)


def doi_s1_norm(op_a: NormalOperator, op_b: NormalOperator, psi: SymbolGrid) -> NormEstimate:
    """Trace-to-trace norm of the two-operator transform, sandwiched.

    The norm is attained on rank-one arguments u v* and equals the
    factorization norm of the grid, the maximum over unit vectors u, v >= 0
    of ||D_u psi D_v||_1; this is the dual of the factorization program.
    One solve gives both sides: the upper certificate is its value, with
    the Gram matrix returned as ``witness["gram"]``, and the lower bound is
    ||D_u psi D_v||_1 at u = sqrt(a), v = sqrt(b) for the solver's dual
    weights (a, b), the solver's own lower bound re-evaluated, attained by
    X = u v* (in the eigenbases) paired with the polar contraction Z.  The
    two agree up to the solver's duality gap.
    """
    check_grid_ops(psi, (op_a, op_b))
    sol = solve_gamma2_sdp(psi.values)
    u, v = (np.sqrt(w) for w in sol.dual_weights)
    top, unit = divide_by_largest(psi.values)
    z, trace_norm = _polar_batch(u[:, None] * unit * v[None, :])
    ua, ub = op_a.eigenbasis, op_b.eigenbasis
    witness = {
        "X": np.outer(ua @ u, (ub @ v).conj()),
        "Z": ub @ z @ ua.conj().T,
        "gram": sol.gram,
    }
    return NormEstimate(
        value=top * float(trace_norm),
        witness=witness,
        upper_certificate=float(sol.value),
        restarts_used=0,
        converged=sol.status == "Optimal",
    )


def norm_estimate_to_json(estimate: NormEstimate) -> dict:
    """Wire format for a norm estimate; witness matrices use the matrix format."""
    from .linalg import matrix_to_json

    witness = {}
    for name, arr in estimate.witness.items():
        mat = np.asarray(arr)
        if mat.ndim == 1:
            mat = mat.reshape(-1, 1)
        witness[name] = matrix_to_json(mat)
    return {
        "value": float(estimate.value),
        "upper_certificate": (
            None
            if estimate.upper_certificate is None
            else float(estimate.upper_certificate)
        ),
        "converged": bool(estimate.converged),
        "restarts_used": int(estimate.restarts_used),
        "witness": witness,
    }
