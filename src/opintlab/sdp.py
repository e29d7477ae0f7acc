"""Dense interior-point solver for the factorization-norm semidefinite program.

For a p-by-q matrix S the program is

    minimize   t
    subject to G(P, Q) = [[P, S], [S*, Q]]  positive semidefinite,
               P_ii <= t  for all i,     Q_jj <= t  for all j,

over Hermitian P, Q.  Its optimal value is the factorization norm of S: the
smallest max_i ||a_i|| * max_j ||b_j|| over vector families with
<a_i, b_j> = S_ij.

The solver is a log-barrier path-following method with exact Newton steps on
(P, Q, t), iterating on the Gram matrix G itself in the field of the data:
real data uses an orthonormal basis of the real symmetric matrices and real
arithmetic, complex data the Hermitian basis that adds i/sqrt(2) times the
antisymmetric elements.  The data is first divided by its largest entry,
which the norm scales with, so the duality-gap tolerance is relative to
max_ij |S_ij|.

Certification does not rely on the barrier weight reaching zero: every
centered iterate yields a feasible primal point (ridge-corrected, then
verified positive semidefinite by explicit eigenvalue bounds) and a feasible
dual certificate (diagonal blocks forced diagonal, ridge-corrected, verified,
trace-normalized), and consecutive centers are Richardson-extrapolated toward
the weight-zero limit to produce sharper candidates that pass through the
same verification.  Weak duality then makes the reported duality gap a true
bound on the distance to the optimum, no matter how the iterates were found.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown
from .linalg import as_matrix

GAP_TOL = 1e-7
MAX_ITER = 300
MAX_SIDE = 256

_MU_SHRINK = 0.2
_MU_FLOOR = 1e-12
_FRAC_TO_BOUNDARY = 0.98
_ARMIJO = 1e-4
_INNER_CAP = 60
_EIG_GUARD = 1e-12


@dataclass
class SdpSolution:
    """Outcome of one solve.

    value: certified upper bound on the optimum (objective of the best
        verified-feasible primal point found).
    gram: the (p+q)-square Hermitian block matrix [[P, S], [S*, Q]] realizing
        ``value``; positive semidefinite with row norms bounded by ``value``.
    duality_gap: ``value`` minus the best verified dual lower bound.
    iterations: total Newton steps taken.
    status: "Optimal" (gap within tolerance) or "MaxIter".
    """

    value: float
    gram: np.ndarray
    duality_gap: float
    iterations: int
    status: str


def _herm_basis(n: int, offset: int, complex_field: bool):
    """Orthonormal basis of the n-square symmetric or Hermitian matrices.

    Element k is w[k] * E[r[k], c[k]] + conj(w[k]) * E[c[k], r[k]], with
    indices shifted by ``offset`` into the Gram matrix.  The upper triangle
    carries the symmetric elements (w = 1/2 on the diagonal, 1/sqrt(2) off
    it); for complex data the strict lower triangle carries the
    antisymmetric ones i (E[a, b] - E[b, a]) / sqrt(2), a < b, as
    w = -i/sqrt(2) at (b, a), so no two elements share a position.
    """
    r, c = np.triu_indices(n)
    w = np.where(r == c, 0.5, np.sqrt(0.5))
    if complex_field:
        ca, rb = np.triu_indices(n, 1)
        r, c = np.concatenate([r, rb]), np.concatenate([c, ca])
        w = np.concatenate([w, np.full(rb.size, -1j * np.sqrt(0.5))])
    return r + offset, c + offset, w


def _hess_block(m: np.ndarray, k_basis, l_basis) -> np.ndarray:
    """Re tr(M B_k M B_l) for basis elements B_k, B_l (see _herm_basis).

    Expanding both elements gives
    2 Re(w_k w_l M[c_l, r_k] M[c_k, r_l] + w_k conj(w_l) M[r_l, r_k] M[c_k, c_l])
    for Hermitian M, gathered here one block at a time.
    """
    rk, ck, wk = k_basis
    rl, cl, wl = l_basis
    first = np.outer(wk, wl) * m[np.ix_(ck, rl)] * m[np.ix_(cl, rk)].T
    second = np.outer(wk, wl.conj()) * m[np.ix_(ck, cl)] * m[np.ix_(rl, rk)].T
    return 2.0 * np.real(first + second)


def _gram(s: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.block([[p, s], [s.conj().T, q]])


def _chol_or_none(g: np.ndarray):
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None


def _inverse(g: np.ndarray):
    """Inverse Cholesky factor L^-1 of G = L L* and M = G^-1 = L^-* L^-1."""
    chol = _chol_or_none(g)
    if chol is None:  # pragma: no cover - iterates stay interior
        raise NumericalBreakdown("iterate left the positive cone")
    linv = np.linalg.inv(chol)
    return linv, linv.conj().T @ linv


def _barrier_value(s, p, q, t, mu):
    """t + mu * (-logdet G - sum log slacks), or +inf outside the domain."""
    g = _gram(s, p, q)
    chol = _chol_or_none(g)
    slacks = t - np.diag(g).real
    if chol is None or np.any(slacks <= 0.0):
        return np.inf
    logdet = 2.0 * np.sum(np.log(np.diag(chol).real))
    return t + mu * (-logdet - np.sum(np.log(slacks)))


def _verified_dual_bound(s: np.ndarray, z: np.ndarray) -> float:
    """True lower bound on the optimum from an approximate dual matrix.

    The dual cone consists of positive semidefinite matrices whose diagonal
    blocks are diagonal, normalized to unit trace; the bound is
    -2 Re sum(conj(Z_12) * S), the pairing of the off-diagonal block with the
    data.  The candidate is projected onto that structure: off-diagonal
    entries of the diagonal blocks are dropped, a ridge covering both the
    projection and eigenvalue roundoff restores positive semidefiniteness,
    and the trace is rescaled.  Weak duality makes the result a valid bound
    for any input whatsoever.
    """
    ph, qh = s.shape
    m = ph + qh
    zd = z.copy()
    zd[:ph, :ph] = np.diag(np.diag(z[:ph, :ph]))
    zd[ph:, ph:] = np.diag(np.diag(z[ph:, ph:]))
    zd = (zd + zd.conj().T) / 2.0
    if not np.all(np.isfinite(zd)):
        return -np.inf
    evals = np.linalg.eigvalsh(zd)
    scale = max(abs(float(evals[0])), abs(float(evals[-1])), 1e-300)
    delta = max(0.0, -float(evals[0])) + _EIG_GUARD * scale
    tau = float(np.trace(zd).real) + delta * m
    if not np.isfinite(tau) or tau <= 1e-300:
        return -np.inf
    value = -2.0 * float(np.sum(zd[:ph, ph:].conj() * s).real) / tau
    return value if np.isfinite(value) else -np.inf


def _verified_primal(s: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Feasible primal blocks from approximate ones, with a certified value.

    A ridge large enough to cover the measured negative spectrum plus
    eigenvalue roundoff is added to both diagonal blocks, and the objective
    is the largest resulting diagonal entry, so the returned triple is a
    genuine feasible point and its value a true upper bound.
    """
    ph, qh = s.shape
    g = _gram(s, p, q)
    g = (g + g.conj().T) / 2.0
    if not np.all(np.isfinite(g)):
        return None
    evals = np.linalg.eigvalsh(g)
    scale = max(abs(float(evals[0])), abs(float(evals[-1])), 1e-300)
    delta = max(0.0, -float(evals[0])) + _EIG_GUARD * scale
    pp = g[:ph, :ph] + delta * np.eye(ph)
    qq = g[ph:, ph:] + delta * np.eye(qh)
    t = float(max(np.max(np.diag(pp).real), np.max(np.diag(qq).real)))
    return pp, qq, t


def _extrapolate(cur: np.ndarray, prev: np.ndarray, ratio: float) -> np.ndarray:
    """Cancel the leading term of a path expansion linear in ``ratio``."""
    return (cur - ratio * prev) / (1.0 - ratio)


def _solve(s: np.ndarray, gap_tol: float, max_iter: int):
    """Path-following on the program in the field of ``s`` (real or complex).

    Returns the best verified primal blocks, their value, the certified gap,
    the Newton step count and a status string.
    """
    ph, qh = s.shape
    complex_field = np.iscomplexobj(s)
    basis_p = _herm_basis(ph, 0, complex_field)
    basis_q = _herm_basis(qh, ph, complex_field)
    r, c, w = (np.concatenate(parts) for parts in zip(basis_p, basis_q))
    kp, k = basis_p[0].size, r.size
    diag = np.flatnonzero(r == c)  # coordinates of G_00, ..., G_(p+q-1)(p+q-1)

    snorm = float(np.linalg.svd(s, compute_uv=False)[0])
    c0 = snorm + 1.0
    p = c0 * np.eye(ph, dtype=s.dtype)
    q = c0 * np.eye(qh, dtype=s.dtype)
    t = 2.0 * c0

    mu = max(1.0, snorm)
    newton_used = 0
    best_upper = np.inf
    best_blocks = None
    best_lower = -np.inf
    centers = deque(maxlen=3)  # (mu, stacked [G, Z]) at the last centered weights

    while True:
        # Center at the current barrier weight.  The decrement threshold
        # tightens with the weight because the extrapolated certificates
        # below need centers resolved well below the path curvature; the
        # line-search failure break still guards the double-precision floor.
        threshold = 1e-13 * max(1.0, abs(t)) * min(1.0, mu)
        for _ in range(_INNER_CAP):
            if newton_used >= max_iter:
                break
            g = _gram(s, p, q)
            linv, minv = _inverse(g)
            slack = t - np.diag(g).real  # t - P_ii, then t - Q_jj

            # -d logdet G along B_k is -tr(M B_k) = -2 Re(w_k M[c_k, r_k]).
            grad = np.zeros(k + 1)
            grad[:-1] = -2.0 * np.real(w * minv[c, r])
            grad[diag] += 1.0 / slack
            grad[-1] = -np.sum(1.0 / slack)
            grad *= mu
            grad[-1] += 1.0

            hess = np.zeros((k + 1, k + 1))
            hess[:kp, :kp] = _hess_block(minv, basis_p, basis_p)
            hess[kp:-1, kp:-1] = _hess_block(minv, basis_q, basis_q)
            hess[:kp, kp:-1] = _hess_block(minv, basis_p, basis_q)
            hess[kp:-1, :kp] = hess[:kp, kp:-1].T
            hess[diag, diag] += slack**-2
            hess[diag, -1] = hess[-1, diag] = -(slack**-2)
            hess[-1, -1] = np.sum(slack**-2)
            hess += hess.T
            hess *= 0.5 * mu

            step = None
            ridge = 0.0
            for _ in range(8):
                try:
                    step = np.linalg.solve(hess + ridge * np.eye(k + 1), -grad)
                    break
                except np.linalg.LinAlgError:
                    ridge = max(ridge * 100.0, 1e-12 * max(1.0, np.trace(hess)))
            if step is None:
                raise NumericalBreakdown("Newton system is singular")
            if -grad @ step <= threshold:
                break

            dg = np.zeros_like(g)
            dg[r, c] = w * step[:-1]
            dg += dg.conj().T
            dp, dq, dt = dg[:ph, :ph], dg[ph:, ph:], float(step[-1])

            # Largest feasible step: stay in the positive cone ...
            lam_min = float(np.linalg.eigvalsh(linv @ dg @ linv.conj().T)[0])
            smax = np.inf if lam_min >= -1e-300 else 1.0 / (-lam_min)
            # ... and keep the diagonal slacks positive.
            dslack = dt - np.diag(dg).real
            shrink = dslack < 0.0
            if np.any(shrink):
                smax = min(smax, float(np.min(slack[shrink] / -dslack[shrink])))
            size = min(1.0, _FRAC_TO_BOUNDARY * smax)

            fval = _barrier_value(s, p, q, t, mu)
            accepted = False
            for _ in range(60):
                cand_p = p + size * dp
                cand_q = q + size * dq
                cand_t = t + size * dt
                cand_f = _barrier_value(s, cand_p, cand_q, cand_t, mu)
                if cand_f <= fval + _ARMIJO * size * float(grad @ step):
                    accepted = True
                    break
                size *= 0.5
            if not accepted:
                break  # no further progress at this weight
            p, q, t = cand_p, cand_q, cand_t
            newton_used += 1

        # Harvest certificates from this center and from extrapolations of
        # the recent centers toward weight zero (centers are first-order in
        # the weight, so linear extrapolation is second-order and the
        # three-point variant third-order; every candidate is re-verified,
        # so a poor extrapolation only wastes the attempt).
        g = _gram(s, p, q)
        centers.append((mu, np.stack([g, mu * _inverse(g)[1]])))
        candidates = [centers[-1][1]]
        if len(centers) >= 2:
            mu_prev, prev = centers[-2]
            for ratio in (mu / mu_prev, np.sqrt(mu / mu_prev)):
                candidates.append(_extrapolate(candidates[0], prev, ratio))
        if len(centers) == 3:
            # Lagrange weights of the three centers at weight zero.
            xs = [x for x, _ in centers]
            weights = [
                np.prod([xj / (xj - xi) for j, xj in enumerate(xs) if j != i])
                for i, xi in enumerate(xs)
            ]
            candidates.append(sum(wi * gz for wi, (_, gz) in zip(weights, centers)))
        for cand_g, cand_z in candidates:
            verified = _verified_primal(s, cand_g[:ph, :ph], cand_g[ph:, ph:])
            if verified is not None and verified[2] < best_upper:
                best_blocks = verified[:2]
                best_upper = verified[2]
            best_lower = max(best_lower, _verified_dual_bound(s, cand_z))

        gap = max(0.0, best_upper - best_lower)
        if gap <= gap_tol:
            status = "Optimal"
            break
        if newton_used >= max_iter or mu < _MU_FLOOR:
            status = "MaxIter"
            break
        mu *= _MU_SHRINK

    if best_blocks is None:  # pragma: no cover - initial point always verifies
        raise NumericalBreakdown("no feasible iterate was certified")
    return best_blocks[0], best_blocks[1], best_upper, gap, newton_used, status


def solve_gamma2_sdp(s, gap_tol: float = GAP_TOL, max_iter: int = MAX_ITER) -> SdpSolution:
    """Compute the factorization norm of a dense matrix with certificates.

    Returns an :class:`SdpSolution` whose ``gram`` block is positive
    semidefinite with the data matrix in its off-diagonal corner and whose
    ``duality_gap`` bounds the distance between ``value`` and the true norm.
    ``gap_tol`` is relative to the largest entry modulus of ``s``, so the
    status does not depend on the scale of the data.  A ``MaxIter`` status
    returns the best iterate together with its gap.
    """
    sm = as_matrix(s)
    p_dim, q_dim = sm.shape
    if p_dim + q_dim > MAX_SIDE:
        raise ValueError(
            f"matrix of shape {sm.shape} exceeds the dense budget p+q <= {MAX_SIDE}"
        )
    if gap_tol <= 0.0:
        raise ValueError("gap_tol must be positive")
    top = float(np.max(np.abs(sm))) if sm.size else 0.0
    if top == 0.0:
        zeros = np.zeros((p_dim + q_dim, p_dim + q_dim), dtype=np.complex128)
        return SdpSolution(value=0.0, gram=zeros, duality_gap=0.0, iterations=0,
                           status="Optimal")

    # Real division: complex division by a subnormal ``top`` overflows.
    data = sm.real / top
    if np.any(sm.imag != 0.0):
        data = data + 1j * (sm.imag / top)
    p, q, value, gap, iters, status = _solve(data, gap_tol, max_iter)
    return SdpSolution(
        value=float(top * value),
        gram=_gram(sm, top * p, top * q),
        duality_gap=float(top * gap),
        iterations=int(iters),
        status=status,
    )
