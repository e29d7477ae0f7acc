"""Dense interior-point solver for the factorization-norm semidefinite program.

For a p-by-q matrix S the program is

    minimize   t
    subject to G(P, Q) = [[P, S], [S*, Q]]  positive semidefinite,
               P_ii <= t  for all i,     Q_jj <= t  for all j,

over Hermitian P, Q.  Its optimal value is the factorization norm of S: the
smallest max_i ||a_i|| * max_j ||b_j|| over vector families with
<a_i, b_j> = S_ij.

The solver is a log-barrier path-following method with exact Newton steps on
(P, Q, t), iterating on the Gram matrix G itself in the field of the data
(real arithmetic for real data).  No dense Hessian is formed: the Newton
system is solved by block elimination, inverting the log-determinant
Hessian on the two diagonal blocks in closed form and the slack barrier
through a bordered (p+q+1)-square system, in O((p+q)^2 q^2) work per step.
The barrier weight enters that system only through one right-hand-side
entry, so it is factored once per iterate: the same factorization ends one
barrier level and starts the next, whose first step is the tangent
predictor along the central path (the Newton step scaled by the weight
ratio).  Predictor steps count as Newton steps.  Each step is sized by
backtracking from its start (1, or the weight ratio for the predictor): a
trial point is accepted once its barrier value exists (G has a Cholesky
factor and every slack is positive) and decreases enough, so that Cholesky
is the method's only cone test.
The data is first divided by its largest entry, which the norm scales with,
so the duality-gap tolerance is relative to max_ij |S_ij|.

Certification does not rely on the barrier weight reaching zero: every
centered iterate yields a feasible primal point (ridge-corrected, then
verified positive semidefinite by explicit eigenvalue bounds) and a lower
bound.  The optimum is also the largest ||D_sqrt(a) S D_sqrt(b)||_1 over
probability vectors a and b (the dual of the program), so the dual weights
mu * diag(G^-1) at a center, clipped at zero and normalized block by block,
give a lower bound that one SVD evaluates.  Consecutive centers are
Richardson-extrapolated toward the weight-zero limit to produce sharper
candidates that pass through the same checks.  The reported duality gap is
then a true bound on the distance to the optimum, no matter how the iterates
were found.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NumericalBreakdown
from .linalg import as_matrix, divide_by_largest

GAP_TOL = 1e-7
MAX_ITER = 300
MAX_SIDE = 256

_MU_SHRINK = 0.2
_MU_FLOOR = 1e-12
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
    duality_gap: ``value`` minus the best lower bound, the weighted trace
        norm ||D_sqrt(a) S D_sqrt(b)||_1 at ``dual_weights`` less a roundoff
        allowance of 1e-12 times its largest singular value.
    iterations: total Newton steps taken, the tangent predictor step that
        opens each barrier level after the first included.
    status: "Optimal" (gap within tolerance) or "MaxIter".
    dual_weights: (a, b), nonnegative weights on the p rows and the q
        columns, each summing to 1, behind the best lower bound:
        ||D_sqrt(a) S D_sqrt(b)||_1 is at least ``value - duality_gap``.
        Computed on the data divided by its largest entry, so scale free;
        uniform per block (1/p and 1/q) for the zero matrix.
    """

    value: float
    gram: np.ndarray
    duality_gap: float
    iterations: int
    status: str
    dual_weights: tuple


def _gram(s: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.block([[p, s], [s.conj().T, q]])


def _barrier(g: np.ndarray, t: float):
    """Cholesky factor of G and -logdet G - sum log(t - G_ii), or (None, inf)
    outside the domain."""
    slacks = t - np.diag(g).real
    if np.any(slacks <= 0.0):
        return None, np.inf
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None, np.inf
    return chol, -2.0 * np.sum(np.log(np.diag(chol).real)) - np.sum(np.log(slacks))


class _NewtonSystem:
    """The Newton system of the barrier problem at one point, factored once.

    ``chol`` is the Cholesky factor of G and ``t`` the epigraph variable;
    ``m`` = G^-1 = L^-* L^-1 is kept for the dual iterate.  The Hessian of
    -logdet on the block-diagonal directions is L0(dG) = Pi_bd(M dG M); solve
    L0(dG) = blkdiag(E1, E2).  With A = M11^-1 = P - S Q^-1 S* and
    F = M21 M11^-1 = -Q^-1 S*, the P block gives dP = A E1 A - F* dQ F and
    the Q block then reads M22 dQ M22 - N dQ N = E2 - F E1 F*,
    N = M22 - Q^-1.  From the SVD Lq^-1 L22 = U diag(sqrt(nu)) Z* (Q = Lq Lq*,
    L22 the trailing block of chol), W = L22 Z has W* M22 W = I and
    W* N W = I - diag(nu), which inverts L0 in closed form; 1 - lam_i lam_j
    is formed from nu, so no cancellation occurs as G nears singularity.
    The slack barrier only touches the p+q diagonal entries and t, so the
    full system reduces to a bordered (p+q+1)-square one in the diagonal
    multipliers u and dt, whose matrix T = diag o L0^-1 o Diag is formed
    from H = W* [F | I].  The barrier weight enters only the last entry of
    its right-hand side and the decrement, so everything else is computed
    here and :meth:`step` is cheap for any weight.
    """

    def __init__(self, g: np.ndarray, chol: np.ndarray, t: float, ph: int):
        n = g.shape[0]
        slack = t - np.diag(g).real  # t - P_ii, then t - Q_jj
        linv = np.linalg.inv(chol)
        m = linv.conj().T @ linv
        lq_inv = np.linalg.inv(np.linalg.cholesky(g[ph:, ph:]))
        y = lq_inv @ g[ph:, :ph]
        a = g[:ph, :ph] - y.conj().T @ y
        f = -lq_inv.conj().T @ y
        l22 = chol[ph:, ph:]
        _, sv, zh = np.linalg.svd(lq_inv @ l22)
        w = l22 @ zh.conj().T
        wh = w.conj().T
        nu = sv**2
        damp = 1.0 / (nu[:, None] + nu[None, :] * (1.0 - nu[:, None]))

        diag = np.diag_indices(n)
        r = m.copy()
        r[:ph, ph:] = 0.0
        r[ph:, :ph] = 0.0
        r[diag] -= 1.0 / slack

        h = np.hstack([wh @ f, wh])
        pairs = (h[:, None, :] * h.conj()[None, :, :]).reshape(-1, n)
        sign = np.ones(n)
        sign[:ph] = -1.0
        bordered = np.ones((n + 1, n + 1))
        bordered[:n, :n] = ((pairs * damp.reshape(-1, 1)).T @ pairs.conj()).real
        bordered[:n, :n] *= np.outer(sign, sign)
        bordered[:ph, :ph] += np.abs(a) ** 2
        bordered[diag] += slack**2
        bordered[n, n] = 0.0

        self.ph, self.slack, self.m = ph, slack, m
        self.a, self.f, self.w, self.wh, self.damp = a, f, w, wh, damp
        self.r, self.bordered = r, bordered
        self.diag_l0_inv_r = np.diag(self._l0_inv(r)).real

    def _l0_inv(self, e: np.ndarray) -> np.ndarray:
        ph, a, f, w, wh = self.ph, self.a, self.f, self.w, self.wh
        e1 = e[:ph, :ph]
        dq = w @ ((wh @ (e[ph:, ph:] - f @ e1 @ f.conj().T) @ w) * self.damp) @ wh
        out = np.zeros_like(e)
        out[:ph, :ph] = a @ e1 @ a - f.conj().T @ dq @ f
        out[ph:, ph:] = dq
        return out

    def step(self, mu: float):
        """Newton direction (dG, dt) of the barrier problem at weight ``mu``
        and its decrement."""
        n = self.slack.size
        inv_slack_sum = np.sum(1.0 / self.slack)
        rhs = np.append(self.diag_l0_inv_r, 1.0 / mu - inv_slack_sum)
        sol = np.linalg.solve(self.bordered, rhs)
        dg = self._l0_inv(self.r - np.diag(sol[:n]))
        dg = (dg + dg.conj().T) / 2.0
        dt = float(sol[n])
        decrement = mu * float(np.vdot(self.r, dg).real) - (1.0 - mu * inv_slack_sum) * dt
        return dg, dt, decrement


def _verified_dual_bound(s: np.ndarray, w: np.ndarray):
    """True lower bound on the optimum from approximate dual weights, and
    the weights behind it.

    The optimum is the largest ||D_sqrt(a) S D_sqrt(b)||_1 over probability
    vectors a and b, so any nonnegative weights give a lower bound.  ``w``
    (p row weights, then q column weights), clipped at zero and divided
    block by block by its sum, is evaluated with one SVD, less
    ``_EIG_GUARD`` times the largest singular value for roundoff.  An
    unusable candidate gives (-inf, None).
    """
    if not np.all(np.isfinite(w)):
        return -np.inf, None
    a, b = np.split(np.maximum(w, 0.0), [s.shape[0]])
    if a.sum() <= 0.0 or b.sum() <= 0.0:
        return -np.inf, None
    a, b = a / a.sum(), b / b.sum()
    sv = np.linalg.svd(np.sqrt(a)[:, None] * s * np.sqrt(b)[None, :], compute_uv=False)
    return float(sv.sum() - _EIG_GUARD * sv[0]), (a, b)


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


def _extrapolate(cur, prev, ratio: float) -> list:
    """Cancel the leading term, linear in ``ratio``, of each candidate part."""
    return [(c - ratio * p) / (1.0 - ratio) for c, p in zip(cur, prev)]


def _solve(s: np.ndarray, gap_tol: float):
    """Path-following on the program in the field of ``s`` (real or complex).

    Returns the best verified primal blocks, their value, the certified gap,
    the Newton step count (at most ``MAX_ITER``), a status string and the
    dual weights (a, b) of the best lower bound.
    """
    ph, qh = s.shape
    snorm = float(np.linalg.svd(s, compute_uv=False)[0])
    c0 = snorm + 1.0
    g = _gram(s, c0 * np.eye(ph, dtype=s.dtype), c0 * np.eye(qh, dtype=s.dtype))
    t = 2.0 * c0
    chol, phi = _barrier(g, t)  # the barrier value at weight mu is t + mu * phi
    system = _NewtonSystem(g, chol, t, ph)

    mu = max(1.0, snorm)
    newton_used = 0
    best_upper = np.inf
    best_blocks = None
    best_lower = -np.inf
    best_weights = (np.full(ph, 1.0 / ph), np.full(qh, 1.0 / qh))
    centers = deque(maxlen=3)  # (mu, G, dual weights) at the last centered weights
    start = 1.0  # initial step size of the line search

    while True:
        # Center at the current barrier weight.  The decrement threshold
        # tightens with the weight because the extrapolated certificates
        # below need centers resolved well below the path curvature; the
        # line-search failure break still guards the double-precision floor.
        threshold = 1e-13 * max(1.0, abs(t)) * min(1.0, mu)
        for _ in range(_INNER_CAP):
            if newton_used >= MAX_ITER:
                break
            dg, dt, decrement = system.step(mu)
            if not (np.isfinite(decrement) and np.all(np.isfinite(dg))):
                raise NumericalBreakdown("Newton step is not finite")
            if decrement <= threshold:
                break

            # dG vanishes off the diagonal blocks, so every candidate keeps S;
            # _barrier rejects a candidate outside the cone.
            size = start
            fval = t + mu * phi
            accepted = False
            for _ in range(60):
                cand_g = g + size * dg
                cand_t = t + size * dt
                cand_chol, cand_phi = _barrier(cand_g, cand_t)
                if cand_t + mu * cand_phi <= fval - _ARMIJO * size * decrement:
                    accepted = True
                    break
                size *= 0.5
            if not accepted:
                break  # no further progress at this weight
            g, t, chol, phi = cand_g, cand_t, cand_chol, cand_phi
            system = _NewtonSystem(g, chol, t, ph)
            newton_used += 1
            start = 1.0

        # Harvest certificates from this center and from extrapolations of
        # the recent centers toward weight zero (centers are first-order in
        # the weight, so linear extrapolation is second-order and the
        # three-point variant third-order; every candidate is re-verified,
        # so a poor extrapolation only wastes the attempt).
        centers.append((mu, g, mu * np.diag(system.m).real))
        candidates = [centers[-1][1:]]
        if len(centers) >= 2:
            mu_prev, *prev = centers[-2]
            for ratio in (mu / mu_prev, np.sqrt(mu / mu_prev)):
                candidates.append(_extrapolate(candidates[0], prev, ratio))
        if len(centers) == 3:
            # Lagrange weights of the three centers at weight zero.
            xs = [x for x, _, _ in centers]
            lagrange = [
                np.prod([xj / (xj - xi) for j, xj in enumerate(xs) if j != i])
                for i, xi in enumerate(xs)
            ]
            candidates.append([sum(li * c[k] for li, c in zip(lagrange, centers)) for k in (1, 2)])
        for cand_g, cand_w in candidates:
            # A verified value is the largest diagonal entry plus a ridge, so
            # a candidate whose diagonal already reaches best_upper cannot win.
            if np.max(np.diag(cand_g).real) < best_upper:
                verified = _verified_primal(s, cand_g[:ph, :ph], cand_g[ph:, ph:])
                if verified is not None and verified[2] < best_upper:
                    best_blocks = verified[:2]
                    best_upper = verified[2]
            lower, weights = _verified_dual_bound(s, cand_w)
            if lower > best_lower:
                best_lower, best_weights = lower, weights

        gap = max(0.0, best_upper - best_lower)
        if gap <= gap_tol:
            status = "Optimal"
            break
        if newton_used >= MAX_ITER or mu < _MU_FLOOR:
            status = "MaxIter"
            break
        # At a center, the Newton step toward the weight _MU_SHRINK * mu is
        # 1 / _MU_SHRINK times the tangent step along the central path, so
        # the next level's first step is that tangent predictor.
        mu *= _MU_SHRINK
        start = _MU_SHRINK

    if best_blocks is None:  # pragma: no cover - initial point always verifies
        raise NumericalBreakdown("no feasible iterate was certified")
    return best_blocks[0], best_blocks[1], best_upper, gap, newton_used, status, best_weights


def solve_gamma2_sdp(s, gap_tol: float = GAP_TOL) -> SdpSolution:
    """Compute the factorization norm of a dense matrix with certificates.

    Returns an :class:`SdpSolution` whose ``gram`` block is positive
    semidefinite with the data matrix in its off-diagonal corner and whose
    ``duality_gap`` bounds the distance between ``value`` and the true norm.
    ``gap_tol`` is relative to the largest entry modulus of ``s``, so the
    status does not depend on the scale of the data.  A ``MaxIter`` status
    returns the best iterate together with its gap.  p + q > ``MAX_SIDE``
    raises :class:`BudgetExceeded`, a linear-algebra failure in the solve
    :class:`NumericalBreakdown`.
    """
    sm = as_matrix(s)
    p_dim, q_dim = sm.shape
    if p_dim + q_dim > MAX_SIDE:
        raise BudgetExceeded(
            f"matrix of shape {sm.shape} exceeds the dense budget p+q <= {MAX_SIDE}"
        )
    if not 0.0 < gap_tol < np.inf:
        raise ValueError(f"gap_tol must be positive and finite, got {gap_tol}")
    top, data = divide_by_largest(sm)
    if top == 0.0:
        zeros = np.zeros((p_dim + q_dim, p_dim + q_dim), dtype=np.complex128)
        weights = (np.full(p_dim, 1.0 / p_dim), np.full(q_dim, 1.0 / q_dim))
        return SdpSolution(value=0.0, gram=zeros, duality_gap=0.0, iterations=0,
                           status="Optimal", dual_weights=weights)
    try:
        p, q, value, gap, iters, status, weights = _solve(data, gap_tol)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"linear algebra failed in the solver: {exc}") from None
    return SdpSolution(
        value=float(top * value),
        gram=_gram(sm, top * p, top * q),
        duality_gap=float(top * gap),
        iterations=int(iters),
        status=status,
        dual_weights=weights,
    )
