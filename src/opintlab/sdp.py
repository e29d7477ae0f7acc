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

The solver iterates on a stack of B programs of one shape and field at
once, so that each numpy call of a Newton step serves every member: at
these sizes a step costs call overhead more than flops.  A single matrix is
the stack with B = 1.  Each member keeps its own barrier weight, threshold,
line-search start, centers, step count, step budget and certificates, and
leaves the stack once it is settled.  Every stacked linear-algebra call
works on each member alone, so a member takes the same steps alone as in
any stack.  The line search backtracks each member on its own: a stacked
Cholesky fails as a whole when any trial point is outside the cone, and the
members are then factored one by one, so each accepts exactly the point it
would accept alone.

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
_PAIR_BYTES = 1 << 22


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
    status: "Optimal" (gap within tolerance), "MaxIter", or, among the
        middle slices of one grid only, "Dominated": ``value`` is at or below
        another slice's lower bound, so this slice cannot have the largest
        norm and was left before its gap closed.
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


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """Read-only view of the diagonal of a matrix or of each of a stack."""
    return x.diagonal(0, -2, -1)


def _diagonal_view(x: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C-contiguous matrix, or of each
    matrix of a C-contiguous stack."""
    n = x.shape[-1]
    return x.reshape(x.shape[:-2] + (-1,), copy=False)[..., :: n + 1]


def _barrier(g: np.ndarray, t: np.ndarray):
    """Cholesky factors of a stack of G and -logdet G - sum log(t - G_ii) for
    each member; a member outside the domain gets inf (and an unset factor).

    A stacked Cholesky fails as a whole if any member has none, so the
    members are then factored one by one.
    """
    slacks = t[:, None] - _diagonal(g).real
    positive = slacks > 0.0
    if not positive.all():
        inside = positive.all(axis=1)
        chol, phi = np.empty_like(g), np.full(t.shape, np.inf)
        if inside.any():
            chol[inside], phi[inside] = _barrier(g[inside], t[inside])
        return chol, phi
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return np.empty_like(g), np.full(1, np.inf)
        parts = [_barrier(g[k : k + 1], t[k : k + 1]) for k in range(len(g))]
        return np.concatenate([c for c, _ in parts]), np.concatenate([f for _, f in parts])
    return chol, -2.0 * np.log(_diagonal(chol).real).sum(axis=-1) - np.log(slacks).sum(axis=-1)


def _pair_gram(h: np.ndarray, damp: np.ndarray) -> np.ndarray:
    """Re (P^T diag(damp) conj(P)) for the pair products
    P[(a, b), i] = h[a, i] conj(h[b, i]), of one h or of each of a stack.

    P has q^2 (p+q) entries per member, so a stack is taken a few members
    at a time, with at most about ``_PAIR_BYTES`` of pair products at once.
    """
    lead, (qh, n) = h.shape[:-2], h.shape[-2:]
    if lead:
        per = max(1, _PAIR_BYTES // (qh * qh * n * h.itemsize))
        if lead[0] > per:
            return np.concatenate(
                [_pair_gram(h[k : k + per], damp[k : k + per]) for k in range(0, lead[0], per)]
            )
    pairs = (h[..., :, None, :] * h.conj()[..., None, :, :]).reshape(lead + (-1, n))
    weighted = (pairs * damp.reshape(lead + (-1, 1))).swapaxes(-1, -2)
    return (weighted @ pairs.conj()).real


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

    Works on one point (G of shape (n, n), a number t) or on a stack
    (G of shape (B, n, n), t of shape (B,)); the arrays below then carry
    the stack axis in front.
    """

    _STACKED = ("m", "a", "f", "fh", "w", "wh", "damp", "r", "bordered", "diag_l0_inv_r",
                "inv_slack_sum")

    def __init__(self, g: np.ndarray, chol: np.ndarray, t, ph: int):
        n = g.shape[-1]
        lead = g.shape[:-2]
        slack = np.asarray(t)[..., None] - _diagonal(g).real  # t - P_ii, then t - Q_jj
        linv = np.linalg.inv(chol)
        m = _h(linv) @ linv
        lq_inv = np.linalg.inv(np.linalg.cholesky(g[..., ph:, ph:]))
        y = lq_inv @ g[..., ph:, :ph]
        a = g[..., :ph, :ph] - _h(y) @ y
        f = -_h(lq_inv) @ y
        l22 = chol[..., ph:, ph:]
        _, sv, zh = np.linalg.svd(lq_inv @ l22)
        w = l22 @ _h(zh)
        wh = _h(w)
        nu = sv**2
        damp = 1.0 / (nu[..., :, None] + nu[..., None, :] * (1.0 - nu[..., :, None]))

        r = m.copy()
        r[..., :ph, ph:] = 0.0
        r[..., ph:, :ph] = 0.0
        inv_slack = 1.0 / slack
        diag_r = _diagonal_view(r)
        diag_r -= inv_slack

        bordered = np.ones(lead + (n + 1, n + 1))
        bordered[..., :n, :n] = _pair_gram(np.concatenate([wh @ f, wh], axis=-1), damp)
        # The multipliers of the P diagonal enter with the opposite sign.
        bordered[..., :ph, ph:n] *= -1.0
        bordered[..., ph:n, :ph] *= -1.0
        bordered[..., :ph, :ph] += np.abs(a) ** 2
        diag_b = _diagonal_view(bordered)[..., :n]
        diag_b += slack**2
        bordered[..., n, n] = 0.0

        self.ph, self.m = ph, m
        self.a, self.f, self.fh, self.w, self.wh, self.damp = a, f, _h(f), w, wh, damp
        self.r, self.bordered = r, bordered
        self.diag_l0_inv_r = _diagonal(self._l0_inv(r)).real.copy()
        self.inv_slack_sum = inv_slack.sum(axis=-1)

    def put(self, rows: np.ndarray, other: "_NewtonSystem") -> None:
        """Replace the stack members ``rows`` by the members of ``other``."""
        for name in self._STACKED:
            getattr(self, name)[rows] = getattr(other, name)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the stack members ``rows`` (an index or a mask)."""
        for name in self._STACKED:
            setattr(self, name, getattr(self, name)[rows])

    def _l0_inv(self, e: np.ndarray) -> np.ndarray:
        ph, a, f, fh, w, wh = self.ph, self.a, self.f, self.fh, self.w, self.wh
        e1 = e[..., :ph, :ph]
        dq = w @ ((wh @ (e[..., ph:, ph:] - f @ e1 @ fh) @ w) * self.damp) @ wh
        out = np.zeros_like(e)
        out[..., :ph, :ph] = a @ e1 @ a - fh @ dq @ f
        out[..., ph:, ph:] = dq
        return out

    def step(self, mu):
        """Newton direction (dG, dt) of the barrier problem at weight ``mu``
        (one weight per stack member) and its decrement."""
        n = self.r.shape[-1]
        inv_slack_sum = self.inv_slack_sum
        last = (1.0 / mu - inv_slack_sum)[..., None]
        rhs = np.concatenate([self.diag_l0_inv_r, last], axis=-1)
        sol = np.linalg.solve(self.bordered, rhs[..., None])[..., 0]
        e = self.r.copy()
        diag_e = _diagonal_view(e)
        diag_e -= sol[..., :n]
        dg = self._l0_inv(e)
        dg = (dg + _h(dg)) / 2.0
        dt = sol[..., n]
        # Re <r, dG>, one dot product per member.
        lead = dg.shape[:-2]
        inner = self.r.conj().reshape(lead + (1, -1)) @ dg.reshape(lead + (-1, 1))
        decrement = mu * inner[..., 0, 0].real - (1.0 - mu * inv_slack_sum) * dt
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


class _Certificates:
    """One problem's best verified bounds, and the last three centers they
    are harvested from."""

    def __init__(self, s: np.ndarray):
        ph, qh = s.shape
        self.s = s
        self.upper = np.inf
        self.blocks = None
        self.lower = -np.inf
        self.weights = (np.full(ph, 1.0 / ph), np.full(qh, 1.0 / qh))
        self.centers = deque(maxlen=3)  # (mu, G, dual weights)

    def harvest(self, mu: float, g: np.ndarray, w: np.ndarray) -> float:
        """Take certificates from the center (mu, G, dual weights ``w``) and
        from extrapolations of the recent centers toward weight zero, and
        return the certified gap.

        Centers are first-order in the weight, so linear extrapolation is
        second-order and the three-point variant third-order; every
        candidate is re-verified, so a poor extrapolation only wastes the
        attempt.
        """
        s, ph, centers = self.s, self.s.shape[0], self.centers
        centers.append((mu, g, w))
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
            # a candidate whose diagonal already reaches the upper bound
            # cannot win.
            if np.max(np.diag(cand_g).real) < self.upper:
                verified = _verified_primal(s, cand_g[:ph, :ph], cand_g[ph:, ph:])
                if verified is not None and verified[2] < self.upper:
                    self.blocks = verified[:2]
                    self.upper = verified[2]
            lower, weights = _verified_dual_bound(s, cand_w)
            if lower > self.lower:
                self.lower, self.weights = lower, weights
        return max(0.0, self.upper - self.lower)


def _line_search(g, t, phi, dg, dt, decrement, mu, start):
    """Backtrack each member's step from its ``start`` on its own.

    A trial point is accepted once its barrier value exists and decreases
    by the Armijo fraction; after 60 halvings the member has no step.
    Returns the indices of the members with a step, in order, and their new
    G, t, Cholesky factor and barrier value.
    """
    fval = t + mu * phi  # the barrier value at weight mu
    size = start
    rows = None  # the members still searching, when not all are
    won = []
    for _ in range(60):
        # dG vanishes off the diagonal blocks, so every trial point keeps S;
        # _barrier rejects one outside the cone.
        cand_g = g + size[:, None, None] * dg
        cand_t = t + size * dt
        cand_chol, cand_phi = _barrier(cand_g, cand_t)
        ok = cand_t + mu * cand_phi <= fval - _ARMIJO * size * decrement
        if ok.all():
            won.append((np.arange(t.size) if rows is None else rows,
                        cand_g, cand_t, cand_chol, cand_phi))
            break
        if ok.any():
            if rows is None:
                rows = np.arange(t.size)
            won.append((rows[ok], cand_g[ok], cand_t[ok], cand_chol[ok], cand_phi[ok]))
            rest = ~ok
            rows, g, t, dg, dt = rows[rest], g[rest], t[rest], dg[rest], dt[rest]
            decrement, mu, fval, size = decrement[rest], mu[rest], fval[rest], size[rest]
        size = size * 0.5
    if len(won) == 1:
        return won[0]
    if not won:
        return np.arange(0), None, None, None, None
    parts = [np.concatenate(part) for part in zip(*won)]
    order = np.argsort(parts[0])
    return tuple(part[order] for part in parts)


def _dominated(upper: np.ndarray, lower: np.ndarray, scales: np.ndarray, floor: float) -> np.ndarray:
    """Problems whose upper bound is at or below ``floor`` or another
    problem's lower bound, both multiplied by the problems' scales.  An
    upper bound whose product leaves the float range is never below."""
    with np.errstate(over="ignore"):
        lows, highs = scales * lower, scales * upper
    others = np.full(lows.shape, floor)
    if lows.size >= 2:
        second, first = np.argsort(lows)[-2:]
        others = np.maximum(others, lows[first])
        others[first] = max(floor, lows[second])
    return np.isfinite(highs) & (highs <= others)


def _solve(s: np.ndarray, gap_tol: float, scales: np.ndarray, floor: float) -> list:
    """Path-following on a (B, p, q) stack of programs in the field of ``s``.

    Each member of ``s`` is divided by its largest entry, its ``scales``
    entry.  A member leaves the stack once its gap is within ``gap_tol``
    ("Optimal") or it is out of steps or weight ("MaxIter").  It also
    leaves once its upper bound times its scale is at or below ``floor`` (a
    lower bound from outside the stack) or another member's lower bound
    times that one's scale ("Dominated"): it cannot have the largest norm.
    A stack of one with ``floor`` = -inf is never pruned.

    Returns, per member, the best verified primal blocks, their value, the
    best lower bound, the Newton step count (at most ``MAX_ITER``), the
    status and the dual weights (a, b) of the lower bound.
    """
    nb, ph, qh = s.shape
    n = ph + qh
    snorm = np.linalg.svd(s, compute_uv=False)[:, 0]
    c0 = snorm + 1.0
    g = np.zeros((nb, n, n), dtype=s.dtype)
    g[:, :ph, ph:] = s
    g[:, ph:, :ph] = _h(s)
    g[:, np.arange(n), np.arange(n)] = c0[:, None]
    t = 2.0 * c0
    chol, phi = _barrier(g, t)
    system = _NewtonSystem(g, chol, t, ph)

    # The state of the stack members, the problems ``ids``; a member's
    # entries are removed once it leaves.
    ids = np.arange(nb)
    mu = np.maximum(1.0, snorm)
    # The decrement threshold of a barrier level tightens with the weight
    # because the extrapolated certificates need centers resolved well below
    # the path curvature; the line-search failure still guards the
    # double-precision floor.
    threshold = 1e-13 * np.maximum(1.0, np.abs(t)) * np.minimum(1.0, mu)
    start = np.ones(nb)  # initial step size of the line search
    inner = np.zeros(nb, dtype=int)  # Newton steps at the current weight
    used = np.zeros(nb, dtype=int)
    certs = [_Certificates(member) for member in s]
    outcome = [None] * nb  # (steps, status) of each problem

    while ids.size:
        dg, dt, decrement = system.step(mu)
        live = used < MAX_ITER
        if not (np.isfinite(decrement).all() and np.isfinite(dg).all()):
            finite = np.isfinite(decrement) & np.isfinite(dg).all(axis=(1, 2))
            if not finite[live].all():
                raise NumericalBreakdown("Newton step is not finite")
        stepped = np.flatnonzero(live & (decrement > threshold))
        if stepped.size:  # else every member is centered
            rows = slice(None) if stepped.size == ids.size else stepped
            won, new_g, new_t, new_chol, new_phi = _line_search(
                g[rows], t[rows], phi[rows], dg[rows], dt[rows], decrement[rows], mu[rows], start[rows]
            )
            stepped = stepped[won]
        if stepped.size == ids.size:
            g, t, phi = new_g, new_t, new_phi
            system = _NewtonSystem(new_g, new_chol, new_t, ph)
            stepped = slice(None)
        elif stepped.size:
            g[stepped], t[stepped], phi[stepped] = new_g, new_t, new_phi
            system.put(stepped, _NewtonSystem(new_g, new_chol, new_t, ph))
        used[stepped] += 1
        inner[stepped] += 1
        start[stepped] = 1.0

        # A member is centered at its weight when it took no step (the
        # decrement is small, the line search failed or the budget is spent)
        # or has taken _INNER_CAP steps there.
        centered = inner >= _INNER_CAP
        if not isinstance(stepped, slice):
            took = np.zeros(ids.size, dtype=bool)
            took[stepped] = True
            centered |= ~took
        if not centered.any():
            continue
        done = np.zeros(ids.size, dtype=bool)
        for k in np.flatnonzero(centered):
            dual = mu[k] * _diagonal(system.m[k]).real
            gap = certs[ids[k]].harvest(mu[k], g[k].copy(), dual)
            if gap <= gap_tol:
                outcome[ids[k]] = (used[k], "Optimal")
            elif used[k] >= MAX_ITER or mu[k] < _MU_FLOOR:
                outcome[ids[k]] = (used[k], "MaxIter")
            else:
                # At a center, the Newton step toward the weight
                # _MU_SHRINK * mu is 1 / _MU_SHRINK times the tangent step
                # along the central path, so the next level's first step is
                # that tangent predictor.
                mu[k] *= _MU_SHRINK
                start[k] = _MU_SHRINK
                inner[k] = 0
                threshold[k] = 1e-13 * max(1.0, abs(t[k])) * min(1.0, mu[k])
                continue
            done[k] = True
        upper = np.array([c.upper for c in certs])
        lower = np.array([c.lower for c in certs])
        for k in np.flatnonzero(_dominated(upper, lower, scales, floor)[ids] & ~done):
            outcome[ids[k]] = (used[k], "Dominated")
            done[k] = True
        if done.any():
            keep = ~done
            ids, g, t, phi = ids[keep], g[keep], t[keep], phi[keep]
            mu, threshold, start = mu[keep], threshold[keep], start[keep]
            inner, used = inner[keep], used[keep]
            system.keep(keep)

    out = []
    for cert, (steps, status) in zip(certs, outcome):
        if cert.blocks is None:  # pragma: no cover - initial point always verifies
            raise NumericalBreakdown("no feasible iterate was certified")
        out.append((*cert.blocks, cert.upper, cert.lower, steps, status, cert.weights))
    return out


def _solve_stack(mats, gap_tol: float = GAP_TOL) -> list:
    """:class:`SdpSolution` for each matrix of a list of one shape.

    Zero matrices take the zero path.  The others are divided by their
    largest entry and solved by :func:`_solve` in one stack per field, real
    and complex apart, so each is solved in its own field as it would be
    alone.  A member leaves as "Dominated" once it cannot have the largest
    norm of the list: each stack also reads the lower bounds of the stacks
    solved before it.
    """
    mats = [as_matrix(m) for m in mats]
    p_dim, q_dim = mats[0].shape
    if p_dim + q_dim > MAX_SIDE:
        raise BudgetExceeded(
            f"matrix of shape {mats[0].shape} exceeds the dense budget p+q <= {MAX_SIDE}"
        )
    if not 0.0 < gap_tol < np.inf:
        raise ValueError(f"gap_tol must be positive and finite, got {gap_tol}")
    sols = [None] * len(mats)
    fields = {}  # the (index, largest entry, data / largest entry) of each field
    for k, mat in enumerate(mats):
        top, unit = divide_by_largest(mat)
        if top == 0.0:
            zeros = np.zeros((p_dim + q_dim, p_dim + q_dim), dtype=np.complex128)
            weights = (np.full(p_dim, 1.0 / p_dim), np.full(q_dim, 1.0 / q_dim))
            sols[k] = SdpSolution(value=0.0, gram=zeros, duality_gap=0.0, iterations=0,
                                  status="Optimal", dual_weights=weights)
        else:
            fields.setdefault(unit.dtype, []).append((k, top, unit))
    floor = -np.inf
    for members in fields.values():
        ks, tops, data = zip(*members)
        try:
            solved = _solve(np.stack(data), gap_tol, np.array(tops), floor)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"linear algebra failed in the solver: {exc}") from None
        for k, top, (p, q, value, lower, iters, status, weights) in zip(ks, tops, solved):
            sols[k] = SdpSolution(
                value=float(top * value),
                gram=_gram(mats[k], top * p, top * q),
                duality_gap=float(top * max(0.0, value - lower)),
                iterations=int(iters),
                status=status,
                dual_weights=weights,
            )
            floor = max(floor, top * lower)
    return sols


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
    return _solve_stack([s], gap_tol)[0]
