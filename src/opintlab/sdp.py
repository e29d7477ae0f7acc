"""Dense interior-point solver for the factorization-norm semidefinite program.

For a p-by-q matrix S the program is

    minimize   t
    subject to G(P, Q) = [[P, S], [S*, Q]]  positive semidefinite,
               P_ii <= t  for all i,     Q_jj <= t  for all j,

over Hermitian P, Q.  Its optimal value is the factorization norm of S: the
smallest max_i ||a_i|| * max_j ||b_j|| over vector families with
<a_i, b_j> = S_ij.

The solver is a primal-dual path-following method on the Gram matrix G
itself, in the field of the data (real arithmetic for real data).  Its dual
iterate is a Hermitian Z >= 0 whose block-diagonal part is Diag(w), with
weights w >= 0 on the slacks s = t - diag G that sum to 1.  Each iteration
scales by the Nesterov-Todd point W (W Z W = G, from one SVD of L_Z* L_G)
and takes Mehrotra's predictor and corrector: the affine direction sets the
centering weight sigma = (mu_aff / mu)^3, and the corrector aims at
sigma mu on the central path with the second-order terms of both cones.  No
dense Hessian is formed: the Newton system is solved by block elimination,
inverting Pi_bd(N dG N), N = W^-1, in closed form on the two diagonal blocks
and the slacks through a bordered (p+q+1)-square system, in O((p+q)^2 q^2)
work; it is factored once per iteration and solved twice.  Each step is
0.95 of the largest step on a backtracking ladder whose trial points pass
the ratio test on s and w and have a Cholesky factor (of G + a dG and of
Z + a dZ), so that Cholesky is the method's only cone test.
The data is first divided by its largest entry, which the norm scales with,
so the duality-gap tolerance is relative to max_ij |S_ij|.

The solver iterates on a stack of B programs of one shape and field at
once, so that each numpy call of an iteration serves every member: at these
sizes an iteration costs call overhead more than flops.  A single matrix is
the stack with B = 1.  Each member keeps its own iterates, step lengths,
iteration count, budget and certificates, and leaves the stack once it is
settled.  Every stacked linear-algebra call works on each member alone, so
a member takes the same steps alone as in any stack.  A stacked Cholesky
fails as a whole when any trial point is outside the cone, and its halves
are then factored apart, so each member accepts exactly the step it would
accept alone.

Certification does not rely on the iterates converging: at every iterate,
G gives a feasible primal point (ridge-corrected, then verified positive
semidefinite by explicit eigenvalue bounds) and w a lower bound.  The
optimum is also the largest ||D_sqrt(a) S D_sqrt(b)||_1 over probability
vectors a and b (the dual of the program), so w, clipped at zero and
normalized block by block, gives a lower bound that one SVD evaluates.  Each
iterate is also extrapolated linearly with the previous one toward mu = 0,
and that candidate passes through the same checks.  The reported duality
gap is then a true bound on the distance to the optimum, no matter how the
iterates were found.  The certificates of the whole stack are checked in
stacked calls: one eigenvalue and one SVD call for all the iterates, and
another pair for all the extrapolations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NumericalBreakdown
from .linalg import as_matrix, divide_by_largest

GAP_TOL = 1e-7
MAX_ITER = 300
MAX_SIDE = 256

# Each step is _STEP of the largest one on a backtracking ladder whose trial
# points pass the cone test; the ladder shrinks by a factor 0.5 for the
# predictor, which only sets the centering weight, and 0.9 for the
# corrector, and a member that finds no step in _TRIES trials takes none.
_STEP = 0.95
_PREDICTOR_BACKTRACK = 0.5
_CORRECTOR_BACKTRACK = 0.9
_TRIES = 60
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
        allowance of 1e-12 times its largest singular value; both bounds
        are checked at every iterate.
    iterations: primal-dual iterations taken, each one predictor and one
        corrector step from one factored Newton system.
    status: "Optimal" (gap within tolerance), "MaxIter", or, among the
        middle slices of one grid only, "Dominated": ``value`` is at or below
        another slice's lower bound, so this slice cannot have the largest
        norm and was left before its gap closed.
    dual_weights: (a, b), nonnegative weights on the p rows and the q
        columns, each summing to 1, behind the best lower bound: the dual
        iterate's slack weights w, clipped at zero and normalized per block;
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
    """The Nesterov-Todd Newton system at one primal-dual point, factored once.

    ``scaling`` is the NT scaling point W (W Z W = G) and ``n_mat`` its
    inverse N.  The dual constraint Pi_bd(Z) = Diag(w) and the linearized
    complementarity N dG N + dZ = C give L(dG) = Pi_bd(N dG N) = E - Diag(dw),
    with E = Pi_bd(C + Z) - Diag(w).  With A = N11^-1 = W11 - W12 W22^-1 W21
    and F = N21 N11^-1 = -W22^-1 W21, the P block gives dP = A E1 A - F* dQ F
    and the Q block then reads N22 dQ N22 - K dQ K = E2 - F E1 F*,
    K = N22 - W22^-1.  From the SVD Lq^-1 L22 = U diag(sqrt(nu)) Y*
    (W22 = Lq Lq*, L22 the trailing block of the Cholesky factor of W),
    V = L22 Y has V* N22 V = I and V* K V = I - diag(nu), which inverts L in
    closed form; 1 - lam_i lam_j is formed from nu, so no cancellation
    occurs as W grows ill-conditioned.  The slacks s = t - diag G and their
    weights w only touch the p+q diagonal entries and t: with w o ds + s o dw
    = r_lp and sum(dw) = 1 - sum(w), the full system reduces to a bordered
    (p+q+1)-square one in dw and dt, whose matrix diag o L^-1 o Diag +
    diag(s / w) is formed from H = V* [F | I].  Only the right-hand side
    changes between the predictor and the corrector, so :meth:`solve` is
    cheap.

    Works on one point (matrices of shape (n, n), vectors of shape (n,)) or
    on a stack (a leading axis of B members on every array).
    """

    def __init__(self, scaling: np.ndarray, n_mat: np.ndarray, z: np.ndarray,
                 slack: np.ndarray, weights: np.ndarray, ph: int):
        n = scaling.shape[-1]
        lead = scaling.shape[:-2]
        chol = np.linalg.cholesky(scaling)
        lq_inv = np.linalg.inv(np.linalg.cholesky(scaling[..., ph:, ph:]))
        y = lq_inv @ scaling[..., ph:, :ph]
        a = scaling[..., :ph, :ph] - _h(y) @ y
        f = -_h(lq_inv) @ y
        l22 = chol[..., ph:, ph:]
        _, sv, yh = np.linalg.svd(lq_inv @ l22)
        v = l22 @ _h(yh)
        vh = _h(v)
        nu = sv**2
        damp = 1.0 / (nu[..., :, None] + nu[..., None, :] * (1.0 - nu[..., :, None]))

        bordered = np.ones(lead + (n + 1, n + 1))
        bordered[..., :n, :n] = _pair_gram(np.concatenate([vh @ f, vh], axis=-1), damp)
        # The multipliers of the P diagonal enter with the opposite sign.
        bordered[..., :ph, ph:n] *= -1.0
        bordered[..., ph:n, :ph] *= -1.0
        bordered[..., :ph, :ph] += np.abs(a) ** 2
        # diag o L^-1 o Diag applied to w, before the slack term joins it.
        self.l_inv_w = (bordered[..., :n, :n] @ weights[..., None])[..., 0]
        diag_b = _diagonal_view(bordered)[..., :n]
        diag_b += slack / weights
        bordered[..., n, n] = 0.0

        self.ph, self.n_mat, self.z, self.weights = ph, n_mat, z, weights
        self.a, self.f, self.fh, self.v, self.vh, self.damp = a, f, _h(f), v, vh, damp
        self.bordered = bordered

    def _l_inv(self, e: np.ndarray) -> np.ndarray:
        ph, a, f, fh, v, vh = self.ph, self.a, self.f, self.fh, self.v, self.vh
        e1 = e[..., :ph, :ph]
        dq = v @ ((vh @ (e[..., ph:, ph:] - f @ e1 @ fh) @ v) * self.damp) @ vh
        out = np.zeros_like(e)
        out[..., :ph, :ph] = a @ e1 @ a - fh @ dq @ f
        out[..., ph:, ph:] = dq
        return out

    def solve(self, c, r_lp: np.ndarray):
        """Direction (dG, dt, dZ, dw) for the complementarity right-hand sides
        ``c`` (N dG N + dZ = C; None for the predictor's C = -Z) and ``r_lp``
        (w o ds + s o dw = r_lp)."""
        weights, z = self.weights, self.z
        n = weights.shape[-1]
        rhs = r_lp / weights - self.l_inv_w
        if c is not None:
            # L^-1 (Pi_bd(C + Z)): the predictor's E is -Diag(w) alone.
            base = c + z
            base[..., :self.ph, self.ph:] = 0.0
            base[..., self.ph:, :self.ph] = 0.0
            base = self._l_inv(base)
            rhs = rhs + _diagonal(base).real
        last = 1.0 - weights.sum(axis=-1)
        rhs = np.concatenate([rhs, last[..., None]], axis=-1)
        sol = np.linalg.solve(self.bordered, rhs[..., None])
        dw = sol[..., :n, 0]
        e = np.zeros_like(z)
        _diagonal_view(e)[...] = weights + dw
        dg = -self._l_inv(e)
        if c is not None:
            dg += base
        dg = (dg + _h(dg)) / 2.0
        dz = (-z if c is None else c) - self.n_mat @ dg @ self.n_mat
        dz = (dz + _h(dz)) / 2.0
        return dg, sol[..., n, 0], dz, dw


def _verified_dual_bound(s: np.ndarray, w: np.ndarray):
    """True lower bounds on the optima of a (m, p, q) stack from approximate
    dual weights, and the weights behind them.

    The optimum is the largest ||D_sqrt(a) S D_sqrt(b)||_1 over probability
    vectors a and b, so any nonnegative weights give a lower bound.  Each
    row of ``w`` (p row weights, then q column weights), clipped at zero and
    divided block by block by its sum, is evaluated with one stacked SVD,
    less ``_EIG_GUARD`` times the largest singular value for roundoff.  An
    unusable row gives the bound -inf.
    """
    ph = s.shape[1]
    bound, weights = np.full(len(w), -np.inf), np.maximum(w, 0.0)
    a, b = weights[:, :ph], weights[:, ph:]
    usable = np.isfinite(w).all(axis=-1) & (a.sum(axis=-1) > 0.0) & (b.sum(axis=-1) > 0.0)
    if usable.any():
        a, b = a[usable], b[usable]
        a, b = a / a.sum(axis=-1, keepdims=True), b / b.sum(axis=-1, keepdims=True)
        weights[usable] = np.concatenate([a, b], axis=-1)
        sv = np.linalg.svd(np.sqrt(a)[:, :, None] * s[usable] * np.sqrt(b)[:, None, :],
                           compute_uv=False)
        bound[usable] = sv.sum(axis=-1) - _EIG_GUARD * sv[:, 0]
    return bound, weights


def _verified_primal(g: np.ndarray):
    """Feasible points from a stack of finite Hermitian candidates G with
    the data in their corner, and their certified values.

    A ridge large enough to cover the measured negative spectrum plus
    eigenvalue roundoff is added to the diagonal, and the value is the
    largest resulting diagonal entry, so each point is genuinely feasible
    and its value a true upper bound.
    """
    evals = np.linalg.eigvalsh(g)
    scale = np.maximum(np.maximum(np.abs(evals[:, 0]), np.abs(evals[:, -1])), 1e-300)
    delta = np.maximum(0.0, -evals[:, 0]) + _EIG_GUARD * scale
    g = g + delta[:, None, None] * np.eye(g.shape[-1])
    return g, _diagonal(g).real.max(axis=-1)


def _harvest(s, ids, g, w, best, upper, lower, weights) -> None:
    """Take certificates from candidates (G, w), one for each of the
    problems ``ids`` of ``s``, into the problems' best verified points
    ``best``, their values ``upper``, the best lower bounds ``lower`` and
    their dual ``weights``, in place.  A verified value is the largest
    diagonal entry plus a ridge, so a candidate whose diagonal already
    reaches its problem's upper bound cannot win and is not checked.
    """
    ph = s.shape[1]
    rows = np.flatnonzero(_diagonal(g).real.max(axis=-1) < upper[ids])
    g, data = g[rows], s[ids[rows]]
    g[:, :ph, ph:], g[:, ph:, :ph] = data, _h(data)
    g = (g + _h(g)) / 2.0
    finite = np.isfinite(g).all(axis=(-2, -1))
    rows = ids[rows[finite]]
    if rows.size:
        points, values = _verified_primal(g[finite])
        win = values < upper[rows]
        best[rows[win]], upper[rows[win]] = points[win], values[win]
    bound, found = _verified_dual_bound(s[ids], w)
    win = bound > lower[ids]
    lower[ids[win]], weights[ids[win]] = bound[win], found[win]


def _cholesky(x: np.ndarray):
    """Cholesky factors of a stack and which members have one.

    A stacked Cholesky fails as a whole if any member has none, so the two
    halves of the stack are then factored apart, down to single members."""
    try:
        return np.linalg.cholesky(x), np.ones(len(x), dtype=bool)
    except np.linalg.LinAlgError:
        if len(x) == 1:
            return np.empty_like(x), np.zeros(1, dtype=bool)
        parts = [_cholesky(x[: len(x) // 2]), _cholesky(x[len(x) // 2 :])]
        return np.concatenate([c for c, _ in parts]), np.concatenate([ok for _, ok in parts])


def _steps(x, dx, v, dv, backtrack: float, factors=None):
    """Step lengths for a stack of cone points: matrices ``x`` that must stay
    positive definite and vectors ``v`` that must stay positive.

    The ratio test bounds each step on ``v``; then the step backtracks by
    the factor ``backtrack`` from there (or from 1 / ``_STEP``) until
    ``x + size dx`` has a Cholesky factor, and ``_STEP`` of it is taken.
    Given the Cholesky ``factors`` of ``x``, the points taken are factored
    too, backtracking further if rounding leaves one without a factor, and
    the steps come back with the new matrices, vectors and factors.
    """
    with np.errstate(divide="ignore"):
        ratio = np.where(dv < 0.0, v / -dv, np.inf).min(axis=-1)
    size = np.minimum(ratio, 1.0 / _STEP)
    rows = np.arange(len(x))
    for _ in range(_TRIES):
        _, ok = _cholesky(x[rows] + size[rows, None, None] * dx[rows])
        rows = rows[~ok]
        if not rows.size:
            break
        size[rows] *= backtrack
    size[rows] = 0.0
    step = _STEP * size
    if factors is None:
        return step
    new_x = x + step[:, None, None] * dx
    chol, ok = _cholesky(new_x)
    rows = np.flatnonzero(~ok)
    for _ in range(_TRIES):
        if not rows.size:
            break
        step[rows] *= backtrack
        new_x[rows] = x[rows] + step[rows, None, None] * dx[rows]
        chol[rows], ok = _cholesky(new_x[rows])
        rows = rows[~ok]
    step[rows] = 0.0
    new_x[rows], chol[rows] = x[rows], factors[rows]
    return step, new_x, v + step[:, None] * dv, chol


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re tr(X Y) of Hermitian matrices, one per stack member."""
    lead = x.shape[:-2]
    return (x.conj().reshape(lead + (1, -1)) @ y.reshape(lead + (-1, 1)))[..., 0, 0].real


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise NumericalBreakdown("Newton step is not finite")


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


def _solve(s: np.ndarray, gap_tol: float, scales: np.ndarray, floor: float):
    """Primal-dual path-following on a (B, p, q) stack of programs in the
    field of ``s``.

    Each member of ``s`` is divided by its largest entry, its ``scales``
    entry.  A member leaves the stack once its gap is within ``gap_tol``
    ("Optimal") or it is out of iterations or cannot move ("MaxIter").  It
    also leaves once its upper bound times its scale is at or below
    ``floor`` (a lower bound from outside the stack) or another member's
    lower bound times that one's scale ("Dominated"): it cannot have the
    largest norm.  A stack of one with ``floor`` = -inf is never pruned.

    Every iterate's certificates are checked for the whole stack at once,
    in at most two stacked rounds of one eigenvalue and one SVD call each:
    first the iterates, then the extrapolations toward mu = 0 of the members
    whose mu fell, against the upper bounds the first round set.

    Returns arrays indexed by problem: the best verified primal points
    (Gram matrices), their values, the best lower bounds, the iteration
    counts (at most ``MAX_ITER``), the statuses and the dual weights (p row
    weights, then q column weights) of the lower bounds.
    """
    nb, ph, qh = s.shape
    n = ph + qh
    c0 = np.linalg.svd(s, compute_uv=False)[:, 0] + 1.0
    g = np.zeros((nb, n, n), dtype=s.dtype)
    g[:, :ph, ph:] = s
    g[:, ph:, :ph] = _h(s)
    _diagonal_view(g)[...] = c0[:, None]
    t = 2.0 * c0
    z = np.zeros_like(g)
    _diagonal_view(z)[...] = 1.0 / n
    w = np.full((nb, n), 1.0 / n)
    chol_g, chol_z = np.linalg.cholesky(g), np.linalg.cholesky(z)

    # Each problem's certificates and outcome.
    best = np.empty_like(g)
    upper, lower = np.full(nb, np.inf), np.full(nb, -np.inf)
    weights = np.empty((nb, n))
    weights[:, :ph], weights[:, ph:] = 1.0 / ph, 1.0 / qh
    iterations, status = np.zeros(nb, dtype=int), np.empty(nb, dtype="<U9")

    # The state of the stack members, the problems ``ids``, with the previous
    # iterate (none at first: no mu falls below NaN); a member's entries are
    # removed once it leaves.
    ids = np.arange(nb)
    used = np.zeros(nb, dtype=int)
    moved = np.ones(nb, dtype=bool)
    prev_mu, prev_g, prev_w = np.full(nb, np.nan), g, w

    while True:
        slack = t[:, None] - _diagonal(g).real
        mu = (_inner(g, z) + (slack * w).sum(axis=-1)) / (2 * n)
        _harvest(s, ids, g, w, best, upper, lower, weights)
        # Iterates near the central path are first-order in mu, so the linear
        # extrapolation with the previous iterate cancels the leading term; it
        # passes through the same checks, so a poor one only wastes the attempt.
        fell = np.flatnonzero(mu < prev_mu)
        if fell.size:
            ratio = (mu[fell] / prev_mu[fell])[:, None, None]
            _harvest(s, ids[fell], (g[fell] - ratio * prev_g[fell]) / (1.0 - ratio),
                     (w[fell] - ratio[:, 0] * prev_w[fell]) / (1.0 - ratio[:, 0]),
                     best, upper, lower, weights)
        optimal = upper[ids] - lower[ids] <= gap_tol
        stuck = (used >= MAX_ITER) | ~moved
        dominated = _dominated(upper, lower, scales, floor)[ids]
        done = optimal | stuck | dominated
        if done.any():
            # Later verdicts overwrite earlier ones: Optimal comes before
            # MaxIter, and MaxIter before Dominated.
            status[ids[dominated]] = "Dominated"
            status[ids[stuck]] = "MaxIter"
            status[ids[optimal]] = "Optimal"
            iterations[ids[done]] = used[done]
            keep = ~done
            ids, used, g, t, z, w, slack, mu, chol_g, chol_z = (
                x[keep] for x in (ids, used, g, t, z, w, slack, mu, chol_g, chol_z))
        if not ids.size:
            break
        prev_mu, prev_g, prev_w = mu, g, w

        # The NT scaling point W = R R* with R = L_G V Sigma^-1/2, from the
        # SVD L_Z* L_G = U Sigma V*; its inverse is K K*, K = L_Z U Sigma^-1/2,
        # and G^-1 = K Sigma^-1 K*.
        u, sv, vh = np.linalg.svd(_h(chol_z) @ chol_g)
        root = 1.0 / np.sqrt(sv)[:, None, :]
        r = chol_g @ (_h(vh) * root)
        k_mat = chol_z @ (u * root)
        n_mat = k_mat @ _h(k_mat)
        system = _NewtonSystem(r @ _h(r), n_mat, z, slack, w, ph)
        sides = np.concatenate([g, z]), np.concatenate([slack, w])

        # Predictor: the affine-scaling direction, C = -Z, sized on a coarse
        # ladder; it only sets the centering weight.
        dg, dt, dz, dw = system.solve(None, -slack * w)
        ds = dt[:, None] - _diagonal(dg).real
        _check_finite(dg, dz, dw)
        steps = _steps(sides[0], np.concatenate([dg, dz]), sides[1], np.concatenate([ds, dw]),
                       _PREDICTOR_BACKTRACK)
        a_p, a_d = steps[: ids.size, None], steps[ids.size :, None]
        mu_aff = (_inner(g + a_p[..., None] * dg, z + a_d[..., None] * dz)
                  + ((slack + a_p * ds) * (w + a_d * dw)).sum(axis=-1)) / (2 * n)
        sigma_mu = np.minimum(1.0, mu_aff / mu) ** 3 * mu

        # Corrector: C = sigma mu G^-1 - Z less Mehrotra's second-order term,
        # which in the scaled space (G and Z both Sigma) is the symmetrized
        # product of the predictor's scaled directions, divided by
        # sigma_i + sigma_j.
        prod = (_h(k_mat) @ dg @ k_mat) @ (_h(r) @ dz @ r)
        second = (prod + _h(prod)) / (sv[:, :, None] + sv[:, None, :])
        c = k_mat @ (sigma_mu[:, None, None] * _h(k_mat) / sv[:, :, None] - second @ _h(k_mat)) - z
        dg, dt, dz, dw = system.solve(c, sigma_mu[:, None] - slack * w - ds * dw)
        ds = dt[:, None] - _diagonal(dg).real
        _check_finite(dg, dz, dw)
        steps, new, new_v, chol = _steps(sides[0], np.concatenate([dg, dz]), sides[1],
                                         np.concatenate([ds, dw]), _CORRECTOR_BACKTRACK,
                                         np.concatenate([chol_g, chol_z]))
        a_p = steps[: ids.size]
        moved = steps > 0.0
        moved = moved[: ids.size] | moved[ids.size :]
        g, z = new[: ids.size], new[ids.size :]
        chol_g, chol_z = chol[: ids.size], chol[ids.size :]
        t = t + a_p * dt
        w = new_v[ids.size :]
        used += 1

    if np.isinf(upper).any():  # pragma: no cover - initial point always verifies
        raise NumericalBreakdown("no feasible iterate was certified")
    return best, upper, lower, iterations, status, weights


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
            best, upper, lower, iterations, status, weights = _solve(
                np.stack(data), gap_tol, np.array(tops), floor)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"linear algebra failed in the solver: {exc}") from None
        for i, (k, top) in enumerate(zip(ks, tops)):
            gram = (top * best[i]).astype(np.complex128, copy=False)
            gram[:p_dim, p_dim:], gram[p_dim:, :p_dim] = mats[k], _h(mats[k])
            sols[k] = SdpSolution(
                value=float(top * upper[i]),
                gram=gram,
                duality_gap=float(top * max(0.0, upper[i] - lower[i])),
                iterations=int(iterations[i]),
                status=str(status[i]),
                dual_weights=(weights[i, :p_dim], weights[i, p_dim:]),
            )
            floor = max(floor, top * lower[i])
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
