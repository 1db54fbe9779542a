"""Dominant-property checks for covectors and symmetric 2-tensors.

A covector w is accepted (InDPplus) when w(k) >= 0 for every
future-directed causal k; a symmetric tensor T when T(k, l) >= 0 for
every pair of future-directed null k, l.  Both conditions are decided
in an orthonormal frame where future null vectors are k = e0 + n, n a
unit spatial direction.  The tensor case reduces, per outer direction
n, to a covector check whose minimum over the second slot is closed
form.

Bounds first, stationary pairs last, from one eigen-decomposition of the
spatial block.  It gives two bounds on the pair margin: the diagonal
pairs k = l (the null-cone quadratic, minimized on the sphere in closed
form by the trust-region secular equation) from above, and the same
problem relaxed to a ball from below.  Where they meet, which is always
the case when the spatial block is negative semidefinite (every
near-conformal pullback), the margin is closed form; elsewhere it is the
lowest stationary pair, closed form in the same eigenbasis.  The flow
null-cone check and the null eigenvectors (its zeros) need the quadratic.

The reported margin is always the minimum of T over future null pairs
(or of w over future null vectors), so InDPplus holds exactly when the
margin clears -tol.  The minus variant is decided on -T, which is
solved only when T fails and the bounds of -T straddle the band
[-tol, tol]; otherwise they decide it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .lorentz import CausalClass, _abs_max, classify, orthonormal_frame

TOL_DP = 1e-9
TOL_CONF = 1e-8
NEWTON_STEPS = 40  # step cap of the sphere quadratic's secular equation
_CLOSED = 1e-12  # bound gap, relative to max|That|, below which a row's margin is closed form
_SANDWICH = 1e-12  # slack, relative to max|That|, of lb <= margin <= ub on an open row
_REPEATED = 1e-8  # eigenvalue gap of M, relative to max|That| of its row, that counts as repeated
_POLE = 1e-14  # eigenvalue gap of M, relative to max|That|, that the secular step takes as one pole
_HUGE = 2.0 ** 500  # a quotient at least this large has a divisor of rounding residue


class DPStatus(enum.Enum):
    IN_DP_PLUS = "InDPplus"
    IN_DP_MINUS = "InDPminus"
    NOT_DP = "NotDP"


@dataclass(frozen=True)
class DPVerdict:
    status: DPStatus
    margin: float
    witness: tuple | None
    boundary: bool


class SandwichError(RuntimeError):
    """The pair margin of an open row left the closed-form bounds of row
    `index`: an internal fault, whatever the input."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class NullEigenResult:
    pairs: tuple
    degenerate: bool


# ---------------------------------------------------------------------------
# batched tensor margin over null pairs: min over the second slot
# e0 + m of T(e0 + n, e0 + m) is c + a.n - |Mn + a|


def _rows(That):
    """(c, a, M) = (T00, T0i, Tij) of stacked frame tensors."""
    return That[:, 0, 0], That[:, 0, 1:], That[:, 1:, 1:]


def _unit_rows(That):
    """(That 2^-e, e): each row scaled by a power of two to max|That| in [0.5,
    1), rows of zeros or with a non-finite entry as they are.  The scaling is
    exact, so np.ldexp(margin, e) is the row's margin, and no square of the
    solvers over- or underflows on merely large or small tensors."""
    e = np.frexp(_abs_max(That))[1]
    return np.ldexp(That, -e[:, None, None]), e


def _unit_tensor(T, E):
    """(T 2^-e, That 2^-e, e): one tensor and its frame components E^T T E
    scaled as one `_unit_rows` row.  A tolerance stays on the unscaled size:
    its floor 1 is 2^-e on the scaled tensor."""
    That, e = _unit_rows((E.T @ T @ E)[None])
    return np.ldexp(T, -e[0]), That[0], int(e[0])


def _pair_value(n, c, a, M):
    w = np.einsum("rde,re->rd", M, n) + a
    return c + np.einsum("rd,rd->r", a, n) - np.linalg.norm(w, axis=1), w


def _pair_bounds(That, steps=NEWTON_STEPS):
    """Bounds on the pair margin of each row from one `eigh` of M.

    With p = (n + m)/2 and q = (n - m)/2 (p orthogonal to q, |p|^2 + |q|^2
    = 1), T(e0 + n, e0 + m) = c + 2a.p + p.Mp - q.Mq.  The diagonal pairs
    q = 0 give the upper bound ub, the null-cone quadratic at its sphere
    minimizer nhat (`_sphere_quadratic`, at most `steps` secular steps).
    Bounding -q.Mq below by -lam_max (1 - |p|^2) gives the lower bound lb,
    the minimum over the ball |p| <= 1 of c - lam_max + 2a.p + p.(M +
    lam_max I)p.  That objective equals the quadratic on the sphere, so lb =
    ub unless the ball minimum is interior, which needs M + lam_max I > 0
    and |(M + lam_max I)^-1 a| < 1.  A row is closed when ub - lb <= _CLOSED
    times its scale max|That|; its margin is then the pair value at nhat.
    Returns (lb, ub, nhat, closed, (lam, Q)), the last M's eigenbasis."""
    c, a, M = _rows(That)
    lam, b, nhat, Q = _sphere_quadratic(a, M, steps)
    ub = _quad_value(nhat, c, a, M)
    A = lam + lam[-1]
    # |b_i| < A_i for every i is needed for an interior minimum; testing it
    # first keeps b / A from overflowing where A is tiny
    inside = (A[0] > 0.0) & np.all(np.abs(b) < A, axis=0)
    y = np.where(inside, b, 0.0) / np.where(inside, A, 1.0)
    inside &= sum(y * y) < 1.0
    lb = np.where(inside, c - lam[-1] - sum(b * y), ub)
    closed = ub - lb <= _CLOSED * _abs_max(That)
    return lb, ub, nhat, closed, (lam, Q)


def _partner(nhat, a, M):
    """The second slot's minimizer mhat = -(M nhat + a)/|M nhat + a|, or
    nhat where that vanishes."""
    wvec = np.einsum("nde,ne->nd", M, nhat) + a
    nwv = np.linalg.norm(wvec, axis=1)
    return np.where(nwv[:, None] > 1e-300, -wvec / np.maximum(nwv, 1e-300)[:, None], nhat)


def _stationary_directions(a, M, lam, Q):
    """First slots n of the stationary pairs of F(n, m) = c + a.(n + m) +
    n.Mm on the sphere pair other than the diagonal pairs, component-major
    (d, K, N), not normalized and 0 where a family has no member: those of
    `_eigen_directions` in M's eigenbasis (lam, Q) and, on rows with a gap of
    at most _REPEATED (relative to max|That|: the rows come from `_unit_rows`),
    with those eigenvalues taken as equal (`_deflate`).  A secular root
    between poles that close cannot be resolved, while taking them as equal
    moves the pair by about their gap, so each set covers the other's."""
    b = sum(Q * a.T[:, None])  # Q^T a, as in `_sphere_quadratic`
    n = _eigen_directions(lam, Q, b)
    if len(rep := np.flatnonzero(np.any(lam[1:] - lam[:-1] <= _REPEATED, axis=0))):
        n = np.concatenate([n, n], axis=1)
        n[:, n.shape[1] // 2:, rep] = _eigen_directions(lam[:, rep], *_deflate(
            lam[:, rep], Q[..., rep], b[:, rep], M[rep].transpose(1, 2, 0)))
    return n


def _deflate(lam, Q, b, M):
    """The eigenbasis (Q, b = Q^T a) with each run of eigenvalues at most
    _REPEATED apart as one eigenspace: b turned onto its last vector and,
    for a run of three, the other two turned to diagonalize M off b (the
    hard-case pairs there form a circle, lowest on those axes)."""
    Q, b = Q.copy(), b.copy()
    d = len(b)
    for i in range(d - 1):
        r = np.hypot(b[i], b[i + 1])
        turn = (lam[i + 1] - lam[i] <= _REPEATED) & (r > 0.0)
        cs = np.where(turn, b[i + 1], 1.0) / np.where(turn, r, 1.0)
        sn = np.where(turn, b[i], 0.0) / np.where(turn, r, 1.0)
        Q[:, i], Q[:, i + 1] = cs * Q[:, i] - sn * Q[:, i + 1], cs * Q[:, i + 1] + sn * Q[:, i]
        b[i], b[i + 1] = np.where(turn, 0.0, b[i]), np.where(turn, r, b[i + 1])
    if d == 3:
        MQ = [sum(M[:, e] * Q[e, j] for e in range(d)) for j in (0, 1)]
        half = 0.5 * np.arctan2(2.0 * sum(Q[:, 0] * MQ[1]), sum(Q[:, 0] * MQ[0]) - sum(Q[:, 1] * MQ[1]))
        half = np.where(np.all(lam[1:] - lam[:-1] <= _REPEATED, axis=0), half, 0.0)
        cs, sn = np.cos(half), np.sin(half)
        Q[:, 0], Q[:, 1] = cs * Q[:, 0] + sn * Q[:, 1], cs * Q[:, 1] - sn * Q[:, 0]
    return Q, b


def _quotient(x, y):
    """x / y, and 0 where |x / y| would reach _HUGE: y is rounding residue of 0."""
    ok = np.abs(x) < np.abs(y) * _HUGE
    return np.where(ok, x, 0.0) / np.where(ok, y, 1.0)


def _eigen_directions(lam, Q, b):
    """Stationary first slots n in an eigenbasis (lam, Q, b = Q^T a) of M,
    component-major (d, 3d, N); two families:
    - alpha != beta.  With u = alpha beta and D_i = u - lam_i^2,
      n_i = b_i (beta + lam_i) / D_i and m_i = b_i (alpha + lam_i) / D_i.
      |n| = |m| gives alpha + beta = -2 sum_i b_i^2 lam_i / D_i^2 /
      sum_i b_i^2 / D_i^2, and |n|^2 + |m|^2 = 2 then reduces to
      sum_i b_i^2 / (lam_i^2 - u) = 1.  So u is an eigenvalue of
      diag(lam^2) - b b^T = Q^T (M^2 - a a^T) Q, the rank-one-modified
      secular equation (Golub 1973): d values per row, none to bracket.
      alpha, beta are then the roots of |n|^2 = 1 (below), accurate where
      they nearly meet; n takes the larger as beta, since the swapped pair
      (m, n) is stationary too, with F(m, n) = F(n, m).
    - alpha = beta = -lam_j, the hard case b_j = 0: n = p +- sqrt(1 - |p|^2)
      q_j with p_i = -b_i / (lam_i + lam_j) off j and p_j = 0."""
    d = len(b)
    u = np.linalg.eigvalsh(np.eye(d) * (lam * lam).T[:, None] - b.T[:, :, None] * b.T[:, None]).T
    w = _quotient(b[:, None], u - (lam * lam)[:, None])  # b_i / D_i: (d, roots, N)
    # alpha, beta solve sum_i w_i^2 (t + lam_i)^2 = 1: with v = w / max|w| =
    # w / k, beta + lam_i and alpha + lam_i are (t_i +- r) / sum v^2 for t_i =
    # sum_j v_j^2 (lam_i - lam_j), r^2 = sum v^2 / k^2 - sum_{i<j} v_i^2 v_j^2
    # (lam_i - lam_j)^2: no cancellation as in (alpha + beta)^2 - 4u
    k = np.max(np.abs(w), axis=0)
    v = w / np.where(k > 0.0, k, 1.0)
    v2 = v * v
    lagrange = sum(v2[i] * v2[j] * (lam[i] - lam[j]) ** 2 for i in range(d) for j in range(i))
    r = np.sqrt(np.maximum(sum(v2) / np.maximum(k, 1.0 / _HUGE) ** 2 - lagrange, 0.0))
    t = sum(v2[j] * (lam[:, None] - lam[j]) for j in range(d))
    p = -_quotient(b[:, None] * ~np.eye(d, dtype=bool)[:, :, None], lam[:, None] + lam)  # p[i, j]
    e = np.eye(d)[:, :, None] * np.sqrt(np.maximum(1.0 - sum(p * p), 0.0))
    y = np.concatenate([v * (t + r), p + e, p - e], axis=1)
    return sum(Q[:, j, None] * y[j] for j in range(d))  # Q y


def _pair_min(c, a, M, nhat, lam, Q):
    """(margins, nhat): the lowest pair margin of rows (c, a, M) over the
    first slots of their stationary pairs, the diagonal pairs' nhat and
    `_stationary_directions` in M's eigenbasis (lam, Q) (nhat in place of a
    missing one), each scored by the exact inner minimum c + a.n - |Mn + a|,
    so a candidate can only over-estimate.  Sums run over components, the
    same for every row."""
    n = np.concatenate([nhat.T[:, None], _stationary_directions(a, M, lam, Q)], axis=1)
    size = np.sqrt(sum(n * n))
    n = np.where(size > 0.0, n / np.where(size > 0.0, size, 1.0), nhat.T[:, None])
    aT, MT = a.T[:, None], M.transpose(1, 2, 0)[:, :, None]
    w = aT + sum(MT[:, e] * n[e] for e in range(len(n)))
    f = c + sum(aT * n) - np.sqrt(sum(w * w))
    k, rows = np.argmin(f, axis=0), np.arange(len(c))
    return f[k, rows], n[:, k, rows].T


def _solve_rows(That, todo, lb, ub, margins, nhat, e, eig):
    """Solve the open rows `todo` of That (scaled by `_unit_rows`, exponents e,
    eigenbasis eig) into margins and nhat, in place, by `_pair_min`; a margin
    more than _SANDWICH max|That| outside the row's bounds raises SandwichError."""
    found, fn = _pair_min(*(x[todo] for x in _rows(That)), nhat[todo], *(x[..., todo] for x in eig))
    lb, ub, eps = lb[todo], ub[todo], _SANDWICH * _abs_max(That[todo])
    out = np.flatnonzero(~((lb - eps <= found) & (found <= ub + eps)))
    if len(out):
        j = out[0]
        unscaled = np.ldexp([found[j], lb[j], ub[j]], e[todo[j]])
        raise SandwichError("pair margin {:.17g} of row {} left its bounds [{:.17g}, {:.17g}]".format(
            unscaled[0], todo[j], *unscaled[1:]), int(todo[j]))
    margins[todo], nhat[todo] = found, fn


def dp2_margins(That, steps=NEWTON_STEPS):
    """min over future null pairs of T(k, l) for stacked frame tensors.

    That has shape (N, n, n); returns (margins, nhat, mhat) where the
    witness pair is k = e0 + nhat, l = e0 + mhat in frame components.
    Bounds first: where the bounds of `_pair_bounds` meet, the margin is
    closed form; the other rows take their lowest stationary pair
    (`_pair_min`), held to the row's bounds.  `steps` caps the secular steps
    of the bounds' sphere quadratic (0: its start, still a true pair).
    Each row's result depends on that row alone, and is computed on the row
    scaled by a power of two (`_unit_rows`).
    """
    That, e = _unit_rows(np.asarray(That, dtype=float))
    data = _rows(That)
    lb, ub, nhat, closed, eig = _pair_bounds(That, steps)
    margins = _pair_value(nhat, *data)[0]
    todo = np.flatnonzero(~closed)
    if len(todo):
        _solve_rows(That, todo, lb, ub, margins, nhat, e, eig)
    return np.ldexp(margins, e), nhat, _partner(nhat, *data[1:])


def _check_sym(T, n):
    T = np.asarray(T, dtype=float)
    if T.shape != (n, n):
        raise ValueError(f"tensor shape {T.shape} does not match dimension {n}")
    if np.max(np.abs(T - T.T)) > 1e-12 * max(1.0, float(np.max(np.abs(T)))):
        raise ValueError("tensor is not symmetric")
    return 0.5 * (T + T.T)


def dp1_check(point, w, tol_dp=TOL_DP, frame=None):
    """Decide w(k) >= 0 (or <= 0) over future causal k for a covector w."""
    E = orthonormal_frame(point) if frame is None else frame
    w = np.asarray(w, dtype=float)
    what = E.T @ w
    spatial = np.linalg.norm(what[1:])
    tol = tol_dp * max(1.0, float(np.linalg.norm(what)))
    margin = what[0] - spatial

    if spatial > 0.0:
        ndir = -what[1:] / spatial
    else:
        ndir = np.zeros(len(w) - 1)
        ndir[0] = 1.0
    khat = np.concatenate([[1.0], ndir])
    witness = (E @ khat,)

    if margin >= -tol:
        return DPVerdict(DPStatus.IN_DP_PLUS, float(margin), None, bool(abs(margin) <= tol))
    minus_margin = -what[0] - spatial
    if minus_margin >= -tol:
        return DPVerdict(DPStatus.IN_DP_MINUS, float(margin), witness, bool(abs(minus_margin) <= tol))
    return DPVerdict(DPStatus.NOT_DP, float(margin), witness, False)


def dp2_check(point, T, tol_dp=TOL_DP, frame=None):
    """Decide T(k, l) >= 0 over future null pairs for symmetric T: the
    margin of `dp2_margins`, and -T's where T fails (InDPminus or NotDP)."""
    E = orthonormal_frame(point) if frame is None else frame
    n = point.metric.dim
    T = _check_sym(T, n)
    That = E.T @ T @ E
    tol = tol_dp * max(1.0, float(np.max(np.abs(That))))
    # T and -T share the bounds.  A row is solved only where they leave
    # it open: T's unless closed, -T's only when T fails and -T's bounds
    # straddle the band [-tol, tol].  Otherwise -T's pair value at nhat
    # lies between its bounds, on the side of the band that decides.
    both, e = _unit_rows(np.stack([That, -That]))
    data = _rows(both)
    lb, ub, nhat, closed, eig = _pair_bounds(both)
    margins = _pair_value(nhat, *data)[0]

    if not closed[0]:
        _solve_rows(both, np.array([0]), lb, ub, margins, nhat, e, eig)
    margin = float(np.ldexp(margins[0], e[0]))
    if margin >= -tol:
        return DPVerdict(DPStatus.IN_DP_PLUS, margin, None, bool(abs(margin) <= tol))
    if not closed[1] and np.ldexp(lb[1], e[1]) <= tol and np.ldexp(ub[1], e[1]) >= -tol:
        _solve_rows(both, np.array([1]), lb, ub, margins, nhat, e, eig)
    minus_margin = float(np.ldexp(margins[1], e[1]))
    k = E @ np.concatenate([[1.0], nhat[0]])
    l = E @ np.concatenate([[1.0], _partner(nhat, *data[1:])[0]])
    if minus_margin >= -tol:
        return DPVerdict(DPStatus.IN_DP_MINUS, margin, (k, l), bool(abs(minus_margin) <= tol))
    return DPVerdict(DPStatus.NOT_DP, margin, (k, l), False)


# ---------------------------------------------------------------------------
# single-sphere quadratic minimum: the flow null-cone check and the pair
# margin's bounds


def _quad_value(n, c, a, M):
    w = np.einsum("rde,re->rd", M, n) + a
    return c + np.einsum("rd,rd->r", a + w, n)


def _sphere_quadratic(a, M, steps=NEWTON_STEPS):
    """Minimizer over unit n of 2a.n + n.Mn for stacked (a, M), in closed
    form; returns (lam, b, nhat, Q) with the eigenvalues lam of M
    (ascending), b = Q^T a and the eigenvectors Q, component-major: (d, N),
    (d, N) and (d, d, N) with Q[:, j] the eigenvector of lam[j].

    With M = Q diag(lam) Q^T, the minimizer is n = Q y, y_i = -b_i / (lam_i
    - lam_1 + s), where s >= 0 solves |y| = 1 (the trust-region secular
    equation: More and Sorensen 1983; Gander, Golub and von Matt 1989).  Newton
    on 1/|y| - 1 (increasing, concave) climbs from the lower bound max_i |b_i|
    - (lam_i - lam_1) without passing the root; once its steps stop shrinking,
    s also takes the root of |y|^2 with the lowest eigenspace (gaps <= _POLE)
    one pole and the convex rest its tangent, short of the root too.  Rows
    move where Newton moves them, until none does.  If b is orthogonal to the
    lowest eigenspace and |y| <= 1 at s = 0 (the hard case), q_1 fills the norm."""
    lam, Q = np.linalg.eigh(M)
    # component-major arrays: the builtin sums below add whole components
    # in index order, the same arithmetic for every row
    lam, Q = lam.T, Q.transpose(1, 2, 0)
    b = sum(Q * a.T[:, None])  # Q^T a
    # a subnormal b_i is rounding residue; as zero it keeps every y_i^2 / t_i
    # below the overflow threshold (|y_i| <= 1 and t_i >= |b_i|)
    b = np.where(np.abs(b) >= np.finfo(float).tiny, b, 0.0)
    gap = lam - lam[0]
    s, last = np.max(np.abs(b) - gap, axis=0), np.inf

    def secular(s):
        # t = 1 where b_i = 0 keeps y_i = 0 without a 0/0 at s = gap_i = 0
        t = np.where(b != 0.0, gap + s, 1.0)
        y = -b / t
        return t, y, sum(y * y)

    for _ in range(steps):
        t, y, yy = secular(s)
        # Newton step -psi/psi' = |y|^2 (|y| - 1) / sum_i y_i^2 / t_i, <= 0 where |y| <= 1
        new = s + yy * (np.sqrt(yy) - 1.0) / np.where(yy > 1.0, sum(y * y / t), 1.0)
        if not np.any(move := new > s):
            break
        if len(i := np.flatnonzero(move & (new - s >= last))):  # Newton's steps stopped shrinking
            pole = gap[:, i] <= _POLE  # beta^2 / (s + shift)^2 is at most their share of |y|^2
            shift, beta = np.max(gap[:, i] * pole, axis=0), np.hypot.reduce(b[:, i] * pole, axis=0)
            rest = np.where(pole, 0.0, y[:, i] ** 2)  # R, with tangent R - g (s' - s)
            g = 2.0 * sum(rest / t[:, i])
            new[i] = np.fmax(new[i], _pole_root(beta, g, 1.0 - sum(rest) - g * (s[i] + shift)) - shift)
        s, last = np.where(move, new, s), new - s
    _, y, yy = secular(s)
    y[0] += np.where(s == 0.0, np.sqrt(np.maximum(1.0 - yy, 0.0)), 0.0)
    nhat = sum(np.swapaxes(Q, 0, 1) * y[:, None]).T.copy()  # Q y
    nhat /= np.linalg.norm(nhat, axis=1, keepdims=True)
    return lam, b, nhat, Q


def _pole_root(beta, g, A):
    """The root sigma > 0 of beta^2 / sigma^2 = A + g sigma (g >= 0), 0 if none, as beta /
    (rho v): v^3 - p v - q = 0 (|p|, q <= 1) by Cardano where v is its only real root, as q U^2
    / (U^4 - U^2 p / 3 + p^2 / 9) = U + p / 3U (no cancellation), else by cosines (p = 1)."""
    h, k = np.sqrt(np.abs(A)), np.cbrt(g * beta)
    rho = np.maximum(np.maximum(h, k), np.finfo(float).tiny)
    p, q = np.copysign((h / rho) ** 2, A), (k / rho) ** 3
    D = q * q / 4.0 - p ** 3 / 27.0
    U2 = np.cbrt(q / 2.0 + np.sqrt(np.maximum(D, 0.0))) ** 2
    v = np.where(D >= 0.0, _quotient(q * U2, U2 * U2 - U2 * p / 3.0 + p * p / 9.0),
                 np.cos(np.arccos(np.minimum(q * 27.0 ** 0.5 / 2.0, 1.0)) / 3.0) * 2.0 / 3.0 ** 0.5)
    return _quotient(beta, rho * v)


def null_quadratic_margins(Lhat):
    """min over future null k = e0 + n of L(k, k) = c + 2a.n + n.Mn for
    stacked frame tensors, in closed form (`_sphere_quadratic`); returns
    (margins, nhat).  The margin is the quadratic evaluated at nhat, on the
    row scaled by a power of two (`_unit_rows`)."""
    Lhat, e = _unit_rows(np.asarray(Lhat, dtype=float))
    c, a, M = _rows(Lhat)
    nhat = _sphere_quadratic(a, M)[2]
    return np.ldexp(_quad_value(nhat, c, a, M), e), nhat


# ---------------------------------------------------------------------------
# null eigenvectors and the conformal factor


def null_eigenvectors(point, T, tol=TOL_DP, residual_tol=1e-10, frame=None):
    """Null directions X with T(., X) proportional to G(., X): future
    representatives (lam, X), lam = (G X . T X) / |G X|^2.

    T = lam G is flagged degenerate, with a basis of n null directions.
    Otherwise T(k, k) >= 0 on the null cone is required (ValueError below
    -tol max|That|), and the null eigenvectors are then the zeros of the
    null-cone quadratic L(n) = T(e0 + n, e0 + n): none when its minimum
    (`_sphere_quadratic`) clears tol, else its minimizers, one point or the
    sphere yc + r S of the lowest eigenspace of M around yc, nhat with that
    eigenspace projected out.  The centre yc/|yc| is reported alone when it
    is a zero (nhat carries rounding residue along q_1 there); otherwise
    nhat and the spanning points yc + r q_j, yc - r q_1 that pass the
    eigen-residual check (relative residual_tol) and are future null.
    The arithmetic runs on T scaled by a power of two (`_unit_tensor`).
    """
    G = point.metric.matrix
    n = point.metric.dim
    E = orthonormal_frame(point) if frame is None else frame
    T, That, e = _unit_tensor(_check_sym(T, n), E)
    floor = np.ldexp(1.0, -e)
    A = np.linalg.solve(G, T)
    scale = max(floor, float(np.max(np.abs(A))))

    lam0 = float(np.trace(A)) / n
    if np.max(np.abs(A - lam0 * np.eye(n))) <= tol * scale:
        basis = [E[:, 0] + E[:, j] for j in range(1, n)]
        basis.append(E[:, 0] - E[:, 1])
        pairs = tuple((float(np.ldexp(lam0, e)), v) for v in basis)
        return NullEigenResult(pairs, True)

    c, a, M = _rows(That[None])
    lam, _, nhat, Q = _sphere_quadratic(a, M)
    lmin = float(_quad_value(nhat, c, a, M)[0])
    zero = tol * max(floor, float(np.max(np.abs(That))))
    if lmin < -zero:
        raise ValueError(f"null eigenvectors need T(k, k) >= 0 on the null cone, "
                         f"got a minimum of {np.ldexp(lmin, e):.3e}")
    if lmin > zero:
        return NullEigenResult((), False)
    nhat, low = nhat[0], Q[:, lam[:, 0] - lam[0, 0] <= zero, 0]
    yc = nhat - low @ (low.T @ nhat)
    r = np.sqrt(max(1.0 - float(yc @ yc), 0.0))

    def pair(m):
        v = E @ np.concatenate([[1.0], m / np.linalg.norm(m)])
        v /= np.linalg.norm(v)
        GX = G @ v
        mu = float(GX @ (T @ v)) / float(GX @ GX)
        if np.linalg.norm(A @ v - mu * v) > residual_tol * scale:
            return None
        if classify(G, E, point.future, v) is not CausalClass.FUTURE_NULL:
            return None
        return float(np.ldexp(mu, e)), v

    if yc @ yc > 0.0 and (centre := pair(yc)):
        return NullEigenResult((centre,), False)
    results = []
    for m in (nhat, *(yc + r * low.T), yc - r * low[:, 0]):
        p = pair(m)
        if p is not None and not any(abs(p[1] @ u) > 1.0 - 1e-9 for _, u in results):
            results.append(p)
    return NullEigenResult(tuple(results), False)


def dp_zero_test(point, T, X, tol=1e-8, frame=None):
    """Both sides of the zero-set equivalence for T in DPplus.

    Side one: T(X, X) vanishes.  Side two: X is a null eigenvector of T
    with respect to G.  Returns (value_zero, eigenvector) booleans; for
    tensors in DPplus the two must agree.  The arithmetic runs on T scaled
    by a power of two (`_unit_tensor`).
    """
    E = orthonormal_frame(point) if frame is None else frame
    verdict = dp2_check(point, T, frame=E)
    if verdict.status is not DPStatus.IN_DP_PLUS:
        raise ValueError(f"dp_zero_test needs a DPplus tensor, got {verdict.status.value}")
    cls = classify(point.metric.matrix, E, point.future, np.asarray(X, dtype=float))
    if not cls.is_future:
        raise ValueError(f"dp_zero_test needs a future causal X, got {cls.value}")

    G = point.metric.matrix
    T, That, e = _unit_tensor(_check_sym(T, point.metric.dim), E)
    Xh = np.linalg.solve(E, np.asarray(X, dtype=float))
    Xn = np.asarray(X, dtype=float) / np.linalg.norm(Xh)
    t_scale = max(np.ldexp(1.0, -e), float(np.max(np.abs(That))))

    value_zero = abs(float(Xn @ T @ Xn)) <= tol * t_scale

    TX = T @ Xn
    GX = G @ Xn
    lam = float(GX @ TX) / float(GX @ GX)
    residual = float(np.linalg.norm(E.T @ (TX - lam * GX)))
    eigen = residual <= tol * t_scale
    return value_zero, eigen


def conformal_lambdas(G, T, tol=TOL_CONF):
    """Per-row positive lambda with T = lambda G, NaN where there is none.

    The fit is the least-squares ratio <G, T> / <G, G> over the components
    (one G scaled exactly, by a power of two, so that no sum over- or
    underflows), exact where T = lambda G; it is accepted when the residual
    max|T - lambda G| in coordinates is below `tol` times max|T|.
    """
    Gs = G * np.ldexp(1.0, -np.frexp(_abs_max(G))[1])[:, None, None]
    lam = np.einsum("nij,nij->n", Gs, T) / np.einsum("nij,nij->n", Gs, G)
    resid = _abs_max(T - lam[:, None, None] * G)
    scale = np.maximum(_abs_max(T), 1e-300)
    return np.where((resid / scale < tol) & (lam > 0), lam, np.nan)


def conformal_factor(point, T, tol=TOL_CONF):
    """Positive lambda with T = lambda * G at one point, or None: the
    one-row case of `conformal_lambdas`."""
    T = _check_sym(T, point.metric.dim)
    lam = float(conformal_lambdas(point.metric.matrix[None], T[None], tol)[0])
    return None if np.isnan(lam) else lam
