"""Dominant-property checks for covectors and symmetric 2-tensors.

A covector w is accepted (InDPplus) when w(k) >= 0 for every
future-directed causal k; a symmetric tensor T when T(k, l) >= 0 for
every pair of future-directed null k, l.  Both conditions are decided
in an orthonormal frame where future null vectors are k = e0 + n, n a
unit spatial direction.  The tensor case reduces, per outer direction
n, to a covector check whose minimum over the second slot is closed
form.

Bounds first, search last.  One eigen-decomposition of the spatial block
gives two bounds on the pair margin: the diagonal pairs k = l (the
null-cone quadratic, minimized on the sphere in closed form by the
trust-region secular equation) from above, and the same problem relaxed
to a ball from below.  Where they meet, which is always the case when the
spatial block is negative semidefinite (every near-conformal pullback),
the margin is closed form.  Only the other rows are searched on the
outer unit sphere: a deterministic grid, scanned a fixed-size chunk of
tensors at a time to bound memory, whose best few points seed a
safeguarded Newton polish on the sphere.  The flow null-cone check and
the null eigenvectors (its zeros) need the quadratic alone.

The reported margin is always the minimum of T over future null pairs
(or of w over future null vectors), so InDPplus holds exactly when the
margin clears -tol.  The minus variant is decided on -T, which is
searched only when T fails and the bounds of -T straddle the band
[-tol, tol]; otherwise they decide it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lorentz import CausalClass, _abs_max, classify, orthonormal_frame

TOL_DP = 1e-9
TOL_CONF = 1e-8
NEWTON_STEPS = 40  # Newton iteration cap, per grid start and for the secular equation
_POLISH_STARTS = 4
_SCAN_CHUNK = 64  # rows per grid-scan chunk
_CLOSED = 1e-12  # bound gap, relative to max|That|, below which a row's margin is closed form
_SANDWICH = 1e-12  # slack, relative to max|That|, of lb <= margin <= ub on a searched row


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
    """A searched pair margin left the closed-form bounds of row `index`:
    an internal fault, whatever the input."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class NullEigenResult:
    pairs: tuple
    degenerate: bool


# ---------------------------------------------------------------------------
# direction grids


def _icosphere(levels):
    t = (1.0 + 5.0 ** 0.5) / 2.0
    verts = [(-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
             (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
             (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1)]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    verts = [np.array(v, float) / np.linalg.norm(v) for v in verts]
    for _ in range(levels):
        cache = {}
        out = []

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = out
    return np.array(verts)


@lru_cache(maxsize=None)
def sphere_directions(d):
    """Deterministic unit-direction grid on S^(d-1).

    d = 1 enumerates both points, d = 2 uses 720 angles, d = 3 the
    icosphere refined three times (12 -> 42 -> 162 -> 642 vertices).
    Higher d is outside the supported catalog dimensions.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if d == 3:
        return _icosphere(3)
    raise ValueError(f"direction grids support spatial dimension 1..3, got {d}")


# ---------------------------------------------------------------------------
# null-pair search on the unit sphere, on rows (c, a, M) = (T00, T0i, Tij):
# a grid scan whose lowest points seed a Newton polish


def _grid_scan(grid, data, k):
    """Indices and values of the k lowest grid points per row, scanned
    _SCAN_CHUNK rows at a time so no (N, G) array is built."""
    gT = np.ascontiguousarray(grid.T)
    start_idx = np.empty((len(data[0]), k), dtype=np.intp)
    start_vals = np.empty((len(data[0]), k))
    for lo in range(0, len(data[0]), _SCAN_CHUNK):
        sl = slice(lo, lo + _SCAN_CHUNK)
        vals = _pair_scan(gT, *(x[sl] for x in data))
        idx = np.argpartition(vals, k - 1, axis=1)[:, :k]
        start_idx[sl] = idx
        start_vals[sl] = np.take_along_axis(vals, idx, 1)
    return start_idx, start_vals


def _newton_polish(data, nn, iters):
    """Newton on the sphere (tangent Hessian U^T H U - (g.n) I, a scaled gradient
    step where that is indefinite), halved up to 8 times until f decreases.

    Only rows that moved in the last iteration are carried into the next:
    a converged or unmoved row would repeat the same arithmetic on the same
    state, so dropping it changes no result."""
    r, d = nn.shape
    eye = np.eye(min(d - 1, 2))
    f, w = _pair_value(nn, *data)
    live = np.arange(r)
    x, fl = nn, f
    for _ in range(iters):
        _, a, M = data
        nw = np.maximum(np.linalg.norm(w, axis=1), 1e-300)
        what = w / nw[:, None]
        g = a - np.einsum("rde,re->rd", M, what)
        gdn = np.einsum("rd,rd->r", g, x)
        gt = g - gdn[:, None] * x
        act = np.linalg.norm(gt, axis=1) > 1e-13 * (1.0 + np.abs(fl))
        if not np.any(act):
            break
        if d == 2:
            U = np.stack([-x[:, 1], x[:, 0]], axis=1)[:, :, None]
        else:
            e = np.eye(d)[np.argmin(np.abs(x), axis=1)]
            u = e - np.einsum("rd,rd->r", e, x)[:, None] * x
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            U = np.stack([u, np.cross(x, u)], axis=2)
        # Euclidean Hessian -(MU)^T (I - what what^T) MU / |w|, steep near
        # the w = 0 kink
        MU = np.einsum("rde,rek->rdk", M, U)
        PU = MU - what[:, :, None] * np.einsum("rd,rdk->rk", what, MU)[:, None, :]
        Ht = -np.einsum("rdk,rdl->rkl", MU, PU) / nw[:, None, None]
        Ht -= gdn[:, None, None] * eye
        gtan = np.einsum("rdk,rd->rk", U, gt)
        if d == 2:
            h = Ht[:, 0, 0]
            delta = -gtan / np.where(h > 1e-300, h, np.abs(h) + 1.0)[:, None]
        else:
            det = Ht[:, 0, 0] * Ht[:, 1, 1] - Ht[:, 0, 1] * Ht[:, 1, 0]
            pd = (det > 0) & (Ht[:, 0, 0] + Ht[:, 1, 1] > 0)
            dsafe = np.where(pd, det, 1.0)
            inv = np.stack([Ht[:, 1, 1], -Ht[:, 0, 1], -Ht[:, 1, 0], Ht[:, 0, 0]],
                           axis=1).reshape(-1, 2, 2) / dsafe[:, None, None]
            scale = 1.0 + _abs_max(Ht)
            delta = np.where(pd[:, None], -np.einsum("rkl,rl->rk", inv, gtan), -gtan / scale[:, None])
        moved = np.zeros(len(x), dtype=bool)
        t = 1.0
        for _ in range(8):
            todo = act & ~moved
            if not np.any(todo):
                break
            cand = x[todo] + t * np.einsum("rdk,rk->rd", U[todo], delta[todo])
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            fc, wc = _pair_value(cand, *(y[todo] for y in data))
            ok = fc < fl[todo]
            iok = np.flatnonzero(todo)[ok]
            x[iok] = cand[ok]
            fl[iok] = fc[ok]
            w[iok] = wc[ok]
            moved[iok] = True
            t *= 0.5
        nn[live] = x
        f[live] = fl
        live, x, fl, w = live[moved], x[moved], fl[moved], w[moved]
        if not len(live):
            break
        data = tuple(y[moved] for y in data)
    return nn, f


# ---------------------------------------------------------------------------
# batched tensor margin over null pairs: min over the second slot
# e0 + m of T(e0 + n, e0 + m) is c + a.n - |Mn + a|


def _rows(That):
    """(c, a, M) = (T00, T0i, Tij) of stacked frame tensors."""
    return That[:, 0, 0], That[:, 0, 1:], That[:, 1:, 1:]


def _pair_scan(gT, c, a, M):
    # a one-row a @ gT takes BLAS's matrix-vector path, which rounds
    # differently from a longer chunk; scan a lone row as two equal rows
    if len(c) == 1:
        return _pair_scan(gT, *(np.repeat(x, 2, axis=0) for x in (c, a, M)))[:1]
    # W and |W|^2 summed over d in index order without FMA equal the einsum
    # "gd,nde->nge" + np.linalg.norm scan bit for bit (np.matmul would not)
    W = M[:, 0, :, None] * gT[0]
    for j in range(1, len(gT)):
        W += M[:, j, :, None] * gT[j]
    W += a[:, :, None]
    sq = W[:, 0] * W[:, 0]
    for j in range(1, len(gT)):
        sq += W[:, j] * W[:, j]
    return c[:, None] + a @ gT - np.sqrt(sq)


def _pair_value(n, c, a, M):
    w = np.einsum("rde,re->rd", M, n) + a
    return c + np.einsum("rd,rd->r", a, n) - np.linalg.norm(w, axis=1), w


def _pair_search(data, steps):
    """Grid scan and Newton polish of the pair margin on rows (c, a, M):
    the _POLISH_STARTS best grid directions per row are polished for at
    most `steps` iterations; steps=0 keeps the grid minimum.  Returns
    (margins, nhat)."""
    N, d = data[1].shape
    grid = sphere_directions(d)
    k = min(_POLISH_STARTS, grid.shape[0])
    start_idx, start_vals = _grid_scan(grid, data, k)
    jbest = np.argmin(start_vals, axis=1)
    margins = start_vals[np.arange(N), jbest]
    nhat = grid[start_idx[np.arange(N), jbest]]
    if d >= 2 and steps > 0:
        rows = tuple(np.repeat(x, k, axis=0) for x in data)
        nn, f = _newton_polish(rows, grid[start_idx.ravel()], steps)
        best = np.arange(N) * k + np.argmin(f.reshape(N, k), axis=1)
        better = f[best] < margins
        margins = np.where(better, f[best], margins)
        nhat[better] = nn[best][better]
    return margins, nhat


def _pair_bounds(That):
    """Bounds on the pair margin of each row from one `eigh` of M.

    With p = (n + m)/2 and q = (n - m)/2 (p orthogonal to q, |p|^2 + |q|^2
    = 1), T(e0 + n, e0 + m) = c + 2a.p + p.Mp - q.Mq.  The diagonal pairs
    q = 0 give the upper bound ub, the null-cone quadratic at its sphere
    minimizer nhat.  Bounding -q.Mq below by -lam_max (1 - |p|^2) gives the
    lower bound lb, the minimum over the ball |p| <= 1 of c - lam_max + 2a.p
    + p.(M + lam_max I)p.  That objective equals the quadratic on the
    sphere, so lb = ub unless the ball minimum is interior, which needs
    M + lam_max I > 0 and |(M + lam_max I)^-1 a| < 1.  A row is closed when
    ub - lb <= _CLOSED times its scale max|That|; its margin is then the pair
    value at nhat.  Returns (lb, ub, nhat, closed)."""
    c, a, M = _rows(That)
    lam, b, nhat, _ = _sphere_quadratic(a, M)
    ub = _quad_value(nhat, c, a, M)
    A = lam + lam[-1]
    # |b_i| < A_i for every i is needed for an interior minimum; testing it
    # first keeps b / A from overflowing where A is tiny
    inside = (A[0] > 0.0) & np.all(np.abs(b) < A, axis=0)
    y = np.where(inside, b, 0.0) / np.where(inside, A, 1.0)
    inside &= sum(y * y) < 1.0
    lb = np.where(inside, c - lam[-1] - sum(b * y), ub)
    closed = ub - lb <= _CLOSED * _abs_max(That)
    return lb, ub, nhat, closed


def _partner(nhat, a, M):
    """The second slot's minimizer mhat = -(M nhat + a)/|M nhat + a|, or
    nhat where that vanishes."""
    wvec = np.einsum("nde,ne->nd", M, nhat) + a
    nwv = np.linalg.norm(wvec, axis=1)
    return np.where(nwv[:, None] > 1e-300, -wvec / np.maximum(nwv, 1e-300)[:, None], nhat)


def _search_rows(That, todo, lb, ub, margins, nhat, steps=NEWTON_STEPS):
    """Search the rows `todo` of That into margins and nhat, which hold the
    pair at the bounds' nhat on entry, in place.  The polish can stall short
    of a flat hard-case minimum, so where it ends more than _SANDWICH
    max|That| above ub that pair is kept; a margin as far below lb raises
    SandwichError."""
    found, fn = _pair_search(tuple(x[todo] for x in _rows(That)), steps)
    lb, ub = lb[todo], ub[todo]
    eps = _SANDWICH * _abs_max(That[todo])
    keep = found > ub + eps
    found[keep], fn[keep] = margins[todo[keep]], nhat[todo[keep]]
    out = np.flatnonzero(~((lb - eps <= found) & (found <= ub + eps)))
    if len(out):
        j = out[0]
        raise SandwichError(f"searched pair margin {found[j]:.17g} of row {todo[j]} left "
                            f"its bounds [{lb[j]:.17g}, {ub[j]:.17g}]", int(todo[j]))
    margins[todo], nhat[todo] = found, fn


def dp2_margins(That, steps=NEWTON_STEPS):
    """min over future null pairs of T(k, l) for stacked frame tensors.

    That has shape (N, n, n); returns (margins, nhat, mhat) where the
    witness pair is k = e0 + nhat, l = e0 + mhat in frame components.
    Bounds first: on the rows where the bounds of `_pair_bounds` meet, the
    margin is closed form.  Only the other rows are searched: the
    _POLISH_STARTS best grid directions per tensor are Newton-polished for
    at most `steps` iterations and held to the row's bounds
    (`_search_rows`).  steps=0 returns the grid minimum alone, on every row.
    Each row's result depends on that row alone.
    """
    That = np.asarray(That, dtype=float)
    data = _rows(That)
    if steps == 0:
        # contiguous copies, as `_search_rows` passes its rows: einsum's loop
        # order (and so its rounding) can follow the operands' strides
        margins, nhat = _pair_search(tuple(x.copy() for x in data), 0)
    else:
        lb, ub, nhat, closed = _pair_bounds(That)
        margins = _pair_value(nhat, *data)[0]
        todo = np.flatnonzero(~closed)
        if len(todo):
            _search_rows(That, todo, lb, ub, margins, nhat, steps)
    return margins, nhat, _partner(nhat, *data[1:])


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
    """Decide T(k, l) >= 0 over future null pairs for symmetric T."""
    E = orthonormal_frame(point) if frame is None else frame
    n = point.metric.dim
    T = _check_sym(T, n)
    That = E.T @ T @ E
    tol = tol_dp * max(1.0, float(np.max(np.abs(That))))
    # T and -T share the bounds.  A row is searched only where they leave
    # it open: T's unless closed, -T's only when T fails and -T's bounds
    # straddle the band [-tol, tol].  Otherwise -T's pair value at nhat
    # lies between its bounds, on the side of the band that decides.
    both = np.stack([That, -That])
    data = _rows(both)
    lb, ub, nhat, closed = _pair_bounds(both)
    margins = _pair_value(nhat, *data)[0]

    if not closed[0]:
        _search_rows(both, np.array([0]), lb, ub, margins, nhat)
    margin = float(margins[0])
    if margin >= -tol:
        return DPVerdict(DPStatus.IN_DP_PLUS, margin, None, bool(abs(margin) <= tol))
    if not closed[1] and lb[1] <= tol and ub[1] >= -tol:
        _search_rows(both, np.array([1]), lb, ub, margins, nhat)
    minus_margin = float(margins[1])
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


def _sphere_quadratic(a, M):
    """Minimizer over unit n of 2a.n + n.Mn for stacked (a, M), in closed
    form; returns (lam, b, nhat, Q) with the eigenvalues lam of M
    (ascending), b = Q^T a and the eigenvectors Q, component-major: (d, N),
    (d, N) and (d, d, N) with Q[:, j] the eigenvector of lam[j].

    With M = Q diag(lam) Q^T, the minimizer is n = Q y,
    y_i = -b_i / (lam_i - lam_1 + s), where s >= 0 solves |y| = 1 (the
    trust-region secular equation: More and Sorensen 1983; Gander, Golub
    and von Matt 1989).  1/|y| - 1 is increasing and concave in s, so Newton
    from the lower bound max_i |b_i| - (lam_i - lam_1) climbs to the root
    without overshooting; it stops when no row moves.  When b is orthogonal
    to the lowest eigenspace and |y| <= 1 at s = 0 (the hard case), s = 0
    and the rest of the unit norm is filled along q_1."""
    lam, Q = np.linalg.eigh(M)
    # component-major arrays: the builtin sums below add whole components
    # in index order, the same arithmetic for every row
    lam, Q = lam.T, Q.transpose(1, 2, 0)
    b = sum(Q * a.T[:, None])  # Q^T a
    # a subnormal b_i is rounding residue; as zero it keeps every y_i^2 / t_i
    # below the overflow threshold (|y_i| <= 1 and t_i >= |b_i|)
    b = np.where(np.abs(b) >= np.finfo(float).tiny, b, 0.0)
    gap = lam - lam[0]
    s = np.max(np.abs(b) - gap, axis=0)

    def secular(s):
        # t = 1 where b_i = 0 keeps y_i = 0 without a 0/0 at s = gap_i = 0
        t = np.where(b != 0.0, gap + s, 1.0)
        y = -b / t
        return t, y, sum(y * y)

    for _ in range(NEWTON_STEPS):
        t, y, yy = secular(s)
        grow = yy > 1.0
        q = sum(y * y / t)
        # Newton step -psi/psi' = |y|^2 (|y| - 1) / sum_i y_i^2 / t_i
        new = s + np.where(grow, yy * (np.sqrt(yy) - 1.0) / np.where(grow, q, 1.0), 0.0)
        if not np.any(new > s):
            break
        s = new
    _, y, yy = secular(s)
    y[0] += np.where(s == 0.0, np.sqrt(np.maximum(1.0 - yy, 0.0)), 0.0)
    nhat = sum(np.swapaxes(Q, 0, 1) * y[:, None]).T.copy()  # Q y
    nhat /= np.linalg.norm(nhat, axis=1, keepdims=True)
    return lam, b, nhat, Q


def null_quadratic_margins(Lhat):
    """min over future null k = e0 + n of L(k, k) = c + 2a.n + n.Mn for
    stacked frame tensors, in closed form (`_sphere_quadratic`); returns
    (margins, nhat).  The margin is the quadratic evaluated at nhat."""
    Lhat = np.asarray(Lhat, dtype=float)
    c, a, M = _rows(Lhat)
    nhat = _sphere_quadratic(a, M)[2]
    return _quad_value(nhat, c, a, M), nhat


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
    """
    G = point.metric.matrix
    n = point.metric.dim
    T = _check_sym(T, n)
    E = orthonormal_frame(point) if frame is None else frame
    A = np.linalg.solve(G, T)
    scale = max(1.0, float(np.max(np.abs(A))))

    lam0 = float(np.trace(A)) / n
    if np.max(np.abs(A - lam0 * np.eye(n))) <= tol * scale:
        basis = [E[:, 0] + E[:, j] for j in range(1, n)]
        basis.append(E[:, 0] - E[:, 1])
        pairs = tuple((lam0, v) for v in basis)
        return NullEigenResult(pairs, True)

    That = E.T @ T @ E
    c, a, M = _rows(That[None])
    lam, _, nhat, Q = _sphere_quadratic(a, M)
    lmin = float(_quad_value(nhat, c, a, M)[0])
    zero = tol * max(1.0, float(np.max(np.abs(That))))
    if lmin < -zero:
        raise ValueError(f"null eigenvectors need T(k, k) >= 0 on the null cone, "
                         f"got a minimum of {lmin:.3e}")
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
        return mu, v

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
    tensors in DPplus the two must agree.
    """
    E = orthonormal_frame(point) if frame is None else frame
    verdict = dp2_check(point, T, frame=E)
    if verdict.status is not DPStatus.IN_DP_PLUS:
        raise ValueError(f"dp_zero_test needs a DPplus tensor, got {verdict.status.value}")
    cls = classify(point.metric.matrix, E, point.future, np.asarray(X, dtype=float))
    if not cls.is_future:
        raise ValueError(f"dp_zero_test needs a future causal X, got {cls.value}")

    G = point.metric.matrix
    T = _check_sym(T, point.metric.dim)
    Xh = np.linalg.solve(E, np.asarray(X, dtype=float))
    Xn = np.asarray(X, dtype=float) / np.linalg.norm(Xh)
    That = E.T @ T @ E
    t_scale = max(1.0, float(np.max(np.abs(That))))

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
