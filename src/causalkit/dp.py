"""Dominant-property checks for covectors and symmetric 2-tensors.

A covector w is accepted (InDPplus) when w(k) >= 0 for every
future-directed causal k; a symmetric tensor T when T(k, l) >= 0 for
every pair of future-directed null k, l.  Both conditions are decided
in an orthonormal frame where future null vectors are k = e0 + n, n a
unit spatial direction.  The tensor case reduces, per outer direction
n, to a covector check whose minimum over the second slot is closed
form, so only the outer unit sphere is searched: a deterministic grid,
scanned a fixed-size chunk of tensors at a time to bound memory, whose
best few points seed a safeguarded Newton polish on the sphere.  The
quadratic of the flow null-cone check has a closed-form minimum on the
sphere (the trust-region secular equation), so it needs no search.

The reported margin is always the minimum of T over future null pairs
(or of w over future null vectors), so InDPplus holds exactly when the
margin clears -tol; the minus variant is decided by re-running on -T.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lorentz import CausalClass, classify, orthonormal_frame

TOL_DP = 1e-9
TOL_CONF = 1e-8
NEWTON_STEPS = 40  # Newton iteration cap, per grid start and for the secular equation
_POLISH_STARTS = 4
_SCAN_CHUNK = 64  # rows per grid-scan chunk


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
            scale = 1.0 + np.abs(Ht).max(axis=(1, 2))
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


def dp2_margins(That, steps=NEWTON_STEPS):
    """min over future null pairs of T(k, l) for stacked frame tensors.

    That has shape (N, n, n); returns (margins, nhat, mhat) where the
    witness pair is k = e0 + nhat, l = e0 + mhat in frame components.
    The _POLISH_STARTS best grid directions per tensor are Newton-polished
    for at most `steps` iterations; steps=0 returns the grid minimum alone.
    """
    That = np.asarray(That, dtype=float)
    a = That[:, 0, 1:]
    M = That[:, 1:, 1:]
    data = (That[:, 0, 0], a, M)
    N, d = a.shape
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
    wvec = np.einsum("nde,ne->nd", M, nhat) + a
    nwv = np.linalg.norm(wvec, axis=1)
    mhat = np.where(nwv[:, None] > 1e-300, -wvec / np.maximum(nwv, 1e-300)[:, None], nhat)
    return margins, nhat, mhat


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
    margin, nhat, mhat = dp2_margins(That[None])
    margin = float(margin[0])
    tol = tol_dp * max(1.0, float(np.max(np.abs(That))))
    k = E @ np.concatenate([[1.0], nhat[0]])
    l = E @ np.concatenate([[1.0], mhat[0]])

    if margin >= -tol:
        return DPVerdict(DPStatus.IN_DP_PLUS, margin, None, bool(abs(margin) <= tol))
    minus_margin, _, _ = dp2_margins(-That[None])
    if float(minus_margin[0]) >= -tol:
        return DPVerdict(DPStatus.IN_DP_MINUS, margin, (k, l), bool(abs(minus_margin[0]) <= tol))
    return DPVerdict(DPStatus.NOT_DP, margin, (k, l), False)


# ---------------------------------------------------------------------------
# single-sphere quadratic minimum (used by the flow null-cone check)


def _quad_value(n, c, a, M):
    w = np.einsum("rde,re->rd", M, n) + a
    return c + np.einsum("rd,rd->r", a + w, n)


def null_quadratic_margins(Lhat):
    """min over future null k = e0 + n of L(k, k) = c + 2a.n + n.Mn for
    stacked frame tensors, in closed form; returns (margins, nhat).

    With M = Q diag(lam) Q^T and b = Q^T a, the minimizer is n = Q y,
    y_i = -b_i / (lam_i - lam_1 + s), where s >= 0 solves |y| = 1 (the
    trust-region secular equation: More and Sorensen 1983; Gander, Golub
    and von Matt 1989).  1/|y| - 1 is increasing and concave in s, so Newton
    from the lower bound max_i |b_i| - (lam_i - lam_1) climbs to the root
    without overshooting; it stops when no row moves.  When b is orthogonal
    to the lowest eigenspace and |y| <= 1 at s = 0 (the hard case), s = 0
    and the rest of the unit norm is filled along q_1.  The margin is the
    quadratic evaluated at nhat."""
    Lhat = np.asarray(Lhat, dtype=float)
    c, a, M = Lhat[:, 0, 0], Lhat[:, 0, 1:], Lhat[:, 1:, 1:]
    lam, Q = np.linalg.eigh(M)
    # component-major arrays: the builtin sums below add whole components
    # in index order, the same arithmetic for every row
    lam, Q = lam.T, Q.transpose(1, 2, 0)
    b = sum(Q * a.T[:, None])  # Q^T a
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
    return _quad_value(nhat, c, a, M), nhat


# ---------------------------------------------------------------------------
# null eigenvectors and the conformal factor


def _null_directions_in_subspace(G, basis, tol):
    """Null directions of the restricted quadratic form on a subspace."""
    Q = basis.T @ G @ basis
    mu, U = np.linalg.eigh(0.5 * (Q + Q.T))
    scale = max(1.0, float(np.max(np.abs(mu))))
    out = []
    kernel = np.abs(mu) <= tol * scale
    for j in np.flatnonzero(kernel):
        out.append(basis @ U[:, j])
    pos = np.flatnonzero(mu > tol * scale)
    neg = np.flatnonzero(mu < -tol * scale)
    if len(pos) == 1:
        up = basis @ U[:, pos[0]] / np.sqrt(mu[pos[0]])
        for j in neg:
            un = basis @ U[:, j] / np.sqrt(-mu[j])
            out.append(up + un)
            out.append(up - un)
    return out


def null_eigenvectors(point, T, tol=TOL_DP, residual_tol=1e-10, frame=None):
    """Null directions X with T(., X) proportional to G(., X).

    Returns future representatives.  When T is a multiple of G every
    null direction qualifies; that degenerate spectrum is flagged and a
    basis of n independent null eigenvectors is returned.
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

    w, V = np.linalg.eig(A)
    candidates = []
    real = np.abs(w.imag) <= tol * scale
    for i in np.flatnonzero(real):
        v = V[:, i]
        if np.linalg.norm(v.imag) > 1e-8 * np.linalg.norm(v):
            continue
        candidates.append((float(w[i].real), v.real.copy()))

    # eigenvalue clusters: search each multi-dimensional eigenspace for
    # null directions the individual eigenvectors may have missed
    used = np.zeros(len(w), dtype=bool)
    for i in np.flatnonzero(real):
        if used[i]:
            continue
        group = np.flatnonzero(real & (np.abs(w - w[i]) <= 1e-6 * scale))
        used[group] = True
        if len(group) < 2:
            continue
        mat = V[:, group].real
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        basis = u[:, :rank]
        for v in _null_directions_in_subspace(G, basis, 1e-8):
            candidates.append((float(w[i].real), v))

    results = []
    for lam, v in candidates:
        v = v / np.linalg.norm(v)
        # one inverse-iteration step sharpens simple eigenpairs
        try:
            x = np.linalg.solve(A - lam * np.eye(n) + 1e-14 * scale * np.eye(n), v)
            x = x / np.linalg.norm(x)
            lam_x = float(x @ A @ x) / float(x @ x)
            if np.linalg.norm(A @ x - lam_x * x) < np.linalg.norm(A @ v - lam * v):
                v, lam = x, lam_x
        except np.linalg.LinAlgError:
            pass
        if np.linalg.norm(A @ v - lam * v) > residual_tol * scale:
            continue
        cls = classify(G, E, point.future, v)
        if cls not in (CausalClass.FUTURE_NULL, CausalClass.PAST_NULL):
            continue
        if cls is CausalClass.PAST_NULL:
            v = -v
        if any(abs(v @ u) > 1.0 - 1e-9 for _, u in results):
            continue
        results.append((lam, v))
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

    The fit is the generalized trace tr(G^-1 T)/n; it is accepted when the
    residual max|T - lambda G| in coordinates is below `tol` times max|T|.
    """
    n = G.shape[-1]
    lam = np.einsum("nii->n", np.linalg.solve(G, T)) / n
    resid = np.abs(T - lam[:, None, None] * G).max(axis=(1, 2))
    scale = np.maximum(np.abs(T).max(axis=(1, 2)), 1e-300)
    return np.where((resid / scale < tol) & (lam > 0), lam, np.nan)


def conformal_factor(point, T, tol=TOL_CONF):
    """Positive lambda with T = lambda * G at one point, or None: the
    one-row case of `conformal_lambdas`."""
    T = _check_sym(T, point.metric.dim)
    lam = float(conformal_lambdas(point.metric.matrix[None], T[None], tol)[0])
    return None if np.isnan(lam) else lam
