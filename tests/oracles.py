"""Independent reference minimizers used only by the test suite.

The tensor oracle enumerates T(k, l) over an angular pair grid of null
directions (base resolution 64x64 per sphere for n = 4, 2048 angles for
n = 3), then repeatedly zooms into a +-2 cell window around the best pair
at 33x33 resolution (33 angles for n = 3); n = 2 has the four pairs of
the two null directions.  Pure enumeration, no gradients, so it shares no
code or failure modes with the production solver.

With k = e0 + n and l = e0 + m, T(k, l) = c + a.n + a.m + n.M.m is one
dot product of augmented rows [nM, c + a.n, 1] . [m, 1, a.m], so each
block of pairs is a single matrix product.  T is symmetric, so on a
level where both slots share one window (the base level) each unordered
pair is enumerated once.

The grid-and-Newton pair search below is the solver's search reference:
a different method, kept for the tests that compare against it.  So is
`eigh_frames`, the spatial completion of a frame from the eigenvectors of
the projected negative metric, the reference of `lorentz.frames`.
"""

import numpy as np


def _dirs(window, m):
    """Unit directions on the angular grid of `window`: [theta_lo, theta_hi,
    phi_lo, phi_hi] on S^2, or [phi_lo, phi_hi] on S^1, m points an axis."""
    ph = np.linspace(window[-2], window[-1], m)
    if len(window) == 2:
        return np.stack([np.cos(ph), np.sin(ph)], axis=-1), (ph,)
    TH, PH = np.meshgrid(np.linspace(window[0], window[1], m), ph, indexing="ij")
    n = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1)
    return n.reshape(-1, 3), (TH.ravel(), PH.ravel())


def pair_min_oracle(That, base=None, zoom=33, levels=4):
    """min over future null pairs of T(k, l) for one 2x2, 3x3 or 4x4 frame
    tensor."""
    That = np.asarray(That, dtype=float)
    c = That[0, 0]
    a = That[0, 1:]
    M = That[1:, 1:]
    if len(a) == 1:
        return float(min(c + a[0] * (s + t) + M[0, 0] * s * t for s in (1, -1) for t in (1, -1)))
    if base is None:
        base = 64 if len(a) == 3 else 2048

    wn = [0.0, np.pi, 0.0, 2.0 * np.pi] if len(a) == 3 else [0.0, 2.0 * np.pi]
    wm = list(wn)
    best = np.inf
    for lev in range(levels):
        m = base if lev == 0 else zoom
        N, angn = _dirs(wn, m)
        L, angm = _dirs(wm, m)
        P = np.column_stack([N @ M, c + N @ a, np.ones(len(N))])
        Q = np.column_stack([L, np.ones(len(L)), L @ a])
        same = wn == wm
        # chunk the n-axis so the pair matrix stays small
        ibest = jbest = -1
        vbest = np.inf
        step = 64
        for lo in range(0, len(N), step):
            j0 = lo if same else 0
            vals = P[lo:lo + step] @ Q[j0:].T
            i, j = np.unravel_index(np.argmin(vals), vals.shape)
            if vals[i, j] < vbest:
                vbest = vals[i, j]
                ibest, jbest = lo + i, j0 + j
        best = min(best, vbest)
        # a +-2 cell window around the best pair on every angle
        wn = [x for lo, hi, ang in zip(wn[::2], wn[1::2], angn)
              for x in (ang[ibest] - 2 * (hi - lo) / (m - 1), ang[ibest] + 2 * (hi - lo) / (m - 1))]
        wm = [x for lo, hi, ang in zip(wm[::2], wm[1::2], angm)
              for x in (ang[jbest] - 2 * (hi - lo) / (m - 1), ang[jbest] + 2 * (hi - lo) / (m - 1))]
    return float(best)
# ---------------------------------------------------------------------------
# the grid-and-Newton pair search


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


def sphere_grid(d):
    """Unit directions on S^(d-1): both points for d = 1, 720 angles for
    d = 2, the icosphere refined three times (642 vertices) for d = 3."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return _icosphere(3)


def _pair_value(n, c, a, M):
    w = np.einsum("rde,re->rd", M, n) + a
    return c + np.einsum("rd,rd->r", a, n) - np.linalg.norm(w, axis=1), w


def _newton_polish(data, x, iters):
    """Newton on the sphere (tangent Hessian U^T H U - (g.n) I, a scaled
    gradient step where that is indefinite), halved up to 8 times until
    the pair value decreases."""
    r, d = x.shape
    eye = np.eye(min(d - 1, 2))
    _, a, M = data
    f, w = _pair_value(x, *data)
    for _ in range(iters):
        nw = np.maximum(np.linalg.norm(w, axis=1), 1e-300)
        what = w / nw[:, None]
        g = a - np.einsum("rde,re->rd", M, what)
        gdn = np.einsum("rd,rd->r", g, x)
        gt = g - gdn[:, None] * x
        act = np.linalg.norm(gt, axis=1) > 1e-13 * (1.0 + np.abs(f))
        if not np.any(act):
            break
        if d == 2:
            U = np.stack([-x[:, 1], x[:, 0]], axis=1)[:, :, None]
        else:
            e = np.eye(d)[np.argmin(np.abs(x), axis=1)]
            u = e - np.einsum("rd,rd->r", e, x)[:, None] * x
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            U = np.stack([u, np.cross(x, u)], axis=2)
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
            delta = np.where(pd[:, None], -np.einsum("rkl,rl->rk", inv, gtan),
                             -gtan / scale[:, None])
        todo = act.copy()
        t = 1.0
        for _ in range(8):
            if not np.any(todo):
                break
            cand = x[todo] + t * np.einsum("rdk,rk->rd", U[todo], delta[todo])
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            fc, wc = _pair_value(cand, *(y[todo] for y in data))
            ok = fc < f[todo]
            iok = np.flatnonzero(todo)[ok]
            x[iok], f[iok], w[iok] = cand[ok], fc[ok], wc[ok]
            todo[iok] = False
            t *= 0.5
    return x, f


def pair_search(That, steps=40, starts=4, chunk=256):
    """min over future null pairs of T(k, l) for stacked (N, n, n) frame
    tensors by search: the `starts` lowest points per row of `sphere_grid`
    (scanned `chunk` rows at a time), each Newton-polished for at most
    `steps` iterations.  Returns (margins, nhat)."""
    That = np.asarray(That, dtype=float)
    c, a, M = That[:, 0, 0], That[:, 0, 1:], That[:, 1:, 1:]
    N, d = a.shape
    grid = sphere_grid(d)
    k = min(starts, len(grid))
    idx = np.empty((N, k), dtype=np.intp)
    for lo in range(0, N, chunk):
        sl = slice(lo, lo + chunk)
        W = np.einsum("gd,nde->nge", grid, M[sl]) + a[sl, None, :]
        vals = c[sl, None] + a[sl] @ grid.T - np.linalg.norm(W, axis=2)
        idx[sl] = np.argpartition(vals, k - 1, axis=1)[:, :k]
    rows = tuple(np.repeat(x, k, axis=0) for x in (c, a, M))
    x, f = (_newton_polish(rows, grid[idx.ravel()], steps) if d >= 2 and steps > 0
            else (grid[idx.ravel()], _pair_value(grid[idx.ravel()], *rows)[0]))
    best = np.arange(N) * k + np.argmin(f.reshape(N, k), axis=1)
    return f[best], x[best]


# ---------------------------------------------------------------------------
# the eigenvector frame completion


def eigh_frames(G, e0):
    """Frames (N, n, n) with time axis e0 (N, n) and spatial columns from the
    eigenvectors of the projected negative metric H = -P^T G P, P = I - e0
    (G e0)^T, largest-magnitude component positive.  No check: a direction
    with an eigenvalue of H at or below 0 comes out of size 1e150."""
    n = G.shape[-1]
    Ge0 = np.einsum("bij,bj->bi", G, e0)
    P = np.eye(n)[None] - e0[:, :, None] * Ge0[:, None, :]
    H = -(np.swapaxes(P, -1, -2) @ G @ P)
    hv, hw = np.linalg.eigh(H)
    spatial = P @ hw[..., 1:] / np.sqrt(np.maximum(hv[..., 1:], 1e-300))[:, None, :]
    idx = np.argmax(np.abs(spatial), axis=1)
    picked = np.take_along_axis(spatial, idx[:, None, :], axis=1)[:, 0, :]
    spatial = spatial * np.where(picked >= 0.0, 1.0, -1.0)[:, None, :]
    return np.concatenate([e0[:, :, None], spatial], axis=2)
