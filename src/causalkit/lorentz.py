"""Pointwise Lorentzian linear algebra.

Metrics use signature (+, -, ..., -): causal vectors have nonnegative
squared norm and the single positive eigenvalue direction is timelike.
A declared future-pointing causal vector fixes the time orientation at
each point; every classification here is relative to that choice.

Frame construction and classification accept stacked inputs (leading
batch axis) and treat every point with the same array operations, so
region-sized workloads avoid per-point Python overhead.  A frame's time
axis is the normalized declared future; its spatial axes come from a
Cholesky factorization of the negative metric projected off that axis,
with the pivot order fixed per point, written out as n - 1 whole-batch
steps (no eigen-solver).  Classification reads only a frame's time axis,
and the chart rules are batched masks.  A frame also proves its metric
Lorentzian: by Ostrowski's quantitative form of Sylvester's law of inertia
(Ostrowski 1959), E^T G E = diag(1, -1, ..., -1) bounds every |eigenvalue of
G| below by about 1/|E|_F^2, so `_lorentzian` runs the eigen-solver only on
the rows where that bound does not settle `_signature`'s cut.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

TOL_NULL = 1e-9
FRAME_TOL = 1e-10
_ZERO_NORM_SQ = 1e-26
_DIV_FLOOR = 1e-13


class AsymmetricError(ValueError):
    pass


class SignatureError(ValueError):
    def __init__(self, n_pos, n_neg, n_zero):
        super().__init__(
            f"expected Lorentzian signature (1 positive, rest negative); "
            f"got {n_pos} positive, {n_neg} negative, {n_zero} near-zero eigenvalues"
        )
        self.n_pos = n_pos
        self.n_neg = n_neg
        self.n_zero = n_zero


class DegenerateMetricError(ArithmeticError):
    """No time axis or frame at sample `index` (the first failing one)."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class CausalClass(enum.Enum):
    FUTURE_TIMELIKE = "FutureTimelike"
    PAST_TIMELIKE = "PastTimelike"
    FUTURE_NULL = "FutureNull"
    PAST_NULL = "PastNull"
    SPACELIKE = "Spacelike"
    ZERO = "Zero"

    @property
    def is_future(self):
        return self in (CausalClass.FUTURE_TIMELIKE, CausalClass.FUTURE_NULL)

    @property
    def is_causal(self):
        return self not in (CausalClass.SPACELIKE, CausalClass.ZERO)


_CLASSES = np.array(list(CausalClass), dtype=object)
_CODE = {c: i for i, c in enumerate(CausalClass)}


@dataclass(frozen=True)
class MetricValue:
    dim: int
    matrix: np.ndarray


def _abs_max(X):
    """max|X| over the last two axes, equal to np.abs(X).max(axis=(-2, -1)).
    numpy's reduction loops inside each small matrix, so |X| is written with
    the batch axes last and the maximum runs across the whole batch instead."""
    return np.abs(X.T, order="C").max(axis=(0, 1)).T


def _signature(G, zero_tol=1e-12):
    """Mask of Lorentzian symmetric G (..., n, n), its ascending eigenvalues w
    and their zero cut, zero_tol times the spectral radius: one eigenvalue
    above the cut and n - 1 below -cut are the two largest straddling it."""
    w = np.linalg.eigvalsh(G)
    cut = zero_tol * np.maximum(np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1])), 1e-300)
    # NaN eigenvalues come out unsorted
    return (w[..., -1] > cut) & (w[..., -2] < -cut) & ~np.isnan(w).any(axis=-1), w, cut


def _lorentzian(G, E=None, zero_tol=1e-12):
    """`_signature`'s mask of G (N, n, n), read off frames E with E^T G E = eta
    to FRAME_TOL (see `frames`) where they prove it: the eigen-solver runs on
    the other rows only, and on every row without frames.

    A frame proves its row when 2 zero_tol n max|G| |E|_F^2 < 1.  For then
    E^T G E = eta + R makes G congruent to a matrix with one eigenvalue within
    |R|_2 of 1 and n - 1 within |R|_2 of -1, so G has their signs, and by
    Ostrowski's theorem |lambda(G)| >= (1 - |R|_2) / sigma_max(E)^2 >=
    (1 - |R|_2) / |E|_F^2.  The cut is zero_tol times the spectral radius, at
    most zero_tol n max|G|, under half that.  The bound also holds the
    rounding of the computed residual to n 1.1e-4 (below 1e-3 up to n = 8), so
    |R|_2 < 0.01 and the eigenvalues clear the cut twice over.  NaN rows fail
    the bound."""
    if E is None:
        return _signature(G, zero_tol)[0]
    ok = 2.0 * zero_tol * G.shape[-1] * _abs_max(G) * np.einsum("nij,nij->n", E, E) < 1.0
    if not ok.all():
        ok[~ok] = _signature(G[~ok], zero_tol)[0]
    return ok


def _future_causal(G, f):
    """Mask of nonzero future fields f with g(f, f) >= -TOL_NULL |f|^2 max|G|."""
    q = np.einsum("...i,...ij,...j->...", f, G, f)
    scale = np.einsum("...i,...i->...", f, f) * _abs_max(G)
    return (scale > 0) & (q >= -TOL_NULL * scale)


def validate_metric(matrix, sym_tol=1e-12, zero_tol=1e-12):
    """Check symmetry and Lorentzian signature; returns a MetricValue."""
    G = np.asarray(matrix, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"metric must be square, got shape {G.shape}")
    scale = max(1.0, float(np.max(np.abs(G))))
    if np.max(np.abs(G - G.T)) > sym_tol * scale:
        raise AsymmetricError(f"metric asymmetric beyond {sym_tol} (relative)")
    ok, w, cut = _signature(0.5 * (G + G.T), zero_tol)
    if not ok:
        zero = np.abs(w) <= cut
        raise SignatureError(*(int(np.sum(m)) for m in ((w > 0) & ~zero, (w < 0) & ~zero, zero)))
    return MetricValue(G.shape[0], G)


@dataclass(frozen=True)
class OrientedPoint:
    """A point's coordinates, metric value and declared future direction."""

    coords: np.ndarray
    metric: MetricValue
    future: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "future", np.asarray(self.future, dtype=float))
        f, G = self.future, self.metric.matrix
        if float(f @ f) == 0.0:
            raise ValueError("future vector must be nonzero")
        if not _future_causal(G, f):
            raise ValueError(f"declared future vector is spacelike (g(f,f) = {float(f @ G @ f)})")


def _time_axis(G, f):
    """Future unit timelike vectors e0 (N, n) of metrics G (N, n, n): the
    declared future f, pushed into the cone when not timelike, normalized."""
    scale = np.maximum(1.0, _abs_max(G)) * np.einsum("bi,bi->b", f, f)
    q = np.einsum("bi,bij,bj->b", f, G, f)

    seed = f.copy()
    weak = q <= TOL_NULL * scale
    if np.any(weak):
        # push a non-timelike declared future into the cone along the
        # timelike eigendirection, oriented to the same half
        u = np.linalg.eigh(G[weak])[1][..., -1]
        s = np.einsum("bi,bij,bj->b", u, G[weak], f[weak])
        sign = np.where(s >= 0.0, 1.0, -1.0)
        fn = f[weak] / np.linalg.norm(f[weak], axis=-1, keepdims=True)
        seed[weak] = fn + sign[:, None] * u
        q = np.einsum("bi,bij,bj->b", seed, G, seed)

    root = np.sqrt(np.maximum(q, 0.0))
    if np.any(bad := root < _DIV_FLOOR):
        raise DegenerateMetricError("timelike normalization below 1e-13", int(np.argmax(bad)))
    return seed / root[:, None]


@functools.cache
def _frame_constants(n):
    """For each axis j of n left out, the other n - 1 axes in order, (n, n - 1),
    and the identity's columns at them, (n, n, n - 1); and diag(1, -1, ..., -1)."""
    keep = np.array([[i for i in range(n) if i != j] for j in range(n)])
    return keep, np.eye(n)[:, keep].transpose(1, 0, 2), np.diag([1.0] + [-1.0] * (n - 1))


def frames(G, future, tol=FRAME_TOL):
    """Orthonormal frames E with E^T G E = diag(1, -1, ..., -1), batched.

    G has shape (..., n, n) and future (..., n); the result matches.
    Column 0 is the time axis e0 (see `_time_axis`).  The spatial columns
    complete it from the g-projections P e_j = e_j - e0 w_j of the
    coordinate axes, w = G e0: their Gram matrix under -g is H = w w^T - G,
    positive semidefinite with H e0 = 0, factored by Cholesky with the pivot
    order fixed per point.  Since adj H is a positive multiple of e0 e0^T,
    leaving out the axis where |e0| is largest keeps the principal block of
    H with the largest determinant; the Cholesky factor L of that block (in
    axis order: a positive definite block needs no further pivoting) turns
    the kept P e_{p_k} into the columns s_k = (P e_{p_k} - sum_{i<k} L[k, i]
    s_i) / L[k, k].  The positive pivots L[k, k] fix every sign.
    """
    G, f = np.asarray(G, dtype=float), np.asarray(future, dtype=float)
    squeeze = G.ndim == 2
    if squeeze:
        G, f = G[None], f[None]
    n = G.shape[-1]
    m = n - 1
    e0 = _time_axis(G, f)

    keep, unit, eta = _frame_constants(n)
    drop = np.argmax(np.abs(e0), axis=1)
    keep = keep[drop]
    rows = np.arange(len(G))[:, None]
    w = (G @ e0[:, :, None])[:, :, 0]
    wk = w[rows, keep]
    # C stacks H's kept block over the kept P e_j, (N, m + n, m); the sweep
    # turns the block's columns into L's and the P e_j into the s_k in place
    C = np.concatenate([wk, -e0], axis=1)[:, :, None] * wk[:, None, :]
    C[:, :m] -= G[rows[:, :, None], keep[:, :, None], keep[:, None, :]]
    C[:, m:] += unit[drop]
    pivots = np.empty((len(G), m))
    for k in range(m):
        pivots[:, k] = C[:, k, k]
        # a pivot below the floor raises below; clamped, it divides safely
        C[:, k:, k] /= np.sqrt(np.maximum(pivots[:, k], _DIV_FLOOR**2))[:, None]
        C[:, k + 1:, k + 1:] -= C[:, k + 1:, k, None] * C[:, None, k + 1:m, k]
    if np.any(bad := np.any(pivots < _DIV_FLOOR**2, axis=1)):
        raise DegenerateMetricError("spatial normalization below 1e-13", int(np.argmax(bad)))

    E = np.concatenate([e0[:, :, None], C[:, m:]], axis=2)
    err = _abs_max(np.swapaxes(E, -1, -2) @ G @ E - eta)
    if np.any(bad := err > tol):
        raise DegenerateMetricError(f"frame orthonormality error {float(err.max()):.3e}",
                                    int(np.argmax(bad)))
    return E[0] if squeeze else E


def orthonormal_frame(point, tol=FRAME_TOL):
    """Frame columns at one oriented point; E^T G E = eta to `tol`."""
    return frames(point.metric.matrix, point.future, tol=tol)


def _class_codes(G, e0, future, v, tol_null=TOL_NULL):
    """Causal classes (CausalClass order) of stacked inputs, on the time axis e0."""
    Gv = (G @ v[:, :, None])[:, :, 0]
    q = np.einsum("bi,bi->b", v, Gv)
    s = np.einsum("bi,bi->b", future, Gv)
    # v's time component and Euclidean norm in any orthonormal frame with time
    # axis e0; sigma = v0^2 + |v_spatial|^2 >= v0^2 >= q, so 2 v0^2 - q loses at
    # most a factor 2 to cancellation
    v0 = np.einsum("bi,bi->b", e0, Gv)
    sigma = 2.0 * v0 * v0 - q
    # when g(v, future) degenerates (null future parallel to v), the time
    # component still carries the orientation because e0 is future
    fscale = np.sqrt(np.einsum("bi,bi->b", future, future) * np.einsum("bi,bi->b", v, v))
    fscale = fscale * _abs_max(G)
    s = np.where(np.abs(s) <= 1e-13 * np.maximum(fscale, 1e-300), v0, s)

    zero = sigma < _ZERO_NORM_SQ
    null = np.abs(q) <= tol_null * sigma
    timelike = q > tol_null * sigma
    fut = s > 0
    return np.select(
        [zero, null & fut, null, timelike & fut, timelike],
        [_CODE[CausalClass.ZERO], _CODE[CausalClass.FUTURE_NULL], _CODE[CausalClass.PAST_NULL],
         _CODE[CausalClass.FUTURE_TIMELIKE], _CODE[CausalClass.PAST_TIMELIKE]],
        _CODE[CausalClass.SPACELIKE],
    )


def classify(G, E, future, v, tol_null=TOL_NULL):
    """Causal classes of vectors v against metric G and frame E, batched.

    Only E's time column is read.  All arguments broadcast over a leading
    batch axis; returns a list of CausalClass (or a single one for
    unbatched input).
    """
    G, E, future, v = (np.asarray(a, dtype=float) for a in (G, E, future, v))
    squeeze = G.ndim == 2
    if squeeze:
        G, E, future, v = G[None], E[None], future[None], v[None]
    out = _CLASSES[_class_codes(G, E[..., 0], future, v, tol_null)].tolist()
    return out[0] if squeeze else out


def causal_character(point, v, tol_null=TOL_NULL, frame=None):
    """Causal class of a single coordinate-component vector at a point."""
    E = orthonormal_frame(point) if frame is None else frame
    return classify(point.metric.matrix, E, point.future, np.asarray(v, dtype=float), tol_null)


def raise_index(point, w):
    """Vector components of a covector: solve G v = w."""
    return np.linalg.solve(point.metric.matrix, np.asarray(w, dtype=float))
