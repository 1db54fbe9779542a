import numpy as np
import pytest

from causalkit.lorentz import (
    AsymmetricError, CausalClass, DegenerateMetricError, MetricValue,
    OrientedPoint, SignatureError, _abs_max, _signature, causal_character, classify, frames,
    orthonormal_frame, raise_index, validate_metric,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def _point(G, future):
    return OrientedPoint(np.zeros(len(future)), MetricValue(len(future), np.asarray(G, float)), future)


def test_validate_minkowski():
    mv = validate_metric(ETA)
    assert mv.dim == 4


def test_validate_rejects_asymmetric():
    with pytest.raises(AsymmetricError):
        validate_metric([[1.0, 0.1], [0.0, -1.0]])


def test_validate_signature_counts():
    with pytest.raises(SignatureError) as err:
        validate_metric(np.diag([1.0, 1.0, -1.0, -1.0]))
    assert (err.value.n_pos, err.value.n_neg) == (2, 2)
    with pytest.raises(SignatureError) as err:
        validate_metric(np.diag([1.0, -1.0, 0.0, -1.0]))
    assert err.value.n_zero == 1


def test_validate_radiating_block_against_quadratic_formula():
    # [[F, -1], [-1, 0]] has eigenvalues (F +- sqrt(F^2 + 4))/2: one each sign
    for F in (-3.0, -0.5, 0.0, 0.5, 0.97):
        block = np.array([[F, -1.0], [-1.0, 0.0]])
        w = np.sort(np.linalg.eigvalsh(block))
        lo = (F - np.sqrt(F * F + 4.0)) / 2.0
        hi = (F + np.sqrt(F * F + 4.0)) / 2.0
        assert w[0] == pytest.approx(lo, abs=1e-14)
        assert w[1] == pytest.approx(hi, abs=1e-14)
        validate_metric(block)


def test_oriented_point_validation():
    _point(ETA, [1.0, 0.0, 0.0, 0.0])
    _point(ETA, [1.0, 1.0, 0.0, 0.0])  # null declared future is allowed
    with pytest.raises(ValueError):
        _point(ETA, [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        _point(ETA, [0.0, 0.0, 0.0, 0.0])


def test_point_rules_are_scale_free():
    # one signature rule and one orientation rule, relative to the metric's
    # own scale: validate_metric and OrientedPoint decide as a chart check
    for s in (1e-20, 1e-3, 1.0, 1e3):
        assert validate_metric(s * ETA).dim == 4
        _point(s * ETA, [1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="is spacelike"):
            _point(s * ETA, [1.0, 1.0 + 1e-8, 0.0, 0.0])
        with pytest.raises(SignatureError) as err:
            validate_metric(s * np.diag([1.0, -1.0, -1e-13, -1.0]))
        assert (err.value.n_pos, err.value.n_neg, err.value.n_zero) == (1, 2, 1)


def _count_signature(G, zero_tol=1e-12):
    """Eigenvalue counts (positive, negative, near zero) and the Lorentzian
    mask built from them: the reference for `_signature`'s two-eigenvalue test."""
    w = np.linalg.eigvalsh(G)
    zero = np.abs(w) <= zero_tol * np.maximum(np.abs(w).max(axis=-1, keepdims=True), 1e-300)
    counts = np.stack([(w > 0) & ~zero, (w < 0) & ~zero, zero], axis=-1).sum(axis=-2)
    return counts, (counts[..., 0] == 1) & (counts[..., 1] == G.shape[-1] - 1)


def _signature_cases(n, rng):
    """Metrics of dimension n: eigenvalues at and next to +-the zero cut, a
    zero, two positive, Riemannian, NaN, random rotations and scales."""
    cut = 1e-12
    diag = [[1.0] + [-1.0] * (n - 1), [-1.0] * (n - 1) + [1.0], [1.0] * n, [-1.0] * n,
            [1.0, 1.0] + [-1.0] * (n - 2), [1.0] + [-1.0] * (n - 2) + [0.0],
            [0.0] + [-1.0] * (n - 1), [np.nan] + [-1.0] * (n - 1),
            [1.0] + [-1.0] * (n - 2) + [np.nan]]
    for c in (cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0)):
        for sign in (1.0, -1.0):
            diag += [[1.0] + [-1.0] * (n - 2) + [sign * c], [sign * c] + [-1.0] * (n - 1)]
    Gs = [np.diag(d) for d in diag]
    offdiag_nan = np.diag([1.0] + [-1.0] * (n - 1))
    offdiag_nan[0, 1] = offdiag_nan[1, 0] = np.nan
    Gs.append(offdiag_nan)
    for d in diag[:7]:
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        for s in (1e-20, 1e-3, 1.0, 1e3):
            Gs.append(s * (Q * np.asarray(d)) @ Q.T)
    for _ in range(64):
        A = rng.normal(size=(n, n))
        Gs.append(A + A.T)
    return np.array(Gs)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_signature_mask_matches_counts(n):
    G = _signature_cases(n, np.random.default_rng(n))
    counts, want = _count_signature(G)
    ok, _, _ = _signature(G)
    assert np.array_equal(ok, want)
    assert want.any() and not want.all()
    for Gi, c, good in zip(G, counts, want):
        if good:
            assert validate_metric(Gi).dim == n
            continue
        with pytest.raises(SignatureError) as err:
            validate_metric(Gi)
        assert (err.value.n_pos, err.value.n_neg, err.value.n_zero) == tuple(c.tolist())


@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 4, 4), (1024, 4, 4), (4, 4), (7, 3, 5),
                                   (2, 3, 4, 4)])
def test_abs_max_equals_numpy_reduction(shape):
    X = np.random.default_rng(len(shape)).normal(size=shape) * 10.0 ** np.arange(shape[-1])
    if X.ndim > 2:
        X[(0,) * (X.ndim - 2) + (1, 2)] = np.nan
    want = np.abs(X).max(axis=(-2, -1))
    got = _abs_max(X)
    assert got.shape == np.shape(want) and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got).any() == (X.ndim > 2)
    # a strided view: the maximum does not depend on the order of the components
    assert np.array_equal(_abs_max(np.swapaxes(X, -1, -2)[..., ::-1, :]), want, equal_nan=True)


def test_frame_minkowski_is_identity():
    E = orthonormal_frame(_point(ETA, [1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(E, np.eye(4), atol=1e-14)


def test_frame_property_random_metrics():
    rng = np.random.default_rng(3)
    for _ in range(200):
        A = rng.normal(size=(4, 4)) + np.eye(4)
        while abs(np.linalg.det(A)) < 0.1:
            A = rng.normal(size=(4, 4)) + np.eye(4)
        G = A.T @ ETA @ A
        # a future direction: preimage of a timelike vector
        v = np.linalg.solve(A, np.array([1.0, 0.2, -0.1, 0.3]))
        p = _point(G, v)
        E = orthonormal_frame(p)
        assert np.max(np.abs(E.T @ G @ E - ETA)) < 1e-10
        assert v @ G @ E[:, 0] > 0.0


def test_frame_desitter_scales_angular_directions():
    chi, theta = 1.0, 0.7
    G = np.diag([1.0, -1.0, -np.sin(chi) ** 2, -(np.sin(chi) * np.sin(theta)) ** 2])
    E = orthonormal_frame(_point(G, [1.0, 0.0, 0.0, 0.0]))
    cols = [E[:, j] for j in range(4)]
    assert np.allclose(cols[0], [1, 0, 0, 0], atol=1e-14)
    wanted = np.array([0.0, 0.0, 1.0 / np.sin(chi), 0.0])
    assert any(np.allclose(c, wanted, atol=1e-12) or np.allclose(c, -wanted, atol=1e-12) for c in cols)


def test_frame_with_near_null_future():
    # radiating interior block with eps-blended future, like the catalog uses
    F = 0.4
    G = np.array([
        [F, -1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -4.0, 0.0],
        [0.0, 0.0, 0.0, -4.0],
    ])
    f = np.array([1e-3, -1.0, 0.0, 0.0])
    p = _point(G, f)
    E = orthonormal_frame(p)
    assert np.max(np.abs(E.T @ G @ E - ETA)) < 1e-10
    assert f @ G @ E[:, 0] > 0.0


def test_frame_degenerate_raises():
    G = np.array([[1.0, 0.0], [0.0, -1.0]])
    p1 = _point(G, [1.0, 0.0])
    E = orthonormal_frame(p1)
    assert np.allclose(E, np.eye(2))
    with pytest.raises(DegenerateMetricError):
        frames(np.array([[1e-30, 0.0], [0.0, -1e-30]]), np.array([1.0, 0.0]))


def test_causal_character_minkowski():
    p = _point(ETA, [1.0, 0.0, 0.0, 0.0])
    assert causal_character(p, [1.0, 0.0, 0.0, 0.0]) is CausalClass.FUTURE_TIMELIKE
    assert causal_character(p, [1.0, 1.0, 0.0, 0.0]) is CausalClass.FUTURE_NULL
    assert causal_character(p, [-2.0, 1.0, 0.0, 0.0]) is CausalClass.PAST_TIMELIKE
    assert causal_character(p, [-1.0, -1.0, 0.0, 0.0]) is CausalClass.PAST_NULL
    assert causal_character(p, [0.0, 1.0, 0.0, 0.0]) is CausalClass.SPACELIKE
    assert causal_character(p, [0.0, 0.0, 0.0, 0.0]) is CausalClass.ZERO
    assert causal_character(p, 1e-14 * np.array([1.0, 0.0, 0.0, 0.0])) is CausalClass.ZERO
    assert causal_character(p, 1e-12 * np.array([1.0, 0.0, 0.0, 0.0])) is CausalClass.FUTURE_TIMELIKE


def test_causal_character_tolerance_scales_with_vector():
    p = _point(ETA, [1.0, 0.0, 0.0, 0.0])
    # near-null vector: q/sigma decides, so scaling the vector changes nothing
    v = np.array([1.0, 1.0 + 1e-12, 0.0, 0.0])
    for s in (1.0, 1e-8, 1e6):
        assert causal_character(p, s * v) is CausalClass.FUTURE_NULL


def test_causal_character_desitter_null():
    tbar, alpha = 0.8, 1.0
    w = alpha * np.cosh(tbar / alpha)
    G = np.diag([1.0, -w * w, -w * w, -w * w])
    p = _point(G, [1.0, 0.0, 0.0, 0.0])
    assert causal_character(p, [1.0, 1.0 / w, 0.0, 0.0]) is CausalClass.FUTURE_NULL


def test_causal_character_null_future_field():
    # declared future is itself null: the frame time component breaks the tie
    p = _point(ETA, [1.0, 1.0, 0.0, 0.0])
    assert causal_character(p, [1.0, 1.0, 0.0, 0.0]) is CausalClass.FUTURE_NULL
    assert causal_character(p, [-1.0, -1.0, 0.0, 0.0]) is CausalClass.PAST_NULL


def test_raise_index_radiating_dt():
    F = 0.3
    G = np.array([
        [F, -1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ])
    p = _point(G, [1e-3, -1.0, 0.0, 0.0])
    v = raise_index(p, [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(v, [0.0, -1.0, 0.0, 0.0], atol=1e-14)


def test_classify_batched_matches_scalar():
    rng = np.random.default_rng(9)
    G = np.broadcast_to(ETA, (32, 4, 4)).copy()
    fut = np.broadcast_to(np.array([1.0, 0, 0, 0]), (32, 4)).copy()
    E = frames(G, fut)
    V = rng.normal(size=(32, 4))
    got = classify(G, E, fut, V)
    p = _point(ETA, [1.0, 0.0, 0.0, 0.0])
    for i in range(32):
        assert got[i] is causal_character(p, V[i])


def _classify_reference(G, E, f, v, tol_null):
    """One vector's class, decided by scalar arithmetic sample by sample."""
    vhat = np.linalg.solve(E, v)
    sigma = float(vhat @ vhat)
    q = float(v @ G @ v)
    s = float(v @ G @ f)
    fscale = np.sqrt(float(f @ f) * float(v @ v)) * np.abs(G).max()
    if abs(s) <= 1e-13 * max(fscale, 1e-300):
        s = float(vhat[0])
    if sigma < 1e-26:
        return CausalClass.ZERO
    if abs(q) <= tol_null * sigma:
        return CausalClass.FUTURE_NULL if s > 0 else CausalClass.PAST_NULL
    if q > tol_null * sigma:
        return CausalClass.FUTURE_TIMELIKE if s > 0 else CausalClass.PAST_TIMELIKE
    return CausalClass.SPACELIKE


def _boost_rotation(rng, rapidity):
    """A boost of the given rapidity along a random spatial axis, then a
    random rotation, as a 4x4 Lorentz transformation."""
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    B = np.eye(4)
    B[0, 0] = np.cosh(rapidity)
    B[0, 1:] = B[1:, 0] = np.sinh(rapidity) * n
    B[1:, 1:] += (np.cosh(rapidity) - 1.0) * np.outer(n, n)
    R = np.eye(4)
    R[1:, 1:] = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return R @ B


def test_classify_mixed_batch_matches_reference():
    rng = np.random.default_rng(21)
    radiating = np.array([[0.3, -1.0, 0, 0], [-1.0, 0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, -1.0]])
    charts = [(ETA, [1.0, 0, 0, 0]), (np.diag([1.0, -4.0, -4.0, -4.0]), [2.0, 0, 0, 0]),
              (ETA, [1.0, 1.0, 0, 0]), (radiating, [1e-3, -1.0, 0, 0])]
    fixed = [[1.0, 0, 0, 0], [-2.0, 1.0, 0, 0], [1.0, 1.0, 0, 0], [-1.0, -1.0, 0, 0],
             [0, 1.0, 0, 0], [0, 0, 0, 0], 1e-14 * np.array([1.0, 0, 0, 0]),
             [2.0, 1.0, 0, 0], [1.0, 2.0, 0, 0], [-2.0, -1.0, 0, 0], [0, 0, 1.0, 0]]
    rows = [(G, f, v) for G, f in charts for v in fixed]
    rows += [(G, f, rng.normal(size=4)) for G, f in charts for _ in range(16)]
    # boosted and rotated Minkowski, G = A^T eta A, with a timelike and two
    # near-null declared futures (null up to rounding); the fixed vectors ride
    # along through A^-1, except those on the tol_null = 0.6 boundary, which
    # rounding would decide
    for rapidity in (0.3, 2.0, -3.0):
        A = _boost_rotation(rng, rapidity) * rng.uniform(0.5, 3.0)
        Ainv = np.linalg.inv(A)
        G = A.T @ ETA @ A
        for f in (Ainv @ [1.0, 0.4, -0.2, 0.1], Ainv @ [1.0, 1.0, 0, 0],
                  Ainv @ [1.0, 0, 0.6, 0.8]):
            rows += [(G, f, Ainv @ np.asarray(v, float)) for v in fixed[:7] + fixed[10:]]
            rows += [(G, f, rng.normal(size=4)) for _ in range(16)]
    G = np.array([r[0] for r in rows], dtype=float)
    fut = np.array([r[1] for r in rows], dtype=float)
    V = np.array([r[2] for r in rows], dtype=float)
    E = frames(G, fut)
    # tol_null = 0.6 puts |q| = 3 exactly at tol_null * sigma = 0.6 * 5 for
    # (2, 1, 0, 0) and (1, 2, 0, 0) in Minkowski
    for i in (7, 8):
        vhat = np.linalg.solve(E[i], V[i])
        assert abs(V[i] @ G[i] @ V[i]) == 0.6 * (vhat @ vhat) == 3.0
    for tol in (1e-9, 0.6):
        got = classify(G, E, fut, V, tol_null=tol)
        assert isinstance(got, list)
        want = [_classify_reference(G[i], E[i], fut[i], V[i], tol) for i in range(len(V))]
        assert got == want
    got = classify(G, E, fut, V)
    assert set(got) == set(CausalClass)
    # chart 2 declares the null future (1, 1, 0, 0): g(v, f) vanishes for
    # v = +-(1, 1, 0, 0), so the frame time component decides the orientation
    i = 2 * len(fixed)
    assert V[i + 2] @ G[i + 2] @ fut[i + 2] == 0.0
    assert got[i + 2] is CausalClass.FUTURE_NULL and got[i + 3] is CausalClass.PAST_NULL
    one = classify(G[0], E[0], fut[0], V[0])
    assert one is CausalClass.FUTURE_TIMELIKE
