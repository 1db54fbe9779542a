"""Property tests of the DP decision, map composition and expression
printing (hypothesis, seeded examples)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import causalkit.dp as dp
from causalkit.catalog import builtin, default_window
from causalkit.dp import dp2_check, dp2_margins, dp_zero_test, null_eigenvectors
from causalkit.exprcore import (
    FUNCTIONS, Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym, parse_expr, to_text,
)
from causalkit.lorentz import CausalClass, OrientedPoint, causal_character, validate_metric
from causalkit.relate import MapDef, RegionSampler, Verdict, check_proper_causal, compose_maps

from oracles import pair_min_oracle, pair_search

ETA4 = np.diag([1.0, -1.0, -1.0, -1.0])

# derandomized examples, no example database
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def dp_plus_tensors(draw, n=4):
    """Sums of symmetrized products of future causal covectors, all in DP+."""
    eta = np.diag([1.0] + [-1.0] * (n - 1))

    def covector():
        s = np.array(draw(st.lists(_unit, min_size=n - 1, max_size=n - 1)))
        return eta @ np.concatenate([[np.linalg.norm(s) + draw(st.floats(0.0, 1.0))], s])

    T = np.zeros((n, n))
    for _ in range(draw(st.integers(1, 3))):
        u, w = covector(), covector()
        T += np.outer(u, w) + np.outer(w, u)
    return T


@st.composite
def symmetric_tensors(draw, n=4):
    A = np.array(draw(st.lists(_unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    return A + A.T


@st.composite
def hard_pair_rows(draw):
    """Frame tensors of spatial dimension d = 1, 2, 3 whose spectrum has
    repeated, opposite or zero eigenvalues and whose linear part b = Q^T a
    vanishes on a drawn subset of the eigenvectors, at three amplitudes."""
    d = draw(st.integers(1, 3))
    pool = draw(st.sampled_from([(1.0, 1.0, 1.0), (-1.0, -1.0, -1.0), (0.0, 0.0, 1.0),
                                 (1.0, -1.0, 0.5), (0.7, 0.7, -0.3), (0.5, -0.5, 0.5)]))
    lam = np.array(pool[:d]) * draw(st.sampled_from((0.5, 1.0, 2.0)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    b = np.array(draw(st.lists(_unit, min_size=d, max_size=d))) * mask
    b *= draw(st.sampled_from((0.3, 1.0, 3.0)))
    Q = np.linalg.qr(np.array(draw(st.lists(_unit, min_size=d * d, max_size=d * d))).reshape(d, d)
                     + 2.0 * np.eye(d))[0]
    M = Q @ np.diag(lam) @ Q.T
    T = np.zeros((d + 1, d + 1))
    T[0, 0] = draw(_unit)
    T[0, 1:] = T[1:, 0] = Q @ b
    T[1:, 1:] = 0.5 * (M + M.T)
    return T


def _boost(rapidity, theta, phi):
    u = np.array([np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)])
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    boost = np.eye(4)
    boost[0, 0] = ch
    boost[0, 1:] = boost[1:, 0] = sh * u
    boost[1:, 1:] += (ch - 1.0) * np.outer(u, u)
    return boost


def _rotation(a, b, c):
    """Rotation of the spatial axes by Euler angles (z, y, z)."""
    def axis(i, j, t):
        R = np.eye(4)
        R[i, i] = R[j, j] = np.cos(t)
        R[i, j], R[j, i] = -np.sin(t), np.sin(t)
        return R
    return axis(1, 2, a) @ axis(1, 3, b) @ axis(1, 2, c)


_angle = st.floats(0.0, 2.0 * np.pi)


@st.composite
def lorentz_transforms(draw):
    """A boost after a rotation: orthochronous, so an orthonormal frame of eta."""
    return (_boost(draw(st.floats(-1.5, 1.5)), draw(st.floats(0.0, np.pi)), draw(_angle))
            @ _rotation(draw(_angle), draw(_angle), draw(_angle)))


@st.composite
def causal_minkowski_maps(draw):
    """x -> B (a (t + e sin t), c1 x, c2 y, c3 z) on Minkowski, with B a
    boost and 0 < c_i <= a (1 - |e|): the pullback diag(a^2 (1 + e cos t)^2,
    -c_i^2) of the inner map is in DP+ and B is a time-orientation
    preserving isometry, so the map is proper causal."""
    e = draw(st.floats(-0.3, 0.3))
    a = draw(st.floats(0.5, 2.0))
    c = [draw(st.floats(0.2, 1.0)) * a * (1.0 - abs(e)) for _ in range(3)]
    B = _boost(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, np.pi)),
               draw(st.floats(0.0, 2.0 * np.pi)))
    inner = [f"{a!r}*(t + ({e!r})*sin(t))", f"{c[0]!r}*x", f"{c[1]!r}*y", f"{c[2]!r}*z"]
    mk = builtin("minkowski")
    exprs = {name: " + ".join(f"({float(B[i, j])!r})*({inner[j]})" for j in range(4))
             for i, name in enumerate(mk.coords)}
    return MapDef.create(mk, mk, exprs)


_NAMES = ("t", "x", "r_2")


def _expr_trees():
    # the trees the parser builds: numbers are finite and non-negative (a
    # minus sign parses as Neg), and identifiers are neither pi nor a function
    leaves = st.one_of(st.floats(0.0, 1e6).map(lambda v: Num(abs(v))),
                       st.sampled_from(_NAMES).map(Sym))

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.builds(lambda op, l, r: op(l, r), st.sampled_from((Add, Sub, Mul, Div, Pow)),
                      children, children),
            st.builds(Call, st.sampled_from(FUNCTIONS), children))

    return st.recursive(leaves, extend, max_leaves=12)


class TestProperties:
    @PROPERTY
    @given(dp_plus_tensors(), dp_plus_tensors())
    def test_dp_plus_superadditive(self, T1, T2):
        m = dp2_margins(np.stack([T1, T2, T1 + T2]))[0]
        scale = max(1.0, np.abs(T1).max() + np.abs(T2).max())
        assert m[0] >= -1e-9 * scale and m[1] >= -1e-9 * scale
        assert m[2] >= m[0] + m[1] - 1e-9 * scale

    @PROPERTY
    @given(st.sampled_from((1.0, -1.0, 0.0)), dp_plus_tensors(), symmetric_tensors(),
           st.floats(-1.5, 1.5), st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))
    def test_status_invariant_under_boost(self, sign, S, A, rapidity, theta, phi):
        # a boost of the source frame changes margins but never the DP status;
        # T is in DP+ (sign 1), in DP- (sign -1) or a general symmetric tensor
        T = sign * S if sign else A
        p = OrientedPoint(np.zeros(4), validate_metric(ETA4), np.array([1.0, 0, 0, 0]))
        plus, minus = dp2_margins(np.stack([T, -T]))[0]
        band = 1e-6 * max(1.0, np.abs(T).max())
        assume(abs(plus) > band and abs(minus) > band)
        boost = _boost(rapidity, theta, phi)
        assert np.allclose(boost.T @ ETA4 @ boost, ETA4, atol=1e-12)
        assert dp2_check(p, T, frame=boost).status is dp2_check(p, T).status

    @PROPERTY
    @given(st.one_of(symmetric_tensors(), dp_plus_tensors(), dp_plus_tensors().map(lambda T: -T)))
    def test_search_between_bounds(self, T):
        # LB <= grid+Newton margin <= UB: the bounds share no code with the
        # reference search
        lb, ub, _, _, _ = dp._pair_bounds(T[None])
        m = pair_search(T[None])[0]
        eps = 1e-12 * np.abs(T).max()
        assert lb[0] - eps <= m[0] <= ub[0] + eps

    @PROPERTY
    @given(hard_pair_rows())
    def test_row_solver_on_hard_configurations(self, T):
        # the margin of an open row lies within its bounds, never above the
        # reference search, and at the enumeration oracle, which overshoots
        # the minimum by at most 1e-6
        lb, ub, _, closed, _ = dp._pair_bounds(T[None])
        m = dp2_margins(T[None])[0][0]
        scale = max(1.0, np.abs(T).max())
        assert lb[0] - 1e-12 * scale <= m <= ub[0] + 1e-12 * scale
        assert m <= pair_search(T[None])[0][0] + 1e-13 * scale
        ref = pair_min_oracle(T)
        assert ref - 1e-6 * scale <= m <= ref + 1e-12 * scale

    @PROPERTY
    @given(lorentz_transforms(), lorentz_transforms(), st.floats(0.3, np.pi), st.floats(0.2, 2.0))
    def test_null_eigenvectors_under_boost(self, L, frame, beta, alpha):
        # the null directions of u u, eta + alpha u u (one) and u v + v u
        # (two), for null covectors u, v of boosted and rotated null vectors,
        # in a boosted and rotated frame
        p = OrientedPoint(np.zeros(4), validate_metric(ETA4), np.array([1.0, 0, 0, 0]))
        k1 = L @ np.array([1.0, 1.0, 0.0, 0.0])
        k2 = L @ np.array([1.0, np.cos(beta), np.sin(beta), 0.0])
        u, v = ETA4 @ k1, ETA4 @ k2
        cases = [(np.outer(u, u), [k1]), (ETA4 + alpha * np.outer(u, u), [k1]),
                 (np.outer(u, v) + np.outer(v, u), [k1, k2])]
        for T, want in cases:
            res = null_eigenvectors(p, T, frame=frame)
            assert not res.degenerate
            assert len(res.pairs) == len(want)
            for _, x in res.pairs:
                assert causal_character(p, x) is CausalClass.FUTURE_NULL
                assert min(np.linalg.norm(x - k / np.linalg.norm(k)) for k in want) <= 1e-10
                assert dp_zero_test(p, T, x) == (True, True)

    @PROPERTY
    @given(causal_minkowski_maps(), causal_minkowski_maps())
    def test_composition_stays_causal(self, f, g):
        # the paper's composition property: proper causal maps compose
        mk = builtin("minkowski")
        sampler = RegionSampler.build(mk, count=64, seed=3, window=default_window(mk))
        for m in (f, g, compose_maps(f, g)):
            assert check_proper_causal(m, sampler).verdict is Verdict.HOLDS_SAMPLED

    @PROPERTY
    @given(_expr_trees())
    def test_print_parse_round_trip(self, e):
        assert parse_expr(to_text(e), _NAMES) == e
