"""Property tests of the DP decision (hypothesis, seeded examples)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalkit.dp import dp2_check, dp2_margins
from causalkit.lorentz import OrientedPoint, validate_metric

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
        u = np.array([np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)])
        ch, sh = np.cosh(rapidity), np.sinh(rapidity)
        boost = np.eye(4)
        boost[0, 0] = ch
        boost[0, 1:] = boost[1:, 0] = sh * u
        boost[1:, 1:] += (ch - 1.0) * np.outer(u, u)
        assert np.allclose(boost.T @ ETA4 @ boost, ETA4, atol=1e-12)
        assert dp2_check(p, T, frame=boost).status is dp2_check(p, T).status
