import tracemalloc

import numpy as np
import pytest

import causalkit.dp as dp
from causalkit.dp import (
    DPStatus,
    conformal_factor,
    dp1_check,
    dp2_check,
    dp2_margins,
    dp_zero_test,
    null_eigenvectors,
    null_quadratic_margins,
    sphere_directions,
)
from causalkit.lorentz import CausalClass, OrientedPoint, causal_character, validate_metric

from oracles import pair_min_oracle

ETA4 = np.diag([1.0, -1.0, -1.0, -1.0])


def mink_point(dim=4):
    eta = np.diag([1.0] + [-1.0] * (dim - 1))
    future = np.zeros(dim)
    future[0] = 1.0
    return OrientedPoint(np.zeros(dim), validate_metric(eta), future)


def null_square(k):
    kb = ETA4 @ k
    return np.outer(kb, kb)


class TestSphereDirections:
    def test_sizes(self):
        assert sphere_directions(1).shape == (2, 1)
        assert sphere_directions(2).shape == (720, 2)
        assert sphere_directions(3).shape == (642, 3)

    def test_unit_norm(self):
        g = sphere_directions(3)
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-14)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            sphere_directions(4)


class TestDP1:
    def test_violating_covector(self):
        p = mink_point()
        v = dp1_check(p, np.array([1.0, 2.0, 0.0, 0.0]))
        assert v.status is DPStatus.NOT_DP
        assert v.margin == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(v.witness[0], [1.0, -1.0, 0.0, 0.0], atol=1e-12)

    def test_minus_side(self):
        p = mink_point()
        v = dp1_check(p, np.array([-1.0, 0.5, 0.0, 0.0]))
        assert v.status is DPStatus.IN_DP_MINUS
        assert v.margin == pytest.approx(-1.5, abs=1e-12)

    def test_strict_interior(self):
        p = mink_point()
        v = dp1_check(p, np.array([2.0, 1.0, 0.0, 0.0]))
        assert v.status is DPStatus.IN_DP_PLUS
        assert v.margin == pytest.approx(1.0, abs=1e-12)
        assert v.witness is None
        assert not v.boundary

    def test_boundary_flag(self):
        p = mink_point()
        v = dp1_check(p, np.array([1.0, 1.0, 0.0, 0.0]))
        assert v.status is DPStatus.IN_DP_PLUS
        assert v.boundary

    def test_scaled_metric_frame(self):
        G = np.diag([4.0, -1.0, -1.0, -1.0])
        p = OrientedPoint(np.zeros(4), validate_metric(G), np.array([1.0, 0, 0, 0]))
        v = dp1_check(p, np.array([1.0, 0.0, 0.0, 0.0]))
        assert v.status is DPStatus.IN_DP_PLUS
        assert v.margin == pytest.approx(0.5, abs=1e-12)


class TestDP2:
    def test_fluid_interior(self):
        v = dp2_check(mink_point(), np.diag([3.0, 1.0, 1.0, 1.0]))
        assert v.status is DPStatus.IN_DP_PLUS
        assert v.margin == pytest.approx(2.0, abs=1e-9)
        assert not v.boundary

    def test_fluid_violating(self):
        p = mink_point()
        v = dp2_check(p, np.diag([1.0, 2.0, 2.0, 2.0]))
        assert v.status is DPStatus.NOT_DP
        assert v.margin == pytest.approx(-1.0, abs=1e-9)
        k, l = v.witness
        assert causal_character(p, k) is CausalClass.FUTURE_NULL
        assert causal_character(p, l) is CausalClass.FUTURE_NULL
        T = np.diag([1.0, 2.0, 2.0, 2.0])
        assert k @ T @ l == pytest.approx(v.margin, abs=1e-8)

    def test_minus_side(self):
        v = dp2_check(mink_point(), np.diag([-3.0, 1.0, 1.0, 1.0]))
        assert v.status is DPStatus.IN_DP_MINUS
        assert v.margin == pytest.approx(-4.0, abs=1e-9)

    def test_one_search_per_check(self, monkeypatch):
        # a check searches only the rows its bounds leave open
        calls = []
        search = dp._pair_search

        def counting(data, steps):
            calls.append(len(data[0]))
            return search(data, steps)

        monkeypatch.setattr(dp, "_pair_search", counting)
        cases = [
            # T's bounds leave it open; -T's meet
            (np.diag([1.0, 2.0, 2.0, 2.0]), DPStatus.NOT_DP, False, [1]),
            # T's bounds meet; -T's leave the band [-tol, tol] open
            (-null_square(np.array([1.0, 1.0, 0.0, 0.0])), DPStatus.IN_DP_MINUS, True, [1]),
            # T's bounds meet and T holds: -T is not needed
            (ETA4, DPStatus.IN_DP_PLUS, True, []),
        ]
        for T, status, boundary, rows in cases:
            calls.clear()
            v = dp2_check(mink_point(), T)
            assert (v.status, v.boundary) == (status, boundary)
            assert calls == rows

    def test_null_square_boundary(self):
        k = np.array([1.0, 1.0, 0.0, 0.0])
        v = dp2_check(mink_point(), null_square(k))
        assert v.status is DPStatus.IN_DP_PLUS
        assert abs(v.margin) <= 1e-9
        assert v.boundary

    def test_two_dimensional_exact(self):
        p = mink_point(2)
        v = dp2_check(p, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert v.status is DPStatus.NOT_DP
        assert v.margin == pytest.approx(-2.0, abs=1e-12)
        v = dp2_check(p, np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert v.status is DPStatus.IN_DP_PLUS
        assert v.margin == pytest.approx(1.0, abs=1e-12)

    def test_three_dimensional(self):
        p = mink_point(3)
        v = dp2_check(p, np.diag([1.0, 1.0, 0.0]))
        assert v.status is DPStatus.IN_DP_PLUS
        assert abs(v.margin) <= 1e-9
        v = dp2_check(p, np.diag([1.0, 2.0, 0.0]))
        assert v.status is DPStatus.NOT_DP
        assert v.margin == pytest.approx(-1.0, abs=1e-9)

    def test_asymmetric_rejected(self):
        T = np.diag([3.0, 1.0, 1.0, 1.0])
        T[0, 1] = 0.5
        with pytest.raises(ValueError):
            dp2_check(mink_point(), T)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        p = mink_point()
        for _ in range(40):
            A = rng.normal(size=(4, 4))
            T = 0.5 * (A + A.T)
            v = dp2_check(p, T)
            ref = pair_min_oracle(T)
            assert v.margin == pytest.approx(ref, abs=1e-4)
            if ref > 1e-6:
                assert v.status is DPStatus.IN_DP_PLUS
            elif ref < -1e-6:
                ref_minus = pair_min_oracle(-T)
                want = DPStatus.IN_DP_MINUS if ref_minus > 1e-6 else DPStatus.NOT_DP
                if abs(ref_minus) > 1e-6:
                    assert v.status is want

    def test_frame_independence(self):
        rng = np.random.default_rng(5)
        p0 = mink_point()
        for _ in range(10):
            A = rng.normal(size=(4, 4))
            T = 0.5 * (A + A.T)
            base = dp2_check(p0, T)
            B = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
            G2 = B.T @ ETA4 @ B
            T2 = B.T @ T @ B
            fut2 = np.linalg.solve(B, np.array([1.0, 0, 0, 0]))
            p2 = OrientedPoint(np.zeros(4), validate_metric(G2), fut2)
            moved = dp2_check(p2, T2)
            assert moved.margin == pytest.approx(base.margin, abs=1e-4)
            assert moved.status is base.status

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(10, 4, 4))
        That = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        margins, nhat, mhat = dp2_margins(That)
        for i in range(10):
            mi, ni, li = dp2_margins(That[i][None])
            assert margins[i] == pytest.approx(float(mi[0]), abs=1e-12)


def _whole_batch_scan(grid, data, k):
    """The pair grid scan as one (N, G, d) einsum, the reference for the chunked scan."""
    c, a, M = data
    W = np.einsum("gd,nde->nge", grid, M) + a[:, None, :]
    vals = c[:, None] + a @ grid.T - np.linalg.norm(W, axis=2)
    start_idx = np.argpartition(vals, k - 1, axis=1)[:, :k]
    return start_idx, np.take_along_axis(vals, start_idx, 1)


def _scan_tensors(kind, n, N, seed):
    rng = np.random.default_rng(seed)
    if kind == "symmetric":
        A = rng.normal(size=(N, n, n))
        return 0.5 * (A + np.transpose(A, (0, 2, 1)))
    if kind == "causal_squares":
        eta = np.diag([1.0] + [-1.0] * (n - 1))
        T = np.zeros((N, n, n))
        for _ in range(3):
            s = rng.normal(size=(N, n - 1))
            u = np.concatenate([np.linalg.norm(s, axis=1, keepdims=True)
                                + rng.uniform(0.0, 1.0, (N, 1)), s], axis=1) @ eta
            T += rng.uniform(0.1, 2.0, (N, 1, 1)) * u[:, :, None] * u[:, None, :]
        return T
    # de Sitter diag(b^2, -s, ..., -s): the pair objective is constant on
    # the sphere, so only tie-breaking picks nhat
    b = rng.choice([0.95, 1.0, 1.5], size=N)
    s = rng.uniform(0.5, 2.0, N)
    T = np.zeros((N, n, n))
    T[:, 0, 0] = b * b
    for i in range(1, n):
        T[:, i, i] = -s
    return T


class TestPairGridScan:
    """The chunked grid scan is bit-identical to the whole-batch einsum scan."""

    @pytest.mark.parametrize("N", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("kind,n", [("symmetric", 2), ("symmetric", 3), ("symmetric", 4),
                                        ("causal_squares", 4), ("de_sitter", 4)])
    def test_matches_whole_batch_scan(self, monkeypatch, kind, n, N):
        That = _scan_tensors(kind, n, N, seed=1000 * n + N)
        for steps in (0, dp.NEWTON_STEPS):
            got = dp2_margins(That, steps=steps)
            with monkeypatch.context() as m:
                m.setattr(dp, "_grid_scan", _whole_batch_scan)
                want = dp2_margins(That, steps=steps)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("search", [lambda T: dp2_margins(T, steps=0), null_quadratic_margins],
                             ids=["dp2_margins", "null_quadratic_margins"])
    def test_memory_bounded(self, search):
        # a single whole-batch (N, 642) float array at this N is 84 MB
        rng = np.random.default_rng(5)
        A = rng.normal(size=(16384, 4, 4))
        That = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        tracemalloc.start()
        try:
            search(That)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestRowIndependence:
    """A row's search result depends on that row alone, not on the batch
    around it; the Newton polish drops finished rows from its batch on
    this basis, and a flow's parameter values share one stacked search on
    it.  Both searches are also checked row by row: a one-row grid-scan
    chunk is scanned as two equal rows, because BLAS's matrix-vector
    product for `a @ gT` rounds differently in the last bit."""

    SEARCHES = {
        "dp2_margins_grid": lambda T: dp2_margins(T, steps=0),
        "dp2_margins": lambda T: dp2_margins(T, steps=dp.NEWTON_STEPS),
        "null_quadratic_margins": null_quadratic_margins,
    }
    KINDS = [("symmetric", 2), ("symmetric", 3), ("symmetric", 4),
             ("causal_squares", 4), ("de_sitter", 4)]

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize("kind,n", KINDS)
    def test_shuffled_and_paired(self, search, kind, n):
        run = self.SEARCHES[search]
        That = _scan_tensors(kind, n, 130, seed=77 * n)
        got = run(That)
        perm = np.random.default_rng(n).permutation(len(That))
        for g, s in zip(got, run(That[perm])):
            assert np.array_equal(g[perm], s)
        for i in (0, 1, 63, 64, 65, 100, 128):
            for g, s in zip(got, run(That[[i, i + 1]])):
                assert np.array_equal(g[[i, i + 1]], s)

    @pytest.mark.parametrize("kind,n", KINDS)
    def test_quadratic_one_row_batches(self, kind, n):
        That = _scan_tensors(kind, n, 130, seed=79 * n)
        m, nhat = null_quadratic_margins(That)
        for i in range(len(That)):
            mi, ni = null_quadratic_margins(That[i:i + 1])
            assert mi[0] == m[i] and np.array_equal(ni[0], nhat[i])

    @pytest.mark.parametrize("steps", [0, dp.NEWTON_STEPS])
    @pytest.mark.parametrize("kind,n", KINDS)
    def test_pair_one_row_batches(self, kind, n, steps):
        That = _scan_tensors(kind, n, 100, seed=83 * n)
        got = dp2_margins(That, steps=steps)
        for i in range(len(That)):
            for g, s in zip(got, dp2_margins(That[i:i + 1], steps=steps)):
                assert np.array_equal(g[i], s[0])

    # the id keeps naming the objective: the pair search is the polish's only one
    @pytest.mark.parametrize("objective", ["pair"])
    @pytest.mark.parametrize("kind,n", KINDS)
    def test_polish_beside_finished_row(self, kind, n, objective):
        # a constant objective (T = diag(1, 0, ..., 0)) has no gradient, so
        # that row is finished at once and the other row goes on as the only
        # moving one; it must end exactly as it does in the full batch
        That = _scan_tensors(kind, n, 40, seed=91 * n)
        flat = np.zeros((n, n))
        flat[0, 0] = 1.0
        grid = sphere_directions(n - 1)
        starts = grid[np.random.default_rng(n).integers(len(grid), size=len(That))]

        def split(T):
            # contiguous rows, as dp2_margins passes them: einsum's loop order
            # (and so its rounding) can follow the operands' strides
            return tuple(np.ascontiguousarray(x) for x in (T[:, 0, 0], T[:, 0, 1:], T[:, 1:, 1:]))

        nn, f = dp._newton_polish(split(That), starts.copy(), dp.NEWTON_STEPS)
        for i in range(len(That)):
            pair = np.stack([That[i], flat])
            ni, fi = dp._newton_polish(split(pair), starts[[i, i]], dp.NEWTON_STEPS)
            assert np.array_equal(nn[i], ni[0]) and f[i] == fi[0]
            assert np.array_equal(ni[1], starts[i]) and fi[1] == 1.0


class TestBoundsFirst:
    """Rows whose DP+ bounds meet take the closed form; elsewhere the
    margin is the grid+Newton search's, and the check's status is the
    full two-row search's."""

    KINDS = TestRowIndependence.KINDS

    @pytest.mark.parametrize("kind,n", KINDS)
    def test_closed_rows_match_search(self, kind, n):
        That = _scan_tensors(kind, n, 2000, seed=97 * n)
        margins, nhat, mhat = dp2_margins(That)
        closed = dp._pair_bounds(That)[3]
        searched = dp._pair_search(dp._rows(That), dp.NEWTON_STEPS)[0]
        scale = np.abs(That).max(axis=(1, 2))
        assert np.any(closed)
        assert np.all(np.abs(margins - searched)[closed] <= 1e-14 * scale[closed])
        assert np.array_equal(margins[~closed], searched[~closed])
        # the closed witness pair attains the margin
        c, a, M = dp._rows(That)
        pair = (c + np.einsum("nd,nd->n", a, nhat + mhat)
                + np.einsum("nd,nde,ne->n", nhat, M, mhat))
        assert np.all(np.abs(pair - margins)[closed] <= 1e-14 * scale[closed])
        assert np.allclose(np.linalg.norm(mhat, axis=1), 1.0, atol=1e-15)

    def test_closed_exactly_when_ball_minimum_on_sphere(self):
        # M = I: the ball problem has M + lam_max I = 2I and its minimizer
        # -a/2 is interior exactly when |a| < 2, whatever each component
        That = np.zeros((3, 4, 4))
        That[:, 1:, 1:] = np.eye(3)
        That[:, 0, 1] = That[:, 1, 0] = [1.5, 0.5, 2.5]
        That[:, 0, 2] = That[:, 2, 0] = [1.5, 0.0, 0.0]
        lb, ub, _, closed = dp._pair_bounds(That)
        assert closed.tolist() == [True, False, True]
        # interior: lb = -lam_max - |a|^2 / 2, ub = 1 - 2|a|
        assert lb[1] == pytest.approx(-1.125, abs=1e-15) and ub[1] == pytest.approx(0.0, abs=1e-15)

    def test_always_closed_when_spatial_block_negative(self):
        # M <= 0 makes the ball objective concave: its minimum is on the sphere
        rng = np.random.default_rng(98)
        That = _scan_tensors("symmetric", 4, 500, seed=99)
        B = rng.normal(size=(500, 3, 3))
        That[:, 1:, 1:] = -np.einsum("nij,nkj->nik", B, B)
        assert np.all(dp._pair_bounds(That)[3])

    @staticmethod
    def _full_search_verdict(T, tol_dp=dp.TOL_DP):
        m = dp._pair_search(dp._rows(np.stack([T, -T])), dp.NEWTON_STEPS)[0]
        tol = tol_dp * max(1.0, float(np.abs(T).max()))
        if m[0] >= -tol:
            return DPStatus.IN_DP_PLUS, bool(abs(m[0]) <= tol)
        if m[1] >= -tol:
            return DPStatus.IN_DP_MINUS, bool(abs(m[1]) <= tol)
        return DPStatus.NOT_DP, False

    def test_check_matches_full_search(self):
        rng = np.random.default_rng(100)
        A = rng.normal(size=(150, 4, 4))
        plus = _scan_tensors("causal_squares", 4, 150, seed=101)
        # exact-zero margins: null squares along axes, the metric, and sums
        nulls = [null_square(np.array(k)) for k in
                 ([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 1.0])]
        zero = nulls + [ETA4, 2.0 * ETA4, ETA4 + nulls[0], nulls[1] + nulls[2]]
        tensors = (list(0.5 * (A + np.transpose(A, (0, 2, 1)))) + list(plus) + list(-plus)
                   + zero + [-T for T in zero])
        p = mink_point()
        statuses = set()
        for T in tensors:
            v = dp2_check(p, T, frame=np.eye(4))
            assert (v.status, v.boundary) == self._full_search_verdict(T)
            statuses.add((v.status, v.boundary))
        assert len(statuses) == 5  # every status, and both boundary flags where they exist

    @staticmethod
    def _search_off_by(monkeypatch, shift):
        """Moves every searched margin by `shift`; returns tensors whose two
        metric rows close and whose sums of causal squares stay open."""
        search = dp._pair_search

        def off(data, steps):
            margins, nhat = search(data, steps)
            return margins + shift, nhat

        monkeypatch.setattr(dp, "_pair_search", off)
        return np.concatenate([[ETA4, 2.0 * ETA4], _scan_tensors("causal_squares", 4, 8, seed=102)])

    def test_search_below_lower_bound_raises(self, monkeypatch):
        # an internal fault, not an input error
        That = self._search_off_by(monkeypatch, -1e6)
        assert np.flatnonzero(~dp._pair_bounds(That)[3])[0] == 2
        with pytest.raises(dp.SandwichError, match="row 2 left its bounds") as err:
            dp2_margins(That)
        assert err.value.index == 2
        assert not isinstance(err.value, (ValueError, ArithmeticError))
        # the grid-only pass has no bounds to check against
        dp2_margins(That, steps=0)

    def test_search_above_upper_bound_keeps_the_bounds_pair(self, monkeypatch):
        That = self._search_off_by(monkeypatch, 1e6)
        lb, ub, nhat, _ = dp._pair_bounds(That)
        margins, got, _ = dp2_margins(That)
        assert np.array_equal(got, nhat)
        assert np.array_equal(margins, dp._pair_value(nhat, *dp._rows(That))[0])
        assert np.all((lb <= margins) & (margins <= ub))

    def test_stalled_search_keeps_the_bounds_pair(self):
        # on a hard case with a lowest eigenspace of dimension 2 the polish
        # can stall short of the flat minimum; the margin never exceeds the
        # upper bound, a pair the bounds attain
        That = _known_quadratics("hard_inside", 4, 2000, seed=15)[0]
        lb, ub, _, closed = dp._pair_bounds(That)
        eps = 1e-12 * np.abs(That).max(axis=(1, 2))
        searched = dp._pair_search(dp._rows(That), dp.NEWTON_STEPS)[0]
        assert np.any((searched > ub + eps) & ~closed)
        margins = dp2_margins(That)[0]
        assert np.all((lb - eps <= margins) & (margins <= ub + eps))


class TestPairMinOracle:
    """Closed-form minima of the enumeration oracle the DP gate rests on.

    Enumeration samples actual null pairs, so it can only overshoot the
    true minimum; the zoom levels bound the overshoot.
    """

    def assert_min(self, T, want):
        ref = pair_min_oracle(T)
        assert want - 1e-12 <= ref <= want + 1e-6

    def test_metric(self):
        self.assert_min(ETA4, 0.0)

    def test_minus_metric(self):
        self.assert_min(-ETA4, -2.0)

    def test_spatial_identity(self):
        self.assert_min(np.diag([0.0, 1.0, 1.0, 1.0]), -1.0)

    def test_one_term_timelike_square(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            s = rng.normal(size=3)
            gap = rng.uniform(0.1, 1.0)
            w = rng.uniform(0.2, 2.0)
            u = ETA4 @ np.concatenate([[np.linalg.norm(s) + gap], s])
            self.assert_min(w * np.outer(u, u), w * gap ** 2)


class TestNullEigenvectors:
    def test_fluid_has_none(self):
        res = null_eigenvectors(mink_point(), np.diag([3.0, 1.0, 1.0, 1.0]))
        assert res.pairs == ()
        assert not res.degenerate

    def test_conformal_degenerate(self):
        p = mink_point()
        res = null_eigenvectors(p, 3.0 * ETA4)
        assert res.degenerate
        assert len(res.pairs) == 4
        basis = np.stack([v for _, v in res.pairs])
        assert abs(np.linalg.det(basis)) > 1e-12
        for lam, v in res.pairs:
            assert lam == pytest.approx(3.0, abs=1e-9)
            assert causal_character(p, v) is CausalClass.FUTURE_NULL

    def test_jordan_defective_shear(self):
        # metric plus a null square: every eigenvalue is 1, only the
        # null direction itself is an eigenvector
        p = mink_point()
        k = np.array([1.0, 1.0, 0.0, 0.0])
        res = null_eigenvectors(p, ETA4 + null_square(k))
        assert not res.degenerate
        assert len(res.pairs) == 1
        lam, v = res.pairs[0]
        assert lam == pytest.approx(1.0, abs=1e-8)
        cos = abs(v @ k) / (np.linalg.norm(v) * np.linalg.norm(k))
        assert cos == pytest.approx(1.0, abs=1e-9)
        assert causal_character(p, v) is CausalClass.FUTURE_NULL

    def test_pure_null_square(self):
        p = mink_point()
        k = np.array([1.0, 1.0, 0.0, 0.0])
        res = null_eigenvectors(p, null_square(k))
        assert len(res.pairs) == 1
        lam, v = res.pairs[0]
        assert lam == pytest.approx(0.0, abs=1e-9)
        cos = abs(v @ k) / (np.linalg.norm(v) * np.linalg.norm(k))
        assert cos == pytest.approx(1.0, abs=1e-9)

    def test_eigen_relation_holds(self):
        p = mink_point()
        k = np.array([1.0, 1.0, 0.0, 0.0])
        T = ETA4 + null_square(k)
        for lam, v in null_eigenvectors(p, T).pairs:
            assert np.linalg.norm(T @ v - lam * (ETA4 @ v)) <= 1e-9

    def test_circle_of_zeros_spanned(self):
        # eta + e1 e1: T(k, k) = n1^2 vanishes on the circle n1 = 0, a
        # continuum that is not the conformal whole cone
        p = mink_point()
        T = ETA4 + np.diag([0.0, 1.0, 0.0, 0.0])
        res = null_eigenvectors(p, T)
        assert not res.degenerate
        assert len(res.pairs) == 3
        for lam, v in res.pairs:
            assert lam == pytest.approx(1.0, abs=1e-12)
            assert abs(v[1]) <= 1e-12
            assert causal_character(p, v) is CausalClass.FUTURE_NULL
            assert dp_zero_test(p, T, v) == (True, True)
        # three points of the circle span its plane t = 1 in (t, y, z)
        assert np.linalg.matrix_rank(np.stack([v for _, v in res.pairs])) == 3

    def test_negative_on_null_cone_raises(self):
        # T(k, k) = -n1^2 < 0 along e0 + e1
        with pytest.raises(ValueError, match=r"T\(k, k\) >= 0"):
            null_eigenvectors(mink_point(), np.diag([0.0, -1.0, 0.0, 0.0]))


class TestZeroTest:
    def test_null_square_sides(self):
        p = mink_point()
        k = np.array([1.0, 1.0, 0.0, 0.0])
        T = null_square(k)
        assert dp_zero_test(p, T, k) == (True, True)
        assert dp_zero_test(p, T, np.array([1.0, 0, 0, 0])) == (False, False)
        assert dp_zero_test(p, T, np.array([1.0, -1.0, 0, 0])) == (False, False)

    def test_requires_dp_plus(self):
        p = mink_point()
        with pytest.raises(ValueError):
            dp_zero_test(p, np.diag([1.0, 2.0, 2.0, 2.0]), np.array([1.0, 0, 0, 0]))

    def test_requires_causal_probe(self):
        p = mink_point()
        T = np.diag([3.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            dp_zero_test(p, T, np.array([0.0, 1.0, 0, 0]))

    def test_sum_of_squares_agreement(self):
        rng = np.random.default_rng(17)
        p = mink_point()
        for _ in range(20):
            T = np.zeros((4, 4))
            for _ in range(3):
                sp = rng.normal(size=3)
                t0 = np.linalg.norm(sp) + rng.uniform(0.0, 1.0)
                c = ETA4 @ np.concatenate([[t0], sp])
                T += np.outer(c, c)
            sp = rng.normal(size=3)
            X = np.concatenate([[np.linalg.norm(sp) + rng.uniform(0.1, 1.0)], sp])
            val, eig = dp_zero_test(p, T, X)
            assert val == eig


class TestConformalFactor:
    def test_positive_multiple(self):
        assert conformal_factor(mink_point(), 2.5 * ETA4) == pytest.approx(2.5, abs=1e-12)

    def test_negative_multiple_rejected(self):
        assert conformal_factor(mink_point(), -2.0 * ETA4) is None

    def test_non_multiple_rejected(self):
        k = np.array([1.0, 1.0, 0.0, 0.0])
        assert conformal_factor(mink_point(), ETA4 + 0.1 * null_square(k)) is None

    def test_tolerant_to_roundoff(self):
        T = 2.0 * ETA4
        T[2, 3] = T[3, 2] = 1e-10
        assert conformal_factor(mink_point(), T) == pytest.approx(2.0, abs=1e-9)


def _known_quadratics(family, n, N, seed):
    """Frame tensors L whose minimum of c + 2a.n + n.Mn over unit n is known.

    The eigenvalues lam of M, a multiplier mu <= lam_1 and y are drawn
    first and a = -Q (lam - mu) y is set, so (M - mu I) Q y = -a with
    M - mu I >= 0: by More-Sorensen n = Q y with |y| = 1 is a minimizer and
    the minimum is c + mu - sum_i (lam_i - mu) y_i^2.  Returns (L, want, Q,
    y, free): the leading `free` eigen-directions of M are those along which
    the minimizer is not unique (the hard case fills them freely)."""
    rng = np.random.default_rng(seed)
    d = n - 1
    Q = np.linalg.qr(rng.normal(size=(N, d, d)))[0]
    lam = np.sort(rng.uniform(-2.0, 2.0, (N, d)), axis=1)
    c = rng.normal(size=N)
    low = 2 if d == 3 else 1  # size of the lowest eigenspace in the hard cases
    y = np.zeros((N, d))
    free = 0
    if family == "sphere":
        # M = lam I and a = 0: the whole sphere attains c + lam
        lam[:] = lam[:, :1]
        mu = lam[:, 0]
        free = d
    else:
        lam[:, 1:] += 0.1
        if family == "generic":
            y = rng.normal(size=(N, d))
            mu = lam[:, 0] - rng.uniform(0.1, 1.0, N)
        else:
            # a orthogonal to a (for d = 3 repeated) lowest eigenspace
            lam[:, :low] = lam[:, :1]
            y[:, low:] = rng.normal(size=(N, d - low))
            if family == "hard_inside":
                # |(M - lam_1 I)^+ a| < 1: mu = lam_1, the rest of the norm
                # lies in the lowest eigenspace
                y *= rng.uniform(0.1, 0.9, (N, 1)) / np.linalg.norm(y, axis=1, keepdims=True)
                mu = lam[:, 0]
                free = low
            else:
                # |(M - lam_1 I)^+ a| > 1: mu < lam_1 and n = Q y is unique
                mu = lam[:, 0] - rng.uniform(0.1, 1.0, N)
        if family != "hard_inside":
            y /= np.linalg.norm(y, axis=1, keepdims=True)
    L = np.zeros((N, n, n))
    L[:, 0, 0] = c
    L[:, 0, 1:] = L[:, 1:, 0] = -np.einsum("nij,nj->ni", Q, (lam - mu[:, None]) * y)
    M = np.einsum("nij,nj,nkj->nik", Q, lam, Q)
    L[:, 1:, 1:] = 0.5 * (M + np.transpose(M, (0, 2, 1)))
    want = c + mu - np.sum((lam - mu[:, None]) * y * y, axis=1)
    return L, want, Q, y, free


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNullQuadratic:
    def test_metric_itself_vanishes(self):
        m, _ = null_quadratic_margins(ETA4[None])
        assert m[0] == pytest.approx(0.0, abs=1e-12)

    def test_spatial_well(self):
        L = np.diag([0.0, -1.0, 0.0, 0.0])
        m, nhat = null_quadratic_margins(L[None])
        assert m[0] == pytest.approx(-1.0, abs=1e-9)
        assert abs(nhat[0, 0]) == pytest.approx(1.0, abs=1e-6)

    def test_linear_term(self):
        L = np.zeros((4, 4))
        L[0, 1] = L[1, 0] = 1.0
        m, _ = null_quadratic_margins(L[None])
        assert m[0] == pytest.approx(-2.0, abs=1e-9)

    def test_batch_shape(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(6, 4, 4))
        L = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        m, nhat = null_quadratic_margins(L)
        assert m.shape == (6,)
        assert nhat.shape == (6, 3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_global_optimality(self, n):
        # n minimizes c + 2a.n + n.Mn on the unit sphere exactly when
        # (M - mu I) n = -a and M - mu I is positive semidefinite, with
        # mu = n.(Mn + a) (More-Sorensen)
        rng = np.random.default_rng(40 + n)
        A = rng.normal(size=(2048, n, n))
        L = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        m, nhat = null_quadratic_margins(L)
        c, a, M = L[:, 0, 0], L[:, 0, 1:], L[:, 1:, 1:]
        scale = np.maximum(1.0, np.abs(L).max(axis=(1, 2)))
        assert np.allclose(np.linalg.norm(nhat, axis=1), 1.0, atol=1e-12)
        Mn = np.einsum("nde,ne->nd", M, nhat)
        mu = np.einsum("nd,nd->n", nhat, Mn + a)
        residual = Mn - mu[:, None] * nhat + a
        assert np.all(np.linalg.norm(residual, axis=1) <= 1e-6 * scale)
        lam_min = np.linalg.eigvalsh(M - mu[:, None, None] * np.eye(n - 1))[:, 0]
        assert np.all(lam_min >= -1e-6 * scale)
        f = c + 2.0 * np.einsum("nd,nd->n", a, nhat) + np.einsum("nd,nd->n", nhat, Mn)
        assert np.all(np.abs(m - f) <= 1e-12 * scale)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
    @pytest.mark.parametrize("family", ["sphere", "hard_inside", "hard_outside", "generic"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_closed_form(self, n, family, scale):
        L, want, Q, y, free = _known_quadratics(family, n, 512, seed=60 + n)
        L, want = scale * L, scale * want
        m, nhat = null_quadratic_margins(L)
        size = np.abs(L).max(axis=(1, 2))
        assert np.all(np.abs(m - want) <= 1e-13 * size)
        assert np.all(np.abs(np.linalg.norm(nhat, axis=1) - 1.0) <= 1e-15)
        c, a, M = L[:, 0, 0], L[:, 0, 1:], L[:, 1:, 1:]
        f = c + 2.0 * np.einsum("nd,nd->n", a, nhat) + np.einsum("nd,nde,ne->n", nhat, M, nhat)
        assert np.all(np.abs(m - f) <= 1e-14 * size)
        # outside the directions the hard case fills freely, nhat is Q y
        ycomp = np.einsum("ndk,nd->nk", Q, nhat)
        assert np.allclose(ycomp[:, free:], y[:, free:], atol=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
    def test_two_by_two(self, scale):
        # d = 1: n = -sign(a), or either sign when a = 0; margin c + M - 2|a|
        rng = np.random.default_rng(61)
        L = rng.normal(size=(512, 2, 2))
        L[:, 1, 0] = L[:, 0, 1]
        L[::4, 0, 1] = L[::4, 1, 0] = 0.0
        L *= scale
        m, nhat = null_quadratic_margins(L)
        want = L[:, 0, 0] + L[:, 1, 1] - 2.0 * np.abs(L[:, 0, 1])
        assert np.all(np.abs(m - want) <= 1e-15 * np.abs(L).max(axis=(1, 2)))
        assert np.all(np.abs(nhat[:, 0]) == 1.0)
        assert np.all(nhat[:, 0] * L[:, 0, 1] <= 0.0)

    def test_subnormal_linear_term(self):
        # b_1 = 5e-324 in a doubly degenerate lowest eigenspace: s starts at
        # 5e-324, where y_1^2 / t_1 overflowed; the margin is lam_1 + c = 0
        L = np.diag([1.0, -0.25, -1.0, -1.0])
        L[0, 1] = L[1, 0] = 5.1e-17
        L[0, 2] = L[2, 0] = -5e-324
        m, nhat = null_quadratic_margins(L[None])
        assert abs(m[0]) <= 1e-15 and abs(np.linalg.norm(nhat[0]) - 1.0) <= 1e-15
        assert abs(dp2_margins(L[None])[0][0]) <= 1e-15

    def test_capped_rows_stay_on_sphere(self):
        # b_1 = 1e-30 beside |(M - lam_1 I)^+ a| = 1: Newton on the secular
        # equation grows s by about 1.5x a step from 1e-30 towards its root
        # near 1e-20, so these rows stop at the NEWTON_STEPS cap; nhat must
        # still be a unit vector at the minimum lam_1 - 1
        lam1 = np.array([-3.0, 0.0, 2.0])
        L = np.zeros((3, 3, 3))
        L[:, 1, 1], L[:, 2, 2] = lam1, lam1 + 1.0
        L[:, 0, 1] = L[:, 1, 0] = 1e-30
        L[:, 0, 2] = L[:, 2, 0] = -1.0
        m, nhat = null_quadratic_margins(L)
        assert np.all(np.abs(np.linalg.norm(nhat, axis=1) - 1.0) <= 1e-15)
        assert np.all(np.abs(m - (lam1 - 1.0)) <= 1e-15 * np.abs(L).max(axis=(1, 2)))
