import tracemalloc

import numpy as np
import pytest

import causalkit.dp as dp
from causalkit.catalog import builtin, default_window
from causalkit.dp import (
    DPStatus,
    conformal_factor,
    dp1_check,
    dp2_check,
    dp2_margins,
    dp_zero_test,
    null_eigenvectors,
    null_quadratic_margins,
)
from causalkit.lorentz import CausalClass, OrientedPoint, causal_character, validate_metric
from causalkit.relate import MapDef, RegionSampler, check_conformal

from oracles import pair_min_oracle, pair_search

ETA4 = np.diag([1.0, -1.0, -1.0, -1.0])


def mink_point(dim=4):
    eta = np.diag([1.0] + [-1.0] * (dim - 1))
    future = np.zeros(dim)
    future[0] = 1.0
    return OrientedPoint(np.zeros(dim), validate_metric(eta), future)


def null_square(k):
    kb = ETA4 @ k
    return np.outer(kb, kb)


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
        # a check solves only the rows its bounds leave open
        calls = []
        solve = dp._pair_min

        def counting(c, a, M, nhat, lam, Q):
            calls.append(len(c))
            return solve(c, a, M, nhat, lam, Q)

        monkeypatch.setattr(dp, "_pair_min", counting)
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


class TestMemory:
    """A batch of open rows needs no temporary of the batch times a grid."""

    @pytest.mark.parametrize("search", [lambda T: dp2_margins(T, steps=0), null_quadratic_margins],
                             ids=["dp2_margins", "null_quadratic_margins"])
    def test_memory_bounded(self, search):
        # a single whole-batch (N, 642) float array at this N is 84 MB; an
        # open row's 19 candidate directions take 57 doubles
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
    """A row's result depends on that row alone, not on the batch around
    it: a flow's parameter values share one stacked solve on this basis,
    and a check's sample blocks can be cut anywhere.  The open rows' sums
    run over components, never over rows."""

    SEARCHES = {
        # steps=0: the sphere quadratic at its Newton start (the id keeps
        # its old name)
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

class TestScaleFree:
    """Each row is solved scaled by a power of two to unit size, so a large
    or small tensor's margin is its unit copy's times the scale: no square
    over- or underflows (above max|That| of about 1e154 one used to)."""

    @staticmethod
    def symmetric(seed, N=20):
        A = np.random.default_rng(seed).normal(size=(N, 4, 4))
        return A + np.swapaxes(A, 1, 2)

    @pytest.mark.parametrize("power", [530, 1000, -530, -1000])
    def test_margins_scale_by_powers_of_two(self, power):
        T = self.symmetric(530)
        for run in (dp2_margins, null_quadratic_margins):
            unit, big = run(T), run(T * 2.0**power)
            assert np.array_equal(big[0], unit[0] * 2.0**power)
            for u, b in zip(unit[1:], big[1:]):
                assert np.array_equal(u, b)

    def test_large_tensors_keep_their_margin(self):
        T = self.symmetric(160)
        m = dp2_margins(T)[0]
        big = dp2_margins(T * 1e160)[0]
        assert np.all(np.isfinite(big))
        assert np.max(np.abs(big / 1e160 - m)) <= 1e-12 * np.max(np.abs(T))

    def test_dp2_check_scales(self):
        p = mink_point()
        for T in self.symmetric(7, N=6):
            unit = dp2_check(p, T)
            big = dp2_check(p, T * 2.0**530)
            assert big.status is unit.status
            assert big.margin == unit.margin * 2.0**530


class TestBoundsFirst:
    """Rows whose DP+ bounds meet take the closed form; elsewhere the
    margin is the lowest stationary pair's, never above the grid+Newton
    reference search's, and the check's status is the full two-row
    search's."""

    KINDS = TestRowIndependence.KINDS

    @pytest.mark.parametrize("kind,n", KINDS)
    def test_closed_rows_match_search(self, kind, n):
        That = _scan_tensors(kind, n, 2000, seed=97 * n)
        margins, nhat, mhat = dp2_margins(That)
        closed = dp._pair_bounds(That)[3]
        searched = pair_search(That)[0]
        scale = np.abs(That).max(axis=(1, 2))
        assert np.any(closed)
        assert np.all(np.abs(margins - searched)[closed] <= 1e-14 * scale[closed])
        assert np.all((margins - searched)[~closed] <= 1e-13 * scale[~closed])
        # the witness pair attains the margin
        c, a, M = dp._rows(That)
        pair = (c + np.einsum("nd,nd->n", a, nhat + mhat)
                + np.einsum("nd,nde,ne->n", nhat, M, mhat))
        assert np.all(np.abs(pair - margins)[closed] <= 1e-14 * scale[closed])
        assert np.all(np.abs(pair - margins) <= 1e-13 * scale)
        assert np.allclose(np.linalg.norm(nhat, axis=1), 1.0, atol=1e-15)
        assert np.allclose(np.linalg.norm(mhat, axis=1), 1.0, atol=1e-15)

    def test_closed_exactly_when_ball_minimum_on_sphere(self):
        # M = I: the ball problem has M + lam_max I = 2I and its minimizer
        # -a/2 is interior exactly when |a| < 2, whatever each component
        That = np.zeros((3, 4, 4))
        That[:, 1:, 1:] = np.eye(3)
        That[:, 0, 1] = That[:, 1, 0] = [1.5, 0.5, 2.5]
        That[:, 0, 2] = That[:, 2, 0] = [1.5, 0.0, 0.0]
        lb, ub, _, closed, _ = dp._pair_bounds(That)
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
        m = pair_search(np.stack([T, -T]))[0]
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
        """Moves every open row's margin by `shift`; returns tensors whose
        two metric rows close and whose sums of causal squares stay open."""
        solve = dp._pair_min

        def off(*rows):
            margins, nhat = solve(*rows)
            return margins + shift, nhat

        monkeypatch.setattr(dp, "_pair_min", off)
        return np.concatenate([[ETA4, 2.0 * ETA4], _scan_tensors("causal_squares", 4, 8, seed=102)])

    def test_search_below_lower_bound_raises(self, monkeypatch):
        # an internal fault, not an input error
        That = self._search_off_by(monkeypatch, -1e6)
        assert np.flatnonzero(~dp._pair_bounds(That)[3])[0] == 2
        with pytest.raises(dp.SandwichError, match="row 2 left its bounds") as err:
            dp2_margins(That)
        assert err.value.index == 2
        assert not isinstance(err.value, (ValueError, ArithmeticError))
        # whatever the Newton cap of the bounds
        with pytest.raises(dp.SandwichError, match="row 2 left its bounds"):
            dp2_margins(That, steps=0)

    def test_search_above_upper_bound_raises(self, monkeypatch):
        # the bounds' diagonal pair is one of the candidates, so an open
        # row's margin above its upper bound is a fault too
        That = self._search_off_by(monkeypatch, 1e6)
        with pytest.raises(dp.SandwichError, match="row 2 left its bounds") as err:
            dp2_margins(That)
        assert err.value.index == 2

    def test_hard_case_margin_at_most_upper_bound(self):
        # on a hard case with a lowest eigenspace of dimension 2 the
        # reference search's polish can stall short of the flat minimum; the
        # margin never exceeds the upper bound, a pair the bounds attain, nor
        # the search, and equals the search wherever that ends within them
        That = _known_quadratics("hard_inside", 4, 2000, seed=15)[0]
        lb, ub, _, closed, _ = dp._pair_bounds(That)
        eps = 1e-12 * np.abs(That).max(axis=(1, 2))
        searched = pair_search(That)[0]
        stalled = searched > ub + eps
        assert np.any(stalled & ~closed)
        margins = dp2_margins(That)[0]
        assert np.all((lb - eps <= margins) & (margins <= ub + eps))
        assert np.all(margins <= searched + 0.1 * eps)
        assert np.all(np.abs(margins - searched)[~stalled] <= eps[~stalled])

    @pytest.mark.parametrize("kind,n", KINDS)
    def test_newton_cap_zero_stays_a_pair_margin(self, kind, n):
        # steps=0 leaves the sphere quadratic at its Newton start: its pair
        # is still a true pair, so the margin is finite, within the bounds
        # and never below the converged margin, and above it where the
        # minimum is a diagonal pair the start misses (not for d = 1, whose
        # start is exact, nor on de Sitter, whose quadratic is constant)
        That = _scan_tensors(kind, n, 500, seed=103 * n)
        lb, _, _, _, _ = dp._pair_bounds(That)
        margins = dp2_margins(That)[0]
        capped = dp2_margins(That, steps=0)[0]
        eps = 1e-12 * np.abs(That).max(axis=(1, 2))
        assert np.all(np.isfinite(capped))
        assert np.all((capped >= margins - eps) & (capped >= lb - eps))
        assert np.any(capped > margins + eps) == (n > 2 and kind != "de_sitter")


def _frame_tensors(lam, b, c, rng):
    """Frame tensors with spatial eigenvalues lam and a = Q b in a random
    eigenbasis Q, one per row of lam and b."""
    N, d = lam.shape
    Q = np.linalg.qr(rng.normal(size=(N, d, d)))[0]
    M = np.einsum("nij,nj,nkj->nik", Q, lam, Q)
    That = np.zeros((N, d + 1, d + 1))
    That[:, 0, 0] = c
    That[:, 0, 1:] = That[:, 1:, 0] = np.einsum("nij,nj->ni", Q, b)
    That[:, 1:, 1:] = 0.5 * (M + np.transpose(M, (0, 2, 1)))
    return That


def _hard_configurations(d, seed):
    """Spectra with repeated, opposite and zero eigenvalues (and two
    generic ones), each with b_j = 0 on every subset of j, at three
    amplitudes of b, three random eigenbases each."""
    rng = np.random.default_rng(seed)
    spectra = [np.sort(rng.uniform(-2.0, 2.0, d)) for _ in range(2)]
    spectra += [np.ones(d), -np.ones(d), np.zeros(d), np.r_[np.zeros(d - 1), 1.0],
                np.array([1.0, -1.0, 0.5])[:d], np.array([0.7, 0.7, -0.3])[:d]]
    if d == 3:
        spectra += [np.array([0.5, -0.5, 0.5]), np.array([0.0, 1.0, -1.0])]
    rows = [(lam, rng.normal(size=d) * mask * amp)
            for lam in spectra
            for mask in np.ndindex(*(2,) * d)
            for amp in (0.3, 1.0, 3.0)
            for _ in range(3)]
    lam, b = (np.array(x) for x in zip(*rows))
    return _frame_tensors(lam, b, rng.normal(size=len(lam)), rng)


def _near_repeated(d, gap, seed, N=300):
    """Spectra whose lowest two (for d = 3 at random all three) eigenvalues
    lie within `gap` of each other, b generic or with its last component 0."""
    rng = np.random.default_rng(seed)
    lam = np.repeat(rng.uniform(-2.0, 2.0, (N, 1)), d, axis=1)
    lam[:, 1:] += gap * rng.uniform(0.0, 1.0, (N, d - 1))
    if d == 3:
        far = rng.uniform(size=N) < 0.5
        lam[far, 2] = rng.uniform(-2.0, 2.0, far.sum())
    b = rng.normal(size=(N, d)) * rng.choice([0.1, 1.0, 3.0], size=(N, 1))
    b[rng.uniform(size=N) < 0.3, -1] = 0.0
    return _frame_tensors(np.sort(lam, axis=1), b, rng.normal(size=N), rng)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRowSolver:
    """The open rows' stationary pairs against the grid+Newton reference
    search: never above it by more than rounding, and within the bounds."""

    @staticmethod
    def assert_solved(That):
        margins = dp2_margins(That)[0]
        lb, ub, _, closed, _ = dp._pair_bounds(That)
        scale = np.maximum(1.0, np.abs(That).max(axis=(1, 2)))
        assert not np.all(closed)
        assert np.all((margins - pair_search(That)[0]) <= 1e-13 * scale)
        assert np.all((lb - 1e-12 * scale <= margins) & (margins <= ub + 1e-12 * scale))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hard_configurations(self, d):
        self.assert_solved(_hard_configurations(d, seed=110 + d))

    @pytest.mark.parametrize("gap", [1e-15, 1e-13, 1e-11, 1e-9, 3e-9, 2e-8, 1e-7, 1e-5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_near_repeated_eigenvalues(self, d, gap):
        # a secular root between poles this close is not resolved in the
        # eigenbasis, and taking the poles as one moves the pair by the gap
        self.assert_solved(_near_repeated(d, gap, seed=120 + d))

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_scale_free(self, scale):
        That = _hard_configurations(3, seed=130)
        margins = dp2_margins(That)[0]
        assert np.all(np.abs(dp2_margins(scale * That)[0] / scale - margins)
                      <= 1e-14 * np.abs(That).max(axis=(1, 2)))


class TestOneDecomposition:
    """The bounds' eigenbasis serves the open rows; the repeated-spectrum
    candidates are built only on rows with a repeated gap."""

    def test_one_eigh_per_call(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(A, *args, **kwargs):
            calls.append(len(A))
            return eigh(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        That = _scan_tensors("symmetric", 4, 16, seed=140)
        assert not np.all(dp._pair_bounds(That)[3])
        calls.clear()
        dp2_margins(That)
        assert calls == [16]
        p = mink_point()
        for T in (That[0], np.diag([1.0, 2.0, 2.0, 2.0]), ETA4):
            calls.clear()
            dp2_check(p, T, frame=np.eye(4))
            assert calls == [2]

    def test_deflation_only_where_a_gap_repeats(self, monkeypatch):
        seen = []
        deflate = dp._deflate

        def recording(lam, Q, b, M):
            seen.append(lam.T.copy())
            return deflate(lam, Q, b, M)

        monkeypatch.setattr(dp, "_deflate", recording)
        rng = np.random.default_rng(141)
        # a positive spatial block and a short a leave every row open
        lam = np.sort(rng.uniform(0.5, 2.0, (12, 3)), axis=1)
        lam[::3, 1] = lam[::3, 0] + 1e-12
        lam[1::3, 2] = lam[1::3, 1]
        That = _frame_tensors(lam, 0.1 * rng.normal(size=(12, 3)), rng.normal(size=12), rng)
        closed, (lam, _) = dp._pair_bounds(dp._unit_rows(That)[0])[3:]
        assert not np.any(closed)
        repeated = np.any(np.diff(lam, axis=0) <= dp._REPEATED, axis=0)
        assert 0 < repeated.sum() < len(That)
        want = dp2_margins(That)
        assert len(seen) == 1 and np.array_equal(seen[0], lam.T[repeated])
        # each row still equals its one-row batch
        for i in range(len(That)):
            assert all(np.array_equal(x[i], y[0]) for x, y in zip(want, dp2_margins(That[i:i + 1])))


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

    @pytest.mark.parametrize("x", [[0.3, 5.0, 1.2, 0.7], [-1.0, 3.0, 0.4, 2.0]])
    def test_bases_on_a_chart_with_an_off_diagonal_metric(self, x):
        # vaidya's dt dr term: both bases are built from the frame's spatial
        # columns, which no longer coincide with the metric's eigenvectors
        st = builtin("vaidya")
        p = st.point(np.array(x))
        G = p.metric.matrix
        scale = np.max(np.abs(G))

        def future_null(pairs, T):
            for lam, v in pairs:
                assert causal_character(p, v) is CausalClass.FUTURE_NULL
                assert abs(v @ G @ v) <= 1e-12 * scale * (v @ v)
                assert np.linalg.norm(T @ v - lam * (G @ v)) <= 1e-10 * scale * np.linalg.norm(v)
            return np.stack([v for _, v in pairs])

        # identity pullback, T = G: a basis of n null directions
        res = null_eigenvectors(p, G)
        assert res.degenerate
        assert np.linalg.matrix_rank(future_null(res.pairs, G)) == 4
        # T = G + (Gs)(Gs)^T / 2, s spacelike: zeros on the null directions
        # g-orthogonal to s, a circle whose points span s's orthogonal space
        s = np.array([0.1, 1.0, 0.3, 0.0])
        T = G + 0.5 * np.outer(G @ s, G @ s)
        res = null_eigenvectors(p, T)
        assert not res.degenerate
        basis = future_null(res.pairs, T)
        assert np.all(np.abs(basis @ G @ s) <= 1e-12 * scale * np.linalg.norm(basis, axis=1))
        assert np.linalg.matrix_rank(basis) == 3

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


def _solve_trace_lambdas(G, T, tol=dp.TOL_CONF):
    """The generalized-trace fit tr(G^-1 T)/n under the same acceptance rule:
    the reference for the least-squares fit of `conformal_lambdas`."""
    lam = np.einsum("nii->n", np.linalg.solve(G, T)) / G.shape[-1]
    resid = np.abs(T - lam[:, None, None] * G).max(axis=(1, 2))
    scale = np.maximum(np.abs(T).max(axis=(1, 2)), 1e-300)
    return np.where((resid / scale < tol) & (lam > 0), lam, np.nan)


def _chart_metrics(rng):
    """Metric values on diagonal (de Sitter, Schwarzschild) and non-diagonal
    (Vaidya, boosted and rotated Minkowski) charts."""
    out = {}
    for name in ("de_sitter", "schwarzschild_ext", "vaidya"):
        st = builtin(name)
        out[name] = st.metric_at(RegionSampler.build(st, count=48, window=default_window(st)).points())
    boosted = []
    for _ in range(48):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        rapidity = rng.uniform(-3.0, 3.0)
        ch, sh = np.cosh(rapidity), np.sinh(rapidity)
        B = np.eye(4)
        B[0, 0], B[0, 1:], B[1:, 0] = ch, sh * u, sh * u
        B[1:, 1:] += (ch - 1.0) * np.outer(u, u)
        R = np.eye(4)
        R[1:, 1:] = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        A = rng.uniform(0.5, 3.0) * R @ B
        boosted.append(A.T @ ETA4 @ A)
    out["boosted_minkowski"] = np.array(boosted)
    return out


def _unbiased_perturbations(G, rng):
    """Random symmetric P of max|P| = 1 with <G, P> = tr(G^-1 P) = 0, so that
    neither fit's lambda moves off a conformal T when P is added."""
    P = rng.normal(size=G.shape)
    P = P + np.swapaxes(P, 1, 2)
    basis = []
    for B in (G, np.linalg.inv(G)):
        size = np.sqrt(np.einsum("nij,nij->n", B, B))
        for Q in basis:
            B = B - np.einsum("nij,nij->n", B, Q)[:, None, None] * Q
        norm = np.sqrt(np.einsum("nij,nij->n", B, B))
        # G^-1 is a multiple of G on a conformally flat diagonal chart
        keep = norm > 1e-10 * size
        basis.append(np.where(keep[:, None, None], B, 0.0) / np.where(keep, norm, 1.0)[:, None, None])
    for Q in basis:
        P = P - np.einsum("nij,nij->n", P, Q)[:, None, None] * Q
    return P / np.abs(P).max(axis=(1, 2))[:, None, None]


class TestConformalFit:
    """The least-squares fit <G, T> / <G, G> against the solve-based trace."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e200])
    @pytest.mark.parametrize("chart", ["de_sitter", "schwarzschild_ext", "vaidya",
                                       "boosted_minkowski"])
    def test_matches_generalized_trace(self, chart, scale):
        rng = np.random.default_rng(14)
        G = _chart_metrics(rng)[chart]
        N = len(G)
        lam0 = rng.uniform(0.05, 20.0, size=N)
        P = _unbiased_perturbations(G, rng)
        gscale = np.abs(G).max(axis=(1, 2))
        cases = [(lam0, 0.0, True), (-lam0, 0.0, False), (np.zeros(N), 0.0, False)]
        # residuals at 0.5, 0.97, 1.03 and 2 times TOL_CONF max|T|
        cases += [(lam0, f, f < 1.0) for f in (0.5, 0.97, 1.03, 2.0)]
        for lam, f, accepted in cases:
            T = lam[:, None, None] * G + (f * dp.TOL_CONF * lam * gscale)[:, None, None] * P
            got = dp.conformal_lambdas(scale * G, scale * T)
            want = _solve_trace_lambdas(scale * G, scale * T)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.all(~np.isnan(got) == accepted), (chart, f)
            ok = ~np.isnan(want)
            assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.abs(want[ok]))
            assert np.all(np.abs(got[ok] - lam[ok]) <= 1e-12 * lam[ok])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-170, 1e-3, 1.0, 1e200])
    def test_point_factor_is_scale_free(self, scale):
        # the metric is accepted at any scale, so its conformal factor must be
        p = OrientedPoint(np.zeros(4), validate_metric(scale * ETA4), np.array([1.0, 0, 0, 0]))
        assert conformal_factor(p, scale * ETA4) == 1.0
        assert conformal_factor(p, 2.0 * scale * ETA4) == 2.0
        k = np.array([1.0, 1.0, 0.0, 0.0])
        assert conformal_factor(p, scale * (2.0 * ETA4 + 1e-6 * null_square(k))) is None
        assert conformal_factor(p, -2.0 * scale * ETA4) is None

    def test_identity_on_vaidya_is_exactly_one(self):
        # tr(G^-1 G)/4 gave 0.9999999999999999 at two of these samples
        st = builtin("vaidya")
        rep = check_conformal(MapDef.create(st, st, {c: c for c in st.coords}, {}),
                              RegionSampler.build(st, count=2048))
        assert rep.everywhere and rep.lam_range == (1.0, 1.0)
        assert np.all(rep.lambdas == 1.0)


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

    def test_rank_one_null_converges_in_few_steps(self):
        # L = alpha u (x) u with u null in a boosted frame: the lowest
        # eigenspace of M is a double 0 that a carries only as rounding
        # residue, so the secular root sits decades above its start.  Ten
        # steps give the capped result
        rng = np.random.default_rng(150)
        N = 20000
        v = rng.normal(size=(N, 3))
        u = np.concatenate([np.linalg.norm(v, axis=1, keepdims=True), v], axis=1)
        r, axis = rng.uniform(0.0, 2.0, N), rng.normal(size=(N, 3))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        along = np.einsum("nd,nd->n", axis, u[:, 1:])
        u = np.concatenate([(np.cosh(r) * u[:, 0] + np.sinh(r) * along)[:, None],
                            u[:, 1:] + ((np.cosh(r) - 1.0) * along + np.sinh(r) * u[:, 0])[:, None] * axis], axis=1)
        w = u @ ETA4
        L = rng.uniform(0.2, 2.0, (N, 1, 1)) * w[:, :, None] * w[:, None, :]
        m, nhat = null_quadratic_margins(L)
        U, e = dp._unit_rows(L)
        c, a, M = dp._rows(U)
        n10 = dp._sphere_quadratic(a, M, 10)[2]
        m10 = np.ldexp(dp._quad_value(n10, c, a, M), e)
        scale = np.abs(L).max(axis=(1, 2))
        assert np.all(np.abs(m10 - m) <= 1e-15 * scale)
        assert np.all(np.abs(np.linalg.norm(nhat, axis=1) - 1.0) <= 1e-15)
        assert np.all(np.abs(np.linalg.norm(n10, axis=1) - 1.0) <= 1e-15)

    def test_capped_rows_stay_on_sphere(self):
        # b_1 = 1e-30 beside |(M - lam_1 I)^+ a| = 1: the secular root lies
        # near 1e-20, ten decades above the start s = 1e-30, which Newton
        # alone climbs by about 1.5x a step, short of the NEWTON_STEPS cap
        # only through the pole-exact step; nhat must be a unit vector at the
        # minimum lam_1 - 1
        lam1 = np.array([-3.0, 0.0, 2.0])
        L = np.zeros((3, 3, 3))
        L[:, 1, 1], L[:, 2, 2] = lam1, lam1 + 1.0
        L[:, 0, 1] = L[:, 1, 0] = 1e-30
        L[:, 0, 2] = L[:, 2, 0] = -1.0
        m, nhat = null_quadratic_margins(L)
        assert np.all(np.abs(np.linalg.norm(nhat, axis=1) - 1.0) <= 1e-15)
        assert np.all(np.abs(m - (lam1 - 1.0)) <= 1e-15 * np.abs(L).max(axis=(1, 2)))
