"""Tests for chart definitions, sampling, and the sampled causal checks."""

import concurrent.futures
import dataclasses
import json
import os
import threading

import numpy as np
import pytest

from causalkit import dp, flows, relate
from causalkit.catalog import builtin, builtin_names, default_window, run_scenario
from causalkit.cli import main
from causalkit.dp import DPStatus, conformal_factor, dp2_check
from causalkit.exprcore import UnknownIdentifierError, to_text
from causalkit.flows import FlowDef, GeneratorField, flow_map, null_cone_nonneg
from causalkit.lorentz import CausalClass, MetricValue, OrientedPoint, classify, frames
from causalkit.relate import (
    MapDef,
    RegionSampler,
    SpacetimeDef,
    UnionSampler,
    Verdict,
    canonical_null_directions,
    check_conformal,
    check_isomorphism,
    check_proper_causal,
    compose_maps,
    curve_pushforward_check,
    pullback_metric,
)

INF = float("inf")
PI = float(np.pi)


def mink4():
    full = (-INF, INF)
    return SpacetimeDef.create(
        name="mink",
        coords=("t", "x", "y", "z"),
        domain={"t": full, "x": full, "y": full, "z": full},
        params={},
        metric={(0, 0): "1", (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"},
        orientation=("1", "0", "0", "0"),
    )


def de_sitter(alpha=1.0):
    return SpacetimeDef.create(
        name="de_sitter",
        coords=("t", "chi", "theta", "phi"),
        domain={"t": (-INF, INF), "chi": (0.0, PI), "theta": (0.0, PI), "phi": (0.0, 2 * PI)},
        params={"alpha": alpha},
        metric={
            (0, 0): "1",
            (1, 1): "-alpha^2*cosh(t/alpha)^2",
            (2, 2): "-alpha^2*cosh(t/alpha)^2*sin(chi)^2",
            (3, 3): "-alpha^2*cosh(t/alpha)^2*sin(chi)^2*sin(theta)^2",
        },
        orientation=("1", "0", "0", "0"),
        exclusions=("sin(chi)", "sin(theta)"),
    )


def einstein_static(a=1.0):
    return SpacetimeDef.create(
        name="einstein_static",
        coords=("t", "chi", "theta", "phi"),
        domain={"t": (-INF, INF), "chi": (0.0, PI), "theta": (0.0, PI), "phi": (0.0, 2 * PI)},
        params={"a": a},
        metric={
            (0, 0): "1",
            (1, 1): "-a^2",
            (2, 2): "-a^2*sin(chi)^2",
            (3, 3): "-a^2*sin(chi)^2*sin(theta)^2",
        },
        orientation=("1", "0", "0", "0"),
        exclusions=("sin(chi)", "sin(theta)"),
    )


def mink_spherical(a=0.0):
    return SpacetimeDef.create(
        name="mink_spherical",
        coords=("T", "R", "theta", "phi"),
        domain={"T": (-INF, INF), "R": (a, INF), "theta": (0.0, PI), "phi": (0.0, 2 * PI)},
        params={},
        metric={(0, 0): "1", (1, 1): "-1", (2, 2): "-R^2", (3, 3): "-R^2*sin(theta)^2"},
        orientation=("1", "0", "0", "0"),
        exclusions=("sin(theta)",),
    )


def schwarzschild(M=1.0, c=3.0):
    return SpacetimeDef.create(
        name="schwarzschild",
        coords=("t", "r", "theta", "phi"),
        domain={"t": (-INF, INF), "r": (c, INF), "theta": (0.0, PI), "phi": (0.0, 2 * PI)},
        params={"M": M},
        metric={
            (0, 0): "1 - 2*M/r",
            (1, 1): "-1/(1 - 2*M/r)",
            (2, 2): "-r^2",
            (3, 3): "-r^2*sin(theta)^2",
        },
        orientation=("1", "0", "0", "0"),
        exclusions=("sin(theta)",),
    )


def ds_to_es_map(b, alpha=1.0, a=1.0):
    return MapDef.create(
        de_sitter(alpha), einstein_static(a),
        {"t": "b*t", "chi": "chi", "theta": "theta", "phi": "phi"},
        {"b": b},
    )


def exterior_map(b, M=1.0, c=3.0, a=2.5):
    """Time-stretched shift of the excised spherical chart onto the
    Schwarzschild exterior: t = b T, r = R - a + c."""
    return MapDef.create(
        mink_spherical(a), schwarzschild(M, c),
        {"t": "b*T", "r": "R - a + c", "theta": "theta", "phi": "phi"},
        {"b": b, "a": a, "c": c},
    )


def ds_sampler(st, count=512, seed=0, t_window=(-3.0, 3.0)):
    return RegionSampler.build(st, count=count, seed=seed, window={"t": t_window})


SAMPLED_ENTRIES = ("check", "conformal", "null_cone", "curve")
MAP_ENTRIES = ("check", "conformal", "curve")


def first_error(entry, st, m, sampler):
    """The error one sampled entry point reports on chart st (map m), and
    the points it checked: the sampler's, or for the curve entry the curve
    (t, 0) through the sampler's t values."""
    pts = sampler.points()
    if entry == "check":
        rep = check_proper_causal(m, sampler)
        assert rep.verdict is Verdict.ERROR
        return rep.error, pts
    with pytest.raises((ValueError, ArithmeticError)) as err:
        if entry == "conformal":
            check_conformal(m, sampler)
        elif entry == "null_cone":
            null_cone_nonneg(st, GeneratorField.create(st, ("1", "0")), sampler)
        else:
            curve_pushforward_check(m, ("u", "0"), pts[:, 0])
    if entry == "curve":
        pts = np.stack([pts[:, 0], np.zeros(len(pts))], axis=1)
    return str(err.value), pts


class TestSpacetimeDef:
    def test_metric_eval(self):
        st = de_sitter()
        G = st.metric_at(np.array([0.0, PI / 2, PI / 2, 1.0]))
        assert np.allclose(G, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_metric_eval_batched(self):
        st = mink_spherical()
        pts = np.array([[0.0, 2.0, PI / 2, 0.5], [1.0, 3.0, PI / 2, 0.5]])
        G = st.metric_at(pts)
        assert G.shape == (2, 4, 4)
        assert G[0, 2, 2] == pytest.approx(-4.0)
        assert G[1, 2, 2] == pytest.approx(-9.0)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(UnknownIdentifierError, match="unknown identifier 'q'"):
            SpacetimeDef.create(
                name="bad", coords=("t", "x"),
                domain={"t": (-INF, INF), "x": (-INF, INF)},
                params={},
                metric={(0, 0): "1 + q", (1, 1): "-1"},
                orientation=("1", "0"),
            )

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty domain"):
            SpacetimeDef.create(
                name="bad", coords=("t", "x"),
                domain={"t": (1.0, 1.0), "x": (-INF, INF)},
                params={},
                metric={(0, 0): "1", (1, 1): "-1"},
                orientation=("1", "0"),
            )

    def test_upper_triangle_rejected(self):
        with pytest.raises(ValueError, match="lower triangle"):
            SpacetimeDef.create(
                name="bad", coords=("t", "x"),
                domain={"t": (-INF, INF), "x": (-INF, INF)},
                params={},
                metric={(0, 0): "1", (1, 1): "-1", (0, 1): "0.1"},
                orientation=("1", "0"),
            )

    def test_orientation_length(self):
        with pytest.raises(ValueError, match="orientation"):
            SpacetimeDef.create(
                name="bad", coords=("t", "x"),
                domain={"t": (-INF, INF), "x": (-INF, INF)},
                params={},
                metric={(0, 0): "1", (1, 1): "-1"},
                orientation=("1",),
            )

    def test_contains_strict(self):
        st = schwarzschild(c=3.0)
        assert st.contains(np.array([0.0, 3.5, 1.0, 1.0]))
        assert not st.contains(np.array([0.0, 3.0, 1.0, 1.0]))
        assert not st.contains(np.array([0.0, 2.0, 1.0, 1.0]))

    def test_point_outside_raises(self):
        with pytest.raises(ValueError, match="outside the domain"):
            schwarzschild().point([0.0, 1.0, 1.0, 1.0])

    def test_validate_on_catches_signature_loss(self):
        st = SpacetimeDef.create(
            name="bad", coords=("t", "x"),
            domain={"t": (-2.0, 2.0), "x": (-1.0, 1.0)},
            params={},
            metric={(0, 0): "t", (1, 1): "-1"},
            orientation=("1", "0"),
        )
        with pytest.raises(ValueError, match=r"Lorentzian signature at sample 1, x = \[-1\.5, 0\.0\]"):
            st.validate_on(np.array([[1.5, 0.0], [-1.5, 0.0]]))
        st.validate_on(np.array([[1.5, 0.0]]))


class TestMapDef:
    def test_symbol_capture_rejected(self):
        src, dst = mink4(), mink4()
        with pytest.raises(UnknownIdentifierError, match="unknown identifier 'k'"):
            MapDef.create(src, dst, {"t": "k*t", "x": "x", "y": "y", "z": "z"}, {})

    def test_stray_parsed_symbol_rejected(self):
        # trees built outside create() still get the free-symbol check
        src, dst = mink4(), mink4()
        good = MapDef.create(src, dst, {"t": "k*t", "x": "x", "y": "y", "z": "z"},
                             {"k": 2.0})
        with pytest.raises(ValueError, match="unknown symbols"):
            MapDef(src, dst, good.exprs, {})

    def test_missing_component_rejected(self):
        src, dst = mink4(), mink4()
        with pytest.raises(ValueError, match="lacks components"):
            MapDef.create(src, dst, {"t": "t", "x": "x", "y": "y"}, {})

    def test_image_and_jacobian(self):
        m = exterior_map(b=3.0)
        x = np.array([1.0, 3.0, PI / 2, 1.0])
        img, J = m.image_and_jacobian(x)
        assert np.allclose(img, [3.0, 3.5, PI / 2, 1.0])
        assert np.allclose(J, np.diag([3.0, 1.0, 1.0, 1.0]))


class TestComposeMaps:
    def test_shift_then_stretch(self):
        st = mink4()
        f = MapDef.create(st, st, {"t": "t + 1", "x": "x", "y": "y", "z": "z"}, {})
        g = MapDef.create(st, st, {"t": "2*t", "x": "x", "y": "y", "z": "z"}, {})
        h = compose_maps(f, g)
        out = h.image(np.array([2.0, 1.0, 0.0, 0.0]))
        assert np.allclose(out, [6.0, 1.0, 0.0, 0.0])

    def test_chart_mismatch(self):
        f = ds_to_es_map(1.0)
        g = MapDef.create(mink4(), mink4(),
                          {"t": "t", "x": "x", "y": "y", "z": "z"}, {})
        with pytest.raises(ValueError, match="cannot compose"):
            compose_maps(f, g)

    def test_param_collision(self):
        st = mink4()
        f = MapDef.create(st, st, {"t": "t + k", "x": "x", "y": "y", "z": "z"}, {"k": 1.0})
        g = MapDef.create(st, st, {"t": "k*t", "x": "x", "y": "y", "z": "z"}, {"k": 2.0})
        with pytest.raises(ValueError, match="parameter 'k'"):
            compose_maps(f, g)

    def test_shared_equal_param_ok(self):
        st = mink4()
        f = MapDef.create(st, st, {"t": "t + k", "x": "x", "y": "y", "z": "z"}, {"k": 1.0})
        g = MapDef.create(st, st, {"t": "k*t", "x": "x", "y": "y", "z": "z"}, {"k": 1.0})
        h = compose_maps(f, g)
        assert h.image(np.array([1.0, 0.0, 0.0, 0.0]))[0] == pytest.approx(2.0)


def radical_inverse_loop(indices, base):
    """The digit loop `relate._radical_inverse` replaced, kept as its reference."""
    idx = np.array(indices, dtype=np.int64)
    out = np.zeros(idx.shape)
    f = 1.0 / base
    while np.any(idx > 0):
        out += f * (idx % base)
        idx //= base
        f /= base
    return out


class TestRegionSampler:
    @pytest.mark.parametrize("count", [1, 8192])
    @pytest.mark.parametrize("seed", [0, 1, 7301])
    def test_radical_inverse_equals_digit_loop(self, seed, count):
        start = seed * count + 1
        idx = np.arange(start, start + count)
        for base in range(2, 20):
            assert np.array_equal(relate._radical_inverse(idx, base),
                                  radical_inverse_loop(idx, base))

    def test_deterministic(self):
        st = mink4()
        a = RegionSampler.build(st, count=128, seed=0).points()
        b = RegionSampler.build(st, count=128, seed=0).points()
        assert np.array_equal(a, b)

    def test_seed_changes_points(self):
        st = mink4()
        a = RegionSampler.build(st, count=128, seed=0).points()
        b = RegionSampler.build(st, count=128, seed=1).points()
        assert not np.array_equal(a[1:], b[1:])

    @pytest.mark.parametrize("scheme", ["halton", "grid"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_raises(self, scheme, count):
        # an empty or negative sample set is bad input for both schemes
        with pytest.raises(ValueError, match=f"sample count must be at least 1, got {count}"):
            RegionSampler.build(mink4(), count=count, scheme=scheme)

    def test_first_point_is_center(self):
        st = de_sitter()
        pts = ds_sampler(st, count=64).points()
        assert pts[0, 0] == pytest.approx(0.0)
        assert pts[0, 1] == pytest.approx(PI / 2, abs=2e-3)

    def test_margin_applied_at_domain_bounds(self):
        st = schwarzschild(c=3.0)
        samp = RegionSampler.build(st, count=256, window={"r": (3.0, 20.0)})
        pts = samp.points()
        assert np.all(pts[:, 1] >= 3.0 + 1e-3 - 1e-12)
        assert np.all(pts[:, 3] >= 1e-3 - 1e-12)
        assert np.all(pts[:, 3] <= 2 * PI - 1e-3 + 1e-12)

    @pytest.mark.parametrize("margin", [-0.5, float("nan"), float("inf")])
    def test_margin_must_be_finite_and_nonnegative(self, margin):
        with pytest.raises(ValueError, match="margin must be a finite number of at least 0"):
            RegionSampler.build(schwarzschild(c=3.0), count=16, margin=margin)

    def test_no_margin_at_interior_window(self):
        st = schwarzschild(c=3.0)
        samp = RegionSampler.build(st, count=64, window={"r": (4.0, 5.0)})
        assert samp.window[1] == (4.0, 5.0)
        pts = samp.points()
        assert pts[0, 1] == pytest.approx(4.5)

    def test_infinite_ends_cut_and_warped(self):
        st = mink4()
        samp = RegionSampler.build(st, count=512)
        assert samp.warped == (True, True, True, True)
        pts = samp.points()
        assert np.all(np.abs(pts) <= 10.0)
        # tanh reshaping concentrates mass toward the center
        assert np.mean(np.abs(pts[:, 0]) < 5.0) > 0.6

    def test_finite_window_not_warped(self):
        st = de_sitter()
        samp = ds_sampler(st, count=64)
        assert samp.warped[0] is False
        pts = samp.points()
        assert np.all(np.abs(pts[:, 0]) <= 3.0)

    def test_window_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="not inside the domain"):
            RegionSampler.build(schwarzschild(c=3.0), window={"r": (2.0, 5.0)})

    def test_collapsed_window_rejected(self):
        with pytest.raises(ValueError, match="collapsed"):
            RegionSampler.build(de_sitter(), window={"chi": (0.0, 5e-4)})

    def test_exclusion_guard_trips(self):
        st = de_sitter()
        samp = RegionSampler.build(
            st, count=32, window={"chi": (PI - 4e-4, PI - 1e-4)})
        with pytest.raises(ValueError, match="singular locus"):
            samp.points()

    def test_grid_scheme(self):
        st = mink4()
        samp = RegionSampler.build(st, count=16, scheme="grid",
                                   window={c: (-1.0, 1.0) for c in st.coords})
        pts = samp.points()
        assert len(pts) == 16
        assert np.allclose(np.unique(pts[:, 0]), [-0.5, 0.5])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            RegionSampler.build(mink4(), scheme="sobol")

    def test_union(self):
        st = schwarzschild(c=3.0)
        u = UnionSampler((
            RegionSampler.build(st, count=32, window={"r": (4.0, 5.0)}),
            RegionSampler.build(st, count=16, seed=1, window={"r": (3.0, 4.0)}),
        ))
        pts = u.points()
        assert len(pts) == 48
        assert u.count == 48

    def test_union_chart_mismatch(self):
        with pytest.raises(ValueError, match="share one spacetime"):
            UnionSampler((
                RegionSampler.build(mink4(), count=8),
                RegionSampler.build(de_sitter(), count=8),
            ))


class TestPullbackMetric:
    def test_identity_on_minkowski(self):
        st = mink4()
        m = MapDef.create(st, st, {"t": "t", "x": "x", "y": "y", "z": "z"}, {})
        T = pullback_metric(m, np.array([0.3, 1.0, -2.0, 0.5]))
        assert np.allclose(T, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_time_stretch_into_static_sphere(self):
        m = ds_to_es_map(b=2.0)
        T = pullback_metric(m, np.array([0.0, PI / 2, PI / 2, 1.0]))
        assert np.allclose(T, np.diag([4.0, -1.0, -1.0, -1.0]))

    def test_exterior_chart_values(self):
        m = exterior_map(b=3.0, M=1.0, c=3.0, a=2.5)
        T = pullback_metric(m, np.array([0.0, 3.0, PI / 2, 1.0]))
        f = 1.0 - 2.0 / 3.5
        assert T[0, 0] == pytest.approx(9.0 * f)
        assert T[1, 1] == pytest.approx(-1.0 / f)
        assert T[2, 2] == pytest.approx(-3.5 ** 2)
        assert T[3, 3] == pytest.approx(-3.5 ** 2)

    def test_outside_source_raises(self):
        m = exterior_map(b=1.0, a=2.5)
        with pytest.raises(ValueError, match="outside the source"):
            pullback_metric(m, np.array([0.0, 2.0, PI / 2, 1.0]))

    def test_image_outside_target_names_sample_and_coordinate(self):
        m = MapDef.create(mink4(), schwarzschild(c=3.0),
                          {"t": "t", "r": "x", "theta": "2", "phi": "3"}, {})
        with pytest.raises(ValueError) as err:
            pullback_metric(m, np.array([0.0, 1.0, 0.0, 0.0]))
        assert str(err.value) == ("image leaves the target domain at sample 0, "
                                  "x = [0.0, 1.0, 0.0, 0.0]: r = 1.0 not in (3.0, inf)")

    def test_cone_margin_matches_closed_form(self):
        # pulled-back frame tensor is diag(b^2, -s, -s, -s) with
        # s = 1/cosh(t)^2, so the pair minimum is b^2 - s
        m = ds_to_es_map(b=0.95)
        for tval in (0.0, 0.2, 1.0):
            x = np.array([tval, PI / 2, PI / 2, 1.0])
            T = pullback_metric(m, x)
            v = dp2_check(m.source.point(x), T)
            want = 0.95 ** 2 - 1.0 / np.cosh(tval) ** 2
            assert v.margin == pytest.approx(want, abs=1e-9)
            assert v.status is (DPStatus.NOT_DP if want < 0 else DPStatus.IN_DP_PLUS)


class TestCheckProperCausal:
    def test_search_outside_bounds_names_the_sample(self, monkeypatch):
        # the identity's rows all close; t -> t + x^2 leaves rows open from
        # sample 1 on, so its first breach is row N + 1 of the stacked solve
        solve = dp._pair_min

        def off(*rows):
            margins, nhat = solve(*rows)
            return margins - 1e6, nhat

        monkeypatch.setattr(dp, "_pair_min", off)
        st = mink4()
        maps = [MapDef.create(st, st, {"t": "t", "x": "x", "y": "y", "z": "z"}, {}),
                MapDef.create(st, st, {"t": "t + x*x", "x": "x", "y": "y", "z": "z"}, {})]
        pts = RegionSampler.build(st, count=64).points()
        with pytest.raises(dp.SandwichError) as err:
            relate._check_relations(maps, pts, dp.TOL_DP, 1)
        assert err.value.index == 64 + 1
        assert str(err.value).endswith(f"at sample 1, x = {pts[1].tolist()}")
        assert f"row {64 + 1} left its bounds" in str(err.value)

    def test_holds_with_expected_margin(self):
        m = ds_to_es_map(b=1.5)
        rep = check_proper_causal(m, ds_sampler(m.source))
        assert rep.verdict is Verdict.HOLDS_SAMPLED
        assert rep.holds
        # the center sample sits at t = 0 where the margin bottoms out
        assert rep.min_margin == pytest.approx(1.5 ** 2 - 1.0, abs=1e-9)
        assert rep.witnesses == ()

    def test_boundary_case_margin_zero(self):
        m = ds_to_es_map(b=1.0)
        rep = check_proper_causal(m, ds_sampler(m.source))
        assert rep.verdict is Verdict.HOLDS_SAMPLED
        assert abs(rep.min_margin) <= 1e-9

    def test_violated_with_witnesses(self):
        m = ds_to_es_map(b=0.95)
        rep = check_proper_causal(m, ds_sampler(m.source))
        assert rep.verdict is Verdict.VIOLATED
        assert not rep.holds
        assert 1 <= len(rep.witnesses) <= 16
        # violation is confined to cosh(t)^2 < 1/b^2
        tmax = float(np.arccosh(1.0 / 0.95))
        for w in rep.witnesses:
            assert abs(w.point[0]) <= tmax + 1e-9
        assert rep.witnesses[0].margin == pytest.approx(rep.min_margin)
        margins = [w.margin for w in rep.witnesses]
        assert margins == sorted(margins)

    def test_witness_vectors_are_null_and_achieve_margin(self):
        m = ds_to_es_map(b=0.95)
        rep = check_proper_causal(m, ds_sampler(m.source))
        w = rep.witnesses[0]
        G = m.source.metric_at(w.point)
        fut = m.source.orientation_at(w.point)
        E = frames(G, fut)
        k, l = w.vectors
        for v in (k, l):
            assert classify(G, E, fut, v) is CausalClass.FUTURE_NULL
        T = pullback_metric(m, w.point)
        assert k @ T @ l == pytest.approx(w.margin, abs=1e-9)

    def test_time_reversal_detected(self):
        st = mink4()
        m = MapDef.create(st, st, {"t": "-t", "x": "x", "y": "y", "z": "z"}, {})
        rep = check_proper_causal(m, RegionSampler.build(st, count=128))
        assert rep.verdict is Verdict.TIME_REVERSED
        assert rep.min_margin >= -1e-12
        assert rep.conformal.everywhere
        assert rep.conformal.lam_range == pytest.approx((1.0, 1.0))

    def test_error_on_domain_breach(self):
        st = mink4()
        m = MapDef.create(st, st, {"t": "sqrt(t)", "x": "x", "y": "y", "z": "z"}, {})
        rep = check_proper_causal(m, RegionSampler.build(st, count=64))
        assert rep.verdict is Verdict.ERROR
        assert rep.error is not None
        assert rep.min_margin is None

    def test_error_on_singular_jacobian(self):
        st = mink4()
        m = MapDef.create(st, st, {"t": "t", "x": "t", "y": "y", "z": "z"}, {})
        rep = check_proper_causal(m, RegionSampler.build(st, count=64))
        assert rep.verdict is Verdict.ERROR
        assert "singular" in rep.error

    def test_error_on_image_outside_target(self):
        m = MapDef.create(mink4(), schwarzschild(c=3.0),
                          {"t": "t", "r": "x", "theta": "2", "phi": "3"}, {})
        rep = check_proper_causal(m, RegionSampler.build(mink4(), count=64))
        assert rep.verdict is Verdict.ERROR
        assert "target domain" in rep.error

    def test_error_on_signature_loss(self):
        st = SpacetimeDef.create(
            name="flipper", coords=("t", "x"),
            domain={"t": (-2.0, -1.0), "x": (-1.0, 1.0)},
            params={},
            metric={(0, 0): "t", (1, 1): "-1"},
            orientation=("1", "0"),
        )
        m = MapDef.create(st, st, {"t": "t", "x": "x"}, {})
        rep = check_proper_causal(m, RegionSampler.build(st, count=32))
        assert rep.verdict is Verdict.ERROR
        assert "Lorentzian" in rep.error

    @pytest.mark.parametrize("metric,orientation,xmap,message,bad,entry", [
        pytest.param(*case, entry, id=name if entry == "check" else f"{name}-{entry}")
        for name, case, entries in [
            ("signature", ("t + 0.5", ("1", "0"), "x", "source metric loses Lorentzian signature",
                           lambda t: t <= -0.5), SAMPLED_ENTRIES),
            ("orientation", ("1", ("1", "t"), "x", "source orientation is not future causal",
                             lambda t: np.abs(t) > 1.0), SAMPLED_ENTRIES),
            ("jacobian", ("1", ("1", "0"), "x*(t + 0.5 + abs(t + 0.5))/6", "map Jacobian singular",
                          lambda t: t <= -0.5), MAP_ENTRIES),
            ("metric_domain", ("sqrt(t + 0.5)", ("1", "0"), "x",
                               "sqrt of negative value in 'sqrt(t + 0.5)'",
                               lambda t: t < -0.5), SAMPLED_ENTRIES),
            ("map_domain", ("1", ("1", "0"), "x*sqrt(t + 0.5)",
                            "sqrt of negative value in 'sqrt(t + 0.5)'",
                            lambda t: t < -0.5), MAP_ENTRIES),
            # the derivative -1e308*200*sin(200 t) overflows off t = 0
            ("map_derivative", ("1", ("1", "0"), "(1e308*cos(200*t))/1e308 + x",
                                "non-finite derivative in '1e+308*cos(200.0*t)/1e+308 + x'",
                                lambda t: np.abs(200.0 * np.sin(200.0 * t))
                                > np.finfo(float).max / 1e308), MAP_ENTRIES),
        ]
        for entry in entries
    ])
    def test_errors_name_sample_coordinates(self, metric, orientation, xmap, message, bad, entry):
        # every sampled entry point validates the chart and the map the same
        # way and names the first failing sample and its coordinates
        st = SpacetimeDef.create(
            name="flat2", coords=("t", "x"),
            domain={"t": (-2.0, 2.0), "x": (-1.0, 1.0)},
            params={},
            metric={(0, 0): metric, (1, 1): "-1"},
            orientation=orientation,
        )
        sampler = RegionSampler.build(st, count=32)
        pts = sampler.points()
        i = int(np.flatnonzero(bad(pts[:, 0]))[0])
        assert i > 0
        error, at = first_error(entry, st, MapDef.create(st, st, {"t": "t", "x": xmap}, {}),
                                sampler)
        assert error == f"{message} at sample {i}, x = {at[i].tolist()}"

    @pytest.mark.parametrize("metric10,xmap,message,entry", [
        pytest.param(*case, entry, id=f"{name}-{entry}")
        for name, case, entries in [
            ("derivative", (None, "(1e308*sin(200*t))/1e308 + x",
                            "non-finite derivative in '1e+308*sin(200.0*t)/1e+308 + x'"),
             MAP_ENTRIES),
            ("constant", ("1/(1 - 1)", "x", "division by zero in '1.0/(1.0 - 1.0)'"),
             SAMPLED_ENTRIES),
        ]
        for entry in entries
    ])
    def test_sample_zero_domain_errors_name_the_sample(self, metric10, xmap, message, entry):
        # the derivative overflows at the centre sample t = 0 already; a
        # constant sub-expression fails at every sample and carries no index
        metric = {(0, 0): "1", (1, 1): "-1"}
        if metric10 is not None:
            metric[(1, 0)] = metric10
        st = SpacetimeDef.create(
            name="flat2", coords=("t", "x"),
            domain={"t": (-2.0, 2.0), "x": (-1.0, 1.0)},
            params={}, metric=metric, orientation=("1", "0"))
        error, at = first_error(entry, st, MapDef.create(st, st, {"t": "t", "x": xmap}, {}),
                                RegionSampler.build(st, count=32))
        assert error == f"{message} at sample 0, x = {at[0].tolist()}"

    @staticmethod
    def _tiny_and_flat():
        # t^40 (+, -) has Lorentzian signature on t in (0.02, 1), but its
        # time axis cannot be normalized where 2 t^20 < 1e-13
        def chart(name, g00, g11):
            return SpacetimeDef.create(
                name=name, coords=("t", "x"), domain={"t": (0.02, 1.0), "x": (-1.0, 1.0)},
                params={}, metric={(0, 0): g00, (1, 1): g11}, orientation=("1", "0"))
        return chart("tiny", "t^40", "-(t^40)"), chart("flat2", "1", "-1")

    @pytest.mark.parametrize("side,entry", [("source", e) for e in SAMPLED_ENTRIES if e != "conformal"]
                             + [("target", "check"), ("target", "curve")])
    def test_degenerate_time_axis_names_the_sample(self, side, entry):
        tiny, flat = self._tiny_and_flat()
        st, tgt = (tiny, flat) if side == "source" else (flat, tiny)
        sampler = RegionSampler.build(st, count=32)
        pts = sampler.points()
        i = int(np.flatnonzero(2.0 * pts[:, 0] ** 20 < 1e-13)[0])
        assert i > 0
        error, at = first_error(entry, st, MapDef.create(st, tgt, {"t": "t", "x": "x"}, {}),
                                sampler)
        assert error == f"timelike normalization below 1e-13 at sample {i}, x = {at[i].tolist()}"

    def test_conformal_factors_need_no_source_frame(self):
        # the conformal check builds no frame, so a source chart whose only
        # fault is its time axis still gets its factors: t^40 (1, -1) pulls
        # back from the flat chart with lambda = t^-40
        tiny, flat = self._tiny_and_flat()
        sampler = RegionSampler.build(tiny, count=32)
        t = sampler.points()[:, 0]
        assert np.any(2.0 * t ** 20 < 1e-13)
        rep = check_conformal(MapDef.create(tiny, flat, {"t": "t", "x": "x"}, {}), sampler)
        assert rep.everywhere
        assert np.allclose(rep.lambdas, t ** -40.0, rtol=1e-12)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_degenerate_time_axis_at_one_point(self, side):
        tiny, flat = self._tiny_and_flat()
        st, tgt = (tiny, flat) if side == "source" else (flat, tiny)
        with pytest.raises(ArithmeticError) as err:
            canonical_null_directions(MapDef.create(st, tgt, {"t": "t", "x": "x"}, {}), [0.05, 0.0])
        assert str(err.value) == "timelike normalization below 1e-13 at sample 0, x = [0.05, 0.0]"

    def test_inconsistent_orientation_names_sample_coordinates(self):
        # t -> |t - 0.3| keeps every cone (|dt'/dt| = 1) but pushes the
        # future field to the past below t = 0.3 and to the future above
        st = SpacetimeDef.create(
            name="flat2", coords=("t", "x"),
            domain={"t": (-2.0, 2.0), "x": (-1.0, 1.0)},
            params={}, metric={(0, 0): "1", (1, 1): "-1"}, orientation=("1", "0"))
        sampler = RegionSampler.build(st, count=32, window={"t": (-1.0, 1.0)})
        pts = sampler.points()
        i = int(np.flatnonzero(pts[:, 0] > 0.3)[0])
        assert pts[0, 0] < 0.3 and i > 0
        rep = check_proper_causal(MapDef.create(st, st, {"t": "abs(t - 0.3)", "x": "x"}, {}),
                                  sampler)
        assert rep.verdict is Verdict.ERROR
        assert rep.error == ("pushed orientation is inconsistent across samples "
                             f"(first breach at sample {i}, x = {pts[i].tolist()})")

    def test_sampler_chart_mismatch_raises(self):
        m = ds_to_es_map(b=1.5)
        with pytest.raises(ValueError, match="sampler chart"):
            check_proper_causal(m, RegionSampler.build(mink4(), count=16))

    def test_pushes_future_causal_to_future_causal(self):
        # spot-check the cone inclusion the verdict certifies
        m = ds_to_es_map(b=1.5)
        samp = ds_sampler(m.source, count=64, seed=3)
        pts = samp.points()
        rep = check_proper_causal(m, samp)
        assert rep.verdict is Verdict.HOLDS_SAMPLED
        rng = np.random.default_rng(7)
        G = m.source.metric_at(pts)
        fut = m.source.orientation_at(pts)
        E = frames(G, fut)
        img, J = m.image_and_jacobian(pts)
        Gt = m.target.metric_at(img)
        futW = m.target.orientation_at(img)
        Ew = frames(Gt, futW)
        for _ in range(5):
            d = rng.normal(size=(len(pts), 3))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            rho = rng.uniform(0.0, 1.0, size=(len(pts), 1))
            vhat = np.concatenate([np.ones((len(pts), 1)), rho * d], axis=1)
            v = np.einsum("nij,nj->ni", E, vhat)
            pushed = np.einsum("nai,ni->na", J, v)
            for c in classify(Gt, Ew, futW, pushed):
                assert c.is_future

    def test_threads_match_serial(self):
        m = ds_to_es_map(b=0.95)
        samp = ds_sampler(m.source, count=512)
        r1 = check_proper_causal(m, samp, threads=1)
        r4 = check_proper_causal(m, samp, threads=4)
        assert r1.verdict is r4.verdict
        assert r1.min_margin == r4.min_margin
        assert [w.margin for w in r1.witnesses] == [w.margin for w in r4.witnesses]

    def test_report_serialization_stable(self):
        m = ds_to_es_map(b=0.95)
        samp = ds_sampler(m.source, count=256)
        d1 = json.dumps(check_proper_causal(m, samp).to_dict(), sort_keys=True)
        d2 = json.dumps(check_proper_causal(m, samp).to_dict(), sort_keys=True)
        assert d1 == d2


class TestExteriorRegion:
    def test_holds_at_safe_offset(self):
        m = exterior_map(b=3.0, M=1.0, c=3.0, a=2.5)
        samp = RegionSampler.build(m.source, count=512, window={"R": (2.5, 20.0)})
        rep = check_proper_causal(m, samp)
        assert rep.verdict is Verdict.HOLDS_SAMPLED
        assert rep.min_margin > 0

    def test_violated_at_horizon_window(self):
        # with the shift collapsed (a = c = 2) the image reaches down to
        # the horizon where the time stretch loses to 1/f
        m = exterior_map(b=3.0, M=1.0, c=2.0, a=2.0)
        samp = RegionSampler.build(m.source, count=512, window={"R": (2.0, 20.0)})
        rep = check_proper_causal(m, samp)
        assert rep.verdict is Verdict.VIOLATED
        b2 = 9.0
        for w in rep.witnesses:
            R = w.point[1]
            f = 1.0 - 2.0 / R
            assert b2 * f * f < 1.0 + 1e-12


class TestCanonicalNullDirections:
    def test_conformal_map_is_degenerate(self):
        st = mink4()
        m = MapDef.create(st, st, {"t": "2*t", "x": "2*x", "y": "2*y", "z": "2*z"}, {})
        res = canonical_null_directions(m, np.array([0.0, 1.0, 0.0, 0.0]))
        assert res.degenerate
        assert len(res.pairs) == 4
        for lam, v in res.pairs:
            assert lam == pytest.approx(4.0)
            assert v[0] ** 2 == pytest.approx(v[1] ** 2 + v[2] ** 2 + v[3] ** 2)

    def test_strict_interior_has_none(self):
        m = ds_to_es_map(b=1.5)
        res = canonical_null_directions(m, np.array([0.0, PI / 2, PI / 2, 1.0]))
        assert not res.degenerate
        assert res.pairs == ()

    def test_boundary_pullback_equals_metric(self):
        # at t = 0 with b = alpha = a = 1 the pullback is the source
        # metric itself, so every null direction is preserved
        m = ds_to_es_map(b=1.0)
        res = canonical_null_directions(m, np.array([0.0, PI / 2, PI / 2, 1.0]))
        assert res.degenerate
        assert len(res.pairs) == 4

    def test_requires_cone_inclusion(self):
        m = ds_to_es_map(b=0.95)
        with pytest.raises(ValueError, match="InDPplus"):
            canonical_null_directions(m, np.array([0.0, PI / 2, PI / 2, 1.0]))


class TestCheckConformal:
    def test_dilation_factor(self):
        st = mink4()
        m = MapDef.create(st, st, {"t": "2*t", "x": "2*x", "y": "2*y", "z": "2*z"}, {})
        rep = check_conformal(m, RegionSampler.build(st, count=128))
        assert rep.everywhere
        assert rep.lam_range == pytest.approx((4.0, 4.0))
        assert rep.samples_checked == 128

    def test_non_conformal_map(self):
        m = exterior_map(b=3.0)
        samp = RegionSampler.build(m.source, count=128, window={"R": (2.5, 20.0)})
        rep = check_conformal(m, samp)
        assert not rep.everywhere
        assert rep.lam_range is None

    def test_one_type_with_derived_sample_count(self):
        st = mink4()
        m = MapDef.create(st, st, {"t": "2*t", "x": "2*x", "y": "2*y", "z": "2*z"}, {})
        samp = RegionSampler.build(st, count=64)
        rep = check_conformal(m, samp)
        assert [f.name for f in dataclasses.fields(rep)] == ["everywhere", "lam_range", "lambdas"]
        assert rep.samples_checked == len(rep.lambdas) == 64
        assert rep.to_dict() == {"everywhere": True, "lam_range": [4.0, 4.0]}
        assert type(check_proper_causal(m, samp).conformal) is type(rep)

    def test_sampler_chart_mismatch_raises(self):
        # de Sitter samples read as Minkowski coordinates would pass
        st = mink4()
        m = MapDef.create(st, st, {"t": "2*t", "x": "2*x", "y": "2*y", "z": "2*z"}, {})
        with pytest.raises(ValueError, match="sampler chart 'de_sitter' does not match"):
            check_conformal(m, ds_sampler(de_sitter(), count=16))

    @pytest.mark.parametrize("name", builtin_names())
    def test_one_criterion_with_conformal_factor(self, name):
        # pullbacks T = 2.5 G + eps c P straddle the tolerance; the one-point
        # conformal_factor must accept and reject exactly the rows that
        # check_conformal does, with the same factor
        st = builtin(name)
        sampler = RegionSampler.build(st, count=40, window=default_window(st))
        pts = sampler.points()
        G, fut = st.metric_at(pts), st.orientation_at(pts)
        c = float(np.median(np.abs(G).max(axis=(1, 2))))
        rng = np.random.default_rng(5)
        n = st.n
        accepted = 0
        for eps in (0.0, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7):
            A = rng.normal(size=(n, n))
            P = A + A.T
            metric = {(i, j): f"2.5*({to_text(st.metric[i, j]) if (i, j) in st.metric else 0})"
                              f" + ({float(eps * c * P[i, j])!r})"
                      for i in range(n) for j in range(i + 1)}
            tgt = SpacetimeDef.create(
                f"{name}_perturbed", st.coords, dict(zip(st.coords, st.domain)), st.params,
                metric, [to_text(e) for e in st.orientation])
            m = MapDef.create(st, tgt, {x: x for x in st.coords})
            lambdas = check_conformal(m, sampler).lambdas
            for i, x in enumerate(pts):
                p = OrientedPoint(x, MetricValue(n, G[i]), fut[i])
                lam = conformal_factor(p, pullback_metric(m, x))
                assert (lam is None) == bool(np.isnan(lambdas[i])), (eps, i)
                assert lam is None or lam == lambdas[i], (eps, i)
                accepted += lam is not None
        assert 0 < accepted < 7 * len(pts)


class TestCheckIsomorphism:
    def test_exterior_iso_without_exact_inverse(self):
        fwd = exterior_map(b=3.0, M=1.0, c=3.0, a=2.5)
        bwd = MapDef.create(
            fwd.target, fwd.source,
            {"T": "t", "R": "r - c + a", "theta": "theta", "phi": "phi"},
            {"a": 2.5, "c": 3.0},
        )
        sf = RegionSampler.build(fwd.source, count=256, window={"R": (2.5, 20.0)})
        sb = RegionSampler.build(fwd.target, count=256, window={"r": (3.0, 20.0)})
        rep = check_isomorphism(fwd, bwd, sf, sb)
        assert rep.isomorphic
        assert rep.forward.verdict is Verdict.HOLDS_SAMPLED
        assert rep.backward.verdict is Verdict.HOLDS_SAMPLED
        assert not rep.time_reversed
        # backward is not the pointwise inverse (time scales differ)
        assert not rep.inverse_verified
        assert rep.conformal is None

    def test_exact_inverse_enables_conformal(self):
        st = mink4()
        fwd = MapDef.create(st, st, {"t": "2*t", "x": "2*x", "y": "2*y", "z": "2*z"}, {})
        bwd = MapDef.create(st, st, {"t": "t/2", "x": "x/2", "y": "y/2", "z": "z/2"}, {})
        s = RegionSampler.build(st, count=256)
        rep = check_isomorphism(fwd, bwd, s, s)
        assert rep.isomorphic
        assert rep.inverse_verified
        assert rep.conformal is not None
        assert rep.conformal.everywhere
        assert rep.conformal.lam_range == pytest.approx((4.0, 4.0))

    def test_conformal_is_the_forward_checks_own(self):
        # u -> e^u, v -> e^v in null coordinates (ds^2 = du dv) is conformal
        # with a factor e^(u+v) that varies from sample to sample
        def null_chart(name, lo, hi):
            return SpacetimeDef.create(
                name=name, coords=("u", "v"), domain={"u": (lo, hi), "v": (lo, hi)},
                params={}, metric={(1, 0): "0.5"}, orientation=("1", "1"))

        src, tgt = null_chart("null_src", -1.0, 1.0), null_chart("null_tgt", 0.1, 3.0)
        fwd = MapDef.create(src, tgt, {"u": "exp(u)", "v": "exp(v)"}, {})
        bwd = MapDef.create(tgt, src, {"u": "log(u)", "v": "log(v)"}, {})
        sf = RegionSampler.build(src, count=128)
        sb = RegionSampler.build(tgt, count=96, window={"u": (0.4, 2.7), "v": (0.4, 2.7)})
        rep = check_isomorphism(fwd, bwd, sf, sb)
        want = check_conformal(fwd, sf)
        assert rep.isomorphic and rep.inverse_verified
        assert np.array_equal(rep.conformal.lambdas, want.lambdas)
        assert rep.conformal.lam_range == want.lam_range
        assert want.lam_range[1] > 2.0 * want.lam_range[0]
        assert rep.to_dict()["conformal"] == {**want.to_dict(), "samples_checked": 128}

    def test_each_sampler_drawn_once(self, monkeypatch):
        draws = []
        points = RegionSampler.points

        def counting(self):
            draws.append(self.seed)
            return points(self)

        monkeypatch.setattr(RegionSampler, "points", counting)
        st = mink4()
        fwd = MapDef.create(st, st, {"t": "2*t", "x": "2*x", "y": "2*y", "z": "2*z"}, {})
        bwd = MapDef.create(st, st, {"t": "t/2", "x": "x/2", "y": "y/2", "z": "z/2"}, {})
        rep = check_isomorphism(fwd, bwd, RegionSampler.build(st, count=64),
                                RegionSampler.build(st, count=64, seed=1))
        assert rep.conformal is not None
        assert draws == [0, 1]

    def test_not_isomorphic_when_one_direction_fails(self):
        fwd = exterior_map(b=3.0, M=1.0, c=2.0, a=2.0)
        bwd = MapDef.create(
            fwd.target, fwd.source,
            {"T": "t", "R": "r - c + a", "theta": "theta", "phi": "phi"},
            {"a": 2.0, "c": 2.0},
        )
        sf = RegionSampler.build(fwd.source, count=256, window={"R": (2.0, 20.0)})
        sb = RegionSampler.build(fwd.target, count=256, window={"r": (2.0, 20.0)})
        rep = check_isomorphism(fwd, bwd, sf, sb)
        assert not rep.isomorphic
        assert rep.forward.verdict is Verdict.VIOLATED

    def test_time_reversal_iso(self):
        st = mink4()
        m = MapDef.create(st, st, {"t": "-t", "x": "x", "y": "y", "z": "z"}, {})
        s = RegionSampler.build(st, count=128)
        rep = check_isomorphism(m, m, s, s)
        assert rep.isomorphic
        assert rep.time_reversed
        assert rep.inverse_verified
        assert rep.conformal.everywhere


class TestCurvePushforward:
    def curve(self):
        return ("u", "0.9*u", "0", "0")

    def stretch(self, b):
        st = mink4()
        return MapDef.create(
            st, st, {"t": f"{b}*t", "x": "x", "y": "y", "z": "z"}, {})

    def test_slow_stretch_breaks_timelike(self):
        assert curve_pushforward_check(
            self.stretch(0.5), self.curve(), np.linspace(-1, 1, 11)) is False

    def test_fast_stretch_keeps_timelike(self):
        assert curve_pushforward_check(
            self.stretch(1.5), self.curve(), np.linspace(-1, 1, 11)) is True

    def test_rejects_non_timelike_curve(self):
        with pytest.raises(ValueError, match="future timelike"):
            curve_pushforward_check(
                self.stretch(1.5), ("u", "1.1*u", "0", "0"), [0.0, 0.5])

    def test_rejects_curve_leaving_domain(self):
        m = exterior_map(b=3.0)
        with pytest.raises(ValueError, match="source domain"):
            curve_pushforward_check(m, ("u", "2*u", "1.5", "1.0"), [0.5, 2.0])


# ---------------------------------------------------------------------------
# sample blocks: the same reports from any block size (above the first
# failing block) and any thread count


FRW_MAP = """\
source = frw_flat
target = minkowski
param k = {k}
map t = k*t
map x = x
map y = y
map z = z
"""

SCENARIO_RUNS = [
    ("desitter_to_einstein", {"b": 0.95}, None),
    ("desitter_to_einstein", {"b": 1.0}, None),
    ("desitter_to_einstein", {"b": 1.5}, None),
    ("minkowski_to_schwarzschild", {}, None),
    ("schwarzschild_to_minkowski", {}, None),
    ("schwarzschild_iso", {}, None),
    ("vaidya_flow", {}, None),
    ("frw_candidate", {}, "40.0"),
    ("frw_candidate", {}, "1.0"),
]


@pytest.fixture
def many_cores(monkeypatch):
    """Eight cores, so that threads=3 runs three blocks at once on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


def small_blocks(mp, size=16):
    """Blocks of `size` samples, so that small checks run many blocks."""
    mp.setattr(relate, "BLOCK_SAMPLES", size)


def record_relations(mp):
    """A list that fills with every report of `_check_relations`."""
    reports = []
    check = relate._check_relations

    def recorded_check(*args):
        out = check(*args)
        reports.extend(out)
        return out

    mp.setattr(relate, "_check_relations", recorded_check)
    mp.setattr(flows, "_check_relations", recorded_check)
    return reports


def assert_same_relations(a, b):
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    for ra, rb in zip(a, b):
        assert (ra.conformal is None) == (rb.conformal is None)
        if ra.conformal is not None:
            assert np.array_equal(ra.conformal.lambdas, rb.conformal.lambdas, equal_nan=True)


def relations(maps, pts, threads):
    return relate._check_relations(maps, pts, dp.TOL_DP, threads)


class RecordingPool(concurrent.futures.ThreadPoolExecutor):
    """ThreadPoolExecutor that records the max_workers of every pool made."""

    made = []

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        RecordingPool.made.append(max_workers)


class SerialPool:
    """Stand-in for ThreadPoolExecutor that runs the blocks in order on the
    calling thread and records the max_workers it was made with."""

    made = []

    def __init__(self, max_workers):
        SerialPool.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def two_failing_blocks():
    """A map on 32 samples whose image leaves the target at sample 3 only and
    whose source metric loses its signature at sample 20 only."""
    def chart(name, t_hi):
        return SpacetimeDef.create(
            name=name, coords=("t", "x"), domain={"t": (-3.0, t_hi), "x": (-1.0, 1.0)},
            params={}, metric={(0, 0): "1", (1, 1): "x*x - 0.81"}, orientation=("1", "0"))

    src = chart("flat2", 3.0)
    m = MapDef.create(src, chart("short", 2.0), {"t": "t", "x": "x"}, {})
    sampler = RegionSampler.build(src, count=32, window={"t": (-1.0, 1.0), "x": (-0.5, 0.5)})
    pts = sampler.points()
    pts[3, 0], pts[20, 1] = 2.5, 0.95
    return m, sampler, pts


class TestThreads:
    @pytest.mark.parametrize("count", [1, 2, 1021, 2048])
    @pytest.mark.parametrize("name,params,k", SCENARIO_RUNS)
    def test_scenarios_equal_one_thread(self, many_cores, monkeypatch, tmp_path,
                                        name, params, k, count):
        # one block of the whole batch against blocks of 256 samples on 1, 2
        # and 3 threads: the same reports, and worker threads only above one
        # thread and one block
        map_path = None
        if k is not None:
            map_path = tmp_path / "frw.map"
            map_path.write_text(FRW_MAP.format(k=k))

        def run(threads, block=None):
            with monkeypatch.context() as mp:
                if block:
                    small_blocks(mp, block)
                mp.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
                RecordingPool.made = []
                reports = record_relations(mp)
                out = run_scenario(name, samples=count, threads=threads, params=dict(params),
                                   map_path=map_path)
            return out.report, reports, RecordingPool.made

        one, reports1, made = run(1)
        assert reports1 and made == []
        for threads in (1, 2, 3):
            rep, reports, made = run(threads, block=256)
            assert_same_relations(reports1, reports)
            assert rep["threads"] == threads
            assert (rep["timing_s"] is None) == (threads == 1)
            assert {**one, "threads": None, "timing_s": None} == \
                {**rep, "threads": None, "timing_s": None}
            blocks = -(-count // 256)
            assert made == ([min(threads, blocks)] * len(made) if threads > 1 and blocks > 1
                            else [])
            assert (len(made) > 0) == (threads > 1 and blocks > 1)

    @pytest.mark.parametrize("count", [2, 5, 1021, 2048])
    def test_searched_rows_equal_one_thread(self, many_cores, monkeypatch, count):
        # t -> t + x^2 leaves the bounds open from sample 1 on, so its rows
        # are solved: the stationary pairs of each block's open rows
        st = mink4()
        maps = [MapDef.create(st, st, {"t": "t", "x": "x", "y": "y", "z": "z"}, {}),
                MapDef.create(st, st, {"t": "t + x*x", "x": "x", "y": "y", "z": "z"}, {})]
        pts = RegionSampler.build(st, count=count).points()
        one = relations(maps, pts, 1)
        small_blocks(monkeypatch)
        for threads in (1, 2, 3):
            assert_same_relations(one, relations(maps, pts, threads))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_witnesses_are_the_batch_worst(self, many_cores, monkeypatch, threads):
        # the 16 worst samples over the whole batch by (margin, index), from
        # the whole batch's frame tensors, against 16 blocks of 16 samples
        m = ds_to_es_map(b=0.95)
        pts = ds_sampler(m.source, count=256).points()
        That = relate._map_stage(m, pts, *relate._source_stage(m.source, pts))[0]
        margins = dp.dp2_margins(That)[0]
        bad = np.flatnonzero(margins < -dp.TOL_DP * np.maximum(1.0, np.abs(That).max(axis=(1, 2))))
        worst = bad[np.argsort(margins[bad], kind="stable")][:16]
        assert len(bad) > 16 and len(set(worst // 16)) > 1
        small_blocks(monkeypatch)
        rep = relations([m], pts, threads)[0]
        assert [(w.point.tolist(), w.margin) for w in rep.witnesses] == \
            [(pts[i].tolist(), margins[i]) for i in worst]

    def test_thread_count_is_capped(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a real thread was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        small_blocks(monkeypatch)
        m = ds_to_es_map(b=1.5)
        samp = ds_sampler(m.source, count=64)
        pts = samp.points()
        one = relations([m], pts, 1)
        # k = min(threads, cores, blocks): 64 samples are 4 blocks of 16
        for cores, count, workers in ((2, 64, [2]), (8, 64, [4]), (8, 33, [3]), (8, 16, []),
                                      (8, 1, []), (None, 64, [])):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            SerialPool.made = []
            assert_same_relations(relations([m], pts[:count], 10_000), relations([m], pts[:count], 1))
            assert SerialPool.made == workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        SerialPool.made = []
        assert_same_relations([check_proper_causal(m, samp, threads=10_000)], one)
        assert SerialPool.made == [2]
        rep = run_scenario("desitter_to_einstein", samples=64, threads=10_000).report
        assert rep["threads"] == 10_000

    def test_conformal_and_null_cone_honour_the_thread_setting(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        small_blocks(monkeypatch)
        m = ds_to_es_map(b=1.5)
        samp = ds_sampler(m.source, count=64)
        xi = GeneratorField.create(m.source, ("1", "0", "0", "0"))
        made, seen = [], []
        for threads in ("1", "3"):
            monkeypatch.setenv("CAUSALKIT_THREADS", threads)
            SerialPool.made = []
            seen.append((check_conformal(m, samp).to_dict(),
                         null_cone_nonneg(m.source, xi, samp).to_dict()))
            made.append(SerialPool.made)
        assert made == [[], [3, 3]]
        assert seen[0] == seen[1]

    def test_thread_setting_below_one_is_an_input_error(self, monkeypatch):
        m = ds_to_es_map(b=1.5)
        samp = ds_sampler(m.source, count=16)
        for threads in (0, -2):
            with pytest.raises(ValueError, match=f"threads must be an integer of at least 1, "
                                                 f"got {threads}"):
                check_proper_causal(m, samp, threads=threads)
        for value in ("0", "-1", "two", "1.5"):
            monkeypatch.setenv("CAUSALKIT_THREADS", value)
            with pytest.raises(ValueError) as err:
                check_proper_causal(m, samp)
            assert str(err.value) == \
                f"CAUSALKIT_THREADS must be an integer of at least 1, got '{value}'"
            with pytest.raises(ValueError, match="CAUSALKIT_THREADS"):
                check_conformal(m, samp)

    def test_no_thread_outlives_the_check(self, many_cores, monkeypatch):
        small_blocks(monkeypatch)
        m = ds_to_es_map(b=1.5)
        samp = ds_sampler(m.source, count=256)
        before = set(threading.enumerate())
        rep = check_proper_causal(m, samp, threads=2)
        assert rep.verdict is Verdict.HOLDS_SAMPLED
        assert set(threading.enumerate()) == before
        # nor when a block raises: block 5 of 16, with blocks after it
        stages = relate._stages

        def fail_in_fifth(maps, x, start, tol_dp):
            if start == 80:
                raise dp.SandwichError("synthetic", 0)
            return stages(maps, x, start, tol_dp)

        monkeypatch.setattr(relate, "_stages", fail_in_fifth)
        with pytest.raises(dp.SandwichError, match="synthetic at sample 80, x = "):
            check_proper_causal(m, samp, threads=3)
        assert set(threading.enumerate()) == before

    def test_blocks_keep_the_callers_error_state(self, many_cores, monkeypatch):
        # and at most `threads` blocks run at once
        seen, running, most = [], [0], [0]
        lock = threading.Lock()
        stages = relate._stages

        def recorded(*args):
            with lock:
                seen.append(np.geterr()["over"])
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                return stages(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(relate, "_stages", recorded)
        small_blocks(monkeypatch)
        m = ds_to_es_map(b=1.5)
        pts = ds_sampler(m.source, count=160).points()
        with np.errstate(over="raise"):
            relations([m], pts, 3)
        assert seen == ["raise"] * 10
        assert 1 <= most[0] <= 3

    def test_domain_error_at_last_sample(self, many_cores, monkeypatch):
        st = mink4()
        m = MapDef.create(st, st, {"t": "t + sqrt(1 - t)", "x": "x", "y": "y", "z": "z"}, {})
        pts = RegionSampler.build(st, count=64, window={"t": (-1.0, 0.5)}).points()
        pts[-1, 0] = 2.0
        one = relations([m], pts, 1)
        assert one[0].verdict is Verdict.ERROR
        assert f"at sample 63, x = {pts[63].tolist()}" in one[0].error
        small_blocks(monkeypatch)
        for threads in (1, 2, 3):
            assert_same_relations(one, relations([m], pts, threads))

    def test_image_leaves_target_in_second_block(self, many_cores, monkeypatch):
        st = SpacetimeDef.create(
            name="bounded", coords=("t", "x"),
            domain={"t": (-3.0, 3.0), "x": (-1.0, 1.0)},
            params={}, metric={(0, 0): "1", (1, 1): "-exp(t/2)"},
            orientation=("1", "0"))
        fl = FlowDef.create(st, "s", {"t": "t + s", "x": "x"}, (-3.0, 3.0))
        maps = [flow_map(fl, s) for s in (-1.0, -0.5, 0.0, 0.25)]
        pts = RegionSampler.build(st, count=64, window={"t": (-1.0, 1.0)}).points()
        pts[40, 0] = 2.9
        one = relations(maps, pts, 1)
        assert [r.verdict for r in one][:3] == [Verdict.HOLDS_SAMPLED] * 3
        assert one[3].error.startswith(f"image leaves the target domain at sample 40, "
                                       f"x = {pts[40].tolist()}")
        small_blocks(monkeypatch)
        for threads in (1, 2, 3):
            assert_same_relations(one, relations(maps, pts, threads))

    def test_first_failing_block_names_the_error(self, many_cores, monkeypatch):
        # block 0 fails the image stage at sample 3, block 1 the source
        # signature at sample 20: the whole batch as one block checks the
        # source stage first and names sample 20; blocks of 16 name sample 3
        m, sampler, pts = two_failing_blocks()
        whole = relations([m], pts, 1)[0]
        assert whole.error == ("source metric loses Lorentzian signature "
                               f"at sample 20, x = {pts[20].tolist()}")
        small_blocks(monkeypatch)
        image = (f"image leaves the target domain at sample 3, x = {pts[3].tolist()}: "
                 "t = 2.5 not in (-3.0, 2.0)")
        for threads in (1, 2, 3):
            assert relations([m], pts, threads)[0].error == image
        # a raising check: check_conformal on the same points, per thread setting
        monkeypatch.setattr(RegionSampler, "points", lambda self: pts.copy())
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("CAUSALKIT_THREADS", threads)
            with pytest.raises(ValueError) as err:
                check_conformal(m, sampler)
            assert str(err.value) == image

    def test_peak_memory_grows_with_the_block(self, monkeypatch):
        # a one-thread check keeps per sample only its margin, sign and
        # conformal factor (and the sample): quadrupling N from 4 to 16
        # blocks adds far less than the blocks' working set would
        import tracemalloc

        small_blocks(monkeypatch, 512)
        m = ds_to_es_map(b=1.5)

        def peak(count):
            samp = ds_sampler(m.source, count=count)
            tracemalloc.start()
            try:
                rep = check_proper_causal(m, samp, threads=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert rep.samples_checked == count

        small, large = peak(4 * 512), peak(16 * 512)
        assert large < 1.6 * small

    def test_search_failure_in_second_block(self, many_cores, monkeypatch, capsys):
        # capture the scenario's frame tensors, then fail the search on the
        # row of one sample j of block 2 or 3 only, wherever that row lands
        # in a batch (the tensor is even in t, so j is the first with a
        # unique row)
        small_blocks(monkeypatch)
        captured = []
        search = relate.dp2_margins

        def capture(That):
            captured.append(That)
            return search(That)

        argv = ["scenario", "desitter_to_einstein", "--samples", "64"]
        with monkeypatch.context() as mp:
            mp.setattr(relate, "dp2_margins", capture)
            main(argv + ["--threads", "1"])
        capsys.readouterr()
        rows = np.concatenate(captured)
        j = next(j for j in range(40, 64) if np.all(rows == rows[j], axis=(1, 2)).sum() == 1)
        marker = rows[j]

        def fail_at_marker(That):
            hit = np.flatnonzero(np.all(That == marker, axis=(1, 2)))
            if len(hit):
                raise dp.SandwichError(f"pair margin of row {hit[0]} left its bounds",
                                       int(hit[0]))
            return search(That)

        monkeypatch.setattr(relate, "dp2_margins", fail_at_marker)
        outs = []
        for threads in ("1", "2", "3"):
            rc = main(argv + ["--threads", threads])
            outs.append((rc,) + tuple(capsys.readouterr()))
        assert outs[0][0] == 3
        assert f"row {j % 16} left its bounds at sample {j}, x = " in outs[0][2]
        assert outs[1] == outs[0] and outs[2] == outs[0]

        m = ds_to_es_map(b=1.0)
        pts = ds_sampler(m.source, count=64).points()
        raised = []
        for threads in (1, 2, 3):
            with pytest.raises(dp.SandwichError) as err:
                relations([m], pts, threads)
            raised.append((str(err.value), err.value.index))
        assert raised[0][1] == j % 16
        assert raised[1] == raised[0] and raised[2] == raised[0]
