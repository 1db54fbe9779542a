"""Tests for chart definitions, sampling, and the sampled causal checks."""

import dataclasses
import json

import numpy as np
import pytest

from causalkit import relate
from causalkit.catalog import builtin, builtin_names, default_window
from causalkit.dp import DPStatus, conformal_factor, dp2_check
from causalkit.exprcore import UnknownIdentifierError, to_text
from causalkit.flows import GeneratorField, null_cone_nonneg
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


class TestRegionSampler:
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
