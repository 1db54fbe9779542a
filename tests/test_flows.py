"""Tests for flows: generators, Lie derivatives, and per-parameter checks."""

import os

import numpy as np
import pytest

from causalkit import flows, relate
from causalkit.dp import dp2_margins
from causalkit.exprcore import seed_env
from causalkit.flows import (
    FlowDef,
    GeneratorField,
    check_submonoid,
    flow_map,
    generator,
    lie_derivative_metric,
    null_cone_nonneg,
    verify_identity,
)
from causalkit.relate import (
    MapDef,
    RegionSampler,
    SpacetimeDef,
    Verdict,
    canonical_null_directions,
    check_proper_causal,
    compose_maps,
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


def vaidya(mass="2 - tanh(t)"):
    """Radiating mass chart; the (t, r) block is [[1-2M/r, -1], [-1, 0]]."""
    return SpacetimeDef.create(
        name="vaidya",
        coords=("t", "r", "theta", "phi"),
        domain={"t": (-INF, INF), "r": (0.0, INF), "theta": (0.0, PI), "phi": (0.0, 2 * PI)},
        params={},
        metric={
            (0, 0): f"1 - 2*({mass})/r",
            (1, 0): "-1",
            (2, 2): "-r^2",
            (3, 3): "-r^2*sin(theta)^2",
        },
        orientation=("0.001", "-1", "0", "0"),
        exclusions=("sin(theta)",),
    )


def vaidya_sampler(st, count=128, seed=0):
    return RegionSampler.build(st, count=count, seed=seed,
                               window={"t": (-5.0, 5.0), "r": (0.5, 20.0)})


def translation_flow(st=None):
    st = st or mink4()
    return FlowDef.create(
        st, "s", {"t": "t + s", "x": "x", "y": "y", "z": "z"}, (-2.0, 2.0))


class TestFlowDef:
    def test_missing_component(self):
        with pytest.raises(ValueError, match="lacks components"):
            FlowDef.create(mink4(), "s", {"t": "t + s"}, (-1.0, 1.0))

    def test_unknown_component(self):
        with pytest.raises(ValueError, match="'X' is not a coordinate of 'mink'"):
            FlowDef.create(mink4(), "s", {"t": "t + s", "x": "x", "y": "y", "z": "z", "X": "s"},
                           (-1.0, 1.0))

    def test_param_shadowing_coordinate(self):
        with pytest.raises(ValueError, match="shadows"):
            FlowDef.create(mink4(), "t",
                           {"t": "t", "x": "x", "y": "y", "z": "z"}, (-1.0, 1.0))

    def test_range_must_contain_zero(self):
        with pytest.raises(ValueError, match="contain 0"):
            FlowDef.create(mink4(), "s",
                           {"t": "t + s", "x": "x", "y": "y", "z": "z"}, (1.0, 2.0))


class TestFlowMap:
    def test_freezes_parameter(self):
        m = flow_map(translation_flow(), 0.75)
        out = m.image(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(out, [1.75, 2.0, 3.0, 4.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside the declared range"):
            flow_map(translation_flow(), 5.0)

    def test_semigroup_composition(self):
        st = mink4()
        fl = FlowDef.create(
            st, "s", {"t": "t*exp(s)", "x": "x", "y": "y", "z": "z"}, (-2.0, 2.0))
        comp = compose_maps(flow_map(fl, 0.3), flow_map(fl, 0.5))
        direct = flow_map(fl, 0.8)
        pts = np.array([[0.4, 1.0, -2.0, 0.5], [-3.0, 0.0, 0.0, 1.0]])
        assert np.max(np.abs(comp.image(pts) - direct.image(pts))) < 1e-10


class TestVerifyIdentity:
    def test_accepts_identity(self):
        pts = np.array([[0.0, 1.0, 2.0, 3.0], [5.0, -1.0, 0.0, 0.0]])
        verify_identity(translation_flow(), pts)

    def test_rejects_offset_family(self):
        st = mink4()
        fl = FlowDef.create(
            st, "s", {"t": "t + s + 0.1", "x": "x", "y": "y", "z": "z"}, (-1.0, 1.0))
        with pytest.raises(ValueError, match="not the identity"):
            verify_identity(fl, np.array([[0.0, 0.0, 0.0, 0.0]]))

    def test_message_names_worst_sample_coordinates(self):
        st = mink4()
        fl = FlowDef.create(
            st, "s", {"t": "t + s + 0.01*x^2", "x": "x", "y": "y", "z": "z"}, (-1.0, 1.0))
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                        [0.0, 3.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
        with pytest.raises(ValueError) as err:
            verify_identity(fl, pts)
        assert str(err.value) == (
            "flow is not the identity at s = 0 (residual 9.000e-02 "
            "at sample 2, x = [0.0, 3.0, 0.0, 0.0])")


class TestGenerator:
    def test_translation(self):
        pts = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]])
        v = generator(translation_flow(), pts)
        assert np.allclose(v, [[1.0, 0.0, 0.0, 0.0]] * 2)

    def test_exponential_stretch(self):
        st = mink4()
        fl = FlowDef.create(
            st, "s", {"t": "t*exp(s)", "x": "x", "y": "y", "z": "z"}, (-1.0, 1.0))
        v = generator(fl, np.array([[3.0, 1.0, 1.0, 1.0]]))
        assert np.allclose(v, [[3.0, 0.0, 0.0, 0.0]])

    def test_nonlinear_component(self):
        st = mink4()
        fl = FlowDef.create(
            st, "s", {"t": "t", "x": "x + s*sin(x)", "y": "y", "z": "z"}, (-1.0, 1.0))
        v = generator(fl, np.array([[0.0, PI / 2, 0.0, 0.0]]))
        assert np.allclose(v, [[0.0, 1.0, 0.0, 0.0]])


class TestGeneratorField:
    def test_values(self):
        xi = GeneratorField.create(mink4(), ("t", "x", "y", "z"))
        pts = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert np.allclose(xi.values(pts), pts)

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            GeneratorField.create(mink4(), ("w", "0", "0", "0"))

    def test_dict_components_by_name(self):
        st = mink4()
        xi = GeneratorField.create(st, {"x": "0", "t": "1", "y": "0", "z": "0"})
        pts = np.array([[0.0, 1.0, 2.0, 3.0]])
        assert np.allclose(xi.values(pts), [[1.0, 0.0, 0.0, 0.0]])

    def test_dict_missing_component(self):
        with pytest.raises(ValueError, match="lacks components"):
            GeneratorField.create(mink4(), {"t": "1"})

    def test_dict_unknown_component(self):
        with pytest.raises(ValueError, match="'X' is not a coordinate of 'mink'"):
            GeneratorField.create(mink4(), {"t": "1", "x": "0", "y": "0", "z": "0", "X": "1"})


class TestLieDerivative:
    def test_killing_translation_vanishes(self):
        st = mink4()
        xi = GeneratorField.create(st, ("1", "0", "0", "0"))
        pts = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 0.5, 0.0]])
        assert np.max(np.abs(lie_derivative_metric(st, xi, pts))) < 1e-12

    def test_killing_boost_vanishes(self):
        st = mink4()
        xi = GeneratorField.create(st, ("x", "t", "0", "0"))
        pts = np.array([[0.3, 1.0, 2.0, 3.0]])
        assert np.max(np.abs(lie_derivative_metric(st, xi, pts))) < 1e-12

    def test_dilation_gives_twice_metric(self):
        st = mink4()
        xi = GeneratorField.create(st, ("t", "x", "y", "z"))
        pts = np.array([[0.3, 1.0, -2.0, 0.5]])
        lie = lie_derivative_metric(st, xi, pts)
        assert np.allclose(lie[0], 2.0 * np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_rotation_killing_on_spherical_chart(self):
        st = vaidya("2")
        xi = GeneratorField.create(st, ("0", "0", "0", "1"))
        pts = np.array([[0.0, 5.0, 1.0, 2.0]])
        assert np.max(np.abs(lie_derivative_metric(st, xi, pts))) < 1e-12

    def test_radiating_mass_time_derivative(self):
        st = vaidya("2 - tanh(t)")
        xi = GeneratorField.create(st, ("1", "0", "0", "0"))
        pts = vaidya_sampler(st, count=64).points()
        lie = lie_derivative_metric(st, xi, pts)
        t, r = pts[:, 0], pts[:, 1]
        want = np.zeros_like(lie)
        want[:, 0, 0] = 2.0 / (r * np.cosh(t) ** 2)
        assert np.max(np.abs(lie - want)) < 1e-12

    def test_single_point_shape(self):
        st = mink4()
        xi = GeneratorField.create(st, ("t", "x", "y", "z"))
        lie = lie_derivative_metric(st, xi, np.array([0.3, 1.0, -2.0, 0.5]))
        assert lie.shape == (4, 4)

    def test_matches_the_einsum_formula(self):
        # (L_xi g)_ab = xi^c d_c g_ab + g_cb d_a xi^c + g_ac d_b xi^c, summed
        # by einsum on the same metric, generator and all n partials of the
        # metric (dG[..., a, b, c] = d_c g_ab), from identity-seeded duals
        st = vaidya("2 - tanh(t)")
        xi = GeneratorField.create(st, ("r*sin(t)", "t + r^2/10", "cos(theta)*r", "phi*t"))
        pts = vaidya_sampler(st, count=256).points()
        env = seed_env(st.coords, pts, st.params)
        vals, rows = relate._dual_components(tuple(st.metric.values()), env)
        G = st._symmetric(vals)
        dG = np.moveaxis(st._symmetric(np.swapaxes(rows, -1, -2)), -3, -1)
        xiv, dxi = relate._dual_components(xi.exprs, env)
        want = (np.einsum("...c,...abc->...ab", xiv, dG)
                + np.einsum("...cb,...ca->...ab", G, dxi)
                + np.einsum("...ac,...cb->...ab", G, dxi))
        lie = lie_derivative_metric(st, xi, pts)
        assert np.max(np.abs(lie - want)) <= 1e-14 * np.max(np.abs(want))
        one = lie_derivative_metric(st, xi, pts[7])
        assert np.max(np.abs(one - want[7])) <= 1e-14 * np.max(np.abs(want[7]))

    def test_chart_mismatch(self):
        xi = GeneratorField.create(mink4(), ("1", "0", "0", "0"))
        with pytest.raises(ValueError, match="different spacetime"):
            lie_derivative_metric(vaidya(), xi, np.array([0.0, 5.0, 1.0, 1.0]))


class TestCheckSubmonoid:
    def test_translation_is_group(self):
        st = mink4()
        fl = translation_flow(st)
        samp = RegionSampler.build(st, count=128)
        rep = check_submonoid(fl, [-1.0, -0.5, 0.0, 0.5, 1.0], samp)
        assert rep.group
        assert rep.interval == (-1.0, 1.0)
        assert rep.conformal_group
        assert [s.s for s in rep.steps] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert all(s.verdict is Verdict.HOLDS_SAMPLED for s in rep.steps)
        assert rep.samples_checked == 128

    def test_bad_chart_is_an_input_error(self):
        # g_tt = x loses the signature at x = 0: the identity at s = 0 fails
        # the chart's stage, and that located error is raised as bad input
        st = SpacetimeDef.create(
            name="bad", coords=("t", "x"), domain={"t": (-1.0, 1.0), "x": (-1.0, 1.0)},
            params={}, metric={(0, 0): "x", (1, 1): "-1"}, orientation=("1", "0"))
        fl = FlowDef.create(st, "s", {"t": "t + s", "x": "x"}, (-1.0, 1.0))
        with pytest.raises(ValueError) as err:
            check_submonoid(fl, [-0.5, 0.5], RegionSampler.build(st, count=64))
        assert str(err.value) == ("source metric loses Lorentzian signature at sample 0, "
                                  "x = [0.0, 0.0]")

    @pytest.mark.parametrize("verdict", [Verdict.VIOLATED, Verdict.TIME_REVERSED])
    def test_failing_identity_is_an_internal_fault(self, monkeypatch, verdict):
        from causalkit import flows

        check = flows._check_relations

        def identity_fails(maps, *args):
            reports = check(maps, *args)
            return [r if i != 1 else relate.RelationReport(verdict, r.samples_checked, -1.0, (), None)
                    for i, r in enumerate(reports)]

        monkeypatch.setattr(flows, "_check_relations", identity_fails)
        st = mink4()
        with pytest.raises(ArithmeticError, match="identity map itself failed"):
            check_submonoid(translation_flow(st), [-1.0, 1.0], RegionSampler.build(st, count=16))

    def test_zero_inserted_into_grid(self):
        st = mink4()
        rep = check_submonoid(translation_flow(st), [-1.0, 1.0],
                              RegionSampler.build(st, count=64))
        assert [s.s for s in rep.steps] == [-1.0, 0.0, 1.0]

    def test_radiating_mass_is_one_sided(self):
        st = vaidya("2 - tanh(t)")
        fl = FlowDef.create(
            st, "s", {"t": "t + s", "r": "r", "theta": "theta", "phi": "phi"},
            (-2.0, 2.0))
        samp = vaidya_sampler(st)
        rep = check_submonoid(fl, [-1.0, -0.5, 0.0, 0.5, 1.0], samp)
        assert not rep.group
        assert rep.conformal_group is None
        assert rep.interval == (0.0, 1.0)
        by_s = {s.s: s.verdict for s in rep.steps}
        assert by_s[-0.5] is Verdict.VIOLATED
        assert by_s[0.5] is Verdict.HOLDS_SAMPLED
        assert by_s[1.0] is Verdict.HOLDS_SAMPLED

    def test_non_identity_flow_rejected(self):
        st = mink4()
        fl = FlowDef.create(
            st, "s", {"t": "t + s + 1", "x": "x", "y": "y", "z": "z"}, (-1.0, 1.0))
        with pytest.raises(ValueError, match="not the identity"):
            check_submonoid(fl, [0.0], RegionSampler.build(st, count=32))

    def test_report_serialization(self):
        st = mink4()
        rep = check_submonoid(translation_flow(st), [-0.5, 0.0, 0.5],
                              RegionSampler.build(st, count=64))
        d = rep.to_dict()
        assert d["group"] is True
        assert len(d["steps"]) == 3
        assert d["steps"][0]["verdict"] == "HOLDS_SAMPLED"


def bounded_expansion():
    """2-D chart ds^2 = dt^2 - e^(t/2) dx^2 with t bounded to (-3, 3).

    The time shift by s sends null vectors to causal ones exactly when the
    scale factor does not grow, so s < 0 holds, s > 0 violates, and
    |s| > 2 carries the sampled window t in (-1, 1) out of the chart.
    """
    st = SpacetimeDef.create(
        name="bounded", coords=("t", "x"),
        domain={"t": (-3.0, 3.0), "x": (-1.0, 1.0)},
        params={}, metric={(0, 0): "1", (1, 1): "-exp(t/2)"},
        orientation=("1", "0"))
    fl = FlowDef.create(st, "s", {"t": "t + s", "x": "x"}, (-3.0, 3.0))
    return fl, RegionSampler.build(st, count=64, window={"t": (-1.0, 1.0)})


class TestSharedPipeline:
    """check_submonoid runs every flow value through one source stage and
    one stacked search; each value must come out as its own check does."""

    S_GRID = [k / 2.0 for k in range(-4, 5)]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("count", [64, 65, 128])
    def test_steps_match_per_value_checks(self, count, threads):
        st = vaidya("2 - tanh(t)")
        fl = FlowDef.create(
            st, "s", {"t": "t + s", "r": "r", "theta": "theta", "phi": "phi"}, (-2.0, 2.0))
        samp = vaidya_sampler(st, count=count)
        rep = check_submonoid(fl, self.S_GRID, samp, threads=threads)
        assert {s.verdict for s in rep.steps} == {Verdict.HOLDS_SAMPLED, Verdict.VIOLATED}
        for step in rep.steps:
            r = check_proper_causal(flow_map(fl, step.s), samp, threads=threads)
            assert step.verdict is r.verdict
            assert step.min_margin == r.min_margin
            assert step.lam_range == r.conformal.lam_range

    def test_failing_values_keep_their_own_error(self):
        fl, samp = bounded_expansion()
        grid = [-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5]
        maps = [flow_map(fl, s) for s in grid]
        stacked = relate._check_relations(maps, samp.points(), relate.TOL_DP, 1)
        for m, r in zip(maps, stacked):
            assert r.to_dict() == check_proper_causal(m, samp).to_dict()
        verdicts = [r.verdict for r in stacked]
        assert verdicts == [Verdict.ERROR] + [Verdict.HOLDS_SAMPLED] * 3 \
            + [Verdict.VIOLATED] * 2 + [Verdict.ERROR]
        assert stacked[0].error.startswith("image leaves the target domain at sample")
        assert "t = " in stacked[-1].error and "not in (-3.0, 3.0)" in stacked[-1].error

        rep = check_submonoid(fl, grid, samp)
        assert [s.verdict for s in rep.steps] == verdicts
        assert rep.interval == (-1.0, 0.0)
        assert [s.min_margin for s in rep.steps] == [r.min_margin for r in stacked]

    def test_source_failure_is_every_values_error(self):
        st = SpacetimeDef.create(
            name="flipper", coords=("t", "x"),
            domain={"t": (-2.0, -1.0), "x": (-1.0, 1.0)},
            params={}, metric={(0, 0): "t", (1, 1): "-1"}, orientation=("1", "0"))
        fl = FlowDef.create(st, "s", {"t": "t", "x": "x + s"}, (-1.0, 1.0))
        samp = RegionSampler.build(st, count=32)
        maps = [flow_map(fl, s) for s in (-0.5, 0.0, 0.5)]
        stacked = relate._check_relations(maps, samp.points(), relate.TOL_DP, 1)
        for m, r in zip(maps, stacked):
            assert r.verdict is Verdict.ERROR and "Lorentzian" in r.error
            assert r.to_dict() == check_proper_causal(m, samp).to_dict()

    def test_one_search_per_scan(self, monkeypatch):
        calls = []

        def counting(That, *args, **kwargs):
            calls.append(len(That))
            return dp2_margins(That, *args, **kwargs)

        monkeypatch.setattr(relate, "dp2_margins", counting)
        st = vaidya("2 - tanh(t)")
        fl = FlowDef.create(
            st, "s", {"t": "t + s", "r": "r", "theta": "theta", "phi": "phi"}, (-2.0, 2.0))
        check_submonoid(fl, self.S_GRID, vaidya_sampler(st, count=64), threads=1)
        assert calls == [9 * 64]

    @pytest.mark.parametrize("grid", [[0.5], S_GRID])
    def test_one_frame_build_per_scan(self, monkeypatch, grid):
        # frames are built for the source chart only; every flow value
        # classifies its pushed orientation on the target's time axis
        calls = []
        frames = relate.frames

        def counting(G, *args, **kwargs):
            calls.append(len(G))
            return frames(G, *args, **kwargs)

        monkeypatch.setattr(relate, "frames", counting)
        st = vaidya("2 - tanh(t)")
        fl = FlowDef.create(
            st, "s", {"t": "t + s", "r": "r", "theta": "theta", "phi": "phi"}, (-2.0, 2.0))
        check_submonoid(fl, grid, vaidya_sampler(st, count=64), threads=1)
        assert calls == [64]

    def test_points_drawn_once(self, monkeypatch):
        draws = []
        points = RegionSampler.points

        def counting(self):
            draws.append(self.count)
            return points(self)

        monkeypatch.setattr(RegionSampler, "points", counting)
        st = mink4()
        check_submonoid(translation_flow(st), self.S_GRID, RegionSampler.build(st, count=64))
        assert draws == [64]


def log_chart():
    """2-D chart whose metric needs x > 0.5, on the domain x in (0, 10): an
    image with x in (0, 0.5) is in the domain, but its metric takes the log of
    a negative value."""
    return SpacetimeDef.create(
        name="logx", coords=("t", "x"), domain={"t": (-INF, INF), "x": (0.0, 10.0)},
        params={}, metric={(0, 0): "1", (1, 1): "-1 - log(x - 0.5)^2"}, orientation=("1", "0"))


# name: (chart, family, grid, window, verdicts of the family, error texts among them)
FAMILIES = {
    "vaidya radial shift": (
        vaidya, {"t": "t", "r": "r + s", "theta": "theta", "phi": "phi"},
        [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], {"t": (-5.0, 5.0), "r": (0.5, 20.0)},
        {Verdict.ERROR, Verdict.HOLDS_SAMPLED, Verdict.VIOLATED},
        ["image leaves the target domain at sample"]),
    "vaidya time shift": (
        vaidya, {"t": "t + s", "r": "r", "theta": "theta", "phi": "phi"},
        [-1.0, -0.5, 0.0, 0.5, 1.0], {"t": (-5.0, 5.0), "r": (0.5, 20.0)},
        {Verdict.HOLDS_SAMPLED, Verdict.VIOLATED}, []),
    "minkowski time scale": (
        mink4, {"t": "t*s", "x": "x", "y": "y", "z": "z"},
        [-1.0, 0.0, 0.5, 1.0, 2.0], {},
        {Verdict.TIME_REVERSED, Verdict.ERROR, Verdict.VIOLATED, Verdict.HOLDS_SAMPLED},
        ["map Jacobian singular at sample 0"]),
    "log chart shift": (
        log_chart, {"t": "t", "x": "x + s"},
        [k / 4.0 for k in range(-6, 7)], {"x": (1.0, 9.0)},
        {Verdict.ERROR, Verdict.HOLDS_SAMPLED, Verdict.VIOLATED},
        ["log of non-positive value in 'log(x - 0.5)' at sample",
         "image leaves the target domain at sample"]),
}


def family(name, count=100):
    chart, exprs, grid, window, _, _ = FAMILIES[name]
    st = chart()
    fl = FlowDef.create(st, "s", exprs, (grid[0], grid[-1]))
    return [flow_map(fl, s) for s in grid], RegionSampler.build(st, count=count, window=window)


def assert_same_reports(a, b):
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    for ra, rb in zip(a, b):
        if ra.conformal is not None:
            assert np.array_equal(ra.conformal.lambdas, rb.conformal.lambdas, equal_nan=True)


def counting_map_stages(monkeypatch):
    """The maps in each `_map_stage` call, appended as the calls are made."""
    calls = []
    map_stage = relate._map_stage

    def counting(target, img, J, G, *args):
        calls.append(len(img) // len(G))
        return map_stage(target, img, J, G, *args)

    monkeypatch.setattr(relate, "_map_stage", counting)
    return calls


class TestStackedMapStage:
    """The values of a flow family are staged in stacked map stages of up to
    a block's rows, yet each comes out as its own check does, errors included."""

    @pytest.fixture(autouse=True)
    def cores(self, monkeypatch):
        """Eight cores, so that two threads run two blocks."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    # blocks of 4096: 100 samples in one block, every value in one stage;
    # blocks of 16: six full blocks staged value by value, then 4 samples
    # staged 4 values a stage
    @pytest.mark.parametrize("block", [4096, 16])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_each_value_as_checked_alone(self, monkeypatch, name, threads, block):
        monkeypatch.setattr(relate, "BLOCK_SAMPLES", block)
        maps, samp = family(name)
        stacked = relate._check_relations(maps, samp.points(), relate.TOL_DP, threads)
        assert_same_reports(stacked, [check_proper_causal(m, samp, threads=threads) for m in maps])
        *_, verdicts, errors = FAMILIES[name]
        assert {r.verdict for r in stacked} == verdicts
        for text in errors:
            assert any(r.error and r.error.startswith(text) for r in stacked), text

    def test_failing_stage_stages_each_value_alone(self, monkeypatch):
        # a stacked map stage that raises is staged again value by value, so
        # the failing values get their own errors and the others their reports
        pullback = relate._pullback

        def picky(J, Gt):
            if np.any(J[:, 0, 0] < 0.0):
                raise ArithmeticError("time reversed somewhere")
            return pullback(J, Gt)

        monkeypatch.setattr(relate, "_pullback", picky)
        maps, samp = family("minkowski time scale")
        calls = counting_map_stages(monkeypatch)
        stacked = relate._check_relations(maps, samp.points(), relate.TOL_DP, 1)
        assert calls == [5, 1, 1, 1, 1, 1]
        assert_same_reports(stacked, [check_proper_causal(m, samp, threads=1) for m in maps])
        assert [r.error for r in stacked][:2] == ["time reversed somewhere",
                                                 "map Jacobian singular at sample 0, x = "
                                                 f"{samp.points()[0].tolist()}"]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("block, count, stages", [
        (4096, 128, [9]),                  # 9 x 128 rows: one stage
        (4096, 4096, [1] * 9),             # a full block: each value alone
        (16, 72, [1] * 37 + [2] * 4),      # four full blocks, then 8 samples: 2 values a stage
    ])
    def test_stages_of_a_block_at_most(self, monkeypatch, threads, block, count, stages):
        monkeypatch.setattr(relate, "BLOCK_SAMPLES", block)
        calls = counting_map_stages(monkeypatch)
        st = vaidya("2 - tanh(t)")
        fl = FlowDef.create(
            st, "s", {"t": "t + s", "r": "r", "theta": "theta", "phi": "phi"}, (-2.0, 2.0))
        check_submonoid(fl, TestSharedPipeline.S_GRID, vaidya_sampler(st, count=count),
                        threads=threads)
        assert sorted(calls) == stages


class TestCanonicalDirectionsUnderFlow:
    def test_infalling_null_direction_survives(self):
        # for a mass drop the only pullback-null direction is the ingoing
        # radial one; every other null direction tips timelike
        st = vaidya("2 - tanh(t)")
        fl = FlowDef.create(
            st, "s", {"t": "t + s", "r": "r", "theta": "theta", "phi": "phi"},
            (-2.0, 2.0))
        res = canonical_null_directions(
            flow_map(fl, 1.0), np.array([0.0, 5.0, PI / 2, 1.0]))
        assert not res.degenerate
        assert len(res.pairs) == 1
        lam, v = res.pairs[0]
        assert lam == pytest.approx(1.0, abs=1e-9)
        v = v / np.linalg.norm(v)
        assert abs(v[1]) == pytest.approx(1.0)
        assert v[1] < 0
        assert np.allclose([v[0], v[2], v[3]], 0.0, atol=1e-9)


class TestNullConeNonneg:
    def test_conformal_generator_sits_on_boundary(self):
        st = mink4()
        xi = GeneratorField.create(st, ("t", "x", "y", "z"))
        rep = null_cone_nonneg(st, xi, RegionSampler.build(st, count=128))
        assert rep.nonnegative
        assert abs(rep.min_margin) < 1e-12
        assert rep.samples_checked == 128

    def test_sampler_chart_mismatch_raises(self):
        # a sampler of another chart would be read as this chart's coordinates
        xi = GeneratorField.create(mink4(), ("1", "0", "0", "0"))
        with pytest.raises(ValueError, match="sampler chart 'vaidya' does not match"):
            null_cone_nonneg(mink4(), xi, vaidya_sampler(vaidya()))

    def test_mass_loss_nonnegative(self):
        st = vaidya("2 - tanh(t)")
        xi = GeneratorField.create(st, ("1", "0", "0", "0"))
        rep = null_cone_nonneg(st, xi, vaidya_sampler(st))
        assert rep.nonnegative
        assert rep.min_margin >= -1e-9

    def test_mass_gain_violates(self):
        st = vaidya("2 + tanh(t)")
        xi = GeneratorField.create(st, ("1", "0", "0", "0"))
        rep = null_cone_nonneg(st, xi, vaidya_sampler(st))
        assert not rep.nonnegative
        assert rep.min_margin < 0
        assert 1 <= len(rep.witnesses) <= 16
        w = rep.witnesses[0]
        assert w.margin == pytest.approx(rep.min_margin)
        assert len(w.vectors) == 1
        # the offending vector is null for the chart metric
        k = w.vectors[0]
        G = st.metric_at(w.point)
        assert abs(k @ G @ k) < 1e-9

    def test_chart_mismatch(self):
        xi = GeneratorField.create(mink4(), ("t", "x", "y", "z"))
        with pytest.raises(ValueError, match="different spacetime"):
            null_cone_nonneg(vaidya(), xi, vaidya_sampler(vaidya()))

    def test_metric_takes_one_tangent(self, monkeypatch):
        # per block the generator is seeded on every coordinate (for d xi),
        # the metric on the single tangent xi (for G and its derivative along xi)
        seeds = []
        dual_components = flows._dual_components

        def recording(exprs, env):
            out = dual_components(exprs, env)
            seeds.append((exprs, out[1].shape[-1]))
            return out

        monkeypatch.setattr(flows, "_dual_components", recording)
        monkeypatch.setattr(relate, "BLOCK_SAMPLES", 16)
        st = vaidya("2 - tanh(t)")
        xi = GeneratorField.create(st, ("1", "r/10", "0", "t"))
        null_cone_nonneg(st, xi, vaidya_sampler(st, count=64))
        assert sorted(k for e, k in seeds if e == tuple(st.metric.values())) == [1] * 4
        assert sorted(k for e, k in seeds if e == xi.exprs) == [4] * 4
        assert len(seeds) == 8
