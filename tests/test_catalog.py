"""Tests for builtin charts and packaged scenarios."""

import itertools
import json

import numpy as np
import pytest

from causalkit.catalog import (
    ScenarioOutcome,
    _exterior_min_bwd,
    _exterior_min_fwd,
    builtin,
    builtin_names,
    builtin_registry,
    canonical_json,
    default_window,
    map_digest,
    run_scenario,
    scenario_names,
    spacetime_digest,
)
import causalkit.dp as dp
import causalkit.relate as relate
from causalkit.exprcore import eval_expr, parse_expr
from causalkit.relate import RegionSampler, Verdict

from oracles import pair_search

FRW_MAP = """\
source = frw_flat
target = minkowski
param k = 40.0
map t = k*t
map x = x
map y = y
map z = z
"""


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == (
            "de_sitter", "einstein_static", "frw_flat", "minkowski",
            "minkowski_spherical", "schwarzschild_ext", "vaidya",
        )

    @pytest.mark.parametrize("name", builtin_names())
    def test_constructs_and_samples(self, name):
        st = builtin(name)
        pts = RegionSampler.build(st, count=64, window=default_window(st)).points()
        st.validate_on(pts)
        assert len(pts) == 64

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("kruskal")

    def test_unknown_parameter(self):
        with pytest.raises(TypeError):
            builtin("de_sitter", radius=2.0)

    def test_horizon_cut_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            builtin("schwarzschild_ext", M=1.0, c=1.5)

    def test_negative_excision_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            builtin("minkowski_spherical", a=-1.0)

    def test_frw_index_range(self):
        with pytest.raises(ValueError, match="gamma"):
            builtin("frw_flat", gamma=1.5)

    def test_vaidya_mass_must_be_expression_in_t(self):
        with pytest.raises(Exception, match="r"):
            builtin("vaidya", mass="2 - r")

    def test_registry_with_override(self):
        st = builtin("de_sitter", alpha=2.0)
        reg = builtin_registry(overrides=(st,))
        assert reg["de_sitter"].params["alpha"] == 2.0
        assert set(reg) == set(builtin_names())

    def test_schwarzschild_values(self):
        st = builtin("schwarzschild_ext", M=1.0, c=3.0)
        G = st.metric_at(np.array([0.0, 4.0, np.pi / 2, 1.0]))
        assert G[0, 0] == pytest.approx(0.5)
        assert G[1, 1] == pytest.approx(-2.0)


class TestScenarioList:
    def test_names(self):
        assert scenario_names() == (
            "desitter_to_einstein", "frw_candidate", "minkowski_to_schwarzschild",
            "schwarzschild_iso", "schwarzschild_to_minkowski", "vaidya_flow",
        )

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("warp_drive")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="does not take parameters"):
            run_scenario("desitter_to_einstein", samples=64,
                         params={"speed": 3.0})

    @pytest.mark.parametrize("tol_dp", [-1e-3, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol_dp):
        with pytest.raises(ValueError, match="tol_dp must be a finite number of at least 0"):
            run_scenario("desitter_to_einstein", samples=16, tol_dp=tol_dp)

    def test_map_file_only_for_frw(self):
        with pytest.raises(ValueError, match="does not take a map file"):
            run_scenario("desitter_to_einstein", samples=64, map_path="x.map")


class TestDesitterScenario:
    def test_default_holds(self):
        out = run_scenario("desitter_to_einstein", samples=512)
        assert out.exit_code == 0
        assert out.matched is True
        assert out.report["result"]["verdict"] == "HOLDS_SAMPLED"
        assert out.report["expected"] == "HOLDS_SAMPLED"

    def test_slow_clock_violates(self):
        out = run_scenario("desitter_to_einstein", samples=512,
                           params={"b": 0.95})
        assert out.exit_code == 1
        assert out.matched is True
        res = out.report["result"]
        assert res["verdict"] == "VIOLATED"
        tmax = float(np.arccosh(1.0 / 0.95))
        for w in res["witnesses"]:
            assert abs(w["point"][0]) <= tmax + 1e-9

    def test_reversed_clock_detected(self):
        out = run_scenario("desitter_to_einstein", samples=256,
                           params={"b": -1.5})
        assert out.report["result"]["verdict"] == "TIME_REVERSED"
        assert out.report["expected"] == "TIME_REVERSED"
        assert out.matched is True
        assert out.exit_code == 1

    def test_degenerate_clock_is_error(self):
        out = run_scenario("desitter_to_einstein", samples=64,
                           params={"b": 0.0})
        assert out.report["result"]["verdict"] == "ERROR"
        assert out.matched is True
        assert out.exit_code == 1


class TestExteriorScenarios:
    def test_forward_default_holds(self):
        out = run_scenario("minkowski_to_schwarzschild", samples=1024)
        assert out.exit_code == 0
        assert out.matched is True
        assert out.report["result"]["min_margin"] > 0

    def test_forward_horizon_window_violates(self):
        out = run_scenario("minkowski_to_schwarzschild", samples=1024,
                           params={"c": 2.0, "b": 100.0})
        assert out.exit_code == 1
        assert out.matched is True
        res = out.report["result"]
        # violations live in a thin band over the excision radius
        for w in res["witnesses"]:
            assert w["point"][1] - 2.0 < 1.0

    def test_backward_always_holds(self):
        out = run_scenario("schwarzschild_to_minkowski", samples=512)
        assert out.exit_code == 0
        assert out.matched is True

    def test_iso_holds_at_safe_offset(self):
        out = run_scenario("schwarzschild_iso", samples=512)
        assert out.exit_code == 0
        assert out.report["result"]["isomorphic"] is True
        assert out.report["result"]["time_reversed"] is False

    def test_iso_fails_at_horizon(self):
        out = run_scenario("schwarzschild_iso", samples=512,
                           params={"c": 2.0})
        assert out.exit_code == 1
        assert out.matched is True
        assert out.report["result"]["forward"]["verdict"] == "VIOLATED"

    def test_expectation_endpoints_match_dense_scan(self):
        # the expectations evaluate one end of the sampled window; a dense
        # scan of the window is the reference, over M > 0, c >= 2M, c >= a >= 0
        cases = itertools.product((0.5, 2.0), (2.0, 2.1, 3.0, 40.0), (0.0, 0.6, 1.0),
                                  (0.5, 3.0, 100.0), (0.0, 1e-3, 0.5))
        with np.errstate(divide="ignore"):
            for M, cM, af, b, margin in cases:
                c = cM * M
                a = af * c
                R = np.linspace(a + margin, 50.0, 200001)
                r = R - a + c
                f = 1.0 - 2.0 * M / r
                fwd = b * b * f - np.maximum(1.0 / f, (r / R) ** 2)
                assert _exterior_min_fwd(M, c, b, a, margin) == fwd.min()
                r = np.linspace(c + margin, 50.0, 200001)
                f = 1.0 - 2.0 * M / r
                bwd = 1.0 / f - np.maximum(f, ((r - c + a) / r) ** 2)
                assert _exterior_min_bwd(M, c, a, margin) == bwd.min()

    def test_excision_beyond_inner_radius_rejected(self):
        with pytest.raises(ValueError, match="must not exceed"):
            run_scenario("minkowski_to_schwarzschild", samples=64,
                         params={"a": 5.0})


class TestFrwScenario:
    def frw_map_path(self, tmp_path, text=FRW_MAP):
        p = tmp_path / "frw.map"
        p.write_text(text)
        return str(p)

    def test_requires_map_file(self):
        with pytest.raises(ValueError, match="needs a map file"):
            run_scenario("frw_candidate", samples=64)

    def test_candidate_map_holds(self, tmp_path):
        out = run_scenario("frw_candidate", samples=256,
                           map_path=self.frw_map_path(tmp_path))
        assert out.exit_code == 0
        assert out.matched is None
        assert out.report["expected"] is None
        assert out.report["inputs"]["expansion_regime"] == "decelerating"

    def test_candidate_map_violates(self, tmp_path):
        text = FRW_MAP.replace("param k = 40.0", "param k = 1.0")
        out = run_scenario("frw_candidate", samples=256,
                           map_path=self.frw_map_path(tmp_path, text))
        assert out.exit_code == 1
        assert out.matched is None
        assert out.report["result"]["verdict"] == "VIOLATED"

    def test_regime_metadata(self, tmp_path):
        out = run_scenario("frw_candidate", samples=64,
                           params={"gamma": -0.5},
                           map_path=self.frw_map_path(tmp_path))
        assert out.report["inputs"]["expansion_regime"] == "accelerating"
        out = run_scenario("frw_candidate", samples=64,
                           params={"gamma": -1.0 / 3.0},
                           map_path=self.frw_map_path(tmp_path))
        assert out.report["inputs"]["expansion_regime"] == "marginal"

    def test_wrong_source_rejected(self, tmp_path):
        text = FRW_MAP.replace("source = frw_flat", "source = minkowski")
        with pytest.raises(ValueError, match="out of 'frw_flat'"):
            run_scenario("frw_candidate", samples=64,
                         map_path=self.frw_map_path(tmp_path, text))


class TestVaidyaScenario:
    def test_radiating_mass_is_half_interval(self):
        out = run_scenario("vaidya_flow", samples=256)
        assert out.exit_code == 0
        assert out.matched is True
        res = out.report["result"]
        assert res["interval"] == [0.0, 2.0]
        assert res["group"] is False
        assert len(res["steps"]) == 9

    def test_constant_mass_is_group(self):
        out = run_scenario("vaidya_flow", samples=256, params={"mass": "2"})
        assert out.exit_code == 0
        res = out.report["result"]
        assert res["interval"] == [-2.0, 2.0]
        assert res["group"] is True

    @pytest.mark.parametrize("mass", [None, "1", "2 + tanh(t)"])
    def test_expected_block_matches_a_grid_per_shift(self, mass):
        # the expectation, with the mass evaluated afresh on t + s for every s
        out = run_scenario("vaidya_flow", samples=16, params={} if mass is None else {"M": mass})
        mexpr = parse_expr(mass or "2 - tanh(t)", ("t",))
        t = np.linspace(-5.0, 5.0, 20001)

        def m(shift):
            return np.broadcast_to(np.asarray(eval_expr(mexpr, {"t": t + shift}), dtype=float), t.shape)

        scale = max(1.0, float(np.max(np.abs(m(0.0)))))
        holds = {k / 2.0: bool(np.max(m(k / 2.0) - m(0.0)) <= 1e-9 * scale) for k in range(-4, 5)}
        assert out.report["expected"]["holds"] == {f"{s:g}": v for s, v in holds.items()}
        lo = -0.5 * next((k for k in range(1, 5) if not holds[-k / 2.0]), 5) + 0.5
        hi = 0.5 * next((k for k in range(1, 5) if not holds[k / 2.0]), 5) - 0.5
        assert out.report["expected"]["interval"] == [lo, hi]
        assert out.matched is True

    def test_accreting_mass_flips_interval(self):
        out = run_scenario("vaidya_flow", samples=256,
                           params={"mass": "2 + tanh(t)"})
        assert out.exit_code == 0
        assert out.matched is True
        assert out.report["result"]["interval"] == [-2.0, 0.0]


class TestClosedFormRows:
    """Every packaged scenario's frame tensors lie where the DP+ bounds
    meet, so no row is left open, and the closed-form margins agree with
    the grid+Newton reference search."""

    RUNS = [
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

    @pytest.mark.parametrize("name,params,k", RUNS)
    def test_every_row_closed(self, monkeypatch, tmp_path, name, params, k):
        map_path = None
        if k is not None:
            map_path = tmp_path / "frw.map"
            map_path.write_text(FRW_MAP.replace("param k = 40.0", f"param k = {k}"))
        captured = []
        search = relate.dp2_margins

        def capture(That):
            captured.append(That)
            return search(That)

        monkeypatch.setattr(relate, "dp2_margins", capture)
        run_scenario(name, samples=256, params=params,
                     map_path=None if map_path is None else str(map_path))
        That = np.concatenate(captured)
        assert np.all(dp._pair_bounds(That)[3])
        margins = dp.dp2_margins(That)[0]
        searched = pair_search(That)[0]
        scale = np.abs(That).max(axis=(1, 2))
        assert np.all(np.abs(margins - searched) <= 1e-14 * scale)


class TestReportShape:
    def test_fields_and_stability(self):
        a = run_scenario("desitter_to_einstein", samples=256)
        b = run_scenario("desitter_to_einstein", samples=256)
        assert canonical_json(a.report) == canonical_json(b.report)
        r = a.report
        assert r["tool"] == {"name": "causalkit", "version": "0.1.0"}
        assert r["kind"] == "scenario"
        assert r["sampler"] == {"scheme": "halton", "seed": 0,
                                "count": 256, "margin": 1e-3}
        assert r["tolerances"]["tol_dp"] == 1e-9
        assert r["threads"] == 1
        assert r["timing_s"] is None
        assert len(r["inputs"]["source"]["sha256"]) == 64
        assert len(r["inputs"]["map"]["sha256"]) == 64
        json.loads(canonical_json(r))

    def test_threads_populate_timing(self):
        out = run_scenario("desitter_to_einstein", samples=512, threads=2)
        assert out.report["threads"] == 2
        assert isinstance(out.report["timing_s"], float)

    def test_threads_preserve_result(self):
        a = run_scenario("desitter_to_einstein", samples=512,
                         params={"b": 0.95})
        b = run_scenario("desitter_to_einstein", samples=512, threads=4,
                         params={"b": 0.95})
        assert a.report["result"] == b.report["result"]

    def test_seed_recorded_and_effective(self):
        a = run_scenario("desitter_to_einstein", samples=256, seed=0,
                         params={"b": 0.95})
        b = run_scenario("desitter_to_einstein", samples=256, seed=3,
                         params={"b": 0.95})
        assert a.report["sampler"]["seed"] == 0
        assert b.report["sampler"]["seed"] == 3
        # the shared center sample pins min_margin, but the rest of the
        # block moves with the seed
        wa = [w["point"] for w in a.report["result"]["witnesses"][1:]]
        wb = [w["point"] for w in b.report["result"]["witnesses"][1:]]
        assert wa != wb

    def test_digest_helpers(self):
        st = builtin("minkowski")
        d = spacetime_digest(st)
        assert d["name"] == "minkowski"
        assert d["sha256"] == spacetime_digest(builtin("minkowski"))["sha256"]
