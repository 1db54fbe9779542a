"""End-to-end tests of the command line: exit codes, text, JSON."""

import json

import pytest

from causalkit.catalog import builtin
from causalkit.cli import main
from causalkit.defio import serialize_spacetime
from causalkit.relate import SpacetimeDef

IDENTITY = """\
source = minkowski
target = minkowski
map t = t
map x = x
map y = y
map z = z
"""

DILATE = """\
source = minkowski
target = minkowski
param b = 2.0
map t = b*t
map x = b*x
map y = b*y
map z = b*z
"""

HALVE = """\
source = minkowski
target = minkowski
map t = t/2
map x = x/2
map y = y/2
map z = z/2
"""

# shrinks time but not space: loses the cone everywhere
SLOWTIME = """\
source = minkowski
target = minkowski
map t = t/2
map x = x
map y = y
map z = z
"""

REVERSE = """\
source = minkowski
target = minkowski
map t = -t
map x = x
map y = y
map z = z
"""

SHIFT_FLOW = """\
source = minkowski
target = minkowski
flow_param = s
s_range = (-2, 2)
map t = t + s
map x = x
map y = y
map z = z
"""

VAIDYA_SHIFT = """\
source = vaidya
target = vaidya
flow_param = s
s_range = (-2, 2)
map t = t + s
map r = r
map theta = theta
map phi = phi
"""

SCHW_IDENTITY = """\
source = schwarzschild_ext
target = schwarzschild_ext
map t = t
map r = r
map theta = theta
map phi = phi
"""

FRW_MAP = """\
source = frw_flat
target = minkowski
param k = 40.0
map t = k*t
map x = x
map y = y
map z = z
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {}

    def put(name, text):
        p = d / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)

    put("mink.st", serialize_spacetime(builtin("minkowski")))
    put("vaidya.st", serialize_spacetime(builtin("vaidya")))
    put("schw.st", serialize_spacetime(builtin("schwarzschild_ext")))
    put("identity.cm", IDENTITY)
    put("dilate.cm", DILATE)
    put("halve.cm", HALVE)
    put("slowtime.cm", SLOWTIME)
    put("reverse.cm", REVERSE)
    put("shift.fl", SHIFT_FLOW)
    put("vshift.fl", VAIDYA_SHIFT)
    put("schwid.cm", SCHW_IDENTITY)
    put("frw.cm", FRW_MAP)
    put("broken.st", "name = broken\nmetric[0][0] = 1\n")
    paths["dir"] = str(d)
    return paths


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCheck:
    def test_identity_holds_and_reports_unit_conformal(self, files, capsys):
        rc, out, _ = run(["check", files["mink.st"], files["mink.st"],
                          files["identity.cm"], "--samples", "256",
                          "--threads", "1"], capsys)
        assert rc == 0
        assert "HOLDS_SAMPLED" in out
        assert "lambda in [1, 1]" in out

    def test_violated_map_exits_1_with_witnesses(self, files, capsys):
        rc, out, _ = run(["check", files["mink.st"], files["mink.st"],
                          files["slowtime.cm"], "--samples", "256",
                          "--threads", "1"], capsys)
        assert rc == 1
        assert "VIOLATED" in out
        assert "witnesses" in out

    def test_time_reversal_exits_1(self, files, capsys):
        rc, out, _ = run(["check", files["mink.st"], files["mink.st"],
                          files["reverse.cm"], "--samples", "128",
                          "--threads", "1"], capsys)
        assert rc == 1
        assert "TIME_REVERSED" in out

    def test_json_report_written(self, files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc, _, _ = run(["check", files["mink.st"], files["mink.st"],
                        files["dilate.cm"], "--samples", "256",
                        "--threads", "1", "--json", str(out_path)], capsys)
        assert rc == 0
        rep = json.loads(out_path.read_text())
        assert rep["kind"] == "check"
        assert rep["result"]["verdict"] == "HOLDS_SAMPLED"
        assert rep["timing_s"] is None
        assert rep["threads"] == 1
        assert len(rep["inputs"]["map"]["sha256"]) == 64
        assert rep["sampler"] == {"scheme": "halton", "seed": 0,
                                  "count": 256, "margin": 1e-3}

    def test_threads_flag_records_timing(self, files, tmp_path, capsys):
        p = tmp_path / "r.json"
        rc, _, _ = run(["check", files["mink.st"], files["mink.st"],
                        files["dilate.cm"], "--samples", "512",
                        "--threads", "2", "--json", str(p)], capsys)
        assert rc == 0
        rep = json.loads(p.read_text())
        assert rep["threads"] == 2
        assert isinstance(rep["timing_s"], float)

    def test_missing_file_exits_2(self, files, capsys):
        rc, _, err = run(["check", files["dir"] + "/nope.st", files["mink.st"],
                          files["identity.cm"]], capsys)
        assert rc == 2
        assert "input error" in err

    def test_malformed_definition_exits_2(self, files, capsys):
        rc, _, err = run(["check", files["broken.st"], files["mink.st"],
                          files["identity.cm"]], capsys)
        assert rc == 2
        assert "input error" in err

    def test_wrong_direction_exits_2(self, files, capsys):
        rc, _, err = run(["check", files["schw.st"], files["mink.st"],
                          files["identity.cm"], "--samples", "64"], capsys)
        assert rc == 2
        assert "expected" in err

    def test_missing_argument_exits_2(self, files, capsys):
        rc, _, err = run(["check", files["mink.st"], files["mink.st"]], capsys)
        assert rc == 2
        assert "usage error" in err

    @pytest.mark.parametrize("value,message", [
        ("0", "input error: --threads must be an integer of at least 1, got 0"),
        ("-3", "input error: --threads must be an integer of at least 1, got -3"),
        ("two", "usage error: argument --threads: invalid int value: 'two'"),
    ])
    def test_threads_below_one_exits_2(self, files, capsys, value, message):
        rc, out, err = run(["check", files["mink.st"], files["mink.st"], files["identity.cm"],
                            "--samples", "16", "--threads", value], capsys)
        assert (rc, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize("flag,value", [("--tol", "-1e-3"), ("--tol", "nan"), ("--tol", "inf"),
                                            ("--margin", "-0.5"), ("--margin", "inf")])
    def test_tolerance_and_margin_must_be_finite_and_nonnegative(self, capsys, flag, value):
        # below 0 they reported VIOLATED or a sampler error, inf made any
        # map hold, nan reported witnesses
        rc, out, err = run(["scenario", "desitter_to_einstein", "--samples", "16",
                            f"{flag}={value}"], capsys)
        assert (rc, out) == (2, "")
        assert err == (f"input error: {flag} must be a finite number of at least 0, "
                       f"got {float(value)!r}\n")

    @pytest.mark.parametrize("value", ["0", "-1", "2.5", ""])
    @pytest.mark.parametrize("argv", [
        lambda f: ["check", f["mink.st"], f["mink.st"], f["identity.cm"]],
        lambda f: ["scenario", "desitter_to_einstein"],
    ])
    def test_bad_thread_environment_exits_2(self, files, capsys, monkeypatch, value, argv):
        monkeypatch.setenv("CAUSALKIT_THREADS", value)
        rc, out, err = run(argv(files) + ["--samples", "16"], capsys)
        assert (rc, out) == (2, "")
        assert err == ("input error: CAUSALKIT_THREADS must be an integer of at least 1, "
                       f"got '{value}'\n")
        # --threads takes precedence over the environment
        rc, _, _ = run(argv(files) + ["--samples", "16", "--threads", "1"], capsys)
        assert rc == 0


# one run per report kind; the 512 samples are one block, so --threads 2
# changes the report's envelope only (blocks on threads: tests/test_relate.py)
REPORT_ARGV = {
    "check": lambda f: ["check", f["mink.st"], f["mink.st"], f["dilate.cm"]],
    "iso": lambda f: ["iso", f["mink.st"], f["mink.st"], f["dilate.cm"], f["halve.cm"]],
    "cnd": lambda f: ["cnd", f["mink.st"], f["mink.st"], f["dilate.cm"],
                      "--point", "t=0,x=1,y=0,z=0"],
    "flow": lambda f: ["flow", f["vaidya.st"], f["vshift.fl"]],
    "scenario": lambda f: ["scenario", "desitter_to_einstein"],
}

ENVELOPE_KEYS = {"tool", "kind", "inputs", "sampler", "tolerances", "threads",
                 "timing_s", "result"}


def report_bytes(kind, files, path, threads, capsys):
    run(REPORT_ARGV[kind](files) + ["--samples", "512", "--threads", threads,
                                    "--json", str(path)], capsys)
    return path.read_bytes()


class TestReport:
    @pytest.mark.parametrize("kind", REPORT_ARGV)
    def test_json_byte_stable_at_one_thread(self, kind, files, tmp_path, capsys):
        blobs = [report_bytes(kind, files, tmp_path / f"r{i}.json", "1", capsys)
                 for i in range(2)]
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("kind", REPORT_ARGV)
    def test_threads_change_only_threads_and_timing(self, kind, files, tmp_path, capsys):
        one, two = (json.loads(report_bytes(kind, files, tmp_path / f"t{n}.json", n, capsys))
                    for n in ("1", "2"))
        extra = {"name", "expected", "matched"} if kind == "scenario" else set()
        assert set(one) == set(two) == ENVELOPE_KEYS | extra
        assert one["kind"] == kind
        assert (one.pop("threads"), two.pop("threads")) == (1, 2)
        assert one.pop("timing_s") is None
        assert isinstance(two.pop("timing_s"), float)
        assert one == two


class TestIso:
    def test_dilation_pair_isomorphic(self, files, capsys):
        rc, out, _ = run(["iso", files["mink.st"], files["mink.st"],
                          files["dilate.cm"], files["halve.cm"],
                          "--samples", "256", "--threads", "1"], capsys)
        assert rc == 0
        assert "isomorphic: yes" in out
        assert "inverse verified: yes" in out
        assert "lambda in [4, 4]" in out

    def test_failed_direction_blocks_isomorphism(self, files, capsys):
        rc, out, _ = run(["iso", files["mink.st"], files["mink.st"],
                          files["slowtime.cm"], files["halve.cm"],
                          "--samples", "256", "--threads", "1"], capsys)
        assert rc == 1
        assert "isomorphic: no" in out


class TestCnd:
    def test_dilation_degenerate_directions(self, files, capsys):
        rc, out, _ = run(["cnd", files["mink.st"], files["mink.st"],
                          files["dilate.cm"],
                          "--point", "t=0, x=1, y=0, z=0"], capsys)
        assert rc == 0
        assert "lambda = 4" in out
        assert out.count("direction:") == 4
        assert "degenerate" in out

    def test_not_dp_point_exits_1(self, files, capsys):
        rc, out, _ = run(["cnd", files["mink.st"], files["mink.st"],
                          files["slowtime.cm"],
                          "--point", "t=0,x=0,y=0,z=0"], capsys)
        assert rc == 1
        assert "no canonical null directions" in out

    def test_point_accepts_constant_expressions(self, files, capsys):
        rc, out, _ = run(["cnd", files["schw.st"], files["schw.st"],
                          files["schwid.cm"],
                          "--point", "t=0, r=5, theta=pi/2, phi=pi"], capsys)
        assert rc == 0
        assert "lambda = 1" in out

    def test_incomplete_point_exits_2(self, files, capsys):
        rc, _, err = run(["cnd", files["mink.st"], files["mink.st"],
                          files["dilate.cm"], "--point", "t=0, x=1"], capsys)
        assert rc == 2
        assert "must set exactly" in err

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_degenerate_time_axis_exits_2(self, side, tmp_path, capsys):
        # t^40 (+, -) is Lorentzian on t in (0.02, 1), but its time axis
        # cannot be normalized where 2 t^20 < 1e-13: bad input, not a fault
        def chart(name, g00, g11):
            st = SpacetimeDef.create(
                name=name, coords=("t", "x"), domain={"t": (0.02, 1.0), "x": (-1.0, 1.0)},
                params={}, metric={(0, 0): g00, (1, 1): g11}, orientation=("1", "0"))
            path = tmp_path / f"{name}.st"
            path.write_text(serialize_spacetime(st), encoding="utf-8")
            return name, str(path)

        tiny, flat = chart("tiny", "t^40", "-(t^40)"), chart("flat2", "1", "-1")
        (src, src_path), (tgt, tgt_path) = (tiny, flat) if side == "source" else (flat, tiny)
        mp = tmp_path / "id.cm"
        mp.write_text(f"source = {src}\ntarget = {tgt}\nmap t = t\nmap x = x\n", encoding="utf-8")
        rc, _, err = run(["cnd", src_path, tgt_path, str(mp), "--point", "t=0.05, x=0"], capsys)
        assert rc == 2
        assert err == ("input error: timelike normalization below 1e-13 "
                       "at sample 0, x = [0.05, 0.0]\n")

    def test_point_outside_domain_exits_2(self, files, capsys):
        rc, _, err = run(["cnd", files["schw.st"], files["schw.st"],
                          files["schwid.cm"],
                          "--point", "t=0, r=1, theta=1.5, phi=1"], capsys)
        assert rc == 2
        assert "outside the source domain" in err

    def test_json_lists_pairs(self, files, tmp_path, capsys):
        p = tmp_path / "cnd.json"
        rc, _, _ = run(["cnd", files["mink.st"], files["mink.st"],
                        files["dilate.cm"], "--point", "t=0,x=1,y=0,z=0",
                        "--json", str(p)], capsys)
        assert rc == 0
        rep = json.loads(p.read_text())
        assert rep["kind"] == "cnd"
        assert rep["sampler"] is None
        assert rep["result"]["in_dp_plus"] is True
        assert len(rep["result"]["pairs"]) == 4
        assert rep["result"]["pairs"][0]["eigenvalue"] == pytest.approx(4.0)


class TestFlow:
    def test_time_translation_is_a_group(self, files, capsys):
        rc, out, _ = run(["flow", files["mink.st"], files["shift.fl"],
                          "--samples", "128", "--threads", "1"], capsys)
        assert rc == 0
        assert "group: yes" in out
        assert "causal for s in [-2, 2]" in out

    def test_one_sided_flow_exits_1(self, files, capsys):
        rc, out, _ = run(["flow", files["vaidya.st"], files["vshift.fl"],
                          "--samples", "256", "--threads", "1"], capsys)
        assert rc == 1
        assert "causal for s in [0, 2]" in out
        assert "VIOLATED" in out

    def test_steps_flag_controls_grid(self, files, capsys):
        rc, out, _ = run(["flow", files["mink.st"], files["shift.fl"],
                          "--samples", "64", "--steps", "5",
                          "--threads", "1"], capsys)
        assert rc == 0
        assert out.count("HOLDS_SAMPLED") == 5

    def test_bad_chart_exits_2(self, tmp_path, capsys):
        # g_tt = x loses the signature at x = 0, so s = 0 reports ERROR
        chart = tmp_path / "bad.st"
        chart.write_text("name = bad\ndim = 2\ncoords = [t, x]\ndomain t = (-1, 1)\n"
                         "domain x = (-1, 1)\nmetric[0][0] = x\nmetric[1][1] = -1\n"
                         "orientation = [1, 0]\n", encoding="utf-8")
        flow = tmp_path / "bad.fl"
        flow.write_text("source = bad\ntarget = bad\nflow_param = s\ns_range = (-1, 1)\n"
                        "map t = t + s\nmap x = x\n", encoding="utf-8")
        rc, out, err = run(["flow", str(chart), str(flow), "--samples", "64"], capsys)
        assert (rc, out) == (2, "")
        assert err == ("input error: source metric loses Lorentzian signature at sample 0, "
                       "x = [0.0, 0.0]\n")

    def test_map_file_is_not_a_flow(self, files, capsys):
        rc, _, err = run(["flow", files["mink.st"], files["identity.cm"]],
                         capsys)
        assert rc == 2
        assert "flow_param" in err


class TestScenario:
    def test_desitter_default_holds(self, files, capsys):
        rc, out, _ = run(["scenario", "desitter_to_einstein",
                          "--samples", "256", "--threads", "1"], capsys)
        assert rc == 0
        assert "matched analytic expectation: yes" in out

    def test_desitter_violation_witness_window(self, tmp_path, capsys):
        p = tmp_path / "ds.json"
        rc, _, _ = run(["scenario", "desitter_to_einstein", "--param",
                        "b=0.95", "--samples", "512", "--threads", "1",
                        "--json", str(p)], capsys)
        assert rc == 1
        rep = json.loads(p.read_text())
        ws = rep["result"]["witnesses"]
        assert ws
        assert all(abs(w["point"][0]) <= 0.35 for w in ws)

    def test_vaidya_mass_override_interval(self, tmp_path, capsys):
        p = tmp_path / "v.json"
        rc, out, _ = run(["scenario", "vaidya_flow", "--param",
                          "M=3 - tanh(t)", "--samples", "256",
                          "--threads", "1", "--json", str(p)], capsys)
        assert rc == 0
        rep = json.loads(p.read_text())
        assert rep["result"]["interval"] == [0.0, 2.0]
        assert rep["inputs"]["params"] == {"M": "3 - tanh(t)"}
        assert "interval: [0, 2]" in out

    @pytest.mark.parametrize("name", ["minkowski_to_schwarzschild", "schwarzschild_iso"])
    def test_exterior_one_sample(self, name, tmp_path, capsys):
        p = tmp_path / "one.json"
        rc, _, err = run(["scenario", name, "--samples", "1", "--threads", "1",
                          "--json", str(p)], capsys)
        assert rc == 0, err
        result = json.loads(p.read_text())["result"]
        for rep in (result["forward"], result["backward"]) if "forward" in result else (result,):
            assert rep["samples_checked"] == 1

    def test_error_reason_in_text(self, capsys):
        rc, out, _ = run(["scenario", "desitter_to_einstein", "--param", "b=0",
                          "--samples", "64", "--threads", "1"], capsys)
        assert rc == 1
        assert "verdict: ERROR\n  map Jacobian singular at sample 0, x = [" in out
        rc, out, _ = run(["scenario", "schwarzschild_iso", "--param", "b=0",
                          "--samples", "64", "--threads", "1"], capsys)
        assert rc == 1
        assert "forward: ERROR (map Jacobian singular at sample 0, x = [" in out

    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_sample_count_below_one_exits_2(self, samples, capsys):
        rc, _, err = run(["scenario", "desitter_to_einstein", "--samples", samples],
                         capsys)
        assert rc == 2
        assert f"sample count must be at least 1, got {samples}" in err

    def test_frw_requires_map_file(self, files, capsys):
        rc, _, err = run(["scenario", "frw_candidate", "--samples", "64"],
                         capsys)
        assert rc == 2
        assert "--map" in err

    def test_frw_candidate_with_map(self, files, capsys):
        rc, out, _ = run(["scenario", "frw_candidate", "--map", files["frw.cm"],
                          "--samples", "256", "--threads", "1"], capsys)
        assert rc == 0
        assert "expectation: none" in out

    def test_map_rejected_elsewhere(self, files, capsys):
        rc, _, err = run(["scenario", "vaidya_flow", "--map", files["frw.cm"],
                          "--samples", "64"], capsys)
        assert rc == 2
        assert "does not take a map file" in err

    def test_unknown_scenario_exits_2(self, capsys):
        rc, _, err = run(["scenario", "warp_drive"], capsys)
        assert rc == 2
        assert "unknown scenario" in err

    def test_bad_param_syntax_exits_2(self, capsys):
        rc, _, err = run(["scenario", "desitter_to_einstein",
                          "--param", "b"], capsys)
        assert rc == 2
        assert "name=value" in err

    def test_duplicate_param_exits_2(self, capsys):
        rc, _, err = run(["scenario", "desitter_to_einstein",
                          "--param", "b=1", "--param", "b=2"], capsys)
        assert rc == 2
        assert "twice" in err


class TestDispatch:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_no_arguments_exits_2(self, capsys):
        rc, _, err = run([], capsys)
        assert rc == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        rc, _, err = run(["frobnicate"], capsys)
        assert rc == 2
        assert "usage error" in err

    def test_unexpected_failure_exits_3(self, files, capsys, monkeypatch):
        import causalkit.cli as cli

        def boom(*a, **k):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(cli, "check_proper_causal", boom)
        rc, _, err = run(["check", files["mink.st"], files["mink.st"],
                          files["identity.cm"], "--samples", "64"], capsys)
        assert rc == 3
        assert "internal error" in err

    def test_search_outside_bounds_exits_3(self, files, tmp_path, capsys, monkeypatch):
        # an open row's margin below its closed-form lower bound is an internal
        # fault, not bad input, and names the sample
        import causalkit.dp as dp

        solve = dp._pair_min

        def off(*rows):
            margins, nhat = solve(*rows)
            return margins - 1e6, nhat

        monkeypatch.setattr(dp, "_pair_min", off)
        shear = tmp_path / "shear.cm"
        shear.write_text(IDENTITY.replace("map t = t", "map t = t + x*x"), encoding="utf-8")
        rc, _, err = run(["check", files["mink.st"], files["mink.st"], str(shear),
                          "--samples", "64"], capsys)
        assert rc == 3
        assert "internal error: SandwichError" in err
        assert "left its bounds" in err and "at sample 1, x = [" in err
