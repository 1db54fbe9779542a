"""Tests for the definition file format: parsing, errors, round trips."""

import numpy as np
import pytest

from causalkit.defio import (
    DefFileError,
    load_map,
    load_spacetime,
    parse_flow,
    parse_map,
    parse_spacetime,
    serialize_flow,
    serialize_map,
    serialize_spacetime,
)
from causalkit.flows import flow_map

SPHERE_TEXT = """\
# a static cylinder chart
name = cyl
dim = 4
coords = [t, chi, theta, phi]
param a = 2.0

domain t = (-inf, inf)
domain chi = (0, pi)
domain theta = (0, pi)
domain phi = (0, 2*pi)

metric[0][0] = 1
metric[1][1] = -a^2
metric[2][2] = -a^2*sin(chi)^2
metric[3][3] = -a^2*sin(chi)^2*sin(theta)^2
orientation = [1, 0, 0, 0]
exclude = sin(chi)
exclude = sin(theta)
"""


class TestParseSpacetime:
    def test_full_example(self):
        st = parse_spacetime(SPHERE_TEXT)
        assert st.name == "cyl"
        assert st.coords == ("t", "chi", "theta", "phi")
        assert st.params == {"a": 2.0}
        assert st.domain[0] == (float("-inf"), float("inf"))
        assert st.domain[1][1] == pytest.approx(np.pi)
        assert st.domain[3][1] == pytest.approx(2 * np.pi)
        assert len(st.exclusions) == 2
        G = st.metric_at(np.array([0.0, np.pi / 2, np.pi / 2, 1.0]))
        assert np.allclose(G, np.diag([1.0, -4.0, -4.0, -4.0]))

    def test_missing_domain(self):
        text = SPHERE_TEXT.replace("domain chi = (0, pi)\n", "")
        with pytest.raises(DefFileError, match="missing domain for \\['chi'\\]"):
            parse_spacetime(text)

    def test_stray_domain(self):
        text = SPHERE_TEXT + "domain w = (0, 1)\n"
        with pytest.raises(DefFileError, match="'w' is not a coordinate of 'cyl'") as exc:
            parse_spacetime(text)
        assert exc.value.lineno == 19

    def test_missing_orientation(self):
        text = SPHERE_TEXT.replace("orientation = [1, 0, 0, 0]\n", "")
        with pytest.raises(DefFileError, match="missing 'orientation'"):
            parse_spacetime(text)

    def test_dim_mismatch(self):
        text = SPHERE_TEXT.replace("dim = 4", "dim = 3")
        with pytest.raises(DefFileError, match="dim = 3 but 4 coordinates"):
            parse_spacetime(text)

    def test_upper_triangle_entry(self):
        text = SPHERE_TEXT + "metric[0][1] = 0.1\n"
        with pytest.raises(DefFileError, match="above the diagonal") as exc:
            parse_spacetime(text)
        assert exc.value.lineno == len(SPHERE_TEXT.splitlines()) + 1

    @pytest.mark.parametrize("line", ["dim = 4", "coords = [t, chi, theta, phi]"],
                             ids=["dim", "coords"])
    def test_duplicate_key(self, line):
        key = line.split(" =")[0]
        with pytest.raises(DefFileError, match=f"duplicate '{key}'") as exc:
            parse_spacetime(SPHERE_TEXT + line + "\n")
        assert exc.value.lineno == 19

    def test_duplicate_metric_entry(self):
        text = SPHERE_TEXT + "metric[0][0] = 2\n"
        with pytest.raises(DefFileError, match="duplicate metric\\[0\\]\\[0\\]"):
            parse_spacetime(text)

    def test_bad_expression_carries_lineno(self):
        text = SPHERE_TEXT.replace("metric[0][0] = 1", "metric[0][0] = 1 +")
        with pytest.raises(DefFileError, match="metric\\[0\\]\\[0\\]") as exc:
            parse_spacetime(text)
        assert exc.value.lineno == 12

    def test_unknown_symbol_in_metric(self):
        text = SPHERE_TEXT.replace("metric[0][0] = 1", "metric[0][0] = 1 + bogus")
        with pytest.raises(DefFileError) as exc:
            parse_spacetime(text)
        assert "bogus" in str(exc.value)
        assert exc.value.lineno == 12

    def test_missing_equals(self):
        with pytest.raises(DefFileError, match="line 1: expected 'key = value'"):
            parse_spacetime("name cyl\n")

    def test_unknown_key(self):
        with pytest.raises(DefFileError, match="unknown key 'speed'"):
            parse_spacetime(SPHERE_TEXT + "speed = 3\n")

    def test_bad_interval(self):
        text = SPHERE_TEXT.replace("domain chi = (0, pi)", "domain chi = (pi, 0)")
        with pytest.raises(DefFileError, match="empty interval") as exc:
            parse_spacetime(text)
        assert exc.value.lineno == 8

    def test_comments_and_blanks_ignored(self):
        noisy = "\n\n# comment\n" + SPHERE_TEXT + "\n   \n# done\n"
        assert parse_spacetime(noisy).name == "cyl"


MAP_TEXT = """\
source = cyl
target = cyl
param b = 1.5
map t = b*t
map chi = chi
map theta = theta
map phi = phi
"""


class TestParseMap:
    def charts(self):
        st = parse_spacetime(SPHERE_TEXT)
        return {st.name: st}

    def test_parse(self):
        m = parse_map(MAP_TEXT, self.charts())
        assert m.source.name == "cyl"
        assert m.params == {"b": 1.5}
        out = m.image(np.array([2.0, 1.0, 1.0, 1.0]))
        assert out[0] == pytest.approx(3.0)

    def test_unknown_spacetime(self):
        with pytest.raises(DefFileError, match="unknown source spacetime 'cyl'"):
            parse_map(MAP_TEXT, {})

    def test_missing_component(self):
        text = MAP_TEXT.replace("map phi = phi\n", "")
        with pytest.raises(DefFileError, match="missing map components for \\['phi'\\]"):
            parse_map(text, self.charts())

    def test_stray_component(self):
        text = MAP_TEXT + "map w = 0\n"
        with pytest.raises(DefFileError, match="'w' is not a coordinate") as exc:
            parse_map(text, self.charts())
        assert exc.value.lineno == 8

    def test_missing_source(self):
        with pytest.raises(DefFileError, match="missing 'source'"):
            parse_map("target = cyl\n", self.charts())

    @pytest.mark.parametrize("line, what", [
        ("source = cyl", "'source'"),
        ("target = cyl", "'target'"),
        ("param b = 2", "parameter 'b'"),
    ], ids=["source", "target", "param"])
    def test_duplicate_key(self, line, what):
        with pytest.raises(DefFileError, match=f"duplicate {what}") as exc:
            parse_map(MAP_TEXT + line + "\n", self.charts())
        assert exc.value.lineno == 8


FLOW_TEXT = """\
source = cyl
target = cyl
flow_param = s
s_range = (-2, 2)
map t = t + s
map chi = chi
map theta = theta
map phi = phi
"""


class TestParseFlow:
    def charts(self):
        st = parse_spacetime(SPHERE_TEXT)
        return {st.name: st}

    def test_parse(self):
        fl = parse_flow(FLOW_TEXT, self.charts())
        assert fl.s_symbol == "s"
        assert fl.s_range == (-2.0, 2.0)
        img = flow_map(fl, 0.5).image(np.array([1.0, 1.0, 1.0, 1.0]))
        assert img[0] == pytest.approx(1.5)

    def test_source_target_differ(self):
        text = FLOW_TEXT.replace("target = cyl", "target = other")
        with pytest.raises(DefFileError, match="self-map"):
            parse_flow(text, self.charts())

    def test_missing_flow_param(self):
        text = FLOW_TEXT.replace("flow_param = s\n", "")
        with pytest.raises(DefFileError, match="missing 'flow_param'"):
            parse_flow(text, self.charts())

    def test_srange_must_contain_zero(self):
        text = FLOW_TEXT.replace("s_range = (-2, 2)", "s_range = (1, 2)")
        with pytest.raises(DefFileError, match="contain 0") as exc:
            parse_flow(text, self.charts())
        assert exc.value.lineno == 4

    def test_srange_must_be_finite(self):
        text = FLOW_TEXT.replace("s_range = (-2, 2)", "s_range = (-inf, 2)")
        with pytest.raises(DefFileError, match="finite"):
            parse_flow(text, self.charts())

    @pytest.mark.parametrize("line", ["flow_param = u", "s_range = (-1, 1)"],
                             ids=["flow_param", "s_range"])
    def test_duplicate_key(self, line):
        key = line.split(" =")[0]
        with pytest.raises(DefFileError, match=f"duplicate '{key}'") as exc:
            parse_flow(FLOW_TEXT + line + "\n", self.charts())
        assert exc.value.lineno == 9


class TestRoundTrip:
    def test_spacetime(self):
        st = parse_spacetime(SPHERE_TEXT)
        text = serialize_spacetime(st)
        st2 = parse_spacetime(text)
        assert serialize_spacetime(st2) == text
        pts = np.array([[0.3, 1.2, 0.9, 2.0]])
        assert np.allclose(st.metric_at(pts), st2.metric_at(pts))

    def test_map(self):
        charts = {"cyl": parse_spacetime(SPHERE_TEXT)}
        m = parse_map(MAP_TEXT, charts)
        text = serialize_map(m)
        m2 = parse_map(text, charts)
        assert serialize_map(m2) == text

    def test_flow(self):
        charts = {"cyl": parse_spacetime(SPHERE_TEXT)}
        fl = parse_flow(FLOW_TEXT, charts)
        text = serialize_flow(fl)
        fl2 = parse_flow(text, charts)
        assert serialize_flow(fl2) == text


class TestLoaders:
    def test_load_spacetime_and_map(self, tmp_path):
        sp = tmp_path / "cyl.st"
        sp.write_text(SPHERE_TEXT)
        st = load_spacetime(sp)
        assert st.name == "cyl"
        mp = tmp_path / "stretch.map"
        mp.write_text(MAP_TEXT)
        m = load_map(mp, {"cyl": st})
        assert m.params["b"] == 1.5
