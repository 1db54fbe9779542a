"""Built-in charts and packaged verification scenarios.

Every builtin is constructed from expression text exactly like a user
definition file, then signature- and orientation-validated on a sample
of its default window before first use.  Scenarios bundle a builtin
map or flow with a sampling plan and an analytic expectation computed
independently of the cone machinery, so a scenario can fail in two
distinct ways: the relation fails (exit 1) or the tool disagrees with
the closed form (exit 3).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from .defio import serialize_flow, serialize_map, serialize_spacetime
from .dp import TOL_CONF, TOL_DP
from .exprcore import eval_expr, parse_expr
from .flows import FlowDef, check_submonoid
from .relate import (
    DEFAULT_MARGIN,
    DEFAULT_SAMPLES,
    MapDef,
    RegionSampler,
    SpacetimeDef,
    UnionSampler,
    Verdict,
    _nonnegative,
    _thread_count,
    check_isomorphism,
    check_proper_causal,
)

TOOL_VERSION = "0.1.0"

INF = float("inf")
_PI = float(np.pi)
_FULL = (-INF, INF)
_ANGLES = {"theta": (0.0, _PI), "phi": (0.0, 2 * _PI)}


# ---------------------------------------------------------------------------
# builtin charts


def _minkowski():
    return SpacetimeDef.create(
        name="minkowski",
        coords=("t", "x", "y", "z"),
        domain={"t": _FULL, "x": _FULL, "y": _FULL, "z": _FULL},
        params={},
        metric={(0, 0): "1", (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"},
        orientation=("1", "0", "0", "0"),
    )


def _minkowski_spherical(a=0.0):
    a = float(a)
    if a < 0:
        raise ValueError("excision radius a must be >= 0")
    return SpacetimeDef.create(
        name="minkowski_spherical",
        coords=("T", "R", "theta", "phi"),
        domain={"T": _FULL, "R": (a, INF), **_ANGLES},
        params={},
        metric={(0, 0): "1", (1, 1): "-1", (2, 2): "-R^2",
                (3, 3): "-R^2*sin(theta)^2"},
        orientation=("1", "0", "0", "0"),
        exclusions=("sin(theta)",),
    )


def _de_sitter(alpha=1.0):
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("curvature radius alpha must be > 0")
    return SpacetimeDef.create(
        name="de_sitter",
        coords=("t", "chi", "theta", "phi"),
        domain={"t": _FULL, "chi": (0.0, _PI), **_ANGLES},
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


def _einstein_static(a=1.0):
    a = float(a)
    if a <= 0:
        raise ValueError("sphere radius a must be > 0")
    return SpacetimeDef.create(
        name="einstein_static",
        coords=("t", "chi", "theta", "phi"),
        domain={"t": _FULL, "chi": (0.0, _PI), **_ANGLES},
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


def _schwarzschild_ext(M=1.0, c=3.0):
    M, c = float(M), float(c)
    if M <= 0:
        raise ValueError("mass M must be > 0")
    if c < 2 * M:
        raise ValueError(f"inner radius c = {c} must not cut inside the horizon 2M = {2 * M}")
    return SpacetimeDef.create(
        name="schwarzschild_ext",
        coords=("t", "r", "theta", "phi"),
        domain={"t": _FULL, "r": (c, INF), **_ANGLES},
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


def _frw_flat(gamma=1.0 / 3.0, C=1.0):
    gamma, C = float(gamma), float(C)
    if not -1.0 < gamma < 1.0:
        raise ValueError("equation-of-state index gamma must lie in (-1, 1)")
    if C <= 0:
        raise ValueError("scale constant C must be > 0")
    scale_sq = "C^2*t^(4/(3*(1 + gamma)))"
    return SpacetimeDef.create(
        name="frw_flat",
        coords=("t", "x", "y", "z"),
        domain={"t": (0.0, INF), "x": _FULL, "y": _FULL, "z": _FULL},
        params={"gamma": gamma, "C": C},
        metric={(0, 0): "1", (1, 1): f"-{scale_sq}",
                (2, 2): f"-{scale_sq}", (3, 3): f"-{scale_sq}"},
        orientation=("1", "0", "0", "0"),
    )


def _vaidya(mass="2 - tanh(t)"):
    mass = str(mass)
    # reject masses referencing anything but the time coordinate early
    parse_expr(mass, ("t",))
    return SpacetimeDef.create(
        name="vaidya",
        coords=("t", "r", "theta", "phi"),
        domain={"t": _FULL, "r": (0.0, INF), **_ANGLES},
        params={},
        metric={
            (0, 0): f"1 - 2*({mass})/r",
            (1, 0): "-1",
            (2, 2): "-r^2",
            (3, 3): "-r^2*sin(theta)^2",
        },
        # ingoing causal blend: -d_r tipped slightly toward +d_t
        orientation=("0.001", "-1", "0", "0"),
        exclusions=("sin(theta)",),
    )


_BUILDERS = {
    "minkowski": _minkowski,
    "minkowski_spherical": _minkowski_spherical,
    "de_sitter": _de_sitter,
    "einstein_static": _einstein_static,
    "schwarzschild_ext": _schwarzschild_ext,
    "frw_flat": _frw_flat,
    "vaidya": _vaidya,
}

_VALIDATED = set()


def builtin_names():
    return tuple(sorted(_BUILDERS))


def default_window(st):
    """Sampling window covering the interesting part of a builtin chart."""
    if st.name == "minkowski_spherical":
        return {"R": (st.domain[1][0], 50.0)}
    if st.name in ("de_sitter", "einstein_static"):
        return {"t": (-3.0, 3.0)}
    if st.name == "schwarzschild_ext":
        return {"r": (st.domain[1][0], 50.0)}
    if st.name == "frw_flat":
        return {"t": (0.0, 20.0)}
    if st.name == "vaidya":
        return {"t": (-5.0, 5.0), "r": (0.5, 20.0)}
    return {}


def builtin(name, **params):
    """Construct a builtin chart, validating it on its default window."""
    if name not in _BUILDERS:
        known = ", ".join(builtin_names())
        raise ValueError(f"unknown builtin spacetime '{name}' (known: {known})")
    st = _BUILDERS[name](**params)
    key = _digest(serialize_spacetime(st))
    if key not in _VALIDATED:
        pts = RegionSampler.build(st, count=1000, window=default_window(st)).points()
        st.validate_on(pts)
        _VALIDATED.add(key)
    return st


def builtin_registry(overrides=()):
    """Name -> SpacetimeDef for every builtin at default parameters, with
    the given definitions replacing same-named entries."""
    reg = {name: builtin(name) for name in _BUILDERS}
    for st in overrides:
        reg[st.name] = st
    return reg


# ---------------------------------------------------------------------------
# canonical reports


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj):
    """Stable rendering used for report files: sorted keys, strict floats."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def spacetime_digest(st):
    return {"name": st.name, "sha256": _digest(serialize_spacetime(st))}


def map_digest(m):
    return {"source": m.source.name, "target": m.target.name,
            "sha256": _digest(serialize_map(m))}


def relation_inputs(src, tgt, **maps):
    """Inputs block of a relation report: both charts, then each named map."""
    inputs = {"source": spacetime_digest(src), "target": spacetime_digest(tgt)}
    inputs.update((key, map_digest(m)) for key, m in maps.items())
    return inputs


def flow_digest(f):
    return {"spacetime": f.spacetime.name, "sha256": _digest(serialize_flow(f))}


@dataclass(frozen=True)
class ScenarioOutcome:
    """A scenario run: the canonical report plus exit semantics.

    `positive` is the verdict sign (relation holds / interval matches);
    `matched` compares against the analytic expectation, None when the
    scenario carries no expectation.
    """

    name: str
    report: dict
    matched: bool | None
    positive: bool

    @property
    def exit_code(self):
        if self.matched is False:
            return 3
        return 0 if self.positive else 1


class _Run:
    """One run's sampling plan, tolerances, thread setting and clock; the one
    builder of the canonical report envelope.  Every check of the run gets
    `threads` as its worker-thread cap (see `check_proper_causal`)."""

    def __init__(self, samples, seed, scheme, margin, tol_dp, threads):
        self.samples = int(samples)
        self.seed = int(seed)
        self.scheme = scheme
        self.margin = float(margin)
        self.tol_dp = _nonnegative(tol_dp, "tol_dp")
        self.threads = _thread_count(threads)
        self.started = time.perf_counter()

    def sampler(self, st, count=None, seed=None, window=None):
        """Sampler of chart st; the window defaults to the builtin's
        `default_window`, and {} samples the full declared domain."""
        return RegionSampler.build(
            st, count=self.samples if count is None else count,
            scheme=self.scheme, seed=self.seed if seed is None else seed,
            margin=self.margin,
            window=default_window(st) if window is None else window,
        )

    def report(self, kind, inputs, result, sampled=True, **extra):
        """The canonical report; `timing_s` is recorded only with more than
        one thread, so `--threads 1` reports stay byte-stable."""
        elapsed = None
        if self.threads > 1:
            elapsed = round(time.perf_counter() - self.started, 6)
        sampler = None
        if sampled:
            sampler = {"scheme": self.scheme, "seed": self.seed,
                       "count": self.samples, "margin": self.margin}
        return {
            "tool": {"name": "causalkit", "version": TOOL_VERSION},
            "kind": kind,
            "inputs": inputs,
            "sampler": sampler,
            "tolerances": {"tol_dp": self.tol_dp, "tol_conf": TOL_CONF},
            "threads": self.threads,
            "timing_s": elapsed,
            "result": result,
            **extra,
        }


def _take(params, key, default):
    v = params.pop(key, default)
    return float(v)


def _no_leftovers(name, params):
    if params:
        raise ValueError(
            f"scenario '{name}' does not take parameters {sorted(params)}")


def _verdict_expectation(min_scan, time_sign):
    if min_scan < 0:
        return Verdict.VIOLATED.value
    return (Verdict.HOLDS_SAMPLED if time_sign > 0 else Verdict.TIME_REVERSED).value


def _scenario_desitter(run, params):
    alpha = _take(params, "alpha", 1.0)
    a = _take(params, "a", 1.0)
    b = _take(params, "b", 1.0)
    _no_leftovers("desitter_to_einstein", params)
    src = builtin("de_sitter", alpha=alpha)
    tgt = builtin("einstein_static", a=a)
    m = MapDef.create(src, tgt,
                      {"t": "b*t", "chi": "chi", "theta": "theta", "phi": "phi"},
                      {"b": b})
    rep = check_proper_causal(m, run.sampler(src), tol_dp=run.tol_dp, threads=run.threads)
    # pair minimum of the pullback in the source frame: b^2 - a^2/(alpha cosh(t/alpha))^2,
    # smallest at t = 0
    if b == 0.0:
        expected = Verdict.ERROR.value
    else:
        expected = _verdict_expectation(b * b * alpha * alpha - a * a, b)
    inputs = dict(relation_inputs(src, tgt, map=m),
                  params={"alpha": alpha, "a": a, "b": b})
    return (inputs, rep, expected, rep.verdict.value == expected,
            rep.verdict is Verdict.HOLDS_SAMPLED)


def _exterior_pieces(run, params, name):
    M = _take(params, "M", 1.0)
    c = _take(params, "c", 3.0)
    b = _take(params, "b", 3.0)
    a = _take(params, "a", min(2.5, c))
    _no_leftovers(name, params)
    if a > c:
        raise ValueError(f"excision radius a = {a} must not exceed the inner radius c = {c}")
    src = builtin("minkowski_spherical", a=a)
    tgt = builtin("schwarzschild_ext", M=M, c=c)
    fwd = MapDef.create(
        src, tgt, {"t": "b*T", "r": "R - a + c", "theta": "theta", "phi": "phi"},
        {"b": b, "a": a, "c": c})
    bwd = MapDef.create(
        tgt, src, {"T": "t", "R": "r - c + a", "theta": "theta", "phi": "phi"},
        {"a": a, "c": c})
    return M, c, b, a, src, tgt, fwd, bwd


def _exterior_sampler(run, src, a):
    # three quarters of the samples, and at least one, in the main window; the
    # rest, if any, in the band at the excision (a count below 1 stays as given,
    # for the sampler to reject)
    main = min(run.samples, max(1, 3 * run.samples // 4))
    parts = [run.sampler(src, count=main, window={"R": (a, 50.0)})]
    if run.samples > main:
        parts.append(run.sampler(src, count=run.samples - main, seed=run.seed + 1,
                                 window={"R": (a, a + 1.0)}))
    return UnionSampler(tuple(parts))


# The builders require M > 0, c >= 2M, c >= a >= 0: f = 1 - 2M/r and (r - c + a)/r
# grow with r and r/R = 1 + (c - a)/R shrinks with R, so the forward expectation
# increases in R, the backward one decreases in r, and one evaluation at the end
# of the window stands for a dense scan of it.
def _exterior_min_fwd(M, c, b, a, margin):
    R = np.float64(min(a + margin, 50.0))
    r = R - a + c
    f = 1.0 - 2.0 * M / r
    return float(b * b * f - np.maximum(1.0 / f, np.square(r / R)))


def _exterior_min_bwd(M, c, a, margin):
    r = np.float64(max(c + margin, 50.0))
    f = 1.0 - 2.0 * M / r
    return float(1.0 / f - np.maximum(f, np.square((r - c + a) / r)))


def _scenario_mink_to_schw(run, params):
    M, c, b, a, src, tgt, fwd, _ = _exterior_pieces(run, params, "minkowski_to_schwarzschild")
    samp = _exterior_sampler(run, src, a)
    rep = check_proper_causal(fwd, samp, tol_dp=run.tol_dp, threads=run.threads)
    expected = Verdict.ERROR.value if b == 0.0 else _verdict_expectation(
        _exterior_min_fwd(M, c, b, a, run.margin), b)
    inputs = dict(relation_inputs(src, tgt, map=fwd),
                  params={"M": M, "c": c, "b": b, "a": a})
    return (inputs, rep, expected, rep.verdict.value == expected,
            rep.verdict is Verdict.HOLDS_SAMPLED)


def _scenario_schw_to_mink(run, params):
    M, c, _, a, src, tgt, _, bwd = _exterior_pieces(run, params, "schwarzschild_to_minkowski")
    samp = run.sampler(tgt, window={"r": (c, 50.0)})
    rep = check_proper_causal(bwd, samp, tol_dp=run.tol_dp, threads=run.threads)
    expected = _verdict_expectation(_exterior_min_bwd(M, c, a, run.margin), 1.0)
    inputs = dict(relation_inputs(tgt, src, map=bwd),
                  params={"M": M, "c": c, "a": a})
    return (inputs, rep, expected, rep.verdict.value == expected,
            rep.verdict is Verdict.HOLDS_SAMPLED)


def _scenario_schw_iso(run, params):
    M, c, b, a, src, tgt, fwd, bwd = _exterior_pieces(run, params, "schwarzschild_iso")
    sf = _exterior_sampler(run, src, a)
    sb = run.sampler(tgt, window={"r": (c, 50.0)})
    rep = check_isomorphism(fwd, bwd, sf, sb, tol_dp=run.tol_dp, threads=run.threads)
    expected = bool(
        b != 0.0
        and _exterior_min_fwd(M, c, b, a, run.margin) >= 0
        and _exterior_min_bwd(M, c, a, run.margin) >= 0
    )
    inputs = dict(relation_inputs(src, tgt, forward=fwd, backward=bwd),
                  params={"M": M, "c": c, "b": b, "a": a})
    return inputs, rep, expected, rep.isomorphic == expected, rep.isomorphic


def _scenario_frw(run, params, map_path):
    gamma = _take(params, "gamma", 1.0 / 3.0)
    C = _take(params, "C", 1.0)
    _no_leftovers("frw_candidate", params)
    if map_path is None:
        raise ValueError("scenario 'frw_candidate' needs a map file (--map)")
    from .defio import load_map

    src = builtin("frw_flat", gamma=gamma, C=C)
    m = load_map(map_path, builtin_registry(overrides=(src,)))
    if m.source.name != "frw_flat":
        raise ValueError(
            f"frw_candidate expects a map out of 'frw_flat', got '{m.source.name}'")
    rep = check_proper_causal(m, run.sampler(src), tol_dp=run.tol_dp, threads=run.threads)
    if gamma > -1.0 / 3.0:
        regime = "decelerating"
    elif gamma < -1.0 / 3.0:
        regime = "accelerating"
    else:
        regime = "marginal"
    inputs = dict(relation_inputs(src, m.target, map=m),
                  params={"gamma": gamma, "C": C}, expansion_regime=regime)
    return inputs, rep, None, None, rep.verdict is Verdict.HOLDS_SAMPLED


def _scenario_vaidya(run, params):
    # the mass function goes by M on the command line; keep mass= working too
    if "M" in params and "mass" in params:
        raise ValueError("scenario 'vaidya_flow' takes M or mass, not both")
    mass = str(params.pop("M", params.pop("mass", "2 - tanh(t)")))
    _no_leftovers("vaidya_flow", params)
    st = builtin("vaidya", mass=mass)
    fl = FlowDef.create(
        st, "s", {"t": "t + s", "r": "r", "theta": "theta", "phi": "phi"},
        (-2.0, 2.0))
    s_grid = [k / 2.0 for k in range(-4, 5)]
    rep = check_submonoid(fl, s_grid, run.sampler(st), tol_dp=run.tol_dp, threads=run.threads)

    # the time shift is proper causal exactly when no sampled instant
    # gains mass: max_t (M(t+s) - M(t)) <= 0 over the window.  M is evaluated
    # once on a grid of step 1/2000 over [-7, 7]; t in [-5, 5] shifted by s =
    # k/2 is the slice offset by 1000 k
    t = np.linspace(-7.0, 7.0, 28001)
    mt = np.broadcast_to(np.asarray(eval_expr(parse_expr(mass, ("t",)), {"t": t}), dtype=float), t.shape)
    m0 = mt[4000:24001]
    mscale = max(1.0, float(np.max(np.abs(m0))))
    expected_holds = {}
    for s in s_grid:
        shift = 4000 + round(2000 * s)
        expected_holds[s] = bool(np.max(mt[shift:shift + 20001] - m0) <= 1e-9 * mscale)
    lo = 0.0
    while lo - 0.5 in expected_holds and expected_holds[lo - 0.5]:
        lo -= 0.5
    hi = 0.0
    while hi + 0.5 in expected_holds and expected_holds[hi + 0.5]:
        hi += 0.5
    expected = {
        "holds": {f"{s:g}": v for s, v in expected_holds.items()},
        "interval": [lo, hi],
    }
    actual_holds = {step.s: step.verdict is Verdict.HOLDS_SAMPLED
                    for step in rep.steps}
    matched = (actual_holds == expected_holds
               and list(rep.interval) == expected["interval"])
    inputs = {
        "spacetime": spacetime_digest(st), "flow": flow_digest(fl),
        "params": {"M": mass},
    }
    return inputs, rep, expected, matched, matched


# each runner returns (inputs, report object, expected, matched, positive);
# run_scenario turns them into the canonical report and the outcome
_SCENARIOS = {
    "desitter_to_einstein": _scenario_desitter,
    "minkowski_to_schwarzschild": _scenario_mink_to_schw,
    "schwarzschild_to_minkowski": _scenario_schw_to_mink,
    "schwarzschild_iso": _scenario_schw_iso,
    "frw_candidate": _scenario_frw,
    "vaidya_flow": _scenario_vaidya,
}


def scenario_names():
    return tuple(sorted(_SCENARIOS))


def run_scenario(name, samples=DEFAULT_SAMPLES, seed=0, scheme="halton",
                 margin=DEFAULT_MARGIN, tol_dp=TOL_DP, threads=None,
                 params=None, map_path=None):
    """Execute a named scenario and return its outcome.

    `params` overrides scenario parameters (floats, except `M` for the
    vaidya flow which is a mass expression in t).  `map_path` is only
    meaningful for frw_candidate.
    """
    if name not in _SCENARIOS:
        known = ", ".join(scenario_names())
        raise ValueError(f"unknown scenario '{name}' (known: {known})")
    run = _Run(samples, seed, scheme, margin, tol_dp, threads)
    params = dict(params or {})
    if name == "frw_candidate":
        pieces = _SCENARIOS[name](run, params, map_path)
    elif map_path is not None:
        raise ValueError(f"scenario '{name}' does not take a map file")
    else:
        pieces = _SCENARIOS[name](run, params)
    inputs, rep, expected, matched, positive = pieces
    report = run.report("scenario", inputs, rep.to_dict(), name=name,
                        expected=expected, matched=matched)
    return ScenarioOutcome(name, report, matched, positive)
