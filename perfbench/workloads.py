"""The four benchmark workloads: inputs from a seed, the requests one
pass makes, and the checks on every result.

A workload is closed-loop: each request starts when the previous one
has returned, and a pass runs every request once.  Requests call the
public `causalkit` API through `call(span_name, fn, *args)`, which the
traced run turns into a span at the benchmark's own call site.

Every check compares against a closed form or an independent reference
(`tests/oracles.py`, pure enumeration that shares no code with
`causalkit.dp`), never against causalkit itself.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np

import causalkit as ck
from causalkit.catalog import builtin, default_window
from causalkit.flows import GeneratorField, null_cone_nonneg
from causalkit.relate import MapDef, RegionSampler, check_proper_causal

ROOT = Path(__file__).resolve().parents[1]

# Problem sizes.  `tiny` is the smoke-test scale.
SIZES = {
    "scenarios": {"N": 1024},
    "flow_scan": {"N": 128, "N_cone": 8192},
    "large_n": {"N": 8192, "threads": 2},
    "pointwise": {"queries": 24},
}
TINY = {
    "scenarios": {"N": 64},
    "flow_scan": {"N": 32, "N_cone": 64},
    "large_n": {"N": 512, "threads": 2},
    "pointwise": {"queries": 6},
}

TOL = 1e-9          # closed-form agreement and witness tolerance
ORACLE_TOL = 1e-4   # agreement with the enumeration reference
WITNESS_T = 0.35    # de Sitter witnesses at b = 0.95 lie inside |t| <= this
DESITTER_B = (1.0, 1.5, 0.95)
REFERENCE_EACH = 4  # pointwise tensors of each kind checked against the reference


class Request:
    """One closed-loop call: `run(call)` returns a result for `check`."""

    def __init__(self, label, run, points, check):
        self.label = label
        self.run = run
        self.points = points
        self.check = check


class Workload:
    """`passes()` yields the request list of each successive pass."""

    def __init__(self, name, sizes, threads, passes, warmup, reference):
        self.name = name
        self.sizes = sizes
        self.threads = threads
        self.passes = passes
        self.warmup = warmup
        # reference(results) -> list of problems, one entry per item
        # compared (None when it agrees); results maps label -> result
        self.reference = reference


def build(name, seed, tiny=False):
    sizes = (TINY if tiny else SIZES)[name]
    return _BUILDERS[name](seed, sizes)


# ---------------------------------------------------------------------------
# closed forms and generic checks


def _desitter_metric(x):
    """de Sitter metric (alpha = 1) at coordinates (t, chi, theta, phi)."""
    c2 = math.cosh(x[0]) ** 2
    s2 = math.sin(x[1]) ** 2
    return np.diag([1.0, -c2, -c2 * s2, -c2 * s2 * math.sin(x[2]) ** 2])


def _desitter_pullback(x, b):
    """Pullback of the Einstein static metric (a = 1) under t -> b t."""
    s2 = math.sin(x[1]) ** 2
    return np.diag([b * b, -1.0, -s2, -s2 * math.sin(x[2]) ** 2])


def _desitter_frame_tensor(t, b):
    """The same pullback in the de Sitter orthonormal frame."""
    return np.diag([b * b] + [-1.0 / math.cosh(t) ** 2] * 3)


def _stretch_map(ds, es, b):
    """de Sitter -> Einstein static, t -> b t (the desitter_to_einstein map)."""
    return MapDef.create(ds, es, {"t": "b*t", "chi": "chi", "theta": "theta", "phi": "phi"},
                         {"b": b})


def _witness_problems(G, future, T, k, l, margin):
    """k, l future null under G, and T(k, l) equal to the margin."""
    out = []
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    for tag, v in (("k", k), ("l", l)):
        if abs(v @ G @ v) > TOL * np.abs(G).max() * (v @ v):
            out.append(f"witness {tag} not null")
        if v @ G @ future <= 0.0:
            out.append(f"witness {tag} not future")
    scale = max(1.0, float(np.abs(T).max() * np.linalg.norm(k) * np.linalg.norm(l)))
    if abs(float(k @ T @ l) - margin) > TOL * scale:
        out.append(f"T(k, l) = {float(k @ T @ l):.3e} misses margin {margin:.3e}")
    return out


def _oracle():
    """The test suite's enumeration reference, imported read-only."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    from oracles import pair_min_oracle

    return pair_min_oracle


# ---------------------------------------------------------------------------
# scenarios: the packaged scenarios end to end


def _scenarios(seed, sizes):
    N = sizes["N"]
    # build every chart the scenarios use, so validation is set-up work
    builtin("de_sitter")
    builtin("einstein_static")
    builtin("minkowski_spherical", a=2.5)
    builtin("schwarzschild_ext", M=1.0, c=3.0)

    def scenario(name, params=None):
        return lambda call: call("catalog.scenario", ck.run_scenario, name,
                                 samples=N, seed=seed, threads=1, params=params)

    def check_desitter(b):
        def check(out):
            probs = [] if out.matched is True else ["matched is not True"]
            r = out.report["result"]
            want = b * b - 1.0
            if r["min_margin"] is None or abs(r["min_margin"] - want) > TOL:
                probs.append(f"min_margin {r['min_margin']} != closed form {want}")
            if want < 0.0:
                if r["verdict"] != "VIOLATED" or not r["witnesses"]:
                    probs.append("expected VIOLATED with witnesses")
                for w in r["witnesses"]:
                    x = np.array(w["point"])
                    if abs(x[0]) > WITNESS_T:
                        probs.append(f"witness at t = {x[0]:.3f} outside |t| <= {WITNESS_T}")
                    local = b * b - 1.0 / math.cosh(x[0]) ** 2
                    if abs(w["margin"] - local) > TOL:
                        probs.append(f"witness margin {w['margin']} != {local}")
                    probs += _witness_problems(
                        _desitter_metric(x), np.array([1.0, 0, 0, 0]),
                        _desitter_pullback(x, b), *w["vectors"], w["margin"])
            return probs
        return check

    def check_matched(out):
        return [] if out.matched is True else ["matched is not True"]

    requests = [
        Request(f"desitter_to_einstein b={b}", scenario("desitter_to_einstein", {"b": b}),
                N, check_desitter(b))
        for b in DESITTER_B
    ]
    requests += [
        Request("minkowski_to_schwarzschild", scenario("minkowski_to_schwarzschild"),
                N, check_matched),
        Request("schwarzschild_to_minkowski", scenario("schwarzschild_to_minkowski"),
                N, check_matched),
        Request("schwarzschild_iso", scenario("schwarzschild_iso"), 2 * N, check_matched),
    ]

    def warmup():
        ck.run_scenario("desitter_to_einstein", samples=16, seed=seed, threads=1)

    def reference(results):
        # the enumeration reference at the b = 0.95 witness points
        oracle = _oracle()
        b = DESITTER_B[-1]
        out = results[f"desitter_to_einstein b={b}"].report["result"]
        probs = []
        for w in out["witnesses"][:4]:
            ref = oracle(_desitter_frame_tensor(w["point"][0], b))
            probs.append(None if abs(ref - w["margin"]) <= ORACLE_TOL
                         else f"witness margin {w['margin']} vs reference {ref}")
        return probs

    return Workload("scenarios", sizes, 1, lambda: itertools.repeat(requests), warmup,
                    reference)


# ---------------------------------------------------------------------------
# flow_scan: the Vaidya time-shift flow plus the generator's null cone


def _flow_scan(seed, sizes):
    N, Nc = sizes["N"], sizes["N_cone"]
    st = builtin("vaidya")
    xi = GeneratorField.create(st, {"t": "1", "r": "0", "theta": "0", "phi": "0"})
    cone_sampler = RegionSampler.build(st, count=Nc, seed=seed, window=default_window(st))
    s_values = 9

    def flow(call):
        return call("catalog.scenario", ck.run_scenario, "vaidya_flow",
                           samples=N, seed=seed, threads=1)

    def cone(call):
        return call("flows.nullcone", null_cone_nonneg, st, xi, cone_sampler)

    def check_flow(out):
        probs = [] if out.matched is True else ["vaidya_flow matched is not True"]
        # M = 2 - tanh(t) only loses mass, so forward shifts hold up to s = 2
        if out.report["result"]["interval"] != [0.0, 2.0]:
            probs.append(f"interval {out.report['result']['interval']} != [0, 2]")
        return probs

    def check_cone(out):
        # (L_xi g)(k, k) = 2 sech(t)^2 / r (k^t)^2, and -d_r is future null
        # with k^t = 0, so the minimum over the cone is exactly 0
        if not out.nonnegative or abs(out.min_margin) > TOL:
            return [f"null-cone margin {out.min_margin} != 0"]
        return []

    def warmup():
        null_cone_nonneg(st, xi, RegionSampler.build(st, count=16, seed=seed,
                                                     window=default_window(st)))

    requests = [Request("vaidya_flow", flow, s_values * N, check_flow),
                Request("null_cone", cone, Nc, check_cone)]
    return Workload("flow_scan", sizes, 1, lambda: itertools.repeat(requests), warmup,
                    lambda results: [])


# ---------------------------------------------------------------------------
# large_n: one large de Sitter check on two threads


def _large_n(seed, sizes):
    N, threads = sizes["N"], sizes["threads"]
    b = 1.5
    ds = builtin("de_sitter")
    es = builtin("einstein_static")
    m = _stretch_map(ds, es, b)
    sampler = RegionSampler.build(ds, count=N, seed=seed, window=default_window(ds))

    def run(call):
        return call("relate.check", check_proper_causal, m, sampler, threads=threads)

    def check(rep):
        probs = []
        if rep.verdict.value != "HOLDS_SAMPLED":
            probs.append(f"verdict {rep.verdict.value}")
        if rep.min_margin is None or abs(rep.min_margin - (b * b - 1.0)) > TOL:
            probs.append(f"min_margin {rep.min_margin} != closed form {b * b - 1.0}")
        if rep.samples_checked != N:
            probs.append(f"checked {rep.samples_checked} of {N} samples")
        return probs

    def warmup():
        small = RegionSampler.build(ds, count=16, seed=seed, window=default_window(ds))
        check_proper_causal(m, small, threads=1)

    requests = [Request("check_proper_causal", run, N, check)]
    return Workload("large_n", sizes, threads, lambda: itertools.repeat(requests), warmup,
                    lambda results: [])


# ---------------------------------------------------------------------------
# pointwise: single-point queries


def _dp_plus_sum(rng, trial, eta):
    """A DP+ tensor: positive multiples of squared future causal covectors.

    Returns (T, closed-form margin or None).  One-term sums have margin
    w * gap^2, which is exactly 0 when the covector is null.
    """
    T = np.zeros((4, 4))
    terms = 1 + trial % 3
    exact = None
    for j in range(terms):
        sp = rng.normal(size=3)
        gap = 0.0 if (trial + j) % 3 == 0 else rng.uniform(0.1, 1.0)
        v = np.concatenate([[np.linalg.norm(sp) + gap], sp])
        w = rng.uniform(0.2, 2.0)
        T += w * np.outer(eta @ v, eta @ v)
        exact = w * gap * gap
    return T, (exact if terms == 1 else None)


def _pointwise(seed, sizes):
    Q = sizes["queries"]
    rng = np.random.default_rng(seed)
    mink = builtin("minkowski")
    p = mink.point(np.zeros(4))
    eta = p.metric.matrix
    ds = builtin("de_sitter")
    es = builtin("einstein_static")
    maps = {b: _stretch_map(ds, es, b) for b in (1.0, 1.5)}
    future = np.array([1.0, 0.0, 0.0, 0.0])

    def dp_check(T):
        return lambda call: call("dp.check", ck.dp2_check, p, T)

    def check_random(T):
        def check(v):
            scale = max(1.0, float(np.abs(T).max()))
            if v.status.value == "InDPplus":
                return [] if v.margin >= -TOL * scale else [f"InDPplus at margin {v.margin}"]
            probs = [] if v.margin < -TOL * scale else [f"{v.status.value} at margin {v.margin}"]
            return probs + _witness_problems(eta, future, T, *v.witness, v.margin)
        return check

    def check_plus(T, exact):
        def check(v):
            scale = max(1.0, float(np.abs(T).max()))
            probs = [] if v.status.value == "InDPplus" else [f"status {v.status.value}"]
            if exact is not None and abs(v.margin - exact) > TOL * scale:
                probs.append(f"margin {v.margin} != closed form {exact}")
            return probs
        return check

    def canonical(b, x):
        return lambda call: call("relate.canonical", ck.canonical_null_directions, maps[b], x)

    def check_canonical(b, x):
        # G^-1 T = diag(b^2, 1/cosh(t)^2, ...): no null eigenvector unless
        # T = G, which happens only at b = 1, t = 0
        degenerate = b == 1.0 and x[0] == 0.0

        def check(res):
            if not degenerate:
                ok = not res.degenerate and not res.pairs
                return [] if ok else ["unexpected null eigenvectors"]
            ok = res.degenerate and len(res.pairs) == 4
            probs = [] if ok else ["expected 4 degenerate pairs"]
            G = _desitter_metric(x)
            for lam, v in res.pairs:
                if abs(lam - 1.0) > TOL:
                    probs.append(f"eigenvalue {lam} != 1")
                if abs(v @ G @ v) > TOL * np.abs(G).max() * (v @ v) or v @ G @ future <= 0.0:
                    probs.append("eigenvector not future null")
            return probs
        return check

    # the first tensors of each kind, compared with the reference
    subset = []

    def query(i):
        A = rng.normal(size=(4, 4))
        T = 0.5 * (A + A.T)
        label = f"dp2_check random#{i}"
        yield Request(label, dp_check(T), 1, check_random(T))
        if i < REFERENCE_EACH:
            subset.append((label, T))

        T, exact = _dp_plus_sum(rng, i, eta)
        label = f"dp2_check dp_plus#{i}"
        yield Request(label, dp_check(T), 1, check_plus(T, exact))
        if i < REFERENCE_EACH:
            subset.append((label, T))

        b = 1.0 if i % 4 == 3 else 1.5
        x = np.array([0.0 if b == 1.0 else rng.uniform(-3.0, 3.0),
                      rng.uniform(0.3, math.pi - 0.3),
                      rng.uniform(0.3, math.pi - 0.3),
                      rng.uniform(0.1, 2 * math.pi - 0.1)])
        yield Request(f"canonical#{i} b={b}", canonical(b, x), 1, check_canonical(b, x))

    def passes():
        # an endless seeded stream, one block of Q queries per pass: the
        # cost of a query depends on its tensor, so a run averages over
        # many tensors instead of repeating a few
        for block in itertools.count():
            yield [req for i in range(block * Q // 3, (block + 1) * Q // 3)
                   for req in query(i)]

    def warmup():
        ck.dp2_check(p, np.eye(4))

    def reference(results):
        # coordinates at the Minkowski origin are an orthonormal frame, so
        # the enumeration reference takes the tensors as they are
        oracle = _oracle()
        probs = []
        for label, T in subset:
            ref = oracle(T)
            got = results[label].margin
            probs.append(None if abs(got - ref) <= ORACLE_TOL
                         else f"{label}: margin {got} vs reference {ref}")
        return probs

    return Workload("pointwise", sizes, 1, passes, warmup, reference)


_BUILDERS = {
    "scenarios": _scenarios,
    "flow_scan": _flow_scan,
    "large_n": _large_n,
    "pointwise": _pointwise,
}
