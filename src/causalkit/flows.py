"""One-parameter families of self-maps and their infinitesimal data.

A flow is a coordinate family phi_s reducing to the identity at s = 0.
Freezing s gives an ordinary self-map, so causality along the flow is
decided by the sampled machinery in `relate`: the parameter values share
one sample set, one source stage and one stacked `dp2_margins` call.  The
generator and all metric derivatives come from forward-mode duals;
nothing here is finite-differenced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import TOL_DP, null_quadratic_margins
from .exprcore import parse_expr, seed_env, substitute
from .relate import (MapDef, Verdict, _at_sample, _blocks, _by_coordinate, _check_relations,
                     _check_symbols, _components, _dual_components, _Report, _sample, _source_stage,
                     _witnesses, _worst)

IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class FlowDef:
    """Family of self-maps phi_s on one chart; identity at s = 0."""

    spacetime: object
    s_symbol: str
    exprs: tuple
    s_range: tuple
    params: dict

    def __post_init__(self):
        st = self.spacetime
        if len(self.exprs) != st.n:
            raise ValueError("one expression per coordinate required")
        if self.s_symbol in st.coords or self.s_symbol in self.params:
            raise ValueError(f"flow parameter '{self.s_symbol}' shadows another symbol")
        if not self.s_range[0] <= 0.0 <= self.s_range[1]:
            raise ValueError("s_range must contain 0")
        allowed = set(st.coords) | set(self.params) | {self.s_symbol}
        for coord, e in zip(st.coords, self.exprs):
            _check_symbols(e, allowed, f"flow component '{coord}'")

    @classmethod
    def create(cls, spacetime, s_symbol, exprs, s_range, params=()):
        params = dict(params)
        symbols = tuple(spacetime.coords) + tuple(params) + (s_symbol,)
        parsed = _by_coordinate(exprs, spacetime.coords, spacetime.name, "flow lacks components",
                                lambda _, src: parse_expr(src, symbols))
        return cls(spacetime, s_symbol, parsed, (float(s_range[0]), float(s_range[1])), params)


@dataclass(frozen=True)
class GeneratorField:
    """Vector field given by one expression per coordinate."""

    spacetime: object
    exprs: tuple

    def __post_init__(self):
        st = self.spacetime
        if len(self.exprs) != st.n:
            raise ValueError("one expression per coordinate required")
        allowed = set(st.coords) | set(st.params)
        for e in self.exprs:
            _check_symbols(e, allowed, "generator")

    @classmethod
    def create(cls, spacetime, exprs):
        symbols = tuple(spacetime.coords) + tuple(spacetime.params)
        # a bare iterable is taken in coordinate order; a dict by name
        if isinstance(exprs, dict):
            return cls(spacetime, _by_coordinate(exprs, spacetime.coords, spacetime.name,
                                                 "generator lacks components",
                                                 lambda _, src: parse_expr(src, symbols)))
        return cls(spacetime, tuple(parse_expr(src, symbols) for src in exprs))

    def values(self, pts):
        return _components(self.exprs, self.spacetime.coords, self.spacetime.params, pts)


def verify_identity(flow, pts, tol=IDENTITY_TOL):
    """Check phi_0 = id on the given points; raises when the residual exceeds tol."""
    img = flow_map(flow, 0.0).image(pts)
    pts = np.asarray(pts, dtype=float)
    resid = np.abs(img - pts) / np.maximum(1.0, np.abs(pts))
    worst = float(np.max(resid))
    if worst > tol:
        i = int(np.argmax(resid.max(axis=-1))) if resid.ndim > 1 else 0
        raise ValueError(
            f"flow is not the identity at s = 0 (residual {worst:.3e} {_at_sample(pts, i)})"
        )


def flow_map(flow, s):
    """The self-map at one frozen parameter value.

    The value is substituted into the expressions rather than kept as a
    parameter, so maps at different s compose without name clashes.
    """
    lo, hi = flow.s_range
    if not lo <= s <= hi:
        raise ValueError(f"s = {s} outside the declared range [{lo}, {hi}]")
    sval = parse_expr(repr(float(s)), ())
    exprs = tuple(substitute(e, {flow.s_symbol: sval}) for e in flow.exprs)
    return MapDef(flow.spacetime, flow.spacetime, exprs, dict(flow.params))


def generator(flow, pts):
    """d(phi_s)/ds at s = 0, one row per point."""
    env = seed_env(flow.spacetime.coords, pts, flow.params, extra={flow.s_symbol: 0.0})
    return _dual_components(flow.exprs, env)[1][..., -1]


def lie_derivative_metric(st, xi, pts):
    """Lie derivative of the metric along xi at the given point(s).

    (L_xi g)_ab = xi^c d_c g_ab + g_cb d_a xi^c + g_ac d_b xi^c, with all
    partials taken by dual seeding of the coordinate symbols; with S = G dxi
    (dxi[c, b] = d_b xi^c) it is dG xi + S + S^T, as matrix products.
    """
    if xi.spacetime.name != st.name:
        raise ValueError("generator field belongs to a different spacetime")
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    P = pts[None] if single else pts
    G, dG = st.metric_partials_at(P)
    xiv, dxi = _dual_components(xi.exprs, seed_env(st.coords, P, st.params))
    N, n = xiv.shape
    # dG xi = sum_c xi^c d_c G, one (1, n) @ (n, n^2) product per point
    lie = (xiv[:, None, :] @ np.moveaxis(dG, -1, 1).reshape(N, n, n * n)).reshape(N, n, n)
    S = G @ dxi
    lie += S
    lie += np.swapaxes(S, -1, -2)
    return lie[0] if single else lie


@dataclass(frozen=True)
class FlowStep(_Report):
    s: float
    verdict: Verdict
    min_margin: float | None
    lam_range: tuple | None


@dataclass(frozen=True)
class SubmonoidReport(_Report):
    steps: tuple
    interval: tuple
    group: bool
    conformal_group: bool | None
    samples_checked: int


def check_submonoid(flow, s_grid, sampler, tol_dp=TOL_DP, threads=None):
    """Per-parameter causality of the flow and the maximal verified interval.

    Runs the sampled proper-causal check at every grid value, all on one
    sample set, and returns the largest contiguous block of holding values
    around s = 0 (closed at the last verified grid point).  Evaluation
    failures count as non-holding.  When every value of both signs holds,
    the family is flagged as a group and the per-s conformal summaries are
    combined (a sampled instance of: causal groups act conformally).
    The values are checked on up to `threads` worker threads, as in
    `check_proper_causal`.
    """
    pts = _sample(flow.spacetime, sampler)
    verify_identity(flow, pts)
    grid = sorted(float(s) for s in s_grid)
    if not any(abs(s) < 1e-15 for s in grid):
        grid = sorted(grid + [0.0])

    reports = _check_relations([flow_map(flow, s) for s in grid], pts, tol_dp, threads)
    steps = tuple(
        FlowStep(s, r.verdict, r.min_margin, None if r.conformal is None else r.conformal.lam_range)
        for s, r in zip(grid, reports)
    )
    holds = [r.verdict is Verdict.HOLDS_SAMPLED for r in reports]

    i0 = min(range(len(grid)), key=lambda i: abs(grid[i]))
    if reports[i0].verdict is Verdict.ERROR:  # a stage of the chart itself failed
        raise ValueError(reports[i0].error)
    if not holds[i0]:
        raise ArithmeticError("the identity map itself failed the causality check")
    lo = i0
    while lo > 0 and holds[lo - 1]:
        lo -= 1
    hi = i0
    while hi + 1 < len(grid) and holds[hi + 1]:
        hi += 1
    group = all(holds) and grid[0] < 0.0 < grid[-1]
    conformal_group = all(r.conformal.everywhere for r in reports) if group else None
    return SubmonoidReport(steps, (grid[lo], grid[hi]), group, conformal_group, len(pts))


@dataclass(frozen=True)
class NullConeReport(_Report):
    nonnegative: bool
    min_margin: float
    witnesses: tuple
    samples_checked: int


def null_cone_nonneg(st, xi, sampler, tol=TOL_DP):
    """Sign of (L_xi g)(k, k) minimized over future null k at each sample."""
    def block(x, _):
        E = _source_stage(st, x)[2]
        Lhat = np.swapaxes(E, -1, -2) @ lie_derivative_metric(st, xi, x) @ E
        margins, nhat = null_quadratic_margins(Lhat)
        return margins, _witnesses(x, E, Lhat, margins, tol, nhat)

    margins, witnesses = zip(*_blocks(block, _sample(st, sampler), None))
    margins, witnesses = np.concatenate(margins), _worst(witnesses)
    return NullConeReport(not witnesses, float(margins.min()), witnesses, len(margins))
