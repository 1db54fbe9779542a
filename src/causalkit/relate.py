"""Sampled verification of causal-cone inclusion for maps between spacetimes.

A map between two Lorentzian charts preserves causality when the
pullback of the target metric satisfies the dominant property with
respect to the source metric at every point, and the pushed time
orientation lands in the future half-cone.  Neither condition can be
certified universally by sampling, so the verdict vocabulary is
explicit about scope: HOLDS_SAMPLED speaks only for the points checked,
VIOLATED carries concrete witnesses.

Every relation verdict comes from one batched pipeline over a shared
point set: a source stage (metric, signature, orientation, frames) runs
once, each map's image and forward-mode Jacobian are evaluated on their
own, a map stage (target domain, Jacobian, target metric and orientation,
pullback, frame tensor, conformal factor) runs on the images of the maps
into one target chart stacked row-wise, up to a block's rows a stage, and
the frame tensors of all maps go through one vectorized `dp2_margins` call.  Every stage decides
row by row, so a map comes out as it does alone, errors included
(`_stages`).  Frames are built for the source chart only, and the source
signature is read off them, with the eigen-solver only on rows that a frame
does not prove (`_chart_check`); the target keeps the eigen-solver for its
signature and is classified on its time axis.  The regular-Jacobian test
takes its determinants from whole-batch minor arithmetic (`_det`), not one
LAPACK call per matrix.  A check is one map, a flow scan one map per
parameter value.  Every stage works sample by sample, so every sampled
check runs on fixed blocks of the samples (`_blocks`), one or `threads` at
a time: memory grows with the block, and no result depends on `threads`.
The stages are the only code that validates a chart or a map at points:
the conformal, null-cone and curve checks run them on their samples, and
the single-point queries on a one-sample batch.
"""

from __future__ import annotations

import contextvars
import dataclasses
import enum
import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .dp import (TOL_DP, DPStatus, SandwichError, conformal_lambdas, dp2_check, dp2_margins,
                 null_eigenvectors)
from .exprcore import (
    Dual,
    SingularJacobianError,
    eval_dual,
    eval_expr,
    free_symbols,
    parse_expr,
    seed_env,
    substitute,
)
from .lorentz import (_CLASSES, TOL_NULL, CausalClass, DegenerateMetricError, MetricValue,
                      OrientedPoint, _abs_max, _class_codes, _future_causal, _lorentzian,
                      _time_axis, classify, frames)

DEFAULT_SAMPLES = 4096
BLOCK_SAMPLES = 4096  # per block of a sampled check: about 1.3 KB a sample
DEFAULT_MARGIN = 1e-3
INF_WINDOW = 10.0

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# +1 future, -1 past, 0 neither, indexed by the codes of _class_codes
_ORIENTATION_SIGN = np.array([1 if c.is_future else (-1 if c.is_causal else 0) for c in CausalClass])


class NotDPPlusError(ValueError):
    """The pullback at the queried point is not InDPplus: a negative answer of
    `canonical_null_directions`, not bad input."""


class Verdict(enum.Enum):
    HOLDS_SAMPLED = "HOLDS_SAMPLED"
    TIME_REVERSED = "TIME_REVERSED"
    VIOLATED = "VIOLATED"
    ERROR = "ERROR"


def _check_symbols(expr, allowed, what):
    stray = free_symbols(expr) - allowed
    if stray:
        raise ValueError(f"{what} references unknown symbols {sorted(stray)}")


def _by_coordinate(entries, coords, chart, lacks, parse, error=lambda name, msg: ValueError(msg)):
    """parse(coordinate, entry) of a {coordinate: entry} table in the order of
    `coords`, the coordinates of chart `chart`; raises error(None, "<lacks> for
    [...]") for missing names, error(name, ...) for a name that is not one."""
    missing = [c for c in coords if c not in entries]
    if missing:
        raise error(None, f"{lacks} for {missing}")
    stray = [k for k in entries if k not in coords]
    if stray:
        raise error(stray[0], f"'{stray[0]}' is not a coordinate of '{chart}'")
    return tuple(parse(c, entries[c]) for c in coords)


def _components(exprs, coords, params, pts):
    """Expressions in the named coordinates evaluated at one point (n,) or a
    batch (N, n), stacked along the last axis."""
    pts = np.asarray(pts, dtype=float)
    env = {name: pts[..., i] for i, name in enumerate(coords)}
    env.update(params)
    out = np.zeros(pts.shape[:-1] + (len(exprs),))
    for i, e in enumerate(exprs):
        out[..., i] = eval_expr(e, env)
    return out


def _dual_components(exprs, env):
    """Values (..., m) and derivative rows (..., m, k) of expressions on a
    Dual environment (see `seed_env`); a constant component, whose Dual is
    a scalar, is broadcast to the batch."""
    seed = next(v for v in env.values() if isinstance(v, Dual))
    lead, k = seed.value.shape, seed.deriv.shape[-1]
    vals = np.zeros(lead + (len(exprs),))
    rows = np.zeros(lead + (len(exprs), k))
    for i, e in enumerate(exprs):
        r = eval_dual(e, env)
        vals[..., i] = r.value
        rows[..., i, :] = r.deriv
    return vals, rows


@functools.cache
def _det_tables(n):
    """Index tables of `_det` for n x n matrices.

    Level k lists the k-subsets of the columns in lexicographic order, from
    k = 2 - n % 2.  The step from level k to k + 2 is Laplace's expansion along
    rows k and k + 1: the minor at columns S sums, over the pairs {a, b} in S,
    the level-k minor at S - {a, b} times the 2 x 2 minor of rows k, k + 1 at
    columns (a, b), the expansion's sign folded in by swapping a and b.  A
    table (2, 2, L) gathers L such minors from the rows X[i n + j] holding
    entry (i, j): minor l is X[t00] X[t11] - X[t01] X[t10].

    Returns the table of the minors of rows 0 and 1 (even n only, in level-2
    order) followed by those of the last step, whose terms come in level
    n - 2 order; and per middle step, its table and the indexes (t, C) of
    term t of each of its C minors into level k and into its own minors."""
    def table(minors):
        return np.array([[[r * n + a, r * n + b], [(r + 1) * n + b, (r + 1) * n + a]]
                         for r, a, b in minors], dtype=np.intp).reshape(-1, 2, 2).transpose(1, 2, 0)

    k = 2 - n % 2
    level = list(itertools.combinations(range(n), k))
    ends = [(0, a, b) for a, b in level] if k == 2 else []
    middle = []
    for k in range(k, n - 1, 2):
        pos = {cols: i for i, cols in enumerate(level)}
        level = list(itertools.combinations(range(n), k + 2))
        minors, sub, blk = {}, [], []
        for S in level:
            terms = []
            for pa, pb in itertools.combinations(range(k + 2), 2):
                a, b = (S[pb], S[pa]) if (pa + pb) % 2 == 0 else (S[pa], S[pb])
                terms.append((pos[tuple(c for c in S if c not in (a, b))], (k, a, b)))
            terms.sort()
            sub.append([i for i, _ in terms])
            blk.append([minors.setdefault(m, len(minors)) for _, m in terms])
        if k + 2 == n:
            ends += list(minors)
        else:
            middle.append((table(minors), np.array(sub).T, np.array(blk).T))
    return table(ends), middle


def _minors(X, table):
    """The 2 x 2 minors (L, B) that a `_det_tables` table (2, 2, L) gathers from X."""
    Q = X[table]
    np.multiply(Q[0], Q[1], out=Q[0])
    return Q[0, 0] - Q[0, 1]


def _det(J):
    """Determinants of square matrices J (..., n, n), in whole-batch products
    and sums with the batch last: level k holds every k x k minor of the
    first k rows (level 1 is row 0, level 2 the 2 x 2 minors of rows 0 and 1),
    and each step to level k + 2 adds rows k and k + 1 (`_det_tables`).
    Temporaries stay within 4 n (n - 1) + 3 C(n, n/2) floats a matrix."""
    n = J.shape[-1]
    ends, middle = _det_tables(n)
    X = J.reshape(-1, n * n).T
    P = _minors(X, ends)
    c = n * (n - 1) // 2
    M = X[:n] if n % 2 else P[:c]
    for table, sub, blk in middle:
        Pk = _minors(X, table)
        M = sum(M[s] * Pk[b] for s, b in zip(sub, blk))
    det = (M * P[-c:]).sum(axis=0) if n > 2 else M[0]
    return det.reshape(J.shape[:-2])


def _singular(J):
    """Where square Jacobians J (..., n, n) are singular: |det J| below 1e-12
    max(1, max|J|)^n; no warning where J holds NaN or inf, which never count."""
    n = J.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        det = np.abs(_det(J))
        cut = np.abs(J.reshape(-1, n * n).T, order="C").max(axis=0, initial=1.0)
        cut **= n
        cut *= 1e-12
        return det < cut.reshape(J.shape[:-2])


def jacobian(exprs, coords, point, params=None):
    """Derivative matrix of len(exprs) expressions in len(coords) variables:
    (m, n) at one point, (N, m, n) on a batch.  A square matrix at one point
    raises SingularJacobianError where `_singular`."""
    point = np.asarray(point, dtype=float)
    J = _dual_components(exprs, seed_env(coords, point, params))[1]
    if J.ndim == 2 and J.shape[0] == J.shape[1] and _singular(J):
        raise SingularJacobianError(f"jacobian determinant below 1e-12 at {point}")
    return J


# ---------------------------------------------------------------------------
# definitions


@dataclass(frozen=True)
class SpacetimeDef:
    """A single coordinate chart with metric and declared future field.

    `metric` maps lower-triangle index pairs (i, j), i >= j, to
    expression trees in the coordinates and parameters; missing entries
    are zero.  `orientation` holds the components of a future-pointing
    causal vector field.  `exclusions` are expressions that must stay
    bounded away from zero on any sampling window (coordinate
    singularities such as sin(theta)).
    """

    name: str
    coords: tuple
    domain: tuple
    params: dict
    metric: dict
    orientation: tuple
    exclusions: tuple = ()

    def __post_init__(self):
        n = len(self.coords)
        if n < 2:
            raise ValueError("a spacetime needs at least two coordinates")
        if len(set(self.coords)) != n:
            raise ValueError("coordinate names must be distinct")
        if len(self.domain) != n:
            raise ValueError("one domain interval per coordinate required")
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError(f"empty domain interval ({lo}, {hi})")
        if len(self.orientation) != n:
            raise ValueError("orientation needs one component per coordinate")
        allowed = set(self.coords) | set(self.params)
        for (i, j), e in self.metric.items():
            if not (0 <= j <= i < n):
                raise ValueError(f"metric index [{i}][{j}] outside lower triangle")
            _check_symbols(e, allowed, f"metric[{i}][{j}]")
        for k, e in enumerate(self.orientation):
            _check_symbols(e, allowed, f"orientation[{k}]")
        for e in self.exclusions:
            _check_symbols(e, allowed, "exclusion")

    @classmethod
    def create(cls, name, coords, domain, params, metric, orientation, exclusions=()):
        """Parse a definition given as strings.

        `metric` maps (i, j) to expression text, `domain` maps coordinate
        name to (lo, hi), `orientation` and `exclusions` are expression
        text sequences.
        """
        coords = tuple(coords)
        params = dict(params)
        symbols = coords + tuple(params)
        dom = _by_coordinate(domain, coords, name, "domain lacks components",
                             lambda _, iv: (float(iv[0]), float(iv[1])))
        met = {(int(i), int(j)): parse_expr(src, symbols) for (i, j), src in metric.items()}
        ori = tuple(parse_expr(src, symbols) for src in orientation)
        exc = tuple(parse_expr(src, symbols) for src in exclusions)
        return cls(name, coords, dom, params, met, ori, exc)

    @property
    def n(self):
        return len(self.coords)

    def metric_at(self, pts):
        """Metric matrix (…, n, n) at one point (n,) or a batch (N, n)."""
        return self._symmetric(_components(tuple(self.metric.values()), self.coords,
                                           self.params, pts))

    def _symmetric(self, entries):
        """Symmetric matrices (…, n, n) from the `metric` entries stacked in
        key order along the last axis; entries not given are zero."""
        out = np.zeros(entries.shape[:-1] + (self.n, self.n))
        for e, (i, j) in enumerate(self.metric):
            out[..., i, j] = out[..., j, i] = entries[..., e]
        return out

    def orientation_at(self, pts):
        return _components(self.orientation, self.coords, self.params, pts)

    def contains(self, pts):
        """Strict-interior test; broadcasts over a leading batch axis."""
        pts = np.asarray(pts, dtype=float)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for i, (lo, hi) in enumerate(self.domain):
            ok &= (pts[..., i] > lo) & (pts[..., i] < hi)
        return ok

    def point(self, x):
        """OrientedPoint at coordinates x (validates the metric there)."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise ValueError(f"point {x.tolist()} outside the domain of '{self.name}'")
        G, fut, _ = _blocks(lambda p, _: _chart_check(self, f"'{self.name}'", p), x[None], 1)[0]
        return OrientedPoint(x, MetricValue(self.n, G[0]), fut[0])

    def validate_on(self, pts):
        """Signature and orientation checks over a batch; raises on failure."""
        _blocks(lambda p, _: _chart_check(self, f"'{self.name}'", p), np.asarray(pts, dtype=float), 1)


@dataclass(frozen=True)
class MapDef:
    """A smooth map between charts, one target-coordinate expression each."""

    source: SpacetimeDef
    target: SpacetimeDef
    exprs: tuple
    params: dict

    def __post_init__(self):
        src, tgt = self.source, self.target
        if src.n != tgt.n:
            raise ValueError(f"a map needs charts of one dimension; '{src.name}' has {src.n} "
                             f"coordinates and '{tgt.name}' has {tgt.n}")
        if len(self.exprs) != self.target.n:
            raise ValueError("one expression per target coordinate required")
        allowed = set(self.source.coords) | set(self.params)
        for coord, e in zip(self.target.coords, self.exprs):
            _check_symbols(e, allowed, f"map component '{coord}'")

    @classmethod
    def create(cls, source, target, exprs, params=()):
        """Parse map components given as {target coord: expression text}."""
        params = dict(params)
        symbols = tuple(source.coords) + tuple(params)
        parsed = _by_coordinate(exprs, target.coords, target.name, "map lacks components",
                                lambda _, src: parse_expr(src, symbols))
        return cls(source, target, parsed, params)

    def image(self, pts):
        return _components(self.exprs, self.source.coords, self.params, pts)

    def image_and_jacobian(self, pts):
        """Image points and Jacobians d(target)/d(source), batched."""
        return _dual_components(self.exprs, seed_env(self.source.coords, pts, self.params))


def compose_maps(f, g):
    """Composite running f first, then g; requires f.target to be g.source."""
    if f.target.name != g.source.name or f.target.coords != g.source.coords:
        raise ValueError(
            f"cannot compose: first map lands in '{f.target.name}', "
            f"second expects '{g.source.name}'"
        )
    params = dict(f.params)
    for k, v in g.params.items():
        if k in params and params[k] != v:
            raise ValueError(f"parameter '{k}' bound to both {params[k]} and {v}")
        params[k] = v
    mapping = dict(zip(g.source.coords, f.exprs))
    exprs = tuple(substitute(e, mapping) for e in g.exprs)
    return MapDef(f.source, g.target, exprs, params)


# ---------------------------------------------------------------------------
# sampling


def _radical_inverse(indices, base):
    """Van der Corput radical inverse of nonnegative int64 indices: the
    base-`base` digits mirrored about the radix point."""
    idx = np.array(indices, dtype=np.int64)
    out = np.zeros(idx.shape)
    f = 1.0 / base
    # one round per base-`base` digit of the largest index: int64 divmod while
    # it reaches 2^52 / base, then floor(idx / base) and idx - q base in
    # float64, which are exact below that and about twice as fast
    top = int(idx.max(initial=0))
    while top > 0:
        if top < 2**52 // base:
            idx = idx.astype(float, copy=False)
            q = np.floor(idx / base)
            digit = idx - q * base
        else:
            q, digit = np.divmod(idx, base)
        out += f * digit
        idx = q
        top //= base
        f /= base
    return out


@dataclass(frozen=True)
class RegionSampler:
    """Deterministic point source strictly inside a chart's domain.

    The sampling window per coordinate is the declared domain (or the
    supplied override), shrunk by `margin` at finite ends; infinite ends
    are cut at +-`inf_window` and that coordinate is drawn through a
    tanh-shaped reparameterization that thins samples toward the cut.
    Scheme "halton" uses the low-discrepancy Halton sequence (prime base
    per coordinate, index block chosen by `seed`) with the first point
    replaced by the window center; "grid" emits cell centers of a
    near-cubical lattice, rounding the count.
    """

    spacetime: SpacetimeDef
    count: int = DEFAULT_SAMPLES
    scheme: str = "halton"
    seed: int = 0
    margin: float = DEFAULT_MARGIN
    window: tuple = ()
    warped: tuple = ()

    @classmethod
    def build(cls, spacetime, count=DEFAULT_SAMPLES, scheme="halton", seed=0,
              margin=DEFAULT_MARGIN, window=None, inf_window=INF_WINDOW):
        if count < 1:
            raise ValueError(f"sample count must be at least 1, got {count}")
        margin = _nonnegative(margin, "margin")
        window = dict(window or {})
        stray = set(window) - set(spacetime.coords)
        if stray:
            raise ValueError(f"window names unknown coordinates {sorted(stray)}")
        if scheme not in ("halton", "grid"):
            raise ValueError(f"unknown sampling scheme '{scheme}'")
        if spacetime.n > len(_PRIMES):
            raise ValueError("too many coordinates for the Halton base table")
        resolved = []
        warped = []
        for i, c in enumerate(spacetime.coords):
            dlo, dhi = spacetime.domain[i]
            lo, hi = window.get(c, (dlo, dhi))
            if not (dlo <= lo < hi <= dhi):
                raise ValueError(f"window for '{c}' not inside the domain")
            warp = np.isinf(lo) or np.isinf(hi)
            lo = max(lo, -inf_window)
            hi = min(hi, inf_window)
            if np.isfinite(dlo) and lo == dlo:
                lo += margin
            if np.isfinite(dhi) and hi == dhi:
                hi -= margin
            if not lo < hi:
                raise ValueError(f"window for '{c}' collapsed by margins")
            resolved.append((float(lo), float(hi)))
            warped.append(bool(warp))
        return cls(spacetime, int(count), scheme, int(seed), float(margin),
                   tuple(resolved), tuple(warped))

    def points(self):
        n = self.spacetime.n
        if self.scheme == "grid":
            m = max(2, int(round(self.count ** (1.0 / n))))
            axes = [(np.arange(m) + 0.5) / m for _ in range(n)]
            mesh = np.meshgrid(*axes, indexing="ij")
            u = np.stack([a.ravel() for a in mesh], axis=1)
        else:
            start = self.seed * self.count + 1
            idx = np.arange(start, start + self.count)
            u = np.stack([_radical_inverse(idx, _PRIMES[i]) for i in range(n)], axis=1)
            u[0] = 0.5
        pts = np.empty_like(u)
        for i, (lo, hi) in enumerate(self.window):
            ui = u[:, i]
            if self.warped[i]:
                ui = (np.arctanh(np.tanh(1.5) * (2.0 * ui - 1.0)) / 1.5 + 1.0) / 2.0
            pts[:, i] = lo + (hi - lo) * ui
        self._guard(pts)
        return pts

    def _guard(self, pts):
        if not np.all(self.spacetime.contains(pts)):
            raise ValueError("sampler emitted a point outside the domain")
        st = self.spacetime
        if np.any(np.abs(_components(st.exclusions, st.coords, st.params, pts)) < 0.5 * self.margin):
            raise ValueError("sampling window touches an excluded singular locus")


@dataclass(frozen=True)
class UnionSampler:
    """Concatenation of samplers over the same chart (e.g. a boundary band)."""

    parts: tuple

    def __post_init__(self):
        names = {p.spacetime.name for p in self.parts}
        if len(self.parts) == 0 or len(names) != 1:
            raise ValueError("union parts must share one spacetime")

    @property
    def spacetime(self):
        return self.parts[0].spacetime

    @property
    def count(self):
        return sum(p.count for p in self.parts)

    def points(self):
        return np.concatenate([p.points() for p in self.parts], axis=0)


# ---------------------------------------------------------------------------
# reports


def _json_value(v):
    """A report value as plain JSON data: a report by the name of each field
    (per-sample arrays, declared with repr=False, stay out), an enum by its
    value, sequences and arrays as lists, numpy scalars as Python numbers."""
    if dataclasses.is_dataclass(v):
        return {f.name: _json_value(getattr(v, f.name)) for f in dataclasses.fields(v) if f.repr}
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_json_value(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


class _Report:
    """Base of the result dataclasses: `to_dict` is the report's JSON data."""

    def to_dict(self):
        return _json_value(self)


@dataclass(frozen=True)
class Witness(_Report):
    point: np.ndarray
    vectors: tuple
    margin: float


@dataclass(frozen=True)
class ConformalReport(_Report):
    """Per-sample factor lambda of T = lambda G (NaN where there is none)."""

    everywhere: bool
    lam_range: tuple | None
    lambdas: np.ndarray = field(repr=False)

    @property
    def samples_checked(self):
        return len(self.lambdas)


@dataclass(frozen=True)
class RelationReport(_Report):
    verdict: Verdict
    samples_checked: int
    min_margin: float | None
    witnesses: tuple
    conformal: ConformalReport | None
    error: str | None = None

    @property
    def holds(self):
        return self.verdict is Verdict.HOLDS_SAMPLED


# ---------------------------------------------------------------------------
# batched validity helpers


def _at_sample(pts, i, start=0):
    return f"at sample {start + i}, x = {np.atleast_2d(pts)[i].tolist()}"


def _require(ok, what, exc=ValueError, tail=lambda i: ""):
    """Raise exc(what) at the first sample i where ok is False, for `_locate`."""
    if not np.all(ok):
        e = exc(what)
        e.index = int(np.flatnonzero(~ok)[0])
        e.tail = tail(e.index)
        raise e


def _locate(e, x, start):
    """e, if it has an `index` into the block x (None: a constant sub-expression,
    so 0; a stacked `dp2_margins` row wraps around x), naming it over the batch from `start`."""
    if hasattr(e, "index"):
        i = (e.index or 0) % len(x)
        e.args = (f"{getattr(e, 'reason', e)} {_at_sample(x, i, start)}{getattr(e, 'tail', '')}",)
    return e


def _thread_count(threads, source="threads"):
    """threads, else CAUSALKIT_THREADS, else 1, as an integer of at least 1."""
    if threads is None:
        threads, source = os.environ.get("CAUSALKIT_THREADS", "1"), "CAUSALKIT_THREADS"
    if not str(threads).strip().lstrip("+").isdecimal() or int(threads) < 1:
        raise ValueError(f"{source} must be an integer of at least 1, got {threads!r}")
    return int(threads)


def _nonnegative(value, source):
    """value as a float, finite and at least 0."""
    value = float(value)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"{source} must be a finite number of at least 0, got {value!r}")
    return value


def _blocks(fn, pts, threads):
    """[fn(x, start) for each block x = pts[start:start + BLOCK_SAMPLES]], the
    first to raise raising here, located; k = min(threads, cores, blocks) at a
    time on worker threads (none for k = 1), each in a copy of the caller's context."""
    starts = range(0, len(pts), BLOCK_SAMPLES)

    def run(start):
        x = pts[start:start + BLOCK_SAMPLES]
        try:
            return fn(x, start)
        except (ArithmeticError, ValueError, SandwichError) as e:
            raise _locate(e, x, start)

    k = min(_thread_count(threads), os.cpu_count() or 1, len(starts))
    if k <= 1:
        return [run(start) for start in starts]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=k) as pool:
        contexts = [contextvars.copy_context() for _ in starts]
        return list(pool.map(lambda context, start: context.run(run, start), contexts, starts))


def _conformal(lambdas):
    ok = ~np.isnan(lambdas)
    rng = (float(np.nanmin(lambdas)), float(np.nanmax(lambdas))) if np.any(ok) else None
    return ConformalReport(bool(np.all(ok)), rng, lambdas)


# ---------------------------------------------------------------------------
# the stages: the only code that validates a chart or a map at points.
# The source stage runs once per block, a map stage on the stacked rows of
# the maps into one target chart, up to a block's rows, and the frame tensors of all maps go through
# one `dp2_margins` call


def _sample(source, sampler):
    if sampler.spacetime.name != source.name:
        raise ValueError(f"sampler chart '{sampler.spacetime.name}' does not match "
                         f"the source chart '{source.name}'")
    return sampler.points()


def _source_point(source, x):
    """One source point as a one-sample batch; raises outside the domain."""
    x = np.asarray(x, dtype=float)
    if not source.contains(x):
        raise ValueError(f"point {x.tolist()} outside the source domain")
    return x[None]


def _chart_check(chart, what, at, framed=False, where=""):
    """Metric, future field and (with `framed`, else None) frames of a chart
    at the points `at` (`where` they are, for the messages), validated; raises
    naming the first failing row of the signature, else of the orientation,
    else of the frames.  Frames are built when every future is causal; the
    signature is read off them where they prove it (`_lorentzian`), so the
    eigen-solver runs on the other rows only, on every row without frames."""
    G = chart.metric_at(at)
    lost = f"{what} metric{where} loses Lorentzian signature"
    try:
        fut = chart.orientation_at(at)
    except (ArithmeticError, ValueError):
        _require(_lorentzian(G), lost)
        raise
    causal = _future_causal(G, fut)
    E = fault = None
    if framed and causal.all():
        try:
            E = frames(G, fut)
        except DegenerateMetricError as e:
            fault = e
    _require(_lorentzian(G, E), lost)
    _require(causal, f"{what} orientation{where} is not future causal")
    if fault is not None:
        raise fault
    return G, fut, E


def _source_stage(source, pts):
    """Metric, future field and frames of the source chart, validated."""
    return _chart_check(source, "source", pts, framed=True)


def _target_stage(target, img, J):
    """Target metric and target future field at image rows img with
    Jacobians J, validated row by row: the image stays in the target domain
    (the message names the coordinate and its interval), the Jacobian is
    regular, the target chart is valid at the image; raises naming the first
    failing row."""
    def leaves(i):
        k = next(k for k, (lo, hi) in enumerate(target.domain) if not lo < img[i, k] < hi)
        return f": {target.coords[k]} = {float(img[i, k])} not in {target.domain[k]}"

    _require(target.contains(img), "image leaves the target domain", tail=leaves)
    _require(~_singular(J), "map Jacobian singular", SingularJacobianError)
    return _chart_check(target, "target", img, where=" at image")[:2]


def _image_stage(mapdef, pts):
    """Jacobian, target metric and target future field of one map at a batch."""
    img, J = mapdef.image_and_jacobian(pts)
    return (J,) + _target_stage(mapdef.target, img, J)


def _pullback(J, Gt):
    """J^T G~ J, symmetrized; at one point or a batch."""
    T = np.swapaxes(J, -1, -2) @ Gt @ J
    return 0.5 * (T + np.swapaxes(T, -1, -2))


def _rows(arrays):
    """The arrays stacked row-wise; a single array as it is, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _map_stage(target, img, J, G, fut, E):
    """Frame tensors of the pullbacks (K N, n, n), pushed-orientation signs
    (K, N) and conformal factors (K, N) of K maps into `target`, from their
    images img (K N, n) and Jacobians J (K N, n, n) stacked map by map, at
    the N samples of the source arrays G, fut, E, which broadcast over the
    maps.  One pass over the K N rows; raises on the first failing check."""
    (N, n), K = fut.shape, len(img) // len(fut)
    Gt, futW = _target_stage(target, img, J)
    T = _pullback(J, Gt).reshape(K, N, n, n)
    That = (np.swapaxes(E, -1, -2) @ T @ E).reshape(K * N, n, n)
    pushed = np.einsum("knai,ni->kna", J.reshape(K, N, n, n), fut).reshape(K * N, n)
    e0 = _time_axis(Gt, futW)
    signs = _ORIENTATION_SIGN[_class_codes(Gt, e0, futW, pushed)]
    return That, signs.reshape(K, N), conformal_lambdas(G, T)


def _witnesses(pts, E, That, margins, tol, *dirs):
    """The samples whose margin is below -tol times the tensor's scale, up
    to 16 worst-first, each frame direction n lifted to the vector E (1, n)."""
    ok = margins >= -tol * np.maximum(1.0, _abs_max(That))
    order = np.argsort(margins, kind="stable")
    bad = order[~ok[order]][:16]
    ones = np.ones((len(bad), 1))
    vecs = [np.einsum("nij,nj->ni", E[bad], np.concatenate([ones, d[bad]], axis=1)) for d in dirs]
    return tuple(Witness(pts[i], tuple(v[r] for v in vecs), float(margins[i]))
                 for r, i in enumerate(bad))


def _worst(witnesses):
    """The 16 worst, by margin then sample, of the blocks' `_witnesses`."""
    ws = [w for block in witnesses for w in block]
    return tuple(ws[i] for i in np.argsort([w.margin for w in ws], kind="stable")[:16])


def _verdict(pts, parts):
    """One map's report from its blocks' parts: the first error, with the
    samples of the blocks before it as checked, or the verdict."""
    N = len(pts)
    for b, error in enumerate(parts):
        if isinstance(error, Exception):
            checked = sum(len(p[0]) for p in parts[:b])
            return RelationReport(Verdict.ERROR, checked, None, (), None, error=str(error))
    margins, signs, lambdas, witnesses = zip(*parts)
    signs = np.concatenate(signs)
    conformal = _conformal(np.concatenate(lambdas))
    min_margin = float(np.concatenate(margins).min())
    wit = _worst(witnesses)
    if wit:
        return RelationReport(Verdict.VIOLATED, N, min_margin, wit, conformal)

    if np.all(signs == 1):
        return RelationReport(Verdict.HOLDS_SAMPLED, N, min_margin, (), conformal)
    if np.all(signs == -1):
        return RelationReport(Verdict.TIME_REVERSED, N, min_margin, (), conformal)
    i = int(np.flatnonzero(signs != signs[0])[0]) if signs[0] != 0 else 0
    return RelationReport(
        Verdict.ERROR, N, min_margin, (), conformal,
        error="pushed orientation is inconsistent across samples "
              f"(first breach {_at_sample(pts, i)})",
    )


def _map_stages(chunk, x, start, G, fut, E):
    """[(indices, `_map_stage` pieces)] and {index: located error} of the
    maps (index, map) of chunk, all into one target chart, at the block x:
    each map's image and Jacobian on its own, then one map stage on them
    stacked row-wise; if that raises, one stage a map, so that every map
    gets what it gets alone."""
    live, errors, images = [], {}, []
    for j, m in chunk:
        try:
            images.append((j, *m.image_and_jacobian(x)))
        except (ArithmeticError, ValueError) as e:
            errors[j] = _locate(e, x, start)
    todo = [images] if images else []
    while todo:
        batch = todo.pop()
        js, img, J = zip(*batch)
        try:
            live.append((js, _map_stage(chunk[0][1].target, _rows(img), _rows(J), G, fut, E)))
        except (ArithmeticError, ValueError) as e:
            if len(batch) > 1:
                todo += [[b] for b in batch]
            else:
                errors[js[0]] = _locate(e, x, start)
    return live, errors


def _stages(maps, x, start, tol_dp):
    """Per map, the block x (from sample `start`) reduced to its margins,
    orientation signs, conformal factors and witnesses, or its located error.

    One source stage, `_map_stages` on the maps into one target chart, at
    most a block's rows (BLOCK_SAMPLES // N maps, at least one) at a time,
    and one `dp2_margins` call over every staged row.  Each stage decides row
    by row, so every map gets what it gets alone: a source error is every
    map's, a `dp2_margins` error every staged map's."""
    N = len(x)
    try:
        G, fut, E = _source_stage(maps[0].source, x)
    except (ArithmeticError, ValueError) as e:
        return [_locate(e, x, start)] * len(maps)
    staged, live, groups = [None] * len(maps), [], {}
    for j, m in enumerate(maps):
        groups.setdefault(id(m.target), []).append((j, m))
    per = max(1, BLOCK_SAMPLES // N)
    for group in groups.values():
        for c in range(0, len(group), per):
            done, errors = _map_stages(group[c:c + per], x, start, G, fut, E)
            live += done
            for j, e in errors.items():
                staged[j] = e
    if not live:
        return staged
    try:
        found = dp2_margins(_rows([That for _, (That, _, _) in live]))
    except (ArithmeticError, ValueError) as e:
        e = _locate(e, x, start)
        return [e if s is None else s for s in staged]
    r = 0
    for js, (That, signs, lambdas) in live:
        for k, j in enumerate(js):
            margins, nhat, mhat = (f[r:r + N] for f in found)
            staged[j] = margins, signs[k], lambdas[k], _witnesses(x, E, That[k * N:(k + 1) * N],
                                                                  margins, tol_dp, nhat, mhat)
            r += N
    return staged


def _check_relations(maps, pts, tol_dp, threads):
    """One RelationReport per map of one source chart, staged in blocks at the points."""
    blocks = _blocks(lambda x, start: _stages(maps, x, start, tol_dp), pts, threads)
    return [_verdict(pts, parts) for parts in zip(*blocks)]


# ---------------------------------------------------------------------------
# operations


def pullback_metric(mapdef, x):
    """Pullback of the target metric at one source point: J^T G~ J."""
    J, Gt, _ = _blocks(lambda p, _: _image_stage(mapdef, p), _source_point(mapdef.source, x), 1)[0]
    return _pullback(J, Gt)[0]


def check_proper_causal(mapdef, sampler, tol_dp=TOL_DP, threads=None):
    """Sampled test that the map sends future cones into future cones.

    Every sample must give a pullback satisfying the dominant property
    and a pushed orientation landing in the future half-cone of the
    target.  Any cone violation yields VIOLATED with up to 16 witnesses
    sorted worst-first; a consistently past-pointing push yields
    TIME_REVERSED; evaluation, domain, signature, orientation, or
    Jacobian failures yield ERROR with the first failure of the first failing
    block of BLOCK_SAMPLES samples, counting the samples of the blocks before
    it as checked; memory grows with the block, not with N.
    `threads` (default CAUSALKIT_THREADS, else 1) caps the blocks checked at
    once; the report is the same for any value."""
    return _check_relations([mapdef], _sample(mapdef.source, sampler), tol_dp, threads)[0]


def canonical_null_directions(mapdef, x, tol_dp=TOL_DP):
    """Null directions whose push-forward stays null, at one point.

    Requires the pullback to satisfy the dominant property at x, decided
    at tolerance `tol_dp`, which also bounds the zeros taken as null
    directions.  Each reported direction is cross-checked by classifying its
    push-forward in the target chart, within tol_dp but never within less
    than the rounding band TOL_NULL.
    """
    def at(pts, _):
        G, fut, E = _source_stage(mapdef.source, pts)
        J, Gt, futW = _image_stage(mapdef, pts)
        p = OrientedPoint(pts[0], MetricValue(mapdef.source.n, G[0]), fut[0])
        T = _pullback(J, Gt)[0]
        verdict = dp2_check(p, T, tol_dp=tol_dp, frame=E[0])
        if verdict.status is not DPStatus.IN_DP_PLUS:
            raise NotDPPlusError(
                f"canonical null directions need an InDPplus pullback, got "
                f"{verdict.status.value} (margin {verdict.margin:.3e})"
            )
        res = null_eigenvectors(p, T, tol=tol_dp, frame=E[0])
        e0, band = _time_axis(Gt, futW), max(tol_dp, TOL_NULL)
        for lam, v in res.pairs:
            cls = _CLASSES[_class_codes(Gt, e0, futW, (J[0] @ v)[None], band)[0]]
            if cls not in (CausalClass.FUTURE_NULL, CausalClass.PAST_NULL):
                raise ArithmeticError(f"push-forward of a reported null direction classifies {cls.value}")
        return res

    return _blocks(at, _source_point(mapdef.source, x), 1)[0]


def check_conformal(mapdef, sampler):
    """Per-sample conformal factor of the pullback, with overall flag."""
    lambdas = _blocks(lambda x, _: conformal_lambdas(_chart_check(mapdef.source, "source", x)[0],
                                                     _pullback(*_image_stage(mapdef, x)[:2])),
                      _sample(mapdef.source, sampler), None)
    return _conformal(np.concatenate(lambdas))


@dataclass(frozen=True)
class IsoReport(_Report):
    isomorphic: bool
    forward: RelationReport
    backward: RelationReport
    time_reversed: bool
    inverse_verified: bool
    conformal: ConformalReport | None

    def to_dict(self):
        out = super().to_dict()
        if self.conformal is not None:
            out["conformal"]["samples_checked"] = self.conformal.samples_checked
        return out


def check_isomorphism(fwd, bwd, sampler_fwd, sampler_bwd, tol_dp=TOL_DP, threads=None):
    """Proper-causal check in both directions; the forward check's
    conformal summary when the backward map is numerically its inverse.
    Both checks run on up to `threads` worker threads, as in
    `check_proper_causal`."""
    pts = _sample(fwd.source, sampler_fwd)
    rf = _check_relations([fwd], pts, tol_dp, threads)[0]
    rb = check_proper_causal(bwd, sampler_bwd, tol_dp=tol_dp, threads=threads)
    holds = {Verdict.HOLDS_SAMPLED, Verdict.TIME_REVERSED}
    iso = rf.verdict in holds and rb.verdict in holds
    reversed_ = Verdict.TIME_REVERSED in (rf.verdict, rb.verdict)

    inverse_ok = False
    if iso:
        back = bwd.image(fwd.image(pts))
        resid = np.abs(back - pts) / np.maximum(1.0, np.abs(pts))
        inverse_ok = bool(np.max(resid) < 1e-8)
    return IsoReport(iso, rf, rb, reversed_, inverse_ok, rf.conformal if inverse_ok else None)


def curve_pushforward_check(mapdef, curve, u_values):
    """True when the pushed tangent of a future timelike curve stays
    future timelike in the target at every parameter sample.

    `curve` gives one expression per source coordinate in the parameter
    `u` (strings or parsed trees).
    """
    exprs = tuple(
        parse_expr(c, ("u",)) if isinstance(c, str) else c for c in curve
    )
    if len(exprs) != mapdef.source.n:
        raise ValueError("one curve component per source coordinate required")
    u = np.atleast_1d(np.asarray(u_values, dtype=float))
    pts, tan = _dual_components(exprs, seed_env(("u",), u[:, None]))
    tan = tan[..., 0]

    inside = mapdef.source.contains(pts)
    if not np.all(inside):
        i = int(np.flatnonzero(~inside)[0])
        raise ValueError(f"curve leaves the source domain at u = {u[i]}")

    def block(x, start):
        t = tan[start:start + len(x)]
        G, fut, E = _source_stage(mapdef.source, x)
        for i, c in enumerate(classify(G, E, fut, t)):
            if c is not CausalClass.FUTURE_TIMELIKE:
                raise ValueError(f"curve tangent must be future timelike; classifies {c.value} "
                                 f"at u = {u[start + i]}")
        J, Gt, futW = _image_stage(mapdef, x)
        codes = _class_codes(Gt, _time_axis(Gt, futW), futW, np.einsum("nai,ni->na", J, t))
        return all(c is CausalClass.FUTURE_TIMELIKE for c in _CLASSES[codes])

    return all(_blocks(block, pts, None))
