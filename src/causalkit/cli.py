"""Command-line front end over the file loaders and sampled checks.

Subcommands take definition files (spacetimes, maps, flows) or a
packaged scenario name, print the text of the report's result (one
renderer, `_summary`, for every subcommand and scenario), and optionally
write the full canonical report with `--json PATH`.  Exit codes encode
the outcome: 0 the relation holds (or the pair is isomorphic), 1 it
does not, 2 the inputs are unusable, 3 the tool failed an internal
consistency check.  With `--threads 1` both the text and the JSON
output are byte-stable for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .catalog import (
    TOOL_VERSION,
    _Run,
    canonical_json,
    flow_digest,
    relation_inputs,
    run_scenario,
    scenario_names,
    spacetime_digest,
)
from .defio import load_flow, load_map, load_spacetime, parse_number, serialize_spacetime
from .dp import TOL_DP
from .exprcore import EvalDomainError, SingularJacobianError
from .flows import check_submonoid
from .lorentz import DegenerateMetricError
from .relate import (
    BLOCK_SAMPLES,
    DEFAULT_MARGIN,
    DEFAULT_SAMPLES,
    NotDPPlusError,
    Verdict,
    _nonnegative,
    _thread_count,
    canonical_null_directions,
    check_isomorphism,
    check_proper_causal,
)

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # surface bad usage as exit code 2 instead of killing the process
    def error(self, message):
        raise _UsageError(message)


def _add_common(p):
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="sample count per region (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampler seed (default %(default)s)")
    p.add_argument("--tol", type=float, default=TOL_DP,
                   help="margin tolerance of the cone checks, finite and above 0: at 0 "
                        "the rounding residue of an exact map reads as a violation "
                        "(default %(default)s)")
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                   help="standoff from finite domain edges, finite and at least 0 "
                        "(default %(default)s)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the canonical JSON report to PATH")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker threads, each checking a block of {BLOCK_SAMPLES} "
                        "samples at a time, at most one per core (default: "
                        "CAUSALKIT_THREADS or 1); the result is the same for "
                        "any value, above 1 the report records timing_s, and 1 "
                        "guarantees byte-stable output")
    p.add_argument("--scheme", choices=("halton", "grid"), default="halton",
                   help="sampling scheme (default %(default)s)")


def _build_parser():
    parser = _Parser(
        prog="causalkit",
        description="Sampled causal-cone checks for maps between "
                    "Lorentzian charts given as definition files.",
    )
    parser.add_argument("--version", action="version",
                        version=f"causalkit {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "check", help="does a map send every future cone into a future cone")
    p.add_argument("source", help="source spacetime definition file")
    p.add_argument("target", help="target spacetime definition file")
    p.add_argument("map", help="map definition file (source -> target)")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "iso", help="are two charts causally isomorphic via a map pair")
    p.add_argument("source", help="source spacetime definition file")
    p.add_argument("target", help="target spacetime definition file")
    p.add_argument("forward", help="map file source -> target")
    p.add_argument("backward", help="map file target -> source")
    _add_common(p)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser(
        "cnd", help="canonical null directions of a map at one point")
    p.add_argument("source", help="source spacetime definition file")
    p.add_argument("target", help="target spacetime definition file")
    p.add_argument("map", help="map definition file (source -> target)")
    p.add_argument("--point", required=True, metavar="C=V,...",
                   help="evaluation point as coord=value pairs")
    _add_common(p)
    p.set_defaults(func=_cmd_cnd)

    p = sub.add_parser(
        "flow", help="causality of a one-parameter family of self-maps")
    p.add_argument("spacetime", help="spacetime definition file")
    p.add_argument("flowfile", help="flow definition file")
    p.add_argument("--steps", type=int, default=9,
                   help="grid points across the declared parameter range, "
                        "both ends included, at least 2 (default %(default)s)")
    _add_common(p)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser(
        "scenario",
        help="run a packaged scenario: " + ", ".join(scenario_names()))
    p.add_argument("name", help="scenario name")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="override one scenario parameter (repeatable)")
    p.add_argument("--map", dest="map_path", metavar="FILE", default=None,
                   help="candidate map file (frw_candidate only)")
    _add_common(p)
    p.set_defaults(func=_cmd_scenario)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _registry(*sts):
    reg = {}
    for st in sts:
        prev = reg.get(st.name)
        if prev is not None and serialize_spacetime(prev) != serialize_spacetime(st):
            raise ValueError(f"conflicting definitions for spacetime '{st.name}'")
        reg[st.name] = st
    return reg


def _load_endpoints(src_path, tgt_path):
    src = load_spacetime(src_path)
    tgt = load_spacetime(tgt_path)
    return src, tgt, _registry(src, tgt)


def _expect_direction(m, src, tgt, label="map"):
    if m.source.name != src.name or m.target.name != tgt.name:
        raise ValueError(
            f"{label} goes '{m.source.name}' -> '{m.target.name}', "
            f"expected '{src.name}' -> '{tgt.name}'")


def _run(args):
    """The run of one subcommand; its clock starts here.  Subcommands pass
    `window={}`: they sample each chart's full declared domain, not a
    builtin's default window."""
    return _Run(args.samples, args.seed, args.scheme, args.margin, args.tol,
                args.threads)


def _emit(args, lines, envelope):
    for line in lines:
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(envelope))


def _verdict_exit(verdict):
    if verdict is Verdict.HOLDS_SAMPLED:
        return EXIT_POSITIVE
    if verdict is Verdict.ERROR:
        return EXIT_INPUT
    return EXIT_NEGATIVE


def _format_point(values, coords=None):
    if coords is None:
        return ", ".join(f"{float(v):.6g}" for v in values)
    return ", ".join(f"{c} = {float(v):.6g}" for c, v in zip(coords, values))


def _conformal_lines(conf):
    if conf is None or not conf["everywhere"] or conf["lam_range"] is None:
        return []
    lo, hi = conf["lam_range"]
    return [f"conformal: lambda in [{lo:.9g}, {hi:.9g}]"]


def _direction_line(tag, rep):
    """One direction of an iso result."""
    m = rep["min_margin"]
    extra = "" if m is None else f", min margin {m:.6e}"
    err = f" ({rep['error']})" if rep["error"] else ""
    return f"{tag}: {rep['verdict']}{extra}{err}"


def _summary(result, coords=None, declared=None):
    """The text of a report's `result`: a relation, iso, flow or cnd result.
    Points name the source coordinates `coords` where given; `declared` is a
    flow's declared parameter range, where known."""
    yes = {True: "yes", False: "no"}
    if "isomorphic" in result:
        return [f"isomorphic: {yes[result['isomorphic']]}",
                _direction_line("forward", result["forward"]),
                _direction_line("backward", result["backward"]),
                f"time reversed: {yes[result['time_reversed']]}; "
                f"inverse verified: {yes[result['inverse_verified']]}",
                *_conformal_lines(result["conformal"])]
    if "steps" in result:
        lines = []
        for step in result["steps"]:
            m = step["min_margin"]
            extra = "" if m is None else f"   min margin {m:.6e}"
            lines.append(f"s = {step['s']:<8g} {step['verdict']}{extra}")
        lo, hi = result["interval"]
        tail = "" if declared is None else f" of declared [{declared[0]:g}, {declared[1]:g}]"
        return lines + [f"causal for s in [{lo:g}, {hi:g}]{tail}", f"group: {yes[result['group']]}"]
    if "in_dp_plus" in result:
        where = _format_point(result["point"], coords)
        if not result["in_dp_plus"]:
            return [f"no canonical null directions at ({where}):", f"  {result['note']}"]
        head = f"canonical null directions at ({where}): {len(result['pairs'])}"
        if result["degenerate"]:
            head += " (degenerate: every null direction is canonical)"
        lines = [head]
        for p in result["pairs"]:
            comps = ", ".join(f"{c:.9g}" for c in p["direction"])
            lines.append(f"  lambda = {p['eigenvalue']:.9g}   direction: ({comps})")
        return lines
    lines = [f"verdict: {result['verdict']}"]
    if result["error"]:
        lines.append(f"  {result['error']}")
    lines.append(f"samples checked: {result['samples_checked']}")
    if result["min_margin"] is not None:
        lines.append(f"min margin: {result['min_margin']:.6e}")
    lines += _conformal_lines(result["conformal"])
    if result["witnesses"]:
        w = result["witnesses"][0]
        lines.append(f"witnesses: {len(result['witnesses'])}, worst margin "
                     f"{w['margin']:.6e} at ({_format_point(w['point'], coords)})")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args):
    src, tgt, reg = _load_endpoints(args.source, args.target)
    m = load_map(args.map, reg)
    _expect_direction(m, src, tgt)
    run = _run(args)
    rep = check_proper_causal(m, run.sampler(src, window={}), tol_dp=run.tol_dp,
                              threads=run.threads)
    env = run.report("check", relation_inputs(src, tgt, map=m), rep.to_dict())
    _emit(args, _summary(env["result"], src.coords), env)
    return _verdict_exit(rep.verdict)


def _cmd_iso(args):
    src, tgt, reg = _load_endpoints(args.source, args.target)
    fwd = load_map(args.forward, reg)
    bwd = load_map(args.backward, reg)
    _expect_direction(fwd, src, tgt, "forward map")
    _expect_direction(bwd, tgt, src, "backward map")
    run = _run(args)
    rep = check_isomorphism(fwd, bwd, run.sampler(src, window={}),
                            run.sampler(tgt, window={}), tol_dp=run.tol_dp, threads=run.threads)
    env = run.report("iso", relation_inputs(src, tgt, forward=fwd, backward=bwd),
                     rep.to_dict())
    _emit(args, _summary(env["result"], src.coords), env)
    if Verdict.ERROR in (rep.forward.verdict, rep.backward.verdict):
        return EXIT_INPUT
    return EXIT_POSITIVE if rep.isomorphic else EXIT_NEGATIVE


def _parse_point(text, st):
    values = {}
    for chunk in text.split(","):
        name, eq, val = chunk.partition("=")
        if not eq:
            raise ValueError(f"--point entries are coord=value, got '{chunk.strip()}'")
        name = name.strip()
        if name in values:
            raise ValueError(f"--point sets '{name}' twice")
        values[name] = parse_number(val)
    missing = [c for c in st.coords if c not in values]
    extra = [k for k in values if k not in st.coords]
    if missing or extra:
        raise ValueError(
            f"--point must set exactly the coordinates {list(st.coords)}"
            + (f"; missing {missing}" if missing else "")
            + (f"; unknown {extra}" if extra else ""))
    return np.array([values[c] for c in st.coords], dtype=float)


def _cmd_cnd(args):
    src, tgt, reg = _load_endpoints(args.source, args.target)
    m = load_map(args.map, reg)
    _expect_direction(m, src, tgt)
    x = _parse_point(args.point, src)
    run = _run(args)
    try:
        res = canonical_null_directions(m, x, tol_dp=run.tol_dp)
        result = {"point": [float(v) for v in x], "in_dp_plus": True,
                  "degenerate": bool(res.degenerate),
                  "pairs": [{"eigenvalue": float(lam), "direction": [float(c) for c in v]}
                            for lam, v in res.pairs]}
        code = EXIT_POSITIVE
    except NotDPPlusError as exc:  # a negative answer, not an input error
        result = {"point": [float(v) for v in x], "in_dp_plus": False,
                  "degenerate": None, "pairs": [], "note": str(exc)}
        code = EXIT_NEGATIVE
    env = run.report("cnd", relation_inputs(src, tgt, map=m), result, sampled=False)
    _emit(args, _summary(env["result"], src.coords), env)
    return code


def _cmd_flow(args):
    st = load_spacetime(args.spacetime)
    fl = load_flow(args.flowfile, _registry(st))
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    lo, hi = fl.s_range
    grid = [float(s) for s in np.linspace(lo, hi, args.steps)]
    run = _run(args)
    rep = check_submonoid(fl, grid, run.sampler(st, window={}), tol_dp=run.tol_dp,
                          threads=run.threads)
    env = run.report("flow", {"spacetime": spacetime_digest(st),
                              "flow": flow_digest(fl)}, rep.to_dict())
    _emit(args, _summary(env["result"], st.coords, declared=fl.s_range), env)
    if all(s.verdict is Verdict.HOLDS_SAMPLED for s in rep.steps):
        return EXIT_POSITIVE
    return EXIT_NEGATIVE


def _parse_params(pairs):
    out = {}
    for chunk in pairs:
        name, eq, val = chunk.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ValueError(f"--param entries are name=value, got '{chunk}'")
        if name in out:
            raise ValueError(f"--param sets '{name}' twice")
        val = val.strip()
        try:
            out[name] = float(val)
        except ValueError:
            out[name] = val
    return out


def _cmd_scenario(args):
    params = _parse_params(args.param)
    out = run_scenario(args.name, samples=args.samples, seed=args.seed,
                       scheme=args.scheme, margin=args.margin, tol_dp=args.tol,
                       threads=args.threads, params=params,
                       map_path=args.map_path)
    if out.matched is None:
        expectation = "expectation: none (reporting only)"
    else:
        expectation = f"matched analytic expectation: {'yes' if out.matched else 'NO'}"
    _emit(args, [f"scenario: {out.name}", *_summary(out.report["result"]), expectation],
          out.report)
    return out.exit_code


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # --help / --version
        return EXIT_POSITIVE if exc.code in (0, None) else EXIT_INPUT
    try:
        _thread_count(args.threads, "--threads")
        if not (np.isfinite(args.tol) and args.tol > 0.0):
            raise ValueError(f"--tol must be a finite number above 0, got {args.tol!r}")
        _nonnegative(args.margin, "--margin")
        return args.func(args)
    except (EvalDomainError, SingularJacobianError, DegenerateMetricError, ValueError,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
