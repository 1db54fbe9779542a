"""Command-line front end over the file loaders and sampled checks.

Subcommands take definition files (spacetimes, maps, flows) or a
packaged scenario name, print a short text summary, and optionally
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
    Verdict,
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
                   help="margin tolerance of the cone checks (default %(default)s)")
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                   help="standoff from finite domain edges (default %(default)s)")
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
                   help="grid points across the declared parameter range "
                        "(default %(default)s)")
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


def _format_point(coords, values):
    return ", ".join(f"{c} = {float(v):.6g}" for c, v in zip(coords, values))


def _relation_lines(rep, coords):
    lines = [f"verdict: {rep.verdict.value}"]
    if rep.error:
        lines.append(f"  {rep.error}")
    lines.append(f"samples checked: {rep.samples_checked}")
    if rep.min_margin is not None:
        lines.append(f"min margin: {rep.min_margin:.6e}")
    conf = rep.conformal
    if conf is not None and conf.everywhere and conf.lam_range is not None:
        lines.append(f"conformal: lambda in [{conf.lam_range[0]:.9g}, "
                     f"{conf.lam_range[1]:.9g}]")
    if rep.witnesses:
        w = rep.witnesses[0]
        lines.append(f"witnesses: {len(rep.witnesses)}, worst margin "
                     f"{w.margin:.6e} at ({_format_point(coords, w.point)})")
    return lines


def _direction_line(tag, rep):
    """One direction of an iso report, from the report's JSON data."""
    m = rep["min_margin"]
    extra = "" if m is None else f", min margin {m:.6e}"
    err = f" ({rep['error']})" if rep["error"] else ""
    return f"{tag}: {rep['verdict']}{extra}{err}"


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
    _emit(args, _relation_lines(rep, src.coords), env)
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
    lines = [
        f"isomorphic: {'yes' if rep.isomorphic else 'no'}",
        _direction_line("forward", env["result"]["forward"]),
        _direction_line("backward", env["result"]["backward"]),
        f"time reversed: {'yes' if rep.time_reversed else 'no'}; "
        f"inverse verified: {'yes' if rep.inverse_verified else 'no'}",
    ]
    if rep.conformal is not None and rep.conformal.everywhere:
        lo, hi = rep.conformal.lam_range
        lines.append(f"conformal: lambda in [{lo:.9g}, {hi:.9g}]")
    _emit(args, lines, env)
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
    note = None
    try:
        res = canonical_null_directions(m, x)
    except ValueError as exc:
        # only the cone-inclusion failure is a negative answer; domain
        # and parse problems keep propagating as input errors
        if "InDPplus" not in str(exc):
            raise
        note = str(exc)
    where = _format_point(src.coords, x)
    if note is not None:
        result = {"point": [float(v) for v in x], "in_dp_plus": False,
                  "degenerate": None, "pairs": [], "note": note}
        lines = [f"no canonical null directions at ({where}):", f"  {note}"]
        code = EXIT_NEGATIVE
    else:
        result = {
            "point": [float(v) for v in x],
            "in_dp_plus": True,
            "degenerate": bool(res.degenerate),
            "pairs": [{"eigenvalue": float(lam),
                       "direction": [float(c) for c in v]}
                      for lam, v in res.pairs],
        }
        head = f"canonical null directions at ({where}): {len(res.pairs)}"
        if res.degenerate:
            head += " (degenerate: every null direction is canonical)"
        lines = [head]
        for lam, v in res.pairs:
            comps = ", ".join(f"{float(c):.9g}" for c in v)
            lines.append(f"  lambda = {float(lam):.9g}   direction: ({comps})")
        code = EXIT_POSITIVE
    env = run.report("cnd", relation_inputs(src, tgt, map=m), result,
                     sampled=False)
    _emit(args, lines, env)
    return code


def _cmd_flow(args):
    st = load_spacetime(args.spacetime)
    fl = load_flow(args.flowfile, _registry(st))
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    lo, hi = fl.s_range
    grid = [float(s) for s in np.linspace(lo, hi, args.steps)]
    run = _run(args)
    rep = check_submonoid(fl, grid, run.sampler(st, window={}), tol_dp=run.tol_dp,
                          threads=run.threads)
    env = run.report("flow", {"spacetime": spacetime_digest(st),
                              "flow": flow_digest(fl)}, rep.to_dict())
    lines = []
    for step in rep.steps:
        extra = "" if step.min_margin is None else \
            f"   min margin {step.min_margin:.6e}"
        lines.append(f"s = {step.s:<8g} {step.verdict.value}{extra}")
    lines.append(f"causal for s in [{rep.interval[0]:g}, {rep.interval[1]:g}] "
                 f"of declared [{lo:g}, {hi:g}]")
    lines.append(f"group: {'yes' if rep.group else 'no'}")
    _emit(args, lines, env)
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


def _result_lines(result):
    if "isomorphic" in result:
        return [f"isomorphic: {'yes' if result['isomorphic'] else 'no'}",
                _direction_line("forward", result["forward"]),
                _direction_line("backward", result["backward"])]
    if "steps" in result:
        lines = [f"s = {s['s']:<8g} {s['verdict']}" for s in result["steps"]]
        lines.append(f"interval: [{result['interval'][0]:g}, "
                     f"{result['interval'][1]:g}]")
        return lines
    lines = [f"verdict: {result['verdict']}"]
    if result["error"]:
        lines.append(f"  {result['error']}")
    m = result.get("min_margin")
    if m is not None:
        lines.append(f"min margin: {m:.6e}")
    if result.get("witnesses"):
        lines.append(f"witnesses: {len(result['witnesses'])}")
    return lines


def _cmd_scenario(args):
    params = _parse_params(args.param)
    out = run_scenario(args.name, samples=args.samples, seed=args.seed,
                       scheme=args.scheme, margin=args.margin, tol_dp=args.tol,
                       threads=args.threads, params=params,
                       map_path=args.map_path)
    lines = [f"scenario: {out.name}"]
    lines.extend(_result_lines(out.report["result"]))
    if out.matched is None:
        lines.append("expectation: none (reporting only)")
    else:
        lines.append("matched analytic expectation: "
                     + ("yes" if out.matched else "NO"))
    _emit(args, lines, out.report)
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
