"""Reading and writing the line-oriented definition file format.

Spacetime files carry `name`, `dim`, `coords`, `param`, `domain`,
`metric[i][j]`, `orientation`, and optional `exclude` lines; map files
carry `source`, `target`, `param`, and `map <coord>` lines; flow files
extend map files with `flow_param` and `s_range`.  Blank lines and
full-line `#` comments are ignored.  All parse failures raise
DefFileError with the offending line number.

The serializers render definitions back to this format in a canonical
key order so reports can digest exactly what was checked.
"""

from __future__ import annotations

import math
import re

from .exprcore import ParseError, eval_expr, parse_expr, to_text
from .flows import FlowDef
from .relate import MapDef, SpacetimeDef, _by_coordinate

_METRIC_KEY = re.compile(r"^metric\[(\d+)\]\[(\d+)\]$")
_MAP_KEY = re.compile(r"^map\s+([A-Za-z_]\w*)$")
_PARAM_KEY = re.compile(r"^param\s+([A-Za-z_]\w*)$")
_DOMAIN_KEY = re.compile(r"^domain\s+([A-Za-z_]\w*)$")


class DefFileError(ValueError):
    def __init__(self, lineno, message):
        prefix = "" if lineno is None else f"line {lineno}: "
        super().__init__(f"{prefix}{message}")
        self.lineno = lineno


def _entries(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DefFileError(lineno, "expected 'key = value'")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def parse_number(text):
    """A float literal or a constant expression such as `pi/2`."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        return float(eval_expr(parse_expr(text, ()), {}))


def _number(token, lineno):
    try:
        return parse_number(token)
    except (ParseError, ArithmeticError) as e:
        raise DefFileError(lineno, f"bad number '{token.strip()}': {e}") from e


def _interval(value, lineno):
    m = re.match(r"^\((.*),(.*)\)$", value)
    if not m:
        raise DefFileError(lineno, f"expected '(<lo>, <hi>)', got '{value}'")
    lo = _number(m.group(1), lineno)
    hi = _number(m.group(2), lineno)
    if not lo < hi:
        raise DefFileError(lineno, f"empty interval ({lo}, {hi})")
    return lo, hi


def _bracket_list(value, lineno):
    if not (value.startswith("[") and value.endswith("]")):
        raise DefFileError(lineno, f"expected '[ … ]', got '{value}'")
    inner = value[1:-1].strip()
    if not inner:
        raise DefFileError(lineno, "empty list")
    return [item.strip() for item in inner.split(",")]


def _parse_with(src, symbols, lineno, what):
    try:
        return parse_expr(src, symbols)
    except ParseError as e:
        raise DefFileError(lineno, f"{what}: {e}") from e


def _build(cls, *args):
    """cls(*args); a failed check of the definition becomes a DefFileError."""
    try:
        return cls(*args)
    except ValueError as e:
        raise DefFileError(None, str(e)) from e


def parse_spacetime(text):
    name = None
    dim = None
    coords = None
    params = {}
    domains = {}
    metric_src = {}
    orientation_src = None
    exclude_src = []
    lines = {}
    seen = set()

    for lineno, key, value in _entries(text):
        if key in ("name", "dim", "coords", "orientation"):
            if key in seen:
                raise DefFileError(lineno, f"duplicate '{key}'")
            seen.add(key)
        if key == "name":
            name = value
        elif key == "dim":
            try:
                dim = int(value)
            except ValueError:
                raise DefFileError(lineno, f"bad dimension '{value}'") from None
        elif key == "coords":
            coords = _bracket_list(value, lineno)
            for c in coords:
                if not c.isidentifier():
                    raise DefFileError(lineno, f"bad coordinate name '{c}'")
        elif m := _PARAM_KEY.match(key):
            pname = m.group(1)
            if pname in params:
                raise DefFileError(lineno, f"duplicate parameter '{pname}'")
            params[pname] = _number(value, lineno)
        elif m := _DOMAIN_KEY.match(key):
            cname = m.group(1)
            if cname in domains:
                raise DefFileError(lineno, f"duplicate domain for '{cname}'")
            domains[cname] = _interval(value, lineno)
        elif m := _METRIC_KEY.match(key):
            i, j = int(m.group(1)), int(m.group(2))
            if j > i:
                raise DefFileError(lineno, f"metric[{i}][{j}] is above the diagonal; give the lower triangle")
            if (i, j) in metric_src:
                raise DefFileError(lineno, f"duplicate metric[{i}][{j}]")
            metric_src[(i, j)] = value
            lines[("metric", i, j)] = lineno
        elif key == "orientation":
            orientation_src = _bracket_list(value, lineno)
            lines[("orientation",)] = lineno
        elif key == "exclude":
            exclude_src.append(value)
            lines[("exclude", len(exclude_src) - 1)] = lineno
        else:
            raise DefFileError(lineno, f"unknown key '{key}'")

    if name is None:
        raise DefFileError(None, "missing 'name'")
    if coords is None:
        raise DefFileError(None, "missing 'coords'")
    if dim is not None and dim != len(coords):
        raise DefFileError(None, f"dim = {dim} but {len(coords)} coordinates listed")
    missing = [c for c in coords if c not in domains]
    if missing:
        raise DefFileError(None, f"missing domain for {missing}")
    stray = [c for c in domains if c not in coords]
    if stray:
        raise DefFileError(None, f"domain given for unknown coordinates {stray}")
    if orientation_src is None:
        raise DefFileError(None, "missing 'orientation'")
    if len(orientation_src) != len(coords):
        raise DefFileError(lines[("orientation",)], "orientation length differs from coords")

    symbols = tuple(coords) + tuple(params)
    metric = {
        key: _parse_with(src, symbols, lines[("metric",) + key], f"metric[{key[0]}][{key[1]}]")
        for key, src in metric_src.items()
    }
    orientation = tuple(
        _parse_with(src, symbols, lines[("orientation",)], "orientation")
        for src in orientation_src
    )
    exclusions = tuple(
        _parse_with(src, symbols, lines[("exclude", k)], "exclude")
        for k, src in enumerate(exclude_src)
    )
    return _build(SpacetimeDef, name, tuple(coords), tuple(domains[c] for c in coords),
                  params, metric, orientation, exclusions)


def _parse_map_entries(text, kinds):
    """The keys of a map or flow file, each at most once: `source`, `target`,
    `map <coord>` and the extra `kinds` as (text, line), `param <name>` as
    numbers."""
    entries, params, comps = {}, {}, {}
    for lineno, key, value in _entries(text):
        if m := _PARAM_KEY.match(key):
            table, name, what = params, m.group(1), f"parameter '{m.group(1)}'"
        elif m := _MAP_KEY.match(key):
            table, name, what = comps, m.group(1), f"map component '{m.group(1)}'"
        elif key in ("source", "target") + kinds:
            table, name, what = entries, key, f"'{key}'"
        else:
            raise DefFileError(lineno, f"unknown key '{key}'")
        if name in table:
            raise DefFileError(lineno, f"duplicate {what}")
        table[name] = _number(value, lineno) if table is params else (value, lineno)
    for key in ("source", "target"):
        if key not in entries:
            raise DefFileError(None, f"missing '{key}'")
    return entries, params, comps


def _resolve(name, spacetimes, what):
    if name not in spacetimes:
        known = ", ".join(sorted(spacetimes)) or "none"
        raise DefFileError(None, f"unknown {what} spacetime '{name}' (known: {known})")
    return spacetimes[name]


def _map_body(comps, chart, symbols, build):
    """build(exprs) for the `map <coord>` lines of a map or flow file, read by
    `_by_coordinate` (a stray name fails at its line) and parsed in `symbols`."""
    exprs = _by_coordinate(comps, chart.coords, chart.name, "missing map components",
                           lambda c, entry: _parse_with(entry[0], symbols, entry[1], f"map {c}"),
                           lambda c, msg: DefFileError(None if c is None else comps[c][1], msg))
    return _build(build, exprs)


def parse_map(text, spacetimes):
    """Parse a map file; `spacetimes` maps names to SpacetimeDef."""
    entries, params, comps = _parse_map_entries(text, ())
    src = _resolve(entries["source"][0], spacetimes, "source")
    tgt = _resolve(entries["target"][0], spacetimes, "target")
    return _map_body(comps, tgt, tuple(src.coords) + tuple(params),
                     lambda exprs: MapDef(src, tgt, exprs, params))


def parse_flow(text, spacetimes):
    """Parse a flow file: a self-map family with `flow_param` and `s_range`."""
    entries, params, comps = _parse_map_entries(text, ("flow_param", "s_range"))
    source, target = entries["source"][0], entries["target"][0]
    if source != target:
        raise DefFileError(None, f"a flow must be a self-map; source '{source}' differs from target '{target}'")
    st = _resolve(source, spacetimes, "flow")
    if "flow_param" not in entries:
        raise DefFileError(None, "missing 'flow_param'")
    if "s_range" not in entries:
        raise DefFileError(None, "missing 's_range'")
    s_symbol, s_line = entries["flow_param"]
    if not s_symbol.isidentifier():
        raise DefFileError(s_line, f"bad flow parameter name '{s_symbol}'")
    rng_src, rng_line = entries["s_range"]
    s_range = _interval(rng_src, rng_line)
    if not (math.isfinite(s_range[0]) and math.isfinite(s_range[1])):
        raise DefFileError(rng_line, "s_range must be finite")
    if not s_range[0] <= 0.0 <= s_range[1]:
        raise DefFileError(rng_line, "s_range must contain 0")
    return _map_body(comps, st, tuple(st.coords) + tuple(params) + (s_symbol,),
                     lambda exprs: FlowDef(st, s_symbol, exprs, s_range, params))


# ---------------------------------------------------------------------------
# canonical serialization (used for report digests)


def _fmt_bound(x):
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return repr(float(x))


def serialize_spacetime(st):
    out = [f"name = {st.name}"]
    out.append(f"dim = {st.n}")
    out.append(f"coords = [{', '.join(st.coords)}]")
    for k in sorted(st.params):
        out.append(f"param {k} = {st.params[k]!r}")
    for c, (lo, hi) in zip(st.coords, st.domain):
        out.append(f"domain {c} = ({_fmt_bound(lo)}, {_fmt_bound(hi)})")
    for i, j in sorted(st.metric):
        out.append(f"metric[{i}][{j}] = {to_text(st.metric[(i, j)])}")
    out.append(f"orientation = [{', '.join(to_text(e) for e in st.orientation)}]")
    for e in st.exclusions:
        out.append(f"exclude = {to_text(e)}")
    return "\n".join(out) + "\n"


def serialize_map(m):
    out = [f"source = {m.source.name}", f"target = {m.target.name}"]
    for k in sorted(m.params):
        out.append(f"param {k} = {m.params[k]!r}")
    for c, e in zip(m.target.coords, m.exprs):
        out.append(f"map {c} = {to_text(e)}")
    return "\n".join(out) + "\n"


def serialize_flow(f):
    out = [f"source = {f.spacetime.name}", f"target = {f.spacetime.name}"]
    for k in sorted(f.params):
        out.append(f"param {k} = {f.params[k]!r}")
    out.append(f"flow_param = {f.s_symbol}")
    out.append(f"s_range = ({_fmt_bound(f.s_range[0])}, {_fmt_bound(f.s_range[1])})")
    for c, e in zip(f.spacetime.coords, f.exprs):
        out.append(f"map {c} = {to_text(e)}")
    return "\n".join(out) + "\n"


def load_spacetime(path):
    with open(path, encoding="utf-8") as fh:
        return parse_spacetime(fh.read())


def load_map(path, spacetimes):
    with open(path, encoding="utf-8") as fh:
        return parse_map(fh.read(), spacetimes)


def load_flow(path, spacetimes):
    with open(path, encoding="utf-8") as fh:
        return parse_flow(fh.read(), spacetimes)
