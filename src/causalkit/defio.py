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

# the table keys: the pattern of each, whose groups name its entry (a metric
# entry by its index pair), and how a duplicate entry reads
_TABLES = {
    "param": (re.compile(r"^param\s+([A-Za-z_]\w*)$"), "parameter '{}'"),
    "domain": (re.compile(r"^domain\s+([A-Za-z_]\w*)$"), "domain for '{}'"),
    "metric": (re.compile(r"^metric\[(\d+)\]\[(\d+)\]$"), "metric[{0[0]}][{0[1]}]"),
    "map": (re.compile(r"^map\s+([A-Za-z_]\w*)$"), "map component '{}'"),
}


class DefFileError(ValueError):
    def __init__(self, lineno, message):
        prefix = "" if lineno is None else f"line {lineno}: "
        super().__init__(f"{prefix}{message}")
        self.lineno = lineno


def _read(text, keys, tables):
    """The entries of a definition file as (value, line): a {key: entry} dict
    of the plain `keys`, each given at most once (`exclude` repeats, as a
    list), and one {name: entry} table for each of the table keys `tables`.
    A duplicate key, or any other key, fails at its line."""
    plain, named = {}, {t: {} for t in tables}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise DefFileError(lineno, "expected 'key = value'")
        key, entry = key.strip(), (value.strip(), lineno)
        for t in tables:
            if m := _TABLES[t][0].match(key):
                name = (int(m[1]), int(m[2])) if t == "metric" else m[1]
                table, what = named[t], _TABLES[t][1].format(name)
                break
        else:
            if key not in keys:
                raise DefFileError(lineno, f"unknown key '{key}'")
            if key == "exclude":
                plain.setdefault(key, []).append(entry)
                continue
            table, name, what = plain, key, f"'{key}'"
        if name in table:
            raise DefFileError(lineno, f"duplicate {what}")
        table[name] = entry
    return plain, *named.values()


def _required(entries, key):
    if key not in entries:
        raise DefFileError(None, f"missing '{key}'")
    return entries[key]


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


def _by_coordinate_at(table, coords, chart, lacks, parse):
    """parse(coordinate, value, line) of a {coordinate: (value, line)} table
    in the order of `coords`, read by `_by_coordinate`: a stray name fails at
    its line."""
    return _by_coordinate(table, coords, chart, lacks, lambda c, e: parse(c, *e),
                          lambda c, msg: DefFileError(None if c is None else table[c][1], msg))


def parse_spacetime(text):
    entries, params, domains, metric = _read(
        text, ("name", "dim", "coords", "orientation", "exclude"), ("param", "domain", "metric"))
    name = _required(entries, "name")[0]
    coords_src, coords_line = _required(entries, "coords")
    coords = tuple(_bracket_list(coords_src, coords_line))
    for c in coords:
        if not c.isidentifier():
            raise DefFileError(coords_line, f"bad coordinate name '{c}'")
    if "dim" in entries:
        dim_src, dim_line = entries["dim"]
        try:
            dim = int(dim_src)
        except ValueError:
            raise DefFileError(dim_line, f"bad dimension '{dim_src}'") from None
        if dim != len(coords):
            raise DefFileError(None, f"dim = {dim} but {len(coords)} coordinates listed")
    params = {p: _number(*e) for p, e in params.items()}
    domain = _by_coordinate_at(domains, coords, name, "missing domain",
                               lambda _, src, line: _interval(src, line))
    ori_src, ori_line = _required(entries, "orientation")
    ori_src = _bracket_list(ori_src, ori_line)
    if len(ori_src) != len(coords):
        raise DefFileError(ori_line, "orientation length differs from coords")
    for (i, j), (_, line) in metric.items():
        if j > i:
            raise DefFileError(line, f"metric[{i}][{j}] is above the diagonal; give the lower triangle")
    symbols = coords + tuple(params)
    return _build(SpacetimeDef, name, coords, domain, params,
                  {k: _parse_with(src, symbols, line, f"metric[{k[0]}][{k[1]}]")
                   for k, (src, line) in metric.items()},
                  tuple(_parse_with(src, symbols, ori_line, "orientation") for src in ori_src),
                  tuple(_parse_with(src, symbols, line, "exclude")
                        for src, line in entries.get("exclude", ())))


def _resolve(name, spacetimes, what):
    if name not in spacetimes:
        known = ", ".join(sorted(spacetimes)) or "none"
        raise DefFileError(None, f"unknown {what} spacetime '{name}' (known: {known})")
    return spacetimes[name]


def _read_map(text, keys=()):
    """The entries of a map or flow file (`source`, `target` and `keys`), its
    source and target names, its parameters as numbers and its `map` lines."""
    entries, params, comps = _read(text, ("source", "target") + keys, ("param", "map"))
    ends = [_required(entries, k)[0] for k in ("source", "target")]
    return entries, *ends, {p: _number(*e) for p, e in params.items()}, comps


def _map_body(comps, chart, symbols, build):
    """build(exprs) for the `map <coord>` lines of a map or flow file, parsed
    in `symbols`."""
    return _build(build, _by_coordinate_at(
        comps, chart.coords, chart.name, "missing map components",
        lambda c, src, line: _parse_with(src, symbols, line, f"map {c}")))


def parse_map(text, spacetimes):
    """Parse a map file; `spacetimes` maps names to SpacetimeDef."""
    _, source, target, params, comps = _read_map(text)
    src = _resolve(source, spacetimes, "source")
    tgt = _resolve(target, spacetimes, "target")
    return _map_body(comps, tgt, tuple(src.coords) + tuple(params),
                     lambda exprs: MapDef(src, tgt, exprs, params))


def parse_flow(text, spacetimes):
    """Parse a flow file: a self-map family with `flow_param` and `s_range`."""
    entries, source, target, params, comps = _read_map(text, ("flow_param", "s_range"))
    if source != target:
        raise DefFileError(None, f"a flow must be a self-map; source '{source}' differs from target '{target}'")
    st = _resolve(source, spacetimes, "flow")
    s_symbol, s_line = _required(entries, "flow_param")
    rng_src, rng_line = _required(entries, "s_range")
    if not s_symbol.isidentifier():
        raise DefFileError(s_line, f"bad flow parameter name '{s_symbol}'")
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
