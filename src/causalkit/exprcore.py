"""Arithmetic expression trees with forward-mode automatic differentiation.

Expressions are parsed from text into immutable trees over numeric
literals, declared identifiers, the constant pi, the binary operators
+ - * / ^ (with ^ binding tightest and right-associative, then unary
minus, then * /, then + -), and calls to a fixed set of one-argument
functions.  There is no implicit multiplication.

Evaluation works on plain floats or on numpy arrays (all identifiers
bound to equal-length arrays evaluate the whole batch at once), and on
Dual numbers carrying derivative seed vectors for exact first
derivatives.  Derivatives are never taken by finite differences here;
finite differences appear only in tests as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# name -> (value, slope in the argument); sqrt's slope is taken from its value
_CALLS = {
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda x: -np.sin(x)),
    "tan": (np.tan, lambda x: 1.0 / np.cos(x) ** 2),
    "sinh": (np.sinh, np.cosh),
    "cosh": (np.cosh, np.sinh),
    "tanh": (np.tanh, lambda x: 1.0 / np.cosh(x) ** 2),
    "exp": (np.exp, np.exp),
    "log": (np.log, lambda x: 1.0 / x),
    "sqrt": (np.sqrt, None),
    "abs": (np.abs, np.sign),
}
FUNCTIONS = tuple(_CALLS)

_CONSTANTS = {"pi": math.pi}


class ParseError(ValueError):
    """Syntax error; `offset` is the byte offset of the unexpected input."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class EvalDomainError(ArithmeticError):
    """Evaluation left the real domain: `reason` names the subexpression, `index` the sample."""

    def __init__(self, message, node, index=None):
        self.reason = f"{message} in '{to_text(node)}'"
        super().__init__(self.reason + ("" if index is None else f" at sample {index}"))
        self.node = node
        self.index = index


class SingularJacobianError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# syntax trees


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Sym | Neg | Add | Sub | Mul | Div | Pow | Call


# ---------------------------------------------------------------------------
# tokenizer

_T_NUM, _T_IDENT, _T_OP, _T_LPAREN, _T_RPAREN, _T_END = range(6)
_OPS = "+-*/^"


def _byte_offset(text, pos):
    return len(text[:pos].encode("utf-8"))


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        start = i
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            toks.append((_T_NUM, text[start:i], start))
        elif ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            toks.append((_T_IDENT, text[start:i], start))
        elif ch in _OPS:
            toks.append((_T_OP, ch, start))
            i += 1
        elif ch == "(":
            toks.append((_T_LPAREN, ch, start))
            i += 1
        elif ch == ")":
            toks.append((_T_RPAREN, ch, start))
            i += 1
        else:
            raise ParseError(f"unexpected character '{ch}'", _byte_offset(text, i))
    toks.append((_T_END, "", n))
    return toks


class _Parser:
    """Recursive descent over the token list.

    expression ::= term (('+' | '-') term)*
    term       ::= unary (('*' | '/') unary)*
    unary      ::= '-' unary | power
    power      ::= atom ('^' unary)?
    atom       ::= NUMBER | IDENT | IDENT '(' expression ')' | '(' expression ')'
    """

    def __init__(self, text, symbols):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.symbols = frozenset(symbols)

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok):
        raise ParseError(message, _byte_offset(self.text, tok[2]))

    def parse(self):
        node = self.expression()
        tok = self.peek()
        if tok[0] != _T_END:
            self.fail(f"unexpected '{tok[1]}'", tok)
        return node

    def expression(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == _T_OP and val in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == _T_OP and val in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == _T_OP and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == _T_OP and val == "^":
            self.advance()
            return Pow(node, self.unary())
        return node

    def atom(self):
        tok = self.advance()
        kind, val, start = tok
        if kind == _T_NUM:
            return Num(float(val))
        if kind == _T_LPAREN:
            node = self.expression()
            closing = self.advance()
            if closing[0] != _T_RPAREN:
                self.fail("expected ')'", closing)
            return node
        if kind == _T_IDENT:
            if self.peek()[0] == _T_LPAREN:
                if val not in FUNCTIONS:
                    if val in self.symbols or val in _CONSTANTS:
                        self.fail(f"'{val}' is not a function", tok)
                    raise UnknownIdentifierError(val, _byte_offset(self.text, start))
                self.advance()
                arg = self.expression()
                closing = self.advance()
                if closing[0] != _T_RPAREN:
                    self.fail("expected ')'", closing)
                return Call(val, arg)
            if val in _CONSTANTS:
                return Num(_CONSTANTS[val])
            if val not in self.symbols:
                raise UnknownIdentifierError(val, _byte_offset(self.text, start))
            return Sym(val)
        self.fail("expected a number, identifier or '('", tok)


def parse_expr(text, symbols=()):
    """Parse `text` against the declared identifier collection `symbols`."""
    return _Parser(text, symbols).parse()


# ---------------------------------------------------------------------------
# printing

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node):
    t = type(node)
    if t in (Add, Sub):
        return _LEVEL_ADD
    if t in (Mul, Div):
        return _LEVEL_MUL
    if t is Neg:
        return _LEVEL_NEG
    if t is Pow:
        return _LEVEL_POW
    return _LEVEL_ATOM


def _wrap(text, need):
    return f"({text})" if need else text


def to_text(node):
    """Render a tree so that parse_expr(to_text(e)) reproduces e."""
    t = type(node)
    if t is Num:
        return repr(node.value)
    if t is Sym:
        return node.name
    if t is Call:
        return f"{node.func}({to_text(node.arg)})"
    if t is Neg:
        inner = to_text(node.arg)
        return "-" + _wrap(inner, _level(node.arg) <= _LEVEL_NEG)
    if t is Pow:
        base = _wrap(to_text(node.base), _level(node.base) <= _LEVEL_POW)
        expo = _wrap(to_text(node.exponent), _level(node.exponent) < _LEVEL_POW)
        return f"{base}^{expo}"
    if t in (Add, Sub):
        op = " + " if t is Add else " - "
        left = _wrap(to_text(node.left), _level(node.left) < _LEVEL_ADD)
        right = _wrap(to_text(node.right), _level(node.right) <= _LEVEL_ADD)
        return left + op + right
    if t in (Mul, Div):
        op = "*" if t is Mul else "/"
        left = _wrap(to_text(node.left), _level(node.left) < _LEVEL_MUL)
        right = _wrap(to_text(node.right), _level(node.right) <= _LEVEL_MUL)
        return left + op + right
    raise TypeError(f"not an expression node: {node!r}")


def free_symbols(node):
    t = type(node)
    if t is Sym:
        return {node.name}
    if t is Num:
        return set()
    if t is Neg or t is Call:
        return free_symbols(node.arg)
    if t is Pow:
        return free_symbols(node.base) | free_symbols(node.exponent)
    return free_symbols(node.left) | free_symbols(node.right)


def substitute(node, mapping):
    """Replace identifiers by whole subtrees; mapping is name -> Expr."""
    t = type(node)
    if t is Sym:
        return mapping.get(node.name, node)
    if t is Num:
        return node
    if t is Neg:
        return Neg(substitute(node.arg, mapping))
    if t is Call:
        return Call(node.func, substitute(node.arg, mapping))
    if t is Pow:
        return Pow(substitute(node.base, mapping), substitute(node.exponent, mapping))
    return t(substitute(node.left, mapping), substitute(node.right, mapping))


# ---------------------------------------------------------------------------
# dual numbers


class Dual:
    """value plus a derivative row; the trailing axis of `deriv` indexes seeds.

    Scalars use value shape () and deriv shape (k,); batched evaluation uses
    value shape (N,) and deriv shape (N, k).  All duals combined in one
    expression must share the seed count k.
    """

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv):
        self.value = np.asarray(value, dtype=float)
        self.deriv = np.asarray(deriv, dtype=float)

    def _check(self, other):
        if self.deriv.shape[-1] != other.deriv.shape[-1]:
            raise ValueError(
                f"mixed seed lengths {self.deriv.shape[-1]} and {other.deriv.shape[-1]}"
            )

    def __add__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            return Dual(self.value + other.value, self.deriv + other.deriv)
        return Dual(self.value + other, self.deriv)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __sub__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            return Dual(self.value - other.value, self.deriv - other.deriv)
        return Dual(self.value - other, self.deriv)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.deriv)

    def __mul__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            return Dual(
                self.value * other.value,
                self.value[..., None] * other.deriv + other.value[..., None] * self.deriv,
            )
        return Dual(self.value * other, np.asarray(other, dtype=float)[..., None] * self.deriv)

    __rmul__ = __mul__


def _value(x):
    return x.value if isinstance(x, Dual) else np.asarray(x, dtype=float)


def _lift(x, like):
    if isinstance(x, Dual):
        return x
    v = np.asarray(x, dtype=float)
    return Dual(v, np.zeros(v.shape + (like.deriv.shape[-1],)))


# ---------------------------------------------------------------------------
# evaluation


def _check_finite(result, node):
    v = _value(result)
    if not np.all(np.isfinite(v)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(v)))
        idx = int(bad[0][0]) if v.ndim else None
        raise EvalDomainError("non-finite value", node, idx)
    return result


def _first_bad(mask):
    flat = np.argwhere(np.atleast_1d(mask))
    return int(flat[0][0]) if np.ndim(mask) else None


def _apply_div(lhs, rhs, node):
    rv = _value(rhs)
    if np.any(rv == 0.0):
        raise EvalDomainError("division by zero", node, _first_bad(rv == 0.0))
    if isinstance(lhs, Dual) or isinstance(rhs, Dual):
        if not isinstance(rhs, Dual):
            inv = 1.0 / rv
            return Dual(lhs.value * inv, np.asarray(inv, dtype=float)[..., None] * lhs.deriv)
        lhs = _lift(lhs, rhs)
        inv = 1.0 / rhs.value
        val = lhs.value * inv
        der = (lhs.deriv - val[..., None] * rhs.deriv) * inv[..., None]
        return Dual(val, der)
    return lhs / rv


def _apply_pow(base, expo, node):
    bv, ev = _value(base), _value(expo)
    expo_is_const = not isinstance(expo, Dual) or not np.any(expo.deriv)
    if expo_is_const:
        # every guard is decided row by row, so no row's value or error
        # depends on the other rows of its batch
        frac = ev != np.floor(ev)
        if np.any(frac) and np.any(bad := (bv < 0.0) & frac):
            raise EvalDomainError("negative base under fractional power", node, _first_bad(bad))
        if np.any(bad := (bv == 0.0) & (ev < 0.0)):
            raise EvalDomainError("zero base under negative power", node, _first_bad(bad))
        val = bv ** ev
        if not isinstance(base, Dual):
            return val
        # d(x^c) = c x^(c-1) dx; at x = 0 with 0 < c < 1 the slope diverges
        if np.any(bad := (bv == 0.0) & frac):
            raise EvalDomainError("zero base under fractional power", node, _first_bad(bad))
        slope = np.where(ev == 0.0, 0.0, ev * bv ** np.where(ev == 0.0, 0.0, ev - 1.0))
        return Dual(val, np.asarray(slope, dtype=float)[..., None] * base.deriv)
    if np.any(bv <= 0.0):
        raise EvalDomainError("non-positive base under variable power", node, _first_bad(bv <= 0.0))
    if not isinstance(base, Dual):
        base = _lift(base, expo)
    expo = _lift(expo, base)
    val = bv ** expo.value
    der = val[..., None] * (
        expo.deriv * np.log(base.value)[..., None]
        + (expo.value / base.value)[..., None] * base.deriv
    )
    return Dual(val, der)


def _apply_call(func, arg, node):
    v = _value(arg)
    if func == "log" and np.any(v <= 0.0):
        raise EvalDomainError("log of non-positive value", node, _first_bad(v <= 0.0))
    if func == "sqrt" and np.any(v < 0.0):
        raise EvalDomainError("sqrt of negative value", node, _first_bad(v < 0.0))
    plain, chain = _CALLS[func]
    if not isinstance(arg, Dual):
        return _check_finite(plain(v), node)
    val = plain(arg.value)
    if func == "sqrt":
        if np.any(v == 0.0):
            raise EvalDomainError("sqrt slope at zero", node, _first_bad(v == 0.0))
        slope = 0.5 / val
    else:
        slope = chain(arg.value)
    _check_finite(val, node)
    return Dual(val, np.asarray(slope, dtype=float)[..., None] * arg.deriv)


def _eval(node, env):
    t = type(node)
    if t is Num:
        return node.value
    if t is Sym:
        return env[node.name]
    if t is Neg:
        return -_eval(node.arg, env)
    if t is Add:
        return _eval(node.left, env) + _eval(node.right, env)
    if t is Sub:
        return _eval(node.left, env) - _eval(node.right, env)
    if t is Mul:
        return _eval(node.left, env) * _eval(node.right, env)
    if t is Div:
        return _apply_div(_eval(node.left, env), _eval(node.right, env), node)
    if t is Pow:
        return _apply_pow(_eval(node.base, env), _eval(node.exponent, env), node)
    if t is Call:
        return _apply_call(node.func, _eval(node.arg, env), node)
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(expr, env):
    """Numeric value of `expr`; env binds every identifier to float or array."""
    with np.errstate(all="ignore"):
        out = _eval(expr, env)
    if isinstance(out, Dual):
        raise TypeError("env contained Dual values; use eval_dual")
    return _check_finite(np.asarray(out, dtype=float), expr)[()]


def eval_dual(expr, env):
    """Dual-number value of `expr`; env may mix Dual and plain numbers."""
    with np.errstate(all="ignore"):
        out = _eval(expr, env)
    k = None
    for v in env.values():
        if isinstance(v, Dual):
            k = v.deriv.shape[-1]
            break
    if k is None:
        raise ValueError("no Dual values in env")
    if not isinstance(out, Dual):
        out = Dual(out, np.zeros(np.shape(out) + (k,)))
    _check_finite(out.value, expr)
    if not np.all(np.isfinite(out.deriv)):
        bad = ~np.all(np.isfinite(out.deriv), axis=-1)
        raise EvalDomainError("non-finite derivative", expr, _first_bad(bad))
    return out


def seed_env(coords, point, params=None, extra=None):
    """Identity-seeded Duals for `coords` at `point`, constants for params.

    `point` has shape (n,) or (N, n).  `extra` appends further seeded
    scalars, e.g. a flow parameter, as {name: value}; seed columns follow
    the coordinate order, then extras in the given order.
    """
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    extra = extra or {}
    k = n + len(extra)
    lead = point.shape[:-1]
    env = {}
    for i, name in enumerate(coords):
        d = np.zeros(lead + (k,))
        d[..., i] = 1.0
        env[name] = Dual(point[..., i], d)
    for j, (name, value) in enumerate(extra.items()):
        d = np.zeros(lead + (k,))
        d[..., n + j] = 1.0
        env[name] = Dual(np.broadcast_to(float(value), lead).copy(), d)
    for name, value in (params or {}).items():
        env[name] = float(value)
    return env

