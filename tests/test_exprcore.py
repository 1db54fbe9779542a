import math

import numpy as np
import pytest

from causalkit.exprcore import (
    Add, Call, Div, Dual, EvalDomainError, Mul, Neg, Num, ParseError, Pow,
    SingularJacobianError, Sub, Sym, UnknownIdentifierError, eval_dual,
    eval_expr, free_symbols, parse_expr, seed_env, substitute, to_text,
)
from causalkit import jacobian


def test_parse_structure():
    e = parse_expr("(t + 1)*r^2", {"t", "r"})
    assert e == Mul(Add(Sym("t"), Num(1.0)), Pow(Sym("r"), Num(2.0)))


def test_parse_precedence():
    assert parse_expr("-x^2", {"x"}) == Neg(Pow(Sym("x"), Num(2.0)))
    assert parse_expr("2^3^2", ()) == Pow(Num(2.0), Pow(Num(3.0), Num(2.0)))
    assert eval_expr(parse_expr("2^3^2", ()), {}) == 512.0
    assert parse_expr("a - b - c", {"a", "b", "c"}) == Sub(Sub(Sym("a"), Sym("b")), Sym("c"))
    assert parse_expr("a + b*c", {"a", "b", "c"}) == Add(Sym("a"), Mul(Sym("b"), Sym("c")))
    assert parse_expr("a/b/c", {"a", "b", "c"}) == Div(Div(Sym("a"), Sym("b")), Sym("c"))
    # unary minus binds looser than ^ but tighter than *
    assert parse_expr("-a*b", {"a", "b"}) == Mul(Neg(Sym("a")), Sym("b"))


def test_parse_pi_and_calls():
    e = parse_expr("2*pi", ())
    assert e == Mul(Num(2.0), Num(math.pi))
    e = parse_expr("sin(x)^2", {"x"})
    assert e == Pow(Call("sin", Sym("x")), Num(2.0))
    assert eval_expr(parse_expr("cos(pi)", ()), {}) == pytest.approx(-1.0)


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("1 -", ())
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_expr("2 t", {"t"})
    assert err.value.offset == 2
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expr("t + zz", {"t"})
    assert err.value.name == "zz"
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse_expr("(t + 1", {"t"})
    with pytest.raises(ParseError):
        parse_expr("pi(3)", ())


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_expr("2 sin(x)", {"x"})


def test_scientific_notation():
    assert parse_expr("1e-3", ()) == Num(1e-3)
    assert parse_expr("2.5E+2", ()) == Num(250.0)


def _roundtrip(text, symbols):
    e = parse_expr(text, symbols)
    assert parse_expr(to_text(e), symbols) == e


def test_print_roundtrip_catalog_like():
    syms = {"t", "r", "chi", "theta", "M", "a", "alpha", "b", "c", "s", "gamma", "C"}
    for text in [
        "1 - 2*M/r",
        "-1/(1 - 2*M/r)",
        "-alpha^2*cosh(t/alpha)^2*sin(chi)^2",
        "-(C*t^(2/(3*(1 + gamma))))^2",
        "3 - tanh(t + s)",
        "-r^2*sin(theta)^2",
        "a - (b - c)",
        "(a^b)^c",
        "-(a*b)",
        "a*(b/c)",
        "t^(-2)",
        "sqrt(abs(t) + 1)",
    ]:
        _roundtrip(text, syms)


def test_print_roundtrip_random_trees():
    rng = np.random.default_rng(5)
    syms = ("x", "y")

    def gen(depth):
        pick = rng.integers(0, 8 if depth > 0 else 2)
        if pick == 0:
            return Num(float(rng.integers(1, 9)))
        if pick == 1:
            return Sym(syms[rng.integers(0, 2)])
        if pick == 2:
            return Neg(gen(depth - 1))
        if pick == 3:
            return Add(gen(depth - 1), gen(depth - 1))
        if pick == 4:
            return Sub(gen(depth - 1), gen(depth - 1))
        if pick == 5:
            return Mul(gen(depth - 1), gen(depth - 1))
        if pick == 6:
            return Div(gen(depth - 1), gen(depth - 1))
        return Pow(gen(depth - 1), Num(float(rng.integers(1, 4))))

    for _ in range(300):
        e = gen(4)
        assert parse_expr(to_text(e), syms) == e


def test_eval_values():
    e = parse_expr("(t + 1)*r^2", {"t", "r"})
    assert eval_expr(e, {"t": 1.0, "r": 2.0}) == 8.0
    e = parse_expr("1 - 2*M/r", {"M", "r"})
    assert eval_expr(e, {"M": 1.0, "r": 4.0}) == 0.5


def test_eval_batched_matches_scalar():
    e = parse_expr("sin(t)*cosh(r) - t/(r + 2)", {"t", "r"})
    rng = np.random.default_rng(0)
    t = rng.normal(size=64)
    r = rng.uniform(0.5, 3.0, size=64)
    batch = eval_expr(e, {"t": t, "r": r})
    for i in range(64):
        assert batch[i] == pytest.approx(eval_expr(e, {"t": t[i], "r": r[i]}), abs=0, rel=1e-15)


def test_eval_domain_errors_name_subexpression():
    e = parse_expr("log(t - 2)", {"t"})
    with pytest.raises(EvalDomainError) as err:
        eval_expr(e, {"t": 1.0})
    assert "log" in str(err.value) and "t - 2" in str(err.value)
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("sqrt(t)", {"t"}), {"t": -1.0})
    with pytest.raises(EvalDomainError) as err:
        eval_expr(parse_expr("1/(t - 1)", {"t"}), {"t": 1.0})
    assert "division by zero" in str(err.value)
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("t^0.5", {"t"}), {"t": -2.0})


def test_power_decided_row_by_row():
    # a negative base under an integer exponent in one row and a positive
    # base under a fractional one in the other: each row alone evaluates
    e = parse_expr("x^t", ("x", "t"))
    got = eval_expr(e, {"x": np.array([-2.0, 2.0]), "t": np.array([2.0, 0.5])})
    assert got.tolist() == [4.0, math.sqrt(2.0)]


def outcome(run):
    """run()'s value as a list or float, or the reason and sample of the
    EvalDomainError it raises."""
    try:
        return np.asarray(run()).tolist()
    except EvalDomainError as e:
        return e.reason, e.index


@pytest.mark.parametrize("duals", [False, True])
@pytest.mark.parametrize("text", ["x^t", "x^0.5", "(x - 1)^(-1)", "x^(t - 1)",
                                  "(x*t)^(1/3) + x^2", "sqrt(t + 1)*x^t"])
def test_a_rows_value_or_error_ignores_the_other_rows(text, duals):
    # every row alone against the batch, on values and on duals seeded on x
    # (t a dual of zero derivative, so a constant exponent): the batch raises
    # only where a row alone raises, and then at the same subexpression, for
    # that row; a batch that evaluates gives each row its value alone, bit for bit
    e = parse_expr(text, ("x", "t"))

    def value(x, t):
        if duals:
            env = seed_env(("x",), np.asarray(x)[..., None])
            env["t"] = Dual(t, np.zeros(np.shape(t) + (1,)))
            return eval_dual(e, env).value
        return eval_expr(e, {"x": x, "t": t})

    rng = np.random.default_rng(len(text))
    choices = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, -0.5, 1.5])
    for _ in range(200):
        x, t = rng.choice(choices, size=(2, int(rng.integers(1, 6))))
        alone = [outcome(lambda: value(x[i], t[i])) for i in range(len(x))]
        batch = outcome(lambda: value(x, t))
        if isinstance(batch, tuple):
            reason, i = batch
            assert alone[i] == (reason, None)
        else:
            assert batch == alone


def test_dual_product_rule():
    # seed t and r with unit directions: d(t*r) = (r, t)
    e = parse_expr("t*r", {"t", "r"})
    env = seed_env(["t", "r"], np.array([2.0, 3.0]))
    d = eval_dual(e, env)
    assert d.value == 6.0
    assert np.allclose(d.deriv, [3.0, 2.0])


def test_dual_chain_rule_frozen():
    e = parse_expr("sin(t^2)", {"t"})
    env = seed_env(["t"], np.array([0.5]))
    d = eval_dual(e, env)
    assert d.value == pytest.approx(math.sin(0.25), abs=1e-16)
    assert d.deriv[0] == pytest.approx(math.cos(0.25) * 1.0, abs=1e-16)


def test_dual_constants_have_zero_derivative():
    e = parse_expr("a^2", {"a"})
    env = seed_env(["t"], np.array([1.0]), params={"a": 3.0})
    d = eval_dual(e, env)
    assert d.value == 9.0
    assert np.all(d.deriv == 0.0)


def test_dual_mixed_seed_lengths_rejected():
    with pytest.raises(ValueError):
        Dual(1.0, [1.0, 0.0]) + Dual(1.0, [1.0, 0.0, 0.0])


def test_jacobian_radial_block():
    exprs = [parse_expr("b*t", {"t", "R", "b"}), parse_expr("R - a + c", {"t", "R", "a", "c"})]
    J = jacobian(exprs, ["t", "R"], np.array([5.0, 7.0]), params={"a": 1.0, "c": 3.0, "b": 2.0})
    assert np.allclose(J, [[2.0, 0.0], [0.0, 1.0]])


def test_jacobian_batched():
    exprs = [parse_expr("t*r", {"t", "r"}), parse_expr("r^2", {"r"})]
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    J = jacobian(exprs, ["t", "r"], pts)
    assert J.shape == (2, 2, 2)
    assert np.allclose(J[0], [[2.0, 1.0], [0.0, 4.0]])
    assert np.allclose(J[1], [[4.0, 3.0], [0.0, 8.0]])


def test_jacobian_batched_constant_component():
    # a constant component has a zero derivative row at every point
    exprs = [parse_expr("t", {"t", "x"}), parse_expr("0", {"t", "x"})]
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    J = jacobian(exprs, ["t", "x"], pts)
    assert J.shape == (2, 2, 2)
    assert np.array_equal(J, [[[1.0, 0.0], [0.0, 0.0]]] * 2)


def test_jacobian_singular_raises():
    exprs = [parse_expr("t + x", {"t", "x"}), parse_expr("t + x", {"t", "x"})]
    with pytest.raises(SingularJacobianError):
        jacobian(exprs, ["t", "x"], np.array([1.0, 2.0]))


def test_dual_vs_central_difference():
    rng = np.random.default_rng(42)
    texts = [
        "1 - 2*M/r",
        "cosh(t/alpha)^2*sin(chi)^2",
        "(C*t^0.5)^2",
        "3 - tanh(t)",
        "exp(t/4)*log(r + 3)",
    ]
    syms = ["t", "r", "chi", "M", "alpha", "C"]
    h = 1e-6
    for text in texts:
        e = parse_expr(text, syms)
        for _ in range(50):
            x = np.concatenate([
                rng.uniform(0.5, 3.0, 2),      # t, r
                rng.uniform(0.2, 2.9, 1),      # chi
                [1.0, 1.0, 1.0],               # M, alpha, C
            ])
            env = seed_env(syms, x)
            d = eval_dual(e, env)
            for i in range(len(syms)):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (eval_expr(e, dict(zip(syms, xp))) - eval_expr(e, dict(zip(syms, xm)))) / (2 * h)
                got = d.deriv[i]
                denom = max(abs(got), abs(fd), 1e-6)
                assert abs(got - fd) / denom < 1e-6


def test_substitute_compose():
    g = parse_expr("2*t", {"t"})
    composed = substitute(g, {"t": parse_expr("t + 1", {"t"})})
    assert composed == parse_expr("2*(t + 1)", {"t"})
    assert eval_expr(composed, {"t": 3.0}) == 8.0


def test_free_symbols():
    e = parse_expr("a*sin(t) + b", {"a", "b", "t"})
    assert free_symbols(e) == {"a", "b", "t"}
