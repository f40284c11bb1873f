"""Expression grammar: parsing, printing, round trips."""

import random
from fractions import Fraction as Q

import pytest

from lenard.errors import ParseError
from lenard.field import Context
from lenard.grammar import (fun_latex, fun_text, parse_function, parse_operator)
from lenard.operators import RationalOpPair

from conftest import random_dfun


def test_parse_basic(ctx):
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    assert parse_function(ctx, "u'") == u1
    assert parse_function(ctx, "u''") == u2
    assert parse_function(ctx, "u^(3)") == ctx.u(3)
    assert parse_function(ctx, "2*u*u' + x") == 2 * u * u1 + ctx.x()
    assert parse_function(ctx, "1/2") == ctx.const("1/2")
    assert parse_function(ctx, "u''/(u')^2") == u2 / u1 ** 2
    assert parse_function(ctx, "b2*u + b3") == \
        ctx.param("b2") * u + ctx.param("b3")


def test_parse_functions(ctx):
    u1 = ctx.u(1)
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    s = parse_function(ctx, "sqrt(b2 + b3*u'^2)")
    assert (s * s) == b2 + b3 * u1 ** 2
    E = parse_function(ctx, "exp(2x)")
    assert E.total_derivative() == 2 * E
    Eu = parse_function(ctx, "exp(3u)")
    assert Eu.partial(0, 0) == 3 * Eu


def test_parse_errors(ctx):
    with pytest.raises(ParseError):
        parse_function(ctx, "u +")
    with pytest.raises(ParseError):
        parse_function(ctx, "exp(u*u)")
    with pytest.raises(ParseError):
        parse_function(ctx, "(u")
    err = None
    try:
        parse_function(ctx, "u ^ z")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 1


def test_function_roundtrip_fixtures(ctx):
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    fixtures = [
        u2 / u1 ** 2, -s + u1 / b2, (u * u1 + 3) / (u1 + u2),
        b3 * u1 * u2 / s, ctx.x() ** 2 * u - ctx.const("5/3"),
    ]
    for f in fixtures:
        assert parse_function(ctx, fun_text(f)) == f


def test_function_roundtrip_random(ctx, rng):
    u1 = ctx.u(1)
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
    E = ctx.adjoin_exp_u(ctx.const(2))
    for _ in range(500):
        f = random_dfun(ctx, rng, max_dord=3, max_degree=3, terms=4,
                        denominator=True, symbols=(s, E, 1 / E))
        assert parse_function(ctx, fun_text(f)) == f


def test_operator_parse(ctx):
    u1, u2 = ctx.u(1), ctx.u(2)
    op = parse_operator(ctx, "D")
    assert op.expand(-2).entries[0][0].coeffs == {1: ctx.one()}
    op = parse_operator(ctx, "D^-1")
    assert op.expand(-2).entries[0][0].coeffs == {-1: ctx.one()}
    op = parse_operator(ctx, "u' D^-1 u'")
    exp = op.expand(-3).entries[0][0]
    assert exp.coeffs[-1] == u1 * u1 and exp.coeffs[-2] == -u1 * u2
    op = parse_operator(ctx, "D^2 + 3")
    assert op.expand(-2).entries[0][0].coeffs[2].is_one()
    frac = parse_operator(ctx, "frac(u' , (1/u') D)")
    assert isinstance(frac, RationalOpPair)
    ch = parse_operator(ctx, "chain((1, D), (u', D^2))")
    assert isinstance(ch, RationalOpPair) and len(ch.pairs) == 2


def test_operator_parse_matrix():
    ctx = Context(("u", "v"))
    op = parse_operator(ctx, "[[D, 0], [v/u, (1/u) D u]]")
    mat = op.expand(-2)
    assert mat.rows == 2 and mat.cols == 2
    assert mat.entries[0][0].coeffs == {1: ctx.one()}
    assert mat.entries[1][0].coeffs[0] == ctx.gen(1, 0) / ctx.gen(0, 0)


def test_operator_scalar_division(ctx):
    u2 = ctx.u(2)
    op = parse_operator(ctx, "D (1/u'') D")
    exp = op.expand(-2).entries[0][0]
    assert exp.order() == 2
    assert exp.coeffs[2] == 1 / u2


def test_latex_output(ctx):
    u1, u2, u3 = ctx.u(1), ctx.u(2), ctx.u(3)
    f = u3 - ctx.const("3/2") * u2 ** 2 / u1
    tex = fun_latex(f)
    assert "\\frac" in tex and "u'''" in tex
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
    assert "\\sqrt" in fun_latex(s)


def test_operator_print_roundtrip(ctx):
    # exact differential operators print back to equal operators
    from lenard.operators import ScalarPsdOp
    u1, u2 = ctx.u(1), ctx.u(2)
    D = ScalarPsdOp.d(ctx)
    ops = [
        D.compose(ScalarPsdOp.of_fun(1 / u2)).compose(D),
        ScalarPsdOp(ctx, {2: ctx.param("b2"), 0: ctx.param("b3")}),
        ScalarPsdOp.of_fun(u1),
    ]
    for op in ops:
        reparsed = parse_operator(ctx, str(op)).expand(-2)
        assert (reparsed.entries[0][0] - op).is_zero()


# -- printed forms pinned across a change of the monomial representation ----


def _pinned_fractions():
    """Fractions over three to five denominator factors, mixing jets, x,
    parameters, a derived parameter, exp and sqrt symbols: the factor order
    of their printed forms is the one _normalize sorts them into."""
    ctx = Context(("u",), ("a", "b"))
    a, b = ctx.param("a"), ctx.param("b")
    x, u, u1, u2, u3 = ctx.x(), ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
    s = ctx.adjoin_sqrt(a + b * u1 ** 2)
    E = ctx.adjoin_exp_x(ctx.const(2))
    F = ctx.adjoin_exp_u(ctx.const(3))
    c = ctx.var_fun(ctx.add_derived_parameter("c", -b / a))

    def over(n, *facs):
        for f, e in facs:
            n = n * (1 / f) ** e
        return n

    out = [
        over(ctx.one(), (u + x, 1), (u1 + a, 1), (u2 + b, 1)),
        over(u, (u + 1, 2), (x + a, 1), (u1 + u, 1)),
        over(u2, (u, 1), (x, 1), (u + 1, 1), (a + b, 1)),
        over(ctx.one(), (E + 1, 1), (u + E, 1), (x + a, 1)),
        over(E, (u1 + E * E, 1), (x * E + b, 1), (u + 1, 2)),
        over(s, (u + 1, 1), (x + b, 1), (u2 + a * u1, 1)),
        over(u1 + s, (u2, 1), (u + x, 1), (E + u, 1), (a * u + b, 1)),
        over(F, (F + u1, 1), (x + 1, 1), (u + a, 1), (u1, 2)),
        over(u + F * x, (F * F + a, 1), (u3 + u, 1), (b, 1), (x, 1)),
        over(c * u, (u + c, 1), (x + b, 1), (u1 + 1, 1)),
        over(x * u1 + c, (s + u, 1), (c * u + 1, 1), (E + x, 1)),
        over(ctx.one(), (u1 + u2, 1), (u2 + u3, 1), (u + u1, 1), (x * x + u, 1)),
        over(Q(3, 7) * u2, (2 * u + 3, 1), (a * x + b * u, 1), (u1 * u1 + 5, 1), (E, 1),
             (s, 1)),
        over(u + 1 / E, (u * E + 2, 1), (u1 + a, 1), (x - b, 3)),
        over(s * E, (a * s + u, 1), (b * x + E, 2), (u2 * s + x, 1)),
    ]
    ctx2 = Context(("u", "v"), ("k",))
    k, x2 = ctx2.param("k"), ctx2.x()
    p, q, p1, q1 = ctx2.gen(0, 0), ctx2.gen(1, 0), ctx2.gen(0, 1), ctx2.gen(1, 1)
    G = ctx2.adjoin_exp_u(k, 1)
    r = ctx2.adjoin_sqrt(p * q + k)
    out += [
        over(p * q1, (q + p, 1), (q1 * G + x2, 1), (r + q, 1), (k * p1 + 1, 2)),
        over(r - G, (p1 + q1, 1), (G * G + k * q, 1), (x2 + p, 1), (q, 1)),
    ]
    return out


_PINNED_PRINTS = [
    ("1/((u+x)*(u'+a)*(u''+b))",
     "\\frac{1}{\\left(u + x\\right) \\left(u' + a\\right) \\left(u'' + b\\right)}"),
    ("u/((u+1)^2*(x+a)*(u'+u))",
     "\\frac{u}{\\left(u + 1\\right)^{2} \\left(x + a\\right) \\left(u' + u\\right)}"),
    ("u''/((u+1)*x*(b+a)*u)",
     "\\frac{u''}{\\left(u + 1\\right) x \\left(b + a\\right) u}"),
    ('1/((exp(2*x)+1)*(x+a)*(u+exp(2*x)))',
     '\\frac{1}{\\left(e^{2 x} + 1\\right) \\left(x + a\\right) \\left(u + e^{2 x}\\right)}'),
    ("exp(2*x)/((u+1)^2*(exp(2*x)*x+b)*((exp(2*x))^2+u'))",
     "\\frac{e^{2 x}}{\\left(u + 1\\right)^{2} \\left(e^{2 x} x + b\\right) \\left({e^{2 x}}^{2} + u'\\right)}"),
    ("sqrt(b*(u')^2+a)/((u+1)*(x+b)*(a*u'+u''))",
     "\\frac{\\sqrt{b u'^{2} + a}}{\\left(u + 1\\right) \\left(x + b\\right) \\left(a u' + u''\\right)}"),
    ("(u'+sqrt(b*(u')^2+a))/((u+x)*(a*u+b)*(u+exp(2*x))*u'')",
     "\\frac{u' + \\sqrt{b u'^{2} + a}}{\\left(u + x\\right) \\left(a u + b\\right) \\left(u + e^{2 x}\\right) u''}"),
    ("exp(3*u)/((x+1)*(u+a)*(u')^2*(u'+exp(3*u)))",
     "\\frac{e^{3 u}}{\\left(x + 1\\right) \\left(u + a\\right) u'^{2} \\left(u' + e^{3 u}\\right)}"),
    ("(exp(3*u)*x+u)/(x*((exp(3*u))^2+a)*b*(u'''+u))",
     "\\frac{e^{3 u} x + u}{x \\left({e^{3 u}}^{2} + a\\right) b \\left(u''' + u\\right)}"),
    ("c*u/((u'+1)*(x+b)*(u+c))",
     "\\frac{c u}{\\left(u' + 1\\right) \\left(x + b\\right) \\left(u + c\\right)}"),
    ("(x*u'+c)/((c*u+1)*(x+exp(2*x))*(u+sqrt(b*(u')^2+a)))",
     "\\frac{x u' + c}{\\left(c u + 1\\right) \\left(x + e^{2 x}\\right) \\left(u + \\sqrt{b u'^{2} + a}\\right)}"),
    ("1/((x^2+u)*(u'+u)*(u''+u')*(u'''+u''))",
     "\\frac{1}{\\left(x^{2} + u\\right) \\left(u' + u\\right) \\left(u'' + u'\\right) \\left(u''' + u''\\right)}"),
    ("3/14*(exp(2*x))^-1*sqrt(b*(u')^2+a)*u''/((u+3/2)*((u')^2+5)*(b*u+a*x)*(b*(u')^2+a))",
     "\\frac{\\frac{3}{14} {e^{2 x}}^{-1} \\sqrt{b u'^{2} + a} u''}{\\left(u + \\frac{3}{2}\\right) \\left(u'^{2} + 5\\right) \\left(b u + a x\\right) \\left(b u'^{2} + a\\right)}"),
    ("(u+(exp(2*x))^-1)/((exp(2*x)*u+2)*(x-b)^3*(u'+a))",
     "\\frac{u + {e^{2 x}}^{-1}}{\\left(e^{2 x} u + 2\\right) \\left(x -b\\right)^{3} \\left(u' + a\\right)}"),
    ("exp(2*x)*sqrt(b*(u')^2+a)/((sqrt(b*(u')^2+a)*u''+x)*(b*x+exp(2*x))^2*(a*sqrt(b*(u')^2+a)+u))",
     "\\frac{e^{2 x} \\sqrt{b u'^{2} + a}}{\\left(\\sqrt{b u'^{2} + a} u'' + x\\right) \\left(b x + e^{2 x}\\right)^{2} \\left(a \\sqrt{b u'^{2} + a} + u\\right)}"),
    ("u*v'/((k*u'+1)^2*(exp(k*v)*v'+x)*(v+u)*(v+sqrt(u*v+k)))",
     "\\frac{u v'}{\\left(k u' + 1\\right)^{2} \\left(e^{k v} v' + x\\right) \\left(v + u\\right) \\left(v + \\sqrt{u v + k}\\right)}"),
    ("(sqrt(u*v+k)-exp(k*v))/((u+x)*(k*v+(exp(k*v))^2)*v*(v'+u'))",
     "\\frac{\\sqrt{u v + k} -e^{k v}}{\\left(u + x\\right) \\left(k v + {e^{k v}}^{2}\\right) v \\left(v' + u'\\right)}"),
]


def test_denominator_factor_order_is_pinned():
    """Text and LaTeX of each fraction, as printed before monomials were
    packed into ints."""
    fractions = _pinned_fractions()
    assert len(fractions) == len(_PINNED_PRINTS)
    for f, (text, latex) in zip(fractions, _PINNED_PRINTS):
        assert len(f.den) >= 3
        assert (str(f), fun_latex(f)) == (text, latex)
