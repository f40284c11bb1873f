"""Variational derivative and the quotient modulo total derivatives."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenard.errors import Undecidable
from lenard.field import EXP_BITS, Context, DFun, mono_exp, mono_items, mono_var, qdiv
from lenard.functional import (LocalFunctional, _antiderivative_ansatz, _by_parts, _symbol_rate,
                               antiderivative, antiderivative_in_var, is_null_functional,
                               is_self_adjoint_frechet, reduce_by_parts, variational_derivative)
from lenard.operators import MatrixPsdOp, ScalarPsdOp

from conftest import random_dfun


def test_variational_of_u(ctx):
    assert variational_derivative(ctx.u(0))[0].is_one()


def test_variational_of_kn_h3():
    # delta(1/2 (u''/u')^2) = ((1/u')(u''/u')')'
    ctx = Context(("u",))
    u1, u2 = ctx.u(1), ctx.u(2)
    h3 = (u2 / u1) ** 2 / 2
    Du1 = ((1 / u1) * (u2 / u1).total_derivative()).total_derivative()
    assert variational_derivative(h3)[0] == Du1


def test_variational_of_sqrt(ctx):
    # delta int sqrt(b2+b3 u'^2) = -b3 d(u'/sqrt(...))
    u1 = ctx.u(1)
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    assert variational_derivative(s)[0] == -b3 * (u1 / s).total_derivative()


def test_variational_kills_total_derivatives(ctx, rng):
    for _ in range(30):
        f = random_dfun(ctx, rng, max_dord=2, max_degree=2, denominator=True)
        td = f.total_derivative()
        assert all(v.is_zero() for v in variational_derivative(td))


def test_variational_kills_total_derivatives_with_symbols(ctx, rng):
    u1 = ctx.u(1)
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
    E = ctx.adjoin_exp_u(ctx.const(2))
    for _ in range(15):
        f = random_dfun(ctx, rng, max_dord=1, max_degree=2, symbols=(s, E))
        td = f.total_derivative()
        assert all(v.is_zero() for v in variational_derivative(td))


def _frechet_self_adjoint(xi):
    """Oracle: the Helmholtz check as D - D* of the Frechet derivative D,
    its adjoint built by ScalarPsdOp.adjoint."""
    ctx, ell = xi[0].ctx, len(xi)
    D = MatrixPsdOp([[ScalarPsdOp(ctx, xi[i].jet_partials(j)) for j in range(ell)]
                     for i in range(ell)])
    return (D - D.adjoint()).is_zero()


@pytest.mark.parametrize("ell", [1, 2])
def test_helmholtz_check_matches_the_operator_adjoint(ell, rng):
    """Gradients pass; a gradient plus r v' (v the last generator) fails
    for a constant r and agrees with the oracle for a random one.  So does
    a gradient plus r u'' on a diagonal entry, whose part of D - D*,
    -2 r' d - r'', has odd order, and, for two generators, plus r v'' or
    r v in the first component and plus r u'' in the second, off-diagonal
    entries whose even coefficients count."""
    ctx = Context(("u", "v")[:ell], ("b2", "b3"))
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * ctx.u(1) ** 2)
    v1 = ctx.gen(ell - 1, 1)
    if ell == 2:  # off-diagonal entries whose towers reach their top levels
        for f in (ctx.u(0) ** 2 * v1, s * ctx.gen(1, 2)):
            xi = variational_derivative(f)
            assert is_self_adjoint_frechet(xi) and _frechet_self_adjoint(xi)
    for _ in range(8):
        f = random_dfun(ctx, rng, max_dord=2, max_degree=2, denominator=True, symbols=(s,))
        xi = variational_derivative(f)
        assert is_self_adjoint_frechet(xi) and _frechet_self_adjoint(xi)
        r = random_dfun(ctx, rng, max_dord=1, max_degree=1, denominator=True, symbols=(s,))
        bads = [[xi[0] + 3 * v1] + xi[1:], [xi[0] + r * v1] + xi[1:],
                [xi[0] + r * ctx.u(2)] + xi[1:]]
        if ell == 2:
            bads += [[xi[0] + r * ctx.gen(1, 2), xi[1]], [xi[0] + r * ctx.gen(1, 0), xi[1]],
                     [xi[0], xi[1] + r * ctx.u(2)]]
        for bad in bads:
            assert is_self_adjoint_frechet(bad) == _frechet_self_adjoint(bad)
        assert not is_self_adjoint_frechet([xi[0] + 3 * v1] + xi[1:])
        assert is_self_adjoint_frechet([xi[0] + 3 * ctx.u(2)] + xi[1:])
        if ell == 2:
            assert not is_self_adjoint_frechet([xi[0] + 3 * ctx.gen(1, 2), xi[1]])


def test_is_null_basic(ctx):
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    assert is_null_functional(u1 * u2)          # = d(u'^2/2)
    assert not is_null_functional(u)            # delta = 1
    assert is_null_functional(ctx.x() ** 2)     # quasiconstant polynomial
    assert is_null_functional(ctx.zero())


def test_is_null_exp_x(ctx):
    E = ctx.adjoin_exp_x(ctx.param("b2"))
    u = ctx.u(0)
    assert not is_null_functional(E * u)        # the kernel obstruction
    assert is_null_functional(ctx.x() * E)      # x-polynomial times catalog exp


def test_is_null_undecidable_outside_catalog():
    ctx = Context(("u",))
    u1, u2 = ctx.u(1), ctx.u(2)
    with pytest.raises(Undecidable):
        is_null_functional(u2 / u1)             # = d log u', leaves the field


def test_is_null_dord_zero_is_false():
    ctx = Context(("u",))
    E = ctx.adjoin_exp_u(ctx.const(3))
    assert not is_null_functional(E)


def test_involution_style_product():
    # u' * delta(h3) is a total derivative (the KN involution check shape)
    ctx = Context(("u",))
    u1, u2 = ctx.u(1), ctx.u(2)
    Du1 = ((1 / u1) * (u2 / u1).total_derivative()).total_derivative()
    assert is_null_functional(u1 * Du1)


def test_reduce_by_parts_reaches_quasiconstant(ctx, rng):
    for _ in range(20):
        f = random_dfun(ctx, rng, max_dord=1, max_degree=3)
        residue, parts = reduce_by_parts(f.total_derivative())
        assert f.total_derivative() == residue + parts.total_derivative()


def test_antiderivative_exact(ctx):
    u, u1 = ctx.u(0), ctx.u(1)
    g = u ** 2 * u1
    assert antiderivative(g) == u ** 3 / 3
    assert antiderivative(ctx.one()) == ctx.x()


def test_antiderivative_ansatz_with_two_generators():
    # d acts on every component, so the scalar equation g' = f is solved as
    # the diagonal system with zero right-hand sides for the other generators
    ctx = Context(("u", "v"))
    u1, v = ctx.gen(0, 1), ctx.gen(1, 0)
    f = (u1 ** 2 * v).total_derivative()
    g = _antiderivative_ansatz(f)
    assert g is not None and g.total_derivative() == f


def test_antiderivative_in_var_divides_integers_exactly(ctx):
    # x^2 integrates to x^3/3, with a Fraction coefficient, not a float
    x = ctx.x()
    f = antiderivative_in_var(ctx, x ** 2, ctx.x_id)
    assert f == x ** 3 * Q(1, 3)
    assert [type(c) for c in f.num.values()] == [Q]


def test_local_functional_equality(ctx):
    u, u1 = ctx.u(0), ctx.u(1)
    a = LocalFunctional(u * u1 + u ** 2)
    b = LocalFunctional(u ** 2)
    assert a == b                     # differ by d(u^2/2)
    assert a != LocalFunctional(u)


def test_antiderivative_in_x_treats_free_factors_as_constants():
    # factors free of x are constants, denominators and the exp branch
    # included; x^-k integrates for k >= 2, while 1/x and 1/(x+1) leave the field
    ctx = Context(("u",), ("a1", "b2"))
    x, a1 = ctx.x(), ctx.param("a1")
    E = ctx.adjoin_exp_x(ctx.param("b2"))
    for f in (1 / a1, x / a1, x * E / a1, 1 / x ** 2):
        assert antiderivative(f).total_derivative() == f
    assert is_null_functional(x / a1)
    for f in (1 / x, 1 / (x + 1)):
        with pytest.raises(Undecidable):
            antiderivative(f)


def test_reduce_by_parts_exp_u_over_a_constant():
    ctx = Context(("u",), ("a1",))
    E = ctx.adjoin_exp_u(ctx.const(3))
    f = E * ctx.u(1) / ctx.param("a1")
    residue, parts = reduce_by_parts(f)
    assert residue.is_zero()
    assert parts.total_derivative() == f


def test_antiderivative_in_var_terms_skip_normalize_only_when_canonical(
        monkeypatch, rng):
    # each part is one numerator: the rate-free terms integrated, over the
    # constant denominator and one power of vid when a term's power of vid
    # is negative, and each exponential rate's terms over the constant
    # denominator.  A part with no denominator is built as normalized, and
    # _normalize must return it unchanged, relation and Laurent variables in
    # it included; a part with one goes through _normalize
    from lenard import functional
    from lenard.field import _normalize
    checked, built = [], []

    def checked_dfun(ctx, num, den, normalized=False):
        if normalized:
            assert not den and _normalize(ctx, num, den) == (num, den)
            checked.append(num)
        built.append(normalized)
        return DFun(ctx, num, den, normalized)

    monkeypatch.setattr(functional, "DFun", checked_dfun)
    ctx = Context(("u",), ("b2", "b3"))
    u, u1, x = ctx.u(0), ctx.u(1), ctx.x()
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
    E = ctx.adjoin_exp_x(ctx.param("b2"))
    fs = [u * s / E, u ** 2 * E * s, x * E / u ** 2, (x ** 3 + s) / x ** 2, (u + x) / x ** 3]
    fs += [random_dfun(ctx, rng, denominator=True, symbols=(s, E, 1 / E))
           for _ in range(40)]
    vids = [ctx.x_id] + [ctx.gen_var(0, n) for n in range(3)]
    for f in fs:
        for vid in vids:
            functional.antiderivative_in_var(ctx, f, vid)
    assert len(checked) > 40 and not all(built)


def _termwise_antiderivative_in_var(ctx, f, vid):
    """Oracle: antiderivative_in_var as a sum of one element per term of f,
    each a monomial over the constant denominator times a power of vid
    (a monomial over no denominator is canonical)."""
    rates = {}
    for v in f._vars():
        if ctx.is_symbol_var(v):
            r = _symbol_rate(ctx, v, vid)
            if r is False:
                return None
            if r is not None:
                rates[v] = r
    v_pow_den, const_den = 0, []
    for fac, e in f.den:
        if not any(v == vid or v in rates for m in fac for v, _ in mono_items(m)):
            const_den.append((fac, e))
        elif fac == {mono_var(vid): 1}:
            v_pow_den = e
        else:
            return None
    out, groups = ctx.zero(), {}
    for mono, c in f.num.items():
        k = mono_exp(mono, vid)
        rest = mono - (k << (EXP_BITS * vid))
        k -= v_pow_den
        rate = ctx.zero()
        for v, e in mono_items(rest):
            if v in rates:
                rate = rate + rates[v] * e
        if rate.is_zero():
            if k == -1:
                return None
            term = DFun(ctx, {rest: qdiv(c, k + 1)}, tuple(const_den), not const_den)
            out = out + term * ctx.var_fun(vid) ** (k + 1)
        elif k < 0:
            return None
        else:
            term = DFun(ctx, {rest: c}, tuple(const_den), not const_den)
            group = groups.setdefault(rate.key(), [rate, ctx.zero()])
            group[1] = group[1] + term * ctx.var_fun(vid) ** k
    for rate, q in groups.values():
        part = _by_parts(q, rate, vid)
        if part is None:
            return None
        out = out + part
    return out


def test_antiderivative_in_var_matches_the_termwise_sum(rng):
    """One numerator per part gives the key and print of the sum of one
    element per term, with parameters in the denominator, powers of vid
    of either sign, sqrt and exp symbols."""
    ctx = Context(("u",), ("b2", "b3"))
    u, u1, x, b2 = ctx.u(0), ctx.u(1), ctx.x(), ctx.param("b2")
    s = ctx.adjoin_sqrt(b2 + ctx.param("b3") * u1 ** 2)
    E, F = ctx.adjoin_exp_x(b2), ctx.adjoin_exp_u(ctx.const(2))
    fs = [(x ** 3 + s) / x ** 2, (u + x * b2) / (b2 * x ** 3), (b2 * u + u1) / b2,
          x * E * F / (b2 + 1), (u1 ** 2 * F + u * F / F) / (u1 ** 2)]
    fs += [random_dfun(ctx, rng, denominator=True, symbols=(s, E, 1 / E, F)) / c
           for c in [ctx.one(), b2, b2 + u1, x ** 2] for _ in range(12)]
    vids = [ctx.x_id] + [ctx.gen_var(0, n) for n in range(3)]
    answered = 0
    for f in fs:
        for vid in vids:
            got = antiderivative_in_var(ctx, f, vid)
            want = _termwise_antiderivative_in_var(ctx, f, vid)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.key() == want.key() and str(got) == str(want)
                answered += 1
    assert answered > 60


def _parent_is_null_functional(f):
    """Oracle: the variational derivative first, then the antiderivative."""
    if f.is_zero():
        return True
    if any(not v.is_zero() for v in variational_derivative(f)):
        return False
    return antiderivative(f) is not None


@st.composite
def _densities(draw):
    """A total derivative, one plus a term that is not, a quasiconstant or
    an order-0 density, over jets, x, parameters, s = sqrt(b2 + b3 u'^2),
    exp(b2 x) and exp(2 u), each maybe over a denominator."""
    ctx = Context(("u",), ("b2", "b3"))
    u, u1, x, b2 = ctx.u(0), ctx.u(1), ctx.x(), ctx.param("b2")
    s = ctx.adjoin_sqrt(b2 + ctx.param("b3") * u1 ** 2)
    Ex, Eu = ctx.adjoin_exp_x(b2), ctx.adjoin_exp_u(ctx.const(2))

    def element(atoms, dens):
        out = ctx.zero()
        for _ in range(draw(st.integers(1, 2))):
            term = ctx.const(draw(st.integers(-3, 3).filter(bool)))
            for a in draw(st.lists(st.sampled_from(atoms), max_size=2)):
                term = term * a
            out = out + term
        if dens and draw(st.booleans()):
            out = out / draw(st.sampled_from(dens))
        return out

    kind = draw(st.sampled_from(["derivative", "derivative+", "quasiconstant", "order0"]))
    if kind == "quasiconstant":
        return element([x, b2, Ex, 1 / Ex], [b2, x ** 2, x, x + 1])
    if kind == "order0":
        return element([u, x, b2, Eu, 1 / Eu], [b2, u + 1, Eu + 1])
    g = element([u, u1, x, b2, s, Ex, Eu], [b2, u1, u + 1])
    if kind == "derivative":
        return g.total_derivative()
    return g.total_derivative() + element([u, u1, ctx.u(2), s, Eu], [u1])


def _outcome(rule, f):
    try:
        return rule(f)
    except Exception as exc:  # the same exception type counts as agreement
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(f=_densities())
def test_is_null_functional_matches_the_variational_first_rule(f):
    assert _outcome(is_null_functional, f) == _outcome(_parent_is_null_functional, f)
