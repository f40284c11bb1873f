"""Variational derivative and the quotient modulo total derivatives."""

from fractions import Fraction as Q

import pytest

from lenard.errors import Undecidable
from lenard.field import Context
from lenard.functional import (LocalFunctional, _antiderivative_ansatz, antiderivative,
                               antiderivative_in_var, is_null_functional, reduce_by_parts,
                               variational_derivative)

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
    # a term with no denominator is built as normalized; _normalize must
    # return it unchanged, relation and Laurent variables in it included
    from lenard import functional
    from lenard.field import DFun, _normalize
    checked = []

    def checked_dfun(ctx, num, den, normalized=False):
        if normalized:
            assert _normalize(ctx, num, den) == (num, den)
            checked.append(num)
        return DFun(ctx, num, den, normalized)

    monkeypatch.setattr(functional, "DFun", checked_dfun)
    ctx = Context(("u",), ("b2", "b3"))
    u, u1 = ctx.u(0), ctx.u(1)
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
    E = ctx.adjoin_exp_x(ctx.param("b2"))
    fs = [u * s / E, u ** 2 * E * s, ctx.x() * E / u ** 2]
    fs += [random_dfun(ctx, rng, denominator=True, symbols=(s, E, 1 / E))
           for _ in range(40)]
    vids = [ctx.x_id] + [ctx.gen_var(0, n) for n in range(3)]
    for f in fs:
        for vid in vids:
            functional.antiderivative_in_var(ctx, f, vid)
    assert len(checked) > 40

