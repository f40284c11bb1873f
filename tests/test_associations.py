"""Solver completeness on the scalar association table.

For each listed association the engine either reproduces the stated
witness as an exact identity, or the corresponding solve is exhausted
exactly when no association exists.
"""

import pytest

from lenard.chains import verify_association
from lenard.errors import AnsatzExhausted
from lenard.field import Context
from lenard.functional import variational_derivative
from lenard.presets import expected_equations, liouville_fraction
from lenard.solve import AnsatzSpace, solve_operator_equation
from lenard.errors import UnknownPreset


def _ctx_full():
    return Context(("u",), ("x1", "x2", "x3", "a2", "a3", "g"))


def _X(ctx, z1=False, z2=False, z3=False):
    vals = [ctx.zero() if z else ctx.param(n)
            for n, z in zip(("x1", "x2", "x3"), (z1, z2, z3))]
    return liouville_fraction(ctx, *vals), vals


def test_int_u_association():
    # int u <-X-> x2 x + x3 u u'  with F = x u' - u
    ctx = _ctx_full()
    X, (x1, x2, x3) = _X(ctx)
    u, u1 = ctx.u(0), ctx.u(1)
    x = ctx.x()
    F = [x * u1 - u]
    P = [x2 * x + x3 * u * u1]
    assert verify_association(X, [ctx.one()], P, [F])


def test_sqrt_association_independent_constants():
    # int sqrt(a2 + a3 u'^2) <-X-> -Y sqrt(...), all coefficients nonzero
    ctx = _ctx_full()
    X, _ = _X(ctx)
    u1 = ctx.u(1)
    a2, a3 = ctx.param("a2"), ctx.param("a3")
    s = ctx.adjoin_sqrt(a2 + a3 * u1 ** 2)
    F = [-s]
    P = X.num.apply(F)
    assert verify_association(X, variational_derivative(s), P, [F])


def test_zero_to_one_association():
    # int0 <-X-> 1 when x2 != 0, witness u'/x2
    ctx = _ctx_full()
    X, (x1, x2, x3) = _X(ctx)
    u1 = ctx.u(1)
    assert verify_association(X, [ctx.zero()], [ctx.one()], [[u1 / x2]])


def test_zero_to_uprime_association():
    ctx = _ctx_full()
    X, (x1, x2, x3) = _X(ctx)
    assert verify_association(X, [ctx.zero()], [ctx.u(1)],
                              [[-ctx.one() / x3]])


def test_one_witnesses_in_special_patterns():
    # x1 = x2 = 0: int 1/(2 x3 u') <-X-> 1 with F = 1/(x3 u')
    ctx = _ctx_full()
    X, (x1, x2, x3) = _X(ctx, z1=True, z2=True)
    u1 = ctx.u(1)
    h = 1 / (2 * x3 * u1)
    assert verify_association(X, variational_derivative(h), [ctx.one()],
                              [[1 / (x3 * u1)]])
    # x2 = x3 = 0: int x u / x1 <-X-> 1 with F = x/x1
    X, (x1, x2, x3) = _X(ctx, z2=True, z3=True)
    h = ctx.x() * ctx.u(0) / x1
    assert verify_association(X, variational_derivative(h), [ctx.one()],
                              [[ctx.x() / x1]])


def test_uprime_witnesses_in_special_patterns():
    ctx = _ctx_full()
    u, u1 = ctx.u(0), ctx.u(1)
    # x1 = x3 = 0: int -(u')^2/(2 x2) <-X-> u'
    X, (x1, x2, x3) = _X(ctx, z1=True, z3=True)
    h = -(u1 ** 2) / (2 * x2)
    assert verify_association(X, variational_derivative(h), [u1], [[u1 / x2]])
    # x2 = x3 = 0: int u^2/(2 x1) <-X-> u'
    X, (x1, x2, x3) = _X(ctx, z2=True, z3=True)
    h = u ** 2 / (2 * x1)
    assert verify_association(X, variational_derivative(h), [u1], [[u / x1]])


def test_exp_x_association_when_x3_zero():
    # int e^(g x) u <-X-> (x1 g^2 + x2) e^(g x)/g, via F = e^(g x)/g
    ctx = _ctx_full()
    X, (x1, x2, x3) = _X(ctx, z3=True)
    g = ctx.param("g")
    E = ctx.adjoin_exp_x(g)
    u = ctx.u(0)
    grad = variational_derivative(E * u)
    F = [E / g]
    P = [(x1 * g ** 2 + x2) * E / g]
    assert verify_association(X, grad, P, [F])


def test_exp_u_association_when_x2_zero():
    # int e^(g u) <-X-> (x1 g^2 + x3) e^(g u) u', via F = e^(g u)
    ctx = _ctx_full()
    X, (x1, x2, x3) = _X(ctx, z2=True)
    g = ctx.param("g")
    E = ctx.adjoin_exp_u(g)
    grad = variational_derivative(E)
    F = [E]
    P = [(x1 * g ** 2 + x3) * E * ctx.u(1)]
    assert verify_association(X, grad, P, [F])


def test_nonexistence_exp_x_when_x3_nonzero():
    # no P with int e^(2x) u <-X-> P: the denominator link is unsolvable
    ctx = Context(("u",), ("x1", "x2", "x3"))
    X, _ = _X(ctx)
    E = ctx.adjoin_exp_x(ctx.const(2))
    grad = variational_derivative(E * ctx.u(0))
    u1 = ctx.u(1)
    space = AnsatzSpace(ctx, 2, 2, x_power=1, multipliers=[E, 1 / E],
                        denominators=[(u1, 2)])
    with pytest.raises(AnsatzExhausted):
        solve_operator_equation(X.den.apply, grad, space, escalations=0)


def test_nonexistence_exp_u_when_x2_nonzero():
    ctx = Context(("u",), ("x1", "x2", "x3"))
    X, _ = _X(ctx)
    E = ctx.adjoin_exp_u(ctx.const(2))
    grad = variational_derivative(E)
    u1 = ctx.u(1)
    space = AnsatzSpace(ctx, 2, 2, x_power=1, multipliers=[E, 1 / E],
                        denominators=[(u1, 2)])
    with pytest.raises(AnsatzExhausted):
        solve_operator_equation(X.den.apply, grad, space, escalations=0)


def test_nonexistence_one_when_x2_zero_x1x3_nonzero():
    # no int f with int f <-X-> 1: the numerator link Y F = 1 is unsolvable
    ctx = Context(("u",), ("x1", "x3"))
    x1, x3 = ctx.param("x1"), ctx.param("x3")
    X = liouville_fraction(ctx, x1, ctx.zero(), x3)
    u1 = ctx.u(1)
    space = AnsatzSpace(ctx, 2, 3, x_power=1, denominators=[(u1, 2)])
    with pytest.raises(AnsatzExhausted):
        solve_operator_equation(X.num.apply, [ctx.one()], space, escalations=0)


def test_nonexistence_uprime_when_x3_zero_x1x2_nonzero():
    ctx = Context(("u",), ("x1", "x2"))
    x1, x2 = ctx.param("x1"), ctx.param("x2")
    X = liouville_fraction(ctx, x1, x2, ctx.zero())
    u1 = ctx.u(1)
    space = AnsatzSpace(ctx, 2, 3, x_power=1, denominators=[(u1, 2)])
    with pytest.raises(AnsatzExhausted):
        solve_operator_equation(X.num.apply, [u1], space, escalations=0)


def test_expected_equations_catalog():
    eqs = expected_equations("kn")
    assert any("u'''" in e and "3/2" in e for e in eqs)
    assert expected_equations("liouville-iv-left") == ["u_tx = u + (u^3)_xx"]
    assert any("psi" in e for e in expected_equations("nls"))
    assert any("1/(2*u')" in e for e in expected_equations("kn0-left"))
    with pytest.raises(UnknownPreset):
        expected_equations("nope")


def test_generator_bracket_is_symbol_matrix():
    # fixture check: {u_i l u_j} of the two-component structure is its symbol
    from lenard.brackets import lambda_bracket
    from lenard.presets import load_nls
    pre = load_nls()
    ctx = pre.ctx
    u, v = ctx.gen(0, 0), ctx.gen(1, 0)
    sym = pre.extras["H_sum"].expand(-4)
    for i, fi in ((0, u), (1, v)):
        for j, fj in ((0, u), (1, v)):
            ser = lambda_bracket(pre.extras["H_sum"], fi, fj, -4)
            ref = sym.entries[j][i]
            assert (ser - ref).is_zero_to(-4)
