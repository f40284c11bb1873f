"""Undetermined-coefficient solving: the paper's kernel fixtures."""

from fractions import Fraction as Q

import pytest

from lenard.errors import AnsatzExhausted
from lenard.field import ONE_MONO, Context
from lenard.functional import variational_derivative
from lenard.jacobi import AtomChain
from lenard.operators import MatrixPsdOp, ScalarPsdOp
from lenard.solve import (AnsatzSpace, in_span, kernel_of, linear_solve,
                          reduce_span, solve_operator_equation)

from conftest import random_dfun


def m(f):
    return ScalarPsdOp.of_fun(f)


def test_kernel_d_over_usecond_d(ctx):
    # ker d (1/u'') d = span{1, u'}
    u2 = ctx.u(2)
    D = ScalarPsdOp.d(ctx)
    B = MatrixPsdOp.scalar(D.compose(m(1 / u2)).compose(D))
    ker = kernel_of(B, AnsatzSpace(ctx, 1, 2, x_power=1))
    assert len(ker) == 2
    assert in_span(ctx, ker, [ctx.one()])
    assert in_span(ctx, ker, [ctx.u(1)])


def test_kernel_d(ctx):
    ker = kernel_of(MatrixPsdOp.scalar(ScalarPsdOp.d(ctx)),
                    AnsatzSpace(ctx, 1, 2, x_power=1))
    assert len(ker) == 1 and ker[0][0].is_constant()


def test_kernel_inv_uprime_d(ctx):
    u1 = ctx.u(1)
    Z = MatrixPsdOp.scalar(ScalarPsdOp(ctx, {1: 1 / u1}))
    ker = kernel_of(Z, AnsatzSpace(ctx, 1, 2, x_power=1))
    assert len(ker) == 1 and ker[0][0].is_constant()


def test_kernel_with_sqrt_symbol():
    # ker(((x2+x3 u'^2)/u'')d - x3 u') = C sqrt(x2+x3 u'^2)
    ctx = Context(("u",), ("x2", "x3"))
    x2, x3 = ctx.param("x2"), ctx.param("x3")
    u1, u2 = ctx.u(1), ctx.u(2)
    s = ctx.adjoin_sqrt(x2 + x3 * u1 ** 2)
    Y = MatrixPsdOp.scalar(ScalarPsdOp(ctx, {1: (x2 + x3 * u1 ** 2) / u2,
                                             0: -x3 * u1}))
    ker = kernel_of(Y, AnsatzSpace(ctx, 1, 2, multipliers=[s],
                                   denominators=[(s, 1)]))
    assert len(ker) == 1
    assert in_span(ctx, ker, [s])


def test_kernel_with_exp_symbols():
    # ker(x1 d^2 + x2) = span{exp(c x), exp(-c x)}, c^2 = -x2/x1
    ctx = Context(("u",), ("x1", "x2"))
    x1, x2 = ctx.param("x1"), ctx.param("x2")
    ctx.add_derived_parameter("c12", -x2 / x1)
    E = ctx.adjoin_exp_x(ctx.param("c12"))
    Y = MatrixPsdOp.scalar(ScalarPsdOp(ctx, {2: x1, 0: x2}))
    ker = kernel_of(Y, AnsatzSpace(ctx, -1, 0, multipliers=[E, 1 / E]))
    assert len(ker) == 2
    assert in_span(ctx, ker, [E]) and in_span(ctx, ker, [1 / E])


def test_kernel_exp_u():
    # ker(x1 d(1/u')d + x3 u') = span{exp(c u), exp(-c u)}, c^2 = -x3/x1
    ctx = Context(("u",), ("x1", "x3"))
    x1, x3 = ctx.param("x1"), ctx.param("x3")
    u1 = ctx.u(1)
    ctx.add_derived_parameter("c13", -x3 / x1)
    E = ctx.adjoin_exp_u(ctx.param("c13"))
    D = ScalarPsdOp.d(ctx)
    Y = MatrixPsdOp.scalar(D.compose(m(1 / u1)).compose(D).scale(x1)
                           + m(x3 * u1))
    ker = kernel_of(Y, AnsatzSpace(ctx, -1, 0, multipliers=[E, 1 / E]))
    assert len(ker) == 2
    assert in_span(ctx, ker, [E]) and in_span(ctx, ker, [1 / E])


def test_kernel_kn_four_dimensional():
    ctx = Context(("u",))
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    Du1 = ((1 / u1) * (u2 / u1).total_derivative()).total_derivative()
    B = AtomChain(ctx, [("d", 1), ("mult", [[1 / u1]]), ("d", 1),
                        ("mult", [[1 / u1]]), ("d", 1),
                        ("mult", [[1 / Du1]]), ("d", 1)])
    space = AnsatzSpace(ctx, max_dord=3, max_degree=4, denominators=[(u1, 3)])
    ker = kernel_of(B.apply, space, ell=1)
    assert len(ker) == 4
    w = (u2 / u1).total_derivative()
    f2 = (1 / u1) * w
    f3 = (u / u1) * w - u2 / u1
    f4 = (u ** 2 / u1) * w - 2 * u * u2 / u1 + 2 * u1
    for f in (ctx.one(), f2, f3, f4):
        assert in_span(ctx, ker, [f])


def test_nls_kernels():
    from lenard.presets import load_nls
    pre = load_nls()
    ctx = pre.ctx
    u = ctx.gen(0, 0)
    space = AnsatzSpace(ctx, 0, 1, denominators=[(u, 1)])
    kerB = kernel_of(pre.H.den.apply, space, ell=2)
    assert len(kerB) == 1
    assert in_span(ctx, kerB, [ctx.zero(), 1 / u])
    kerC = kernel_of(pre.K.num.apply, space, ell=2)
    assert len(kerC) == 1
    b3 = ctx.param("b3")
    assert in_span(ctx, kerC, [-b3 * u, 1 / u])


def test_identity_solve(ctx, rng):
    rhs = [random_dfun(ctx, rng)]
    I = MatrixPsdOp.identity(ctx, 1)
    sol = solve_operator_equation(I, rhs, AnsatzSpace(ctx, 2, 3, x_power=1))
    assert sol.particular[0] == rhs[0]


def test_sqrt_seed_solve(ctx):
    # B F = delta int sqrt(b2+b3 u'^2) has F = -sqrt(...) + span{1, u'}
    u1, u2 = ctx.u(1), ctx.u(2)
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    D = ScalarPsdOp.d(ctx)
    B = MatrixPsdOp.scalar(D.compose(m(1 / u2)).compose(D))
    rhs = variational_derivative(s)
    sol = solve_operator_equation(
        B, rhs, AnsatzSpace(ctx, 1, 2, multipliers=[s], denominators=[(s, 1)]))
    assert sol.particular[0] == -s
    assert B.apply(sol.particular)[0] == rhs[0]


def test_ansatz_exhausted(ctx):
    # d F = u has no solution in the field (int u != 0)
    D = MatrixPsdOp.scalar(ScalarPsdOp.d(ctx))
    with pytest.raises(AnsatzExhausted):
        solve_operator_equation(D, [ctx.u(0)], AnsatzSpace(ctx, 1, 1),
                                escalations=1)


def test_escalation_finds_bigger_solutions(ctx):
    # u^3 needs degree 3: start at degree 2 and escalate once
    I = MatrixPsdOp.identity(ctx, 1)
    sol = solve_operator_equation(I, [ctx.u(0) ** 3],
                                  AnsatzSpace(ctx, 1, 2), escalations=1)
    assert sol.particular[0] == ctx.u(0) ** 3
    assert sol.space.max_degree == 3


def test_basis_linear_independence(ctx):
    # dedupe and span reduction keep the basis independent even with sqrt
    u1 = ctx.u(1)
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
    space = AnsatzSpace(ctx, 1, 2, multipliers=[s], denominators=[(s, 1)])
    basis = space.basis()
    keys = {f.key() for f in basis}
    assert len(keys) == len(basis)


def test_reduce_mod_span_returns_its_own_remainder(ctx):
    from lenard.solve import reduce_mod_span
    u, u1 = ctx.u(0), ctx.u(1)
    vectors = [[u, u1], [u1, ctx.one()], [u + u1, u1 + 1]]
    target = [3 * u + u1 * u1, 2 * u1 + 5]
    reduced, coeffs = reduce_mod_span(ctx, vectors, target)
    assert len(coeffs) == len(vectors)
    assert all(c.is_constant() for c in coeffs)
    combo = [sum((c * v[i] for c, v in zip(coeffs, vectors)), ctx.zero())
             for i in range(2)]
    assert all((t - s - r).is_zero() for t, s, r in zip(target, combo, reduced))
    # the in-span 3u is removed from the first component
    assert reduced[0] == u1 * u1


def test_span_questions_on_empty_and_zero_inputs(ctx):
    # the elimination itself answers the empty and zero cases
    from lenard.solve import reduce_mod_span
    u, u1, zero = ctx.u(0), ctx.u(1), ctx.zero()
    assert in_span(ctx, [], [zero]) and in_span(ctx, [[u]], [zero])
    assert not in_span(ctx, [], [u])
    assert reduce_mod_span(ctx, [], [u]) == ([u], [])
    reduced, coeffs = reduce_mod_span(ctx, [[zero], [u]], [u + u1])
    assert reduced == [u1] and coeffs == [zero, ctx.one()]
    assert reduce_span(ctx, [[zero, zero]]) == []


def _reduce_span_reference(ctx, vectors):
    """One elimination per vector: keep it unless the kept ones span it."""
    accepted = []
    for vec in vectors:
        if all(f.is_zero() for f in vec):
            continue
        if accepted:
            particular, _ = linear_solve(ctx, accepted, vec)
            if particular is not None:
                continue
        accepted.append(vec)
    return accepted


def _random_family(ctx, rng, ell, params):
    """Vectors with zero ones, repeated objects and constant combinations of
    earlier ones; with params some coefficients are parameters, so the
    elimination runs over the constant field rather than the rationals."""
    coeffs = [ctx.const(q) for q in (-2, -1, 1, 3)]
    if params:
        coeffs += [ctx.param("b2"), ctx.param("b3") + 1]
    out = []
    for _ in range(rng.randint(2, 9)):
        r = rng.random()
        if r < 0.15:
            out.append([ctx.zero()] * ell)
        elif r < 0.3 and out:
            out.append(rng.choice(out))
        elif r < 0.6 and out:
            v, w = rng.choice(out), rng.choice(out)
            a, b = rng.choice(coeffs), rng.choice(coeffs)
            out.append([a * f + b * g for f, g in zip(v, w)])
        else:
            vec = [random_dfun(ctx, rng, denominator=True) for _ in range(ell)]
            if ell == 2 and rng.random() < 0.3:
                vec[rng.randrange(2)] = ctx.zero()
            out.append(vec)
    if params:
        out.append([ctx.param("b2") * f for f in rng.choice(out)])
    return out


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("params", [False, True], ids=["rational", "parameter"])
def test_reduce_span_matches_the_per_vector_loop(ctx, rng, ell, params):
    for _ in range(25):
        vectors = _random_family(ctx, rng, ell, params)
        got = reduce_span(ctx, vectors)
        ref = _reduce_span_reference(ctx, vectors)
        assert [id(v) for v in got] == [id(v) for v in ref]


def test_reduce_span_is_one_elimination(ctx, monkeypatch):
    from lenard import solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return linear_solve(*args, **kwargs)

    monkeypatch.setattr(solve, "linear_solve", counted)
    u, u1 = ctx.u(0), ctx.u(1)
    vectors = [[u], [u1], [u + 2 * u1], [ctx.zero()], [u * u1]]
    assert reduce_span(ctx, vectors) == [vectors[0], vectors[1], vectors[4]]
    assert len(calls) == 1
    assert reduce_span(ctx, []) == [] and len(calls) == 1



def test_rational_elimination_divides_integers_exactly(ctx):
    # 3c = 1: integral operands, and the pivot's inverse is a Fraction, not a float
    particular, kernel = linear_solve(ctx, [[ctx.const(3)]], [ctx.one()])
    (c,) = particular
    assert c == ctx.const(Q(1, 3)) and kernel == []
    assert type(c.num[ONE_MONO]) is Q
