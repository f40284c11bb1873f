"""Pseudodifferential operator arithmetic and the fraction fixtures."""

import time
from fractions import Fraction as Q

import pytest

from lenard.errors import InsufficientTruncation, NotDifferential, ZeroDivisor
from lenard.field import Context
from lenard.jacobi import AtomChain
from lenard.operators import (MatrixPsdOp, OperatorSum, RationalOpPair,
                              ScalarPsdOp, _binomial_shift, binom, default_floor,
                              is_nondegenerate, right_lcm, skew_divide,
                              verify_fraction)

from conftest import random_dfun, series_agree_to, shift


def m(f):
    return ScalarPsdOp.of_fun(f)


def test_compose_leibniz(ctx):
    u, u1 = ctx.u(0), ctx.u(1)
    D = ScalarPsdOp.d(ctx)
    c = D.compose(m(u))
    assert c.coeffs[1] == u and c.coeffs[0] == u1 and c.floor is None


def test_compose_inverse_tail(ctx):
    # d^-1 u' = u' d^-1 - u'' d^-2 + u''' d^-3 - ...
    u1, u2, u3 = ctx.u(1), ctx.u(2), ctx.u(3)
    c = ScalarPsdOp.d(ctx, -1).compose(m(u1), -4)
    assert c.coeffs[-1] == u1 and c.coeffs[-2] == -u2 and c.coeffs[-3] == u3


@pytest.mark.parametrize("zero_left", [True, False], ids=["zero-left", "zero-right"])
@pytest.mark.parametrize("floors, requested, expected", [
    ((None, None), None, (None, None)), ((None, None), -5, (-5, -5)),
    ((-3, None), None, (-3, None)), ((None, -4), -6, (-6, -3)),
    ((-3, -7), None, (-3, -6)), ((-7, -3), -2, (-2, -2)),
], ids=["exact", "exact-requested", "left-floor", "right-floor-requested",
        "both-floors", "both-floors-requested"])
def test_compose_with_a_zero_operand_joins_the_floors(ctx, zero_left, floors,
                                                      requested, expected):
    # the requested floor joins the one the operands support: a zero known
    # from l^f, times an operand of top t, is known from f + t (the nonzero
    # operand here has top 0 on the right and 1 on the left), and an exact
    # zero makes the product exact
    u = ctx.u(0)
    left = ScalarPsdOp(ctx, {} if zero_left else {1: u, -2: u}, floors[0])
    right = ScalarPsdOp(ctx, {0: u, -1: u} if zero_left else {}, floors[1])
    c = left.compose(right, requested)
    assert c.is_zero() and c.floor == expected[0 if zero_left else 1]


def test_zero_operand_floor_rises_by_the_other_operands_top(ctx):
    # a zero known from l^-5 times d^3 is known from l^-2, as a nonzero
    # operand known from l^-5 would be; zeros known from l^-5 and l^-4 hold
    # nothing above l^-6 and l^-5, so their product is known from l^-10
    zero, d3 = ScalarPsdOp.zero(ctx, -5), ScalarPsdOp.d(ctx, 3)
    assert zero.compose(d3).floor == d3.compose(zero).floor == -2
    assert ScalarPsdOp(ctx, {-4: ctx.u(0)}, -5).compose(d3).floor == -2
    assert zero.compose(ScalarPsdOp.zero(ctx, -4)).floor == -10


def _shift_by_definition(h, t, floor):
    """sum binom(q, k) h_q D^k(t_p) at degree q+p-k, one (q, p) at a time,
    each D^k taken from t_p itself."""
    ctx = next(iter(t.values())).ctx
    out = {}
    for q, a in h.items():
        for p, c in t.items():
            kmax = q if floor is None else q + p - floor  # q >= 0 without a floor
            if q >= 0:
                kmax = min(kmax, q)
            for k in range(kmax + 1):
                term = c.derivative(k) * a * Q(binom(q, k))
                out[q + p - k] = out.get(q + p - k, ctx.zero()) + term
    return {n: c for n, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("powers, floor", [((0, 1, 3), None), ((-2, -1, 0, 2), -4)])
def test_binomial_shift_against_definition(ctx, rng, powers, floor):
    # several q and several p: each t_p's tower serves every q, and h_q
    # (a function, never a unit) multiplies each degree's sum once
    for _ in range(5):
        h = {q: random_dfun(ctx, rng, max_dord=1) + ctx.const(2) for q in powers}
        t = {p: random_dfun(ctx, rng, max_dord=1) for p in (-1, 0, 2)}
        got = _binomial_shift(h, t, floor)
        assert got == _shift_by_definition(h, t, floor)


def test_shift_of_a_jet_function_without_floor_raises_at_once(ctx):
    # no derivative of 1/u' vanishes, so d^-1 o 1/u' has an infinite tail
    chain = AtomChain(ctx, [("d", -1), ("mult", [[1 / ctx.u(1)]])])
    t0 = time.perf_counter()
    with pytest.raises(InsufficientTruncation):
        chain.to_operator()
    assert time.perf_counter() - t0 < 1.0


def test_shift_of_a_quasiconstant_keeps_its_finite_tail(ctx):
    # d^-1 o x^2 = x^2 d^-1 - 2x d^-2 + 2 d^-3
    x = ctx.x()
    got = ScalarPsdOp.d(ctx, -1).compose(m(x * x))
    assert got.floor is None
    assert got.coeffs == {-1: x * x, -2: ctx.const(-2) * x, -3: ctx.const(2)}


def test_compose_identity(ctx, rng):
    for _ in range(10):
        B = ScalarPsdOp(ctx, {2: random_dfun(ctx, rng), 0: random_dfun(ctx, rng)})
        assert (ScalarPsdOp.identity(ctx).compose(B) - B).is_zero()


def test_compose_associativity_to_floor(ctx, rng):
    for _ in range(30):
        A = ScalarPsdOp(ctx, {rng.randint(-1, 1): random_dfun(ctx, rng)})
        B = ScalarPsdOp(ctx, {rng.randint(-1, 1): random_dfun(ctx, rng)})
        C = ScalarPsdOp(ctx, {rng.randint(-1, 1): random_dfun(ctx, rng)})
        fl = -6
        lhs = A.compose(B, fl - 3).compose(C, fl)
        rhs = A.compose(B.compose(C, fl - 3), fl)
        assert lhs.eq_to_floor(rhs, fl + 2)


def test_adjoint_basics(ctx):
    u1 = ctx.u(1)
    D = ScalarPsdOp.d(ctx)
    assert (D.adjoint() + D).is_zero()
    sok = m(u1).compose(ScalarPsdOp.d(ctx, -1), -8).compose(m(u1))
    assert (sok.adjoint(-6) + sok.truncate(-6)).eq_to_floor(
        ScalarPsdOp.zero(ctx), -6)


def test_adjoint_involution_and_antihomomorphism(ctx, rng):
    for _ in range(20):
        A = ScalarPsdOp(ctx, {1: random_dfun(ctx, rng), -1: random_dfun(ctx, rng)})
        B = ScalarPsdOp(ctx, {0: random_dfun(ctx, rng), 1: random_dfun(ctx, rng)})
        assert A.adjoint(-8).adjoint(-6).eq_to_floor(A, -6)
        lhs = A.compose(B, -8).adjoint(-6)
        rhs = B.adjoint(-8).compose(A.adjoint(-8), -6)
        assert lhs.eq_to_floor(rhs, -6)


def test_matrix_adjoint_constant():
    ctx = Context(("u", "v"))
    one, zero = ctx.one(), ctx.zero()
    L2 = MatrixPsdOp([[ScalarPsdOp.of_fun(zero), ScalarPsdOp.of_fun(-one)],
                      [ScalarPsdOp.of_fun(one), ScalarPsdOp.of_fun(zero)]])
    assert (L2.adjoint() + L2).is_zero()


def test_apply(ctx):
    u, u1 = ctx.u(0), ctx.u(1)
    D = ScalarPsdOp.d(ctx)
    assert D.apply(u) == u1
    with pytest.raises(NotDifferential):
        ScalarPsdOp.d(ctx, -1).apply(u)


def test_apply_dord_law(ctx, rng):
    # dord(DF) = dord(F) + |D| when the leading coefficient is invertible
    u2 = ctx.u(2)
    D = ScalarPsdOp(ctx, {2: ctx.one(), 0: ctx.u(0)})
    for _ in range(10):
        F = random_dfun(ctx, rng, max_dord=2, max_degree=2)
        d = F.dord()
        if d in (0, 1, 2):
            got = MatrixPsdOp.scalar(D).apply([F])[0].dord()
            assert got == d + 2


def test_exp_kernel_application(ctx):
    # (d^2 + 1) e^(cx) = 0 when c^2 = -1
    c = ctx.add_derived_parameter("i0", ctx.const(-1))
    E = ctx.adjoin_exp_x(ctx.param("i0"))
    D2 = ScalarPsdOp(ctx, {2: ctx.one(), 0: ctx.one()})
    assert D2.apply(E).is_zero()


def test_skew_divide(ctx):
    u1 = ctx.u(1)
    D = ScalarPsdOp.d(ctx)
    q, r = skew_divide(D.compose(D), D)
    assert (q - D).is_zero() and r.is_zero()
    A = D.compose(D).compose(m(1 / u1))
    q, r = skew_divide(A, D)
    assert r.order() < 1
    assert (q.compose(D) + r - A).is_zero()
    q, r = skew_divide(A, A)
    assert (q - ScalarPsdOp.identity(ctx)).is_zero() and r.is_zero()
    with pytest.raises(ZeroDivisor):
        skew_divide(D, ScalarPsdOp.zero(ctx))


def test_right_lcm(ctx):
    u1 = ctx.u(1)
    D = ScalarPsdOp.d(ctx)
    Bt, At = right_lcm(D, D)
    assert (D.compose(Bt) - D.compose(At)).is_zero()
    assert D.compose(Bt).order() == 1
    for A, B in [(m(u1), D), (D.compose(m(1 / u1)), D),
                 (D.compose(D), D.compose(m(u1)))]:
        Bt, At = right_lcm(A, B)
        assert (A.compose(Bt) - B.compose(At)).is_zero()


def test_nondegeneracy(ctx):
    u2 = ctx.u(2)
    D = ScalarPsdOp.d(ctx)
    B = D.compose(m(1 / u2)).compose(D)
    assert is_nondegenerate(MatrixPsdOp.scalar(B))
    assert not is_nondegenerate(MatrixPsdOp.zero(ctx, 1, 1))


def test_nondegeneracy_matrix():
    ctx = Context(("u", "v"))
    u, v = ctx.gen(0, 0), ctx.gen(1, 0)
    D = ScalarPsdOp.d(ctx)
    B = MatrixPsdOp([[ScalarPsdOp.identity(ctx), ScalarPsdOp.zero(ctx)],
                     [ScalarPsdOp.of_fun(v / u),
                      ScalarPsdOp.of_fun(1 / u).compose(D).compose(
                          ScalarPsdOp.of_fun(u))]])
    assert is_nondegenerate(B)
    inv = B.inverse(-6)
    assert B.compose(inv, -4).eq_to_floor(MatrixPsdOp.identity(ctx, 2), -4)


def test_inverse_of_negative_order_makes_its_bottom_corrections(ctx):
    """An error term at degree e is corrected at e - N, above e for N < 0,
    so the error must be formed |N| below the floor."""
    u, one = ctx.u(0), ctx.one()
    B = ScalarPsdOp(ctx, {-1: one, -6: u})
    inv = B.inverse(-4)
    assert inv.floor == -4 and inv.coeffs == {1: one, -4: -u}
    assert inv.eq_to_floor(B.inverse(-8), -4)
    assert B.compose(inv, -5).eq_to_floor(ScalarPsdOp.identity(ctx), -5)


def test_inverse_of_a_floored_operator_with_a_term_at_its_floor(ctx):
    """Every stored coefficient is exact, so a term at the floor degree is
    no reason to refuse; compose checks the floor the inverse asks for."""
    u, one = ctx.u(0), ctx.one()
    exact = ScalarPsdOp(ctx, {1: one, 0: ctx.const(2), -3: u})
    B = ScalarPsdOp(ctx, exact.coeffs, -3)
    assert B.inverse(-4).eq_to_floor(exact.inverse(-4), -4)
    with pytest.raises(InsufficientTruncation):
        B.inverse(-6)


def test_fraction_trivial(ctx):
    D = ScalarPsdOp.d(ctx)
    one = RationalOpPair.fraction(ScalarPsdOp.identity(ctx), D)
    assert verify_fraction(RationalOpPair.fraction(D, ScalarPsdOp.identity(ctx)),
                           RationalOpPair.fraction(D.compose(D), D), -8)
    exp = one.expand(-5)
    assert exp.entries[0][0].coeffs == {-1: ctx.one()}


def test_sokolov_fraction_two_routes(ctx):
    # u' d^-1 u' expands identically as the fraction u' ((1/u') d)^-1
    u1 = ctx.u(1)
    D = ScalarPsdOp.d(ctx)
    direct = m(u1).compose(ScalarPsdOp.d(ctx, -1), -8).compose(m(u1))
    frac = RationalOpPair.fraction(m(u1), ScalarPsdOp(ctx, {1: 1 / u1}))
    assert frac.expand(-8).entries[0][0].eq_to_floor(direct, -8)


def test_default_floor(ctx):
    D3 = ScalarPsdOp.d(ctx, 3)
    assert default_floor(D3) == -(2 * 3 + 6)


def test_identity_2012_style(ctx):
    # u'd^-1(u''/u') - u''d^-1 + (u''/u')'d^-1 u'd^-1 - u'd^-1 D(u')d^-1 u'd^-1 = 0
    u1, u2 = ctx.u(1), ctx.u(2)
    Dm1 = ScalarPsdOp.d(ctx, -1)
    w = (u2 / u1).total_derivative()
    Du1 = ((1 / u1) * (u2 / u1).total_derivative()).total_derivative()
    t1 = m(u1).compose(Dm1, -10).compose(m(u2 / u1))
    t2 = m(u2).compose(Dm1, -10)
    t3 = m(w).compose(Dm1, -10).compose(m(u1)).compose(Dm1)
    t4 = m(u1).compose(Dm1, -10).compose(m(Du1)).compose(Dm1).compose(
        m(u1)).compose(Dm1)
    assert (t1 - t2 + t3 - t4).eq_to_floor(ScalarPsdOp.zero(ctx), -8)


def test_floor_formula_by_reexpansion(ctx, rng):
    # composing floored operators shrinks the floor by the documented rule:
    # recomputing from deeper inputs agrees everywhere above it
    u1 = ctx.u(1)
    A_exact = ScalarPsdOp.d(ctx, -1).compose(m(u1), -12)
    B_exact = ScalarPsdOp.d(ctx, -1).compose(m(ctx.u(0)), -12)
    A = A_exact.truncate(-5)
    B = B_exact.truncate(-6)
    out = A.compose(B)
    expected_floor = max(A.floor + int(B.order()), B.floor + int(A.order()))
    assert out.floor == expected_floor
    deep = A_exact.compose(B_exact, -10)
    assert out.eq_to_floor(deep, out.floor)


def test_fraction_times_denominator(ctx):
    # expand(A B^-1) o B reproduces A on the window the expansion is accurate to
    u1, u2 = ctx.u(1), ctx.u(2)
    D = ScalarPsdOp.d(ctx)
    A = D.compose(D).compose(m(1 / u2)).compose(D) \
        + ScalarPsdOp(ctx, {1: (1 + u1 ** 2) / u2, 0: -u1})
    B = D.compose(m(1 / u2)).compose(D)
    H = RationalOpPair.fraction(A, B)
    A, B = H.pairs[0]
    fl = default_floor(A, B)
    prod = H.expand(fl).compose(B, fl + int(B.order()))
    assert prod.eq_to_floor(A, prod.floor())


def test_compose_agrees_with_successive_application(ctx, rng):
    # apply works on a derivative tower of its own, not on the shift kernel
    for _ in range(6):
        A = ScalarPsdOp(ctx, {n: random_dfun(ctx, rng, max_dord=1)
                              for n in range(rng.randint(0, 2) + 1)})
        B = ScalarPsdOp(ctx, {n: random_dfun(ctx, rng, max_dord=1, denominator=True)
                              for n in range(rng.randint(0, 2) + 1)})
        f = random_dfun(ctx, rng)
        assert A.compose(B).apply(f) == A.apply(B.apply(f))


def test_shift_group_law_to_floor(ctx, rng):
    # (l+d)^a (l+d)^b = (l+d)^(a+b), each shift a composition (conftest.shift)
    floor = -5
    ser = ScalarPsdOp(ctx, {1: random_dfun(ctx, rng, max_dord=1),
                            0: random_dfun(ctx, rng, max_dord=1),
                            -1: random_dfun(ctx, rng, max_dord=1)})
    for a in range(-2, 3):
        for b in range(-2, 3):
            two = shift(shift(ser, b, floor), a, floor)
            one = shift(ser, a + b, floor)
            fl = max(two.floor, one.floor)
            assert series_agree_to(two, one, fl), (a, b)
            assert fl <= floor + max(a, 0)


def test_jet_partials_match_partial(ctx, rng):
    u1 = ctx.u(1)
    e = ctx.adjoin_exp_u(ctx.const(3))
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 * u1)
    samples = [random_dfun(ctx, rng, denominator=True, symbols=(e, s))
               for _ in range(6)] + [e * ctx.u(2), s / u1, ctx.param("b2")]
    for f in samples:
        want = {n: f.partial(0, n) for n in range(5)}
        want = {n: p for n, p in want.items() if not p.is_zero()}
        got = f.jet_partials(0)
        assert sorted(got) == sorted(want)
        assert all(got[n] == want[n] for n in want)
        assert f.jet_partials(0) is got


def test_skew_divide_right(ctx):
    u1 = ctx.u(1)
    D = ScalarPsdOp.d(ctx)
    q, r = skew_divide(D.compose(D), D, side="right")
    assert (q - D).is_zero() and r.is_zero()
    A = D.compose(D).compose(m(1 / u1))
    for B in (D, A):
        q, r = skew_divide(A, B, side="right")
        assert r.is_zero() or r.order() < B.order()
        assert (B.compose(q) + r - A).is_zero()
    with pytest.raises(ZeroDivisor):
        skew_divide(D, ScalarPsdOp.zero(ctx), side="right")
    with pytest.raises(NotDifferential):
        skew_divide(D, A.inverse(-4), side="right")


def _adjoint_product(H):
    """(Bn*)^-1 An* ... (B1*)^-1 A1*, the adjoint of the chain
    A1 B1^-1 ... An Bn^-1, as a chain over the adjoint pairs."""
    adj = [(a.adjoint(), b.adjoint()) for a, b in reversed(H.pairs)]
    ident = MatrixPsdOp.identity(H.ctx, H.ell)
    return RationalOpPair(list(zip([ident] + [a for a, _ in adj],
                                   [b for _, b in adj] + [ident])))


def _adjoint_chain_matches(H, floor):
    """The adjoint chain's expansion equals the product of inverted adjoints."""
    from lenard.operators import structure_sum
    got = structure_sum(H).adjoint_sum().expand(floor)
    assert got.eq_to_floor(_adjoint_product(H).expand(floor), floor)
    # adjoint twice gives the chain back
    assert structure_sum(H).adjoint_sum().adjoint_sum().terms[0][1] is H


@pytest.mark.parametrize("pid", ["kn0", "nls"])
def test_adjoint_chain_expansion(pid):
    from lenard.presets import load_preset
    H = load_preset(pid).H
    _adjoint_chain_matches(RationalOpPair.fraction(H.num_op(), H.den_op()), -6)


@pytest.mark.parametrize("pid", ["kn0", "nls"])
def test_fraction_pairs_are_skewadjoint(pid):
    from lenard.brackets import check_skewadjoint
    from lenard.presets import load_preset
    pre = load_preset(pid)
    for P in (pre.H, pre.K):
        assert check_skewadjoint(RationalOpPair.fraction(P.num_op(), P.den_op()), -8).holds


def test_adjoint_chain_expansion_three_pairs():
    from lenard.presets import load_preset
    pre = load_preset("kn0")
    H, K = pre.H, pre.K
    chain = RationalOpPair([(H.num_op(), H.den_op()), (K.den_op(), K.num_op()),
                            (H.num_op(), H.den_op())])
    _adjoint_chain_matches(chain, -5)
