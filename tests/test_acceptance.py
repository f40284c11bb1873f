"""Acceptance suite: one criterion per test, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines and timings.  All symbolic comparisons are exact; Laurent
verdicts are floor-qualified at the floors stated here.
"""

import time
from fractions import Fraction as Q

import pytest

from lenard.brackets import (check_compatible, check_jacobi, check_skewadjoint,
                             evolutionary_bracket, lambda_bracket)
from lenard.chains import (extend_left, extend_right, predict_dord,
                           verify_higher_structures)
from lenard.field import Context, vec_eq
from lenard.functional import is_null_functional, variational_derivative
from lenard.jacobi import AtomChain, AtomStructure
from lenard.liouville import (EMPIRICAL_PATTERNS, classification_table,
                              classify, closed_form_family, empirical_class,
                              hodograph_dual)
from lenard.operators import (OperatorSum, RationalOpPair, ScalarPsdOp,
                              verify_fraction)
from lenard.presets import (liouville_fraction, liouville_spaces, load_kn,
                            load_kn0, load_liouville, load_nls,
                            nls_h_solver, nls_k_solver, nls_spaces)
from lenard.solve import AnsatzSpace, in_span, kernel_of

from conftest import random_dfun, series_agree_to


def _report(name, started, budget):
    elapsed = time.time() - started
    print("PASS %-38s %6.1fs (budget %ds)" % (name, elapsed, budget))
    assert elapsed < budget


def test_criterion_1_fraction_fixtures():
    """verify_fraction for the Liouville, KN and two-component fixtures."""
    t0 = time.time()
    # Liouville, all four sub-cases, generic symbolic coefficients
    for flags in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0)):
        names = [n for n, f in zip(("x1", "x2", "x3"), flags) if f]
        ctx = Context(("u",), tuple(names))
        vals = [ctx.param(n) if f else ctx.zero()
                for n, f in zip(("x1", "x2", "x3"), flags)]
        pair = liouville_fraction(ctx, *vals)
        u1 = ctx.u(1)
        terms = []
        if not vals[0].is_zero():
            terms.append((vals[0], AtomStructure(AtomChain(ctx, [("d", 1)]))))
        if not vals[1].is_zero():
            terms.append((vals[1], AtomStructure(AtomChain(ctx, [("d", -1)]))))
        if not vals[2].is_zero():
            terms.append((vals[2], AtomStructure(
                AtomChain(ctx, [("mult", [[u1]]), ("d", -1), ("mult", [[u1]])]))))
        S = OperatorSum(terms)
        frac = RationalOpPair.fraction(pair.num_op(), pair.den_op())
        assert verify_fraction(S, frac, -8), "liouville %s" % (flags,)
    # KN fractions (a symbolic, and the a = 0 form)
    pre = load_kn()
    frac = RationalOpPair.fraction(pre.H.num_op(), pre.H.den_op())
    assert verify_fraction(pre.extras["H_sum"], frac, -8)
    pre0 = load_kn0()
    frac0 = RationalOpPair.fraction(pre0.H.num_op(), pre0.H.den_op())
    assert verify_fraction(pre0.extras["H_sum"], frac0, -8)
    # the two-component fixtures
    pnls = load_nls()
    for S, P in ((pnls.extras["H_sum"], pnls.H), (pnls.extras["K_sum"], pnls.K)):
        frac = RationalOpPair.fraction(P.num_op(), P.den_op())
        assert verify_fraction(S, frac, -8)
    _report("criterion 1: fraction fixtures", t0, 10)


def test_criterion_2_kernel_fixtures():
    """Kernel bases: the four scalar cases and the four-dimensional KN kernel."""
    t0 = time.time()
    ctx = Context(("u",), ("x1", "x2", "x3"))
    u1, u2 = ctx.u(1), ctx.u(2)
    D = ScalarPsdOp.d(ctx)

    def m(f):
        return ScalarPsdOp.of_fun(f)

    from lenard.operators import MatrixPsdOp
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    # x2 x3 != 0: ker d(1/u'')d = C + C u'
    ker = kernel_of(MatrixPsdOp.scalar(D.compose(m(1 / u2)).compose(D)), sp)
    assert len(ker) == 2 and in_span(ctx, ker, [ctx.one()]) \
        and in_span(ctx, ker, [u1])
    # x2 != 0, x3 = 0: ker d = C
    ker = kernel_of(MatrixPsdOp.scalar(D), sp)
    assert len(ker) == 1 and in_span(ctx, ker, [ctx.one()])
    # x2 = 0, x3 != 0: ker (1/u')d = C
    ker = kernel_of(MatrixPsdOp.scalar(ScalarPsdOp(ctx, {1: 1 / u1})), sp)
    assert len(ker) == 1 and in_span(ctx, ker, [ctx.one()])
    # x2 = x3 = 0: ker 1 = 0
    ker = kernel_of(MatrixPsdOp.identity(ctx, 1), sp)
    assert len(ker) == 0
    # KN: ker B = span{f1, f2, f3, f4}
    ctx2 = Context(("u",))
    u, v1, v2 = ctx2.u(0), ctx2.u(1), ctx2.u(2)
    Du1 = ((1 / v1) * (v2 / v1).total_derivative()).total_derivative()
    B = AtomChain(ctx2, [("d", 1), ("mult", [[1 / v1]]), ("d", 1),
                         ("mult", [[1 / v1]]), ("d", 1),
                         ("mult", [[1 / Du1]]), ("d", 1)])
    ker = kernel_of(B.apply, AnsatzSpace(ctx2, 3, 4, denominators=[(v1, 3)]),
                    ell=1)
    w = (v2 / v1).total_derivative()
    f2 = (1 / v1) * w
    f3 = (u / v1) * w - v2 / v1
    f4 = (u ** 2 / v1) * w - 2 * u * v2 / v1 + 2 * v1
    assert len(ker) == 4
    for f in (ctx2.one(), f2, f3, f4):
        assert in_span(ctx2, ker, [f])
    _report("criterion 2: kernel fixtures", t0, 30)


def test_criterion_3_poisson_and_compatibility():
    """Skewadjointness and Jacobi at floors (-8,-8) for every fixture family."""
    t0 = time.time()
    floors = (-8, -8)
    ctx = Context(("u",))
    u1 = ctx.u(1)

    def chain(*atoms):
        return AtomStructure(AtomChain(ctx, list(atoms)))

    L1 = chain(("d", 1))
    L2 = chain(("d", -1))
    L3 = chain(("mult", [[u1]]), ("d", -1), ("mult", [[u1]]))
    scalars = [("L1", L1), ("L2", L2), ("L3", L3)]
    for name, L in scalars:
        assert check_skewadjoint(L, -8).holds, name
        assert check_jacobi(L, floors).holds, name
    for (n1, A), (n2, B) in [(scalars[0], scalars[1]), (scalars[0], scalars[2]),
                             (scalars[1], scalars[2])]:
        assert check_compatible(A, B, floors).holds, (n1, n2)
    # Sokolov / Dorfman pair
    dorf = chain(("d", -1), ("mult", [[u1]]), ("d", -1), ("mult", [[u1]]),
                 ("d", -1))
    assert check_skewadjoint(dorf, -8).holds
    assert check_jacobi(dorf, floors).holds
    assert check_compatible(L3, dorf, floors).holds
    # the two-component triple
    ctx2 = Context(("u", "v"))
    uu, vv = ctx2.gen(0, 0), ctx2.gen(1, 0)
    one, zero = ctx2.one(), ctx2.zero()
    M1 = AtomStructure(AtomChain(ctx2, [("mult", [[one, zero], [zero, one]]),
                                        ("d", 1)], 2))
    M2 = AtomStructure(AtomChain(ctx2, [("mult", [[zero, -one], [one, zero]])], 2))
    M3 = AtomStructure(AtomChain(ctx2, [("mult", [[vv], [-uu]]), ("d", -1),
                                        ("mult", [[vv, -uu]])], 2))
    mats = [("M1", M1), ("M2", M2), ("M3", M3)]
    for name, L in mats:
        assert check_skewadjoint(L, -8).holds, name
        assert check_jacobi(L, floors).holds, name
    for (n1, A), (n2, B) in [(mats[0], mats[1]), (mats[0], mats[2]),
                             (mats[1], mats[2])]:
        assert check_compatible(A, B, floors).holds, (n1, n2)
    _report("criterion 3: Poisson/compatibility", t0, 300)


def test_criterion_4_s_type_first_equations():
    """The first hierarchy members from the seeds, exactly."""
    t0 = time.time()
    # cases (i)-(iv): corrected closed form (the displayed last term gains u')
    pre = load_liouville("i")
    ctx = pre.ctx
    u1, u2, u3 = ctx.u(1), ctx.u(2), ctx.u(3)
    a1, a2, a3 = pre.extras["a"]
    b2, b3 = pre.extras["b"][1:]
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    g = b2 + b3 * u1 ** 2
    spF, spG = liouville_spaces(ctx, b2, b3)
    extend_right(pre.chain, spF, spG, steps=1)
    P0 = pre.chain.steps[-1].P[0]
    assert P0 == -(a1 * b2 * b3 * u3) / (g * s) \
        + 3 * a1 * b2 * b3 ** 2 * u1 * u2 ** 2 / (g ** 2 * s) \
        + (a3 * b2 - a2 * b3) * u1 / s
    assert pre.chain.verify()
    # cases (v),(vii)
    pre = load_liouville("v")
    ctx = pre.ctx
    u1, u3 = ctx.u(1), ctx.u(3)
    a1, a2, a3 = pre.extras["a"]
    b2 = pre.extras["b"][1]
    spF, spG = liouville_spaces(ctx, b2, pre.extras["b"][2])
    extend_right(pre.chain, spF, spG, steps=1)
    assert pre.chain.steps[-1].P[0] == \
        a1 / b2 * u3 + a2 / b2 * u1 + a3 / (2 * b2) * u1 ** 3
    # cases (ix),(x)
    pre = load_liouville("ix")
    ctx = pre.ctx
    u1, u2, u3 = ctx.u(1), ctx.u(2), ctx.u(3)
    a1, a2, a3 = pre.extras["a"]
    b3 = pre.extras["b"][2]
    spF, spG = liouville_spaces(ctx, pre.extras["b"][1], b3)
    extend_right(pre.chain, spF, spG, steps=1)
    assert pre.chain.steps[-1].P[0] == \
        -(a1 / b3) * u3 / u1 ** 3 + 3 * (a1 / b3) * u2 ** 2 / u1 ** 4 \
        + a2 / (2 * b3) / u1 ** 2 + a3 / b3
    # KN: P4 modulo the documented free constants
    pre = load_kn(a_value=1)
    ctx = pre.ctx
    u, u1, u2, u3 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
    extend_right(pre.chain, None, None, steps=1,
                 den_kernel=[[f] for f in pre.extras["kernel_B"]])
    P4 = pre.chain.steps[-1].P[0]
    core = u3 - Q(3, 2) * u2 ** 2 / u1
    assert in_span(ctx, [[ctx.one()], [u], [u * u], [u1]], [P4 - core])
    assert pre.chain.verify()
    # NLS: P2 exactly
    pre = load_nls()
    spF, spG = nls_spaces(pre.ctx)
    extend_right(pre.chain, spF, spG, steps=1, k_solver=nls_k_solver(pre),
                 h_solver=nls_h_solver(pre))
    assert vec_eq(pre.chain.steps[-1].P, pre.extras["P2"])
    assert pre.chain.verify()
    _report("criterion 4: S-type first equations", t0, 600)


def test_criterion_5_c_type_closed_forms():
    """Closed families verify both links for n <= 5; hodograph for n <= 4."""
    t0 = time.time()
    closed_form_family("sqrt", {"a2": None, "a3": None, "b2": None,
                                "b3": None}, 5)
    closed_form_family("odd-powers", {"a2": None, "a3": None, "b2": None}, 5)
    closed_form_family("inverse-powers", {"a2": None, "a3": None,
                                          "b3": None}, 5)
    closed_form_family("exp-x", {"a1": None, "a2": None, "b1": None,
                                 "b2": None}, 5)
    closed_form_family("case6b", {"a1": None, "a3": None, "b1": None}, 5)
    ctxh, seqh = closed_form_family(
        "odd-powers", {"a2": None, "a3": None, "b2": None}, 4, verify=False)
    ctxi, seqi = closed_form_family(
        "inverse-powers", {"a2": None, "a3": None, "b3": None}, 4, verify=False)
    for k in range(5):
        Ph = seqh[k][0].bind_params({"a2": 3, "a3": 5, "b2": 7})
        Pi = seqi[k][0].bind_params({"a3": 3, "a2": 5, "b3": 7})
        assert str(hodograph_dual(ctxh, Ph)) == str(Pi)
    _report("criterion 5: C-type closed forms", t0, 120)


def test_criterion_6_classification():
    """The zero-pattern table plus engine-derived classes on representatives."""
    t0 = time.time()
    table = classification_table()
    assert len(table) == 64
    counts = {}
    for _, _, cls in table:
        counts[cls] = counts.get(cls, 0) + 1
    assert counts == {"S-type": 8, "C1-type": 7, "C2-type": 10,
                      "finite": 11, "blocked": 10, "proportional": 18}
    assert len(EMPIRICAL_PATTERNS) >= 6
    for (a, b), (expected, strategy) in EMPIRICAL_PATTERNS.items():
        assert classify(tuple(map(bool, a)), tuple(map(bool, b))) == expected
        assert empirical_class(a, b) == expected, strategy
    _report("criterion 6: classification", t0, 600)


def test_criterion_7_left_extensions():
    """Blocked-case renderings and the finite-type backward step."""
    t0 = time.time()
    g0 = {"gamma%d" % i: 0 for i in range(1, 9)}
    # raw form of the u^3 equation (short pulse scaling below)
    pre = load_liouville("iv")
    ctx = pre.ctx
    u, u1 = ctx.u(0), ctx.u(1)
    a1, b2, b3 = ctx.param("a1"), ctx.param("b2"), ctx.param("b3")
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    extend_left(pre.chain, sp, sp, steps=2, left_P=[u1])
    assert pre.chain.left_status.kind == "blocked"
    eq = pre.chain.left_status.equation
    assert eq.rhs_kernel.bind_params(g0) == b2 * u / a1
    assert eq.rhs_dxx.bind_params(g0) == b3 * u ** 3 / (6 * a1)
    bind = dict(g0, a1=1, b2=1, b3=6)
    assert eq.rhs_kernel.bind_params(bind) == u         # u_tx = u + (u^3)_xx
    assert eq.rhs_dxx.bind_params(bind) == u ** 3
    # exponential blocked case, single branch and the two-branch scaling
    pre = load_liouville("iii")
    ctx = pre.ctx
    a1, a3 = ctx.param("a1"), ctx.param("a3")
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    ctx.add_derived_parameter("a13", -a3 / a1)
    c = ctx.param("a13")
    E = ctx.adjoin_exp_u(c)
    al = ctx.param("al")
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    extend_left(pre.chain, sp, sp, steps=2, left_P=[ctx.zero()],
                left_F=[E + al / E])
    eq = pre.chain.left_status.equation
    assert eq.rhs_kernel.bind_params(g0) == c * b2 * (E - al / E)
    assert eq.rhs_dxx.bind_params(g0) == b3 * (E - al / E) / c
    # single branch is the raw exponential equation
    pre2 = load_liouville("vii")
    ctx2 = pre2.ctx
    a1b, a3b, b2b = ctx2.param("a1"), ctx2.param("a3"), ctx2.param("b2")
    ctx2.add_derived_parameter("a13", -a3b / a1b)
    c2 = ctx2.param("a13")
    E2 = ctx2.adjoin_exp_u(c2)
    sp2 = AnsatzSpace(ctx2, 1, 2, x_power=1)
    extend_left(pre2.chain, sp2, sp2, steps=2, left_P=[ctx2.zero()],
                left_F=[E2])
    eq2 = pre2.chain.left_status.equation
    assert eq2.rhs_kernel.bind_params(g0) == c2 * b2b * E2
    assert eq2.rhs_dxx is None or eq2.rhs_dxx.bind_params(g0).is_zero()
    # the a = 0 backward obstruction
    pre3 = load_kn0()
    ctx3 = pre3.ctx
    u1 = ctx3.u(1)
    sp3 = AnsatzSpace(ctx3, 0, 2)
    extend_left(pre3.chain, sp3, sp3, steps=2, left_P=[ctx3.one()])
    eq3 = pre3.chain.left_status.equation
    gname = sorted(n for n in ctx3.params if n.startswith("gamma"))[0]
    gamma = ctx3.param(gname)
    assert eq3.rhs == 1 / (2 * u1) + gamma * u1
    assert [k for k, _ in eq3.lhs_atoms] == ["d", "mult", "d"]
    # a != 0: finite type with a vanishing new gradient
    pre4 = load_kn(a_value=1)
    ctx4 = pre4.ctx
    u, v1 = ctx4.u(0), ctx4.u(1)
    spG4 = AnsatzSpace(ctx4, 0, 2)
    spF4 = AnsatzSpace(ctx4, 3, 5, denominators=[(v1, 3)], weight_max=3)
    extend_left(pre4.chain, spG4, spF4, steps=1,
                left_P=[ctx4.one() + u + u * u])
    assert pre4.chain.left_status.kind == "finite-type"
    assert all(g.is_zero() for g in pre4.chain.left_steps[-1].grad)
    _report("criterion 7: left extensions", t0, 120)


def test_criterion_8_dord_bookkeeping():
    """Recorded differential orders match the predictions over 3 solved steps."""
    t0 = time.time()
    pre = load_kn(a_value=1)
    extend_right(pre.chain, None, None, steps=3,
                 den_kernel=[[f] for f in pre.extras["kernel_B"]])
    recorded = {s.index: s.dords() for s in pre.chain.steps}
    for n in (4, 5, 6):
        assert recorded[n] == (2 * n - 5, 2 * n - 2)
    pred = predict_dord(pre.chain)
    for idx, dp, dg in pred["predictions"]:
        assert recorded[idx] == (dp, dg)
    assert pred["independent"]

    pre2 = load_nls()
    spF, spG = nls_spaces(pre2.ctx)
    extend_right(pre2.chain, spF, spG, steps=3, k_solver=nls_k_solver(pre2),
                 h_solver=nls_h_solver(pre2))
    for s in pre2.chain.steps:
        assert s.dords() == (s.index, s.index)
    pred2 = predict_dord(pre2.chain)
    rec2 = {s.index: s.dords() for s in pre2.chain.steps}
    for idx, dp, dg in pred2["predictions"]:
        assert rec2[idx] == (dp, dg)
    _report("criterion 8: dord bookkeeping", t0, 300)


def test_criterion_9_involution():
    """{int h_m, int h_n} = 0 for both structures, all computed pairs m,n <= 2."""
    t0 = time.time()
    # NLS: nontrivial densities
    pre = load_nls()
    spF, spG = nls_spaces(pre.ctx)
    extend_right(pre.chain, spF, spG, steps=1, k_solver=nls_k_solver(pre),
                 h_solver=nls_h_solver(pre))
    steps = {s.index: s for s in pre.chain.steps}
    ctx = pre.ctx
    for m in (0, 1, 2):
        for n in (0, 1, 2):
            # H-bracket: int h_m --H--> P_(m+1)
            if m + 1 in steps:
                P = steps[m + 1].P
                density = sum((p * g for p, g in zip(P, steps[n].grad)),
                              ctx.zero())
                assert is_null_functional(density), ("nls H", m, n)
            # K-bracket: int h_m --K--> P_m
            P = steps[m].P
            density = sum((p * g for p, g in zip(P, steps[n].grad)),
                          ctx.zero())
            assert is_null_functional(density), ("nls K", m, n)
    # KN: the densities h_0..h_2 vanish; the checks are exact zeros
    pre2 = load_kn(a_value=1)
    extend_right(pre2.chain, None, None, steps=1,
                 den_kernel=[[f] for f in pre2.extras["kernel_B"]])
    steps2 = {s.index: s for s in pre2.chain.steps}
    ctx2 = pre2.ctx
    for m in (0, 1, 2):
        for n in (0, 1, 2):
            for P in (steps2[m + 1].P, steps2[m].P):
                density = sum((p * g for p, g in zip(P, steps2[n].grad)),
                              ctx2.zero())
                assert is_null_functional(density), ("kn", m, n)
    _report("criterion 9: involution spot-check", t0, 120)


def test_criterion_10_property_suites():
    """Randomized structural identities, zero failures."""
    import random
    t0 = time.time()
    rng = random.Random(733)
    ctx = Context(("u",), ("b2", "b3"))
    u1 = ctx.u(1)
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
    E = ctx.adjoin_exp_u(ctx.const(2))
    # commutation rule, 200 cases
    for _ in range(200):
        f = random_dfun(ctx, rng, max_dord=2, max_degree=3)
        n = rng.randint(1, 3)
        lhs = f.total_derivative().partial(0, n) \
            - f.partial(0, n).total_derivative()
        assert lhs == f.partial(0, n - 1)
    # delta of a total derivative vanishes (with adjoined symbols)
    for _ in range(40):
        f = random_dfun(ctx, rng, max_dord=1, max_degree=2, symbols=(s, E),
                        denominator=True)
        td = f.total_derivative()
        assert all(v.is_zero() for v in variational_derivative(td))
    # composition associativity, 100 random triples with dord <= 2
    for _ in range(100):
        A = ScalarPsdOp(ctx, {rng.randint(-1, 1): random_dfun(ctx, rng)})
        B = ScalarPsdOp(ctx, {rng.randint(-1, 1): random_dfun(ctx, rng)})
        C = ScalarPsdOp(ctx, {rng.randint(-1, 1): random_dfun(ctx, rng)})
        lhs = A.compose(B, -8).compose(C, -5)
        rhs = A.compose(B.compose(C, -8), -5)
        assert lhs.eq_to_floor(rhs, -4)
    # adjoint involution
    for _ in range(50):
        A = ScalarPsdOp(ctx, {1: random_dfun(ctx, rng),
                              -1: random_dfun(ctx, rng)})
        assert A.adjoint(-8).adjoint(-6).eq_to_floor(A, -6)
    # sesquilinearity and left Leibniz for the Sokolov bracket
    L3 = AtomStructure(AtomChain(ctx, [("mult", [[u1]]), ("d", -1),
                                       ("mult", [[u1]])]))
    for _ in range(10):
        f = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        g = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        h = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        lhs = lambda_bracket(L3, f.total_derivative(), g, -5)
        rhs = lambda_bracket(L3, f, g, -6).shift_power(1) * ctx.const(-1)
        assert series_agree_to(lhs, rhs, -4)
        lhs = lambda_bracket(L3, f, g * h, -5)
        rhs = lambda_bracket(L3, f, g, -5) * h \
            + lambda_bracket(L3, f, h, -5) * g
        assert series_agree_to(lhs, rhs, -4)
    # evolutionary bracket: antisymmetry exactly, Jacobi on 50 triples
    for _ in range(50):
        P = [random_dfun(ctx, rng, max_dord=2, max_degree=2)]
        Qv = [random_dfun(ctx, rng, max_dord=2, max_degree=2)]
        R = [random_dfun(ctx, rng, max_dord=2, max_degree=2)]
        ab = evolutionary_bracket(P, Qv)
        ba = evolutionary_bracket(Qv, P)
        assert all((x + y).is_zero() for x, y in zip(ab, ba))
        jac = evolutionary_bracket(P, evolutionary_bracket(Qv, R))
        jac = [a + b for a, b in zip(jac, evolutionary_bracket(
            Qv, evolutionary_bracket(R, P)))]
        jac = [a + b for a, b in zip(jac, evolutionary_bracket(
            R, evolutionary_bracket(P, Qv)))]
        assert all(x.is_zero() for x in jac)
    _report("criterion 10: property suites", t0, 300)
