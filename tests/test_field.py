"""Field arithmetic, derivations and the adjoined-symbol catalog."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenard import field
from lenard.brackets import check_jacobi
from lenard.errors import ExponentOverflow, ZeroDivisor
from lenard.chains import extend_right
from lenard.field import (EXP_LIMIT, Context, DFun, NEG_INF, ONE_MONO, _den_cofactor,
                          _den_lcm, _den_merge, mono_div, mono_gcd, mono_items, mono_mul,
                          mono_pack, mono_var, poly_add_into, poly_exact_div, poly_lead,
                          poly_mul, poly_scale)
from lenard.jacobi import AtomChain, AtomStructure
from lenard.operators import MatrixPsdOp, ScalarPsdOp
from lenard.presets import load_nls, nls_h_solver, nls_k_solver, nls_spaces
from lenard.solve import AnsatzSpace, in_span, kernel_of

from conftest import random_dfun


def test_total_derivative_generator(ctx):
    u, u1 = ctx.u(0), ctx.u(1)
    assert u.total_derivative() == u1


def test_total_derivative_leibniz(ctx):
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    assert (u * u1).total_derivative() == u1 * u1 + u * u2


def test_total_derivative_sqrt_symbol(ctx):
    # s = sqrt(b2 + b3 u'^2): differentiate the relation and divide by 2s
    u1, u2 = ctx.u(1), ctx.u(2)
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    assert s.total_derivative() == b3 * u1 * u2 / s


def test_partial_derivatives(ctx):
    u1, u2 = ctx.u(1), ctx.u(2)
    x = ctx.x()
    assert (u1 ** 2).partial(0, 1) == 2 * u1
    assert (x * u2).partial(0, 2) == x
    assert (x * u2).partial(0, 1).is_zero()


def test_partial_of_kn_kernel_density():
    # D(u') expands to u''''/u'^2 - 4 u''u'''/u'^3 + 3 u''^3/u'^4
    ctx = Context(("u",))
    u1, u2 = ctx.u(1), ctx.u(2)
    Du1 = ((1 / u1) * (u2 / u1).total_derivative()).total_derivative()
    assert Du1.partial(0, 4) == 1 / u1 ** 2


def test_dord(ctx):
    u1, u2 = ctx.u(1), ctx.u(2)
    x = ctx.x()
    assert (x * x).dord() == NEG_INF
    assert (u2 / u1).dord() == 2
    assert ctx.param("b2").dord() == NEG_INF


def test_dord_kn_first_equation():
    ctx = Context(("u",))
    u1, u2, u3 = ctx.u(1), ctx.u(2), ctx.u(3)
    P4 = u3 - Q(3, 2) * u2 ** 2 / u1
    assert P4.dord() == 3


def test_canonical_cancellation(ctx):
    u1, u2 = ctx.u(1), ctx.u(2)
    f = (u1 * u1 - u2 * u2) / (u1 + u2)
    assert f == u1 - u2
    assert (f + (-f)).is_zero()


def test_mul_div_roundtrip(ctx, rng):
    for _ in range(25):
        f = random_dfun(ctx, rng, denominator=True)
        g = random_dfun(ctx, rng, denominator=True)
        if g.is_zero():
            continue
        assert (f * g) / g == f


def test_division_by_zero(ctx):
    with pytest.raises(ZeroDivisor):
        ctx.one() / ctx.zero()


def test_derived_parameter_relation(ctx):
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    c = ctx.add_derived_parameter("c", -b3 / b2)
    cf = ctx.param("c")
    assert cf * cf == -b3 / b2
    # powers >= 2 never survive canonicalization
    assert not any(v == c and e >= 2 for m in (cf ** 5).num for v, e in mono_items(m))


def test_exp_symbols(ctx):
    g = ctx.param("b2")
    E = ctx.adjoin_exp_x(g)
    assert E.total_derivative() == g * E
    assert ((1 / E) * E).is_one()
    Eu = ctx.adjoin_exp_u(ctx.const(2))
    assert Eu.total_derivative() == 2 * ctx.u(1) * Eu
    assert Eu.partial(0, 0) == 2 * Eu


def test_exp_catalog_rejects_nonconstant_rate(ctx):
    with pytest.raises(ValueError):
        ctx.adjoin_exp_x(ctx.u(0))


def test_commutation_rule_random(ctx, rng):
    # [d/du^(n), d] f = d f/du^(n-1) on random polynomial inputs
    for _ in range(60):
        f = random_dfun(ctx, rng, max_dord=2, max_degree=3)
        for n in (1, 2, 3):
            lhs = f.total_derivative().partial(0, n) \
                - f.partial(0, n).total_derivative()
            assert lhs == f.partial(0, n - 1)


def test_commutation_rule_n_zero(ctx, rng):
    # at n = 0 the commutator is the x-chain contribution only
    for _ in range(20):
        f = random_dfun(ctx, rng, max_dord=1, max_degree=2)
        lhs = f.total_derivative().partial(0, 0) \
            - f.partial(0, 0).total_derivative()
        # [d/du, d] = 0 on V: the jet chain ends at u^(0)
        assert lhs.is_zero()


def test_dord_of_total_derivative(ctx, rng):
    for _ in range(30):
        f = random_dfun(ctx, rng, max_dord=2, max_degree=2)
        d = f.dord()
        if d == NEG_INF or f.total_derivative().is_zero():
            continue
        assert f.total_derivative().dord() == d + 1


def test_filtration_law_fixture(ctx):
    # no constructed counterexample to dV cap V_N = d V_(N-1) arises:
    # a total derivative of order N+1 with dord N comes from a V_(N-1) element
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    g = u * u1 + u ** 3
    td = g.total_derivative()
    assert td.dord() == g.dord() + 1


def test_multi_generator_context(ctx2):
    u, v = ctx2.gen(0, 0), ctx2.gen(1, 0)
    v1 = ctx2.gen(1, 1)
    f = u * v1
    assert f.partial(1, 1) == u
    assert f.total_derivative() == ctx2.gen(0, 1) * v1 + u * ctx2.gen(1, 2)


def test_degenerate_context_quasiconstants():
    # ell = 0: the field degenerates to quasiconstants
    ctx = Context((), ("k",))
    x = ctx.x()
    f = (x ** 2 + ctx.param("k")) / x
    assert f.dord() == NEG_INF
    assert f.total_derivative() == (x ** 2 - ctx.param("k")) / x ** 2


def test_bind_params(ctx):
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    f = b2 * ctx.u(1) + b3
    assert f.bind_params({"b2": 2, "b3": Q(1, 3)}) == 2 * ctx.u(1) + Q(1, 3)


# -- packed monomials against the tuple form they replaced -------------------


def _var_id(f):
    (mono,) = f.num
    return mono_items(mono)[0][0]


def _tuple_mul(a, b):
    """Oracle: the product of sorted ((var_id, exp), ...) tuples."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] < b[j][0]:
            out.append(a[i]); i += 1
        elif b[j][0] < a[i][0]:
            out.append(b[j]); j += 1
        else:
            e = a[i][1] + b[j][1]
            if e:
                out.append((a[i][0], e))
            i += 1; j += 1
    return tuple(out + list(a[i:]) + list(b[j:]))


def _tuple_div(a, b):
    """Oracle: a / b for tuples, or None when b does not divide a."""
    out = []
    i = j = 0
    while j < len(b):
        vb, eb = b[j]
        while i < len(a) and a[i][0] < vb:
            out.append(a[i]); i += 1
        if i == len(a) or a[i][0] != vb or a[i][1] < eb:
            return None
        e = a[i][1] - eb
        if e:
            out.append((vb, e))
        i += 1; j += 1
    return tuple(out + list(a[i:]))


def _tuple_gcd(a, b):
    """Oracle: each variable's lower power in tuples a and b, both positive."""
    eb = dict(b)
    return tuple((v, min(e, eb[v])) for v, e in a if e > 0 and eb.get(v, 0) > 0)


def _tuple_sortkey(ctx, mono):
    """Oracle: the graded key of a tuple monomial; a variable's place is the
    number of variables ranked above it."""
    pairs = sorted((sum(r > ctx._rank[v] for r in ctx._rank), -e) for v, e in mono)
    return (-sum(e for _, e in mono), *pairs, (float("inf"),))


def _tuple_top_degrees(monos):
    """Oracle: each variable's highest exponent; None once one is negative."""
    top = {}
    for m in monos:
        for v, e in m:
            t = top.get(v, 0)
            if t is not None and (e < 0 or e > t):
                top[v] = None if e < 0 else e
    return top


def _oracle_vars():
    """A context with jets of two generators, x, parameters, a derived
    parameter, a sqrt symbol and two exp symbols: [(var_id, laurent)]."""
    ctx = Context(("u", "v"), ("b2", "b3"))
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    funs = [ctx.gen(i, n) for i in range(2) for n in range(4)] + [ctx.x(), b2, b3]
    funs.append(ctx.adjoin_sqrt(b2 + b3 * ctx.u(1) ** 2))
    funs.append(ctx.adjoin_exp_x(b2))
    funs.append(ctx.adjoin_exp_u(ctx.const(2), 1))
    vids = [_var_id(f) for f in funs] + [ctx.add_derived_parameter("c", -b3 / b2)]
    return ctx, [(v, ctx.laurent[v]) for v in vids]


_ORACLE_CTX, _ORACLE_VARS = _oracle_vars()


@st.composite
def _tuple_monos(draw):
    """A tuple monomial: exponents mostly small, some anywhere in the field,
    negative only for exp symbols."""
    out = {}
    for v, laurent in draw(st.lists(st.sampled_from(_ORACLE_VARS), max_size=5, unique=True)):
        low = -EXP_LIMIT if laurent else 0
        e = draw(st.one_of(st.integers(max(low, -3), 3), st.integers(low, EXP_LIMIT - 1)))
        if e:
            out[v] = e
    return tuple(sorted(out.items()))


def _in_field(mono):
    return all(-EXP_LIMIT <= e < EXP_LIMIT for _, e in mono)


def test_widen_leaves_the_band_constants_alone_inside_their_width():
    """A registration inside the ids the band constants cover leaves them
    the same objects, with no division made; a wider one widens them to
    exactly the new ids."""
    Context(("u",))  # covers at least the id of x
    ones, qb, hb, width = field._ONES, field._QB, field._HB, field._WIDTH
    for n in (1, width - 1, width):
        field._widen(n)
        assert (field._ONES, field._QB, field._HB, field._WIDTH) == (ones, qb, hb, width)
        assert field._ONES is ones and field._QB is qb and field._HB is hb
    field._widen(width + 3)
    want = sum(1 << (field.EXP_BITS * v) for v in range(width + 3))
    assert field._WIDTH == width + 3
    assert (field._ONES, field._QB, field._HB) == (
        want, want << (field.EXP_BITS - 2), want << (field.EXP_BITS - 1))


@settings(max_examples=400, deadline=None)
@given(_tuple_monos(), _tuple_monos())
# b does not divide a, though the exponents it shares with a overflow
@example(((12, EXP_LIMIT - 1),), ((12, -1), (13, 1)))
def test_packed_monomials_match_the_tuple_form(a, b):
    """Round trip, product, quotient (None included), gcd and sort key of
    packed monomials agree with the tuple form; a product or quotient with
    an exponent outside the field raises instead."""
    ctx = _ORACLE_CTX
    pa, pb = mono_pack(a), mono_pack(b)
    assert mono_items(pa) == a and mono_items(pb) == b
    want = _tuple_mul(a, b)
    if _in_field(want):
        assert mono_mul(pa, pb) == pa + pb and mono_items(pa + pb) == want
        assert poly_mul({pa: 2, ONE_MONO: 1}, {pb: 3}) == {pa + pb: 6, pb: 3}
    else:
        with pytest.raises(ExponentOverflow):
            mono_mul(pa, pb)
        with pytest.raises(ExponentOverflow):
            poly_mul({pa: 2, ONE_MONO: 1}, {pb: 3})
    for ta, tb in [(a, b), (_tuple_mul(a, b), b)]:
        if not _in_field(ta):
            continue
        want = _tuple_div(ta, tb)
        if want is None:
            assert mono_div(mono_pack(ta), pb) is None
        elif _in_field(want):
            assert mono_items(mono_div(mono_pack(ta), pb)) == want
        else:
            with pytest.raises(ExponentOverflow):
                mono_div(mono_pack(ta), pb)
    assert mono_items(mono_gcd(pa, pb)) == _tuple_gcd(a, b)
    assert field._top_degrees({pa: 1, pb: 1, ONE_MONO: 1}) == _tuple_top_degrees([a, b])
    assert ctx.mono_sortkey(pa) == _tuple_sortkey(ctx, a)
    assert ((ctx.mono_sortkey(pa) < ctx.mono_sortkey(pb))
            == (_tuple_sortkey(ctx, a) < _tuple_sortkey(ctx, b)))


def test_exponents_leaving_the_field_raise():
    """A product or power whose exponent reaches the field's limit raises;
    one below the limit is kept exactly, and no field wraps into the next."""
    ctx = Context(("u",))
    u, E = ctx.u(0), ctx.adjoin_exp_x(1)
    uid, eid = _var_id(u), _var_id(E)
    for vid in (uid, eid):
        assert mono_items(mono_pack([(vid, EXP_LIMIT - 1)])) == ((vid, EXP_LIMIT - 1),)
        with pytest.raises(ExponentOverflow):
            mono_pack([(vid, EXP_LIMIT)])
    assert mono_items(mono_pack([(eid, -EXP_LIMIT)])) == ((eid, -EXP_LIMIT),)
    with pytest.raises(ExponentOverflow):
        mono_pack([(eid, -EXP_LIMIT - 1)])
    # repeated squaring of one monomial
    f = u * E
    for _ in range(30):
        f = f * f
    assert f.num == {mono_pack([(uid, 1 << 30), (eid, 1 << 30)]): 1}
    with pytest.raises(ExponentOverflow):
        f * f
    g = f * (f / (u * E))
    assert g.num == {mono_pack([(uid, EXP_LIMIT - 1), (eid, EXP_LIMIT - 1)]): 1}
    assert "u^%d" % (EXP_LIMIT - 1) in str(g)
    for h in (u, E, u + 1):
        with pytest.raises(ExponentOverflow):
            g * h
    # a negative Laurent exponent: E^(-2^31) lies in the field, E^(-2^31-1) not
    h = 1 / E
    for _ in range(31):
        h = h * h
    assert h.num == {mono_pack([(eid, -EXP_LIMIT)]): 1}
    with pytest.raises(ExponentOverflow):
        h / E
    # a derivative: u'' * u'^(2^31-1) has the term u''^2 * u'^(2^31-2), but
    # u' * u''^(2^31-1) the term u''^(2^31) * u'^0
    u1, u2 = mono_var(ctx.gen_var(0, 1)), mono_var(ctx.gen_var(0, 2))
    top = DFun(ctx, {u2 + (EXP_LIMIT - 1) * u1: 1}, (), normalized=True)
    assert top.total_derivative().num == {
        2 * u2 + (EXP_LIMIT - 2) * u1: EXP_LIMIT - 1,
        mono_var(ctx.gen_var(0, 3)) + (EXP_LIMIT - 1) * u1: 1}
    with pytest.raises(ExponentOverflow):
        DFun(ctx, {u1 + (EXP_LIMIT - 1) * u2: 1}, (), normalized=True).total_derivative()
    # exact division: (u'^2 * u^(2^31-2)) / (u'^2 + u^2) takes the quotient
    # term u^(2^31-2), whose product with u^2 leaves the field
    a = {2 * u1 + (EXP_LIMIT - 2) * mono_var(uid): 1}
    with pytest.raises(ExponentOverflow):
        poly_exact_div(ctx, a, {2 * u1: 1, 2 * mono_var(uid): 1})
    # a power raises before its first product (it would take ~2^31 of them)
    for base, k in [(u, EXP_LIMIT), (u * u, EXP_LIMIT // 2), (E, -EXP_LIMIT - 1),
                    (1 / (u + E), EXP_LIMIT)]:
        with pytest.raises(ExponentOverflow):
            base ** k


def test_a_power_by_squaring_equals_its_product_one_factor_at_a_time(rng):
    """By key and by print, with composite denominators, a sqrt symbol and
    an exp symbol; u'^(2^30) takes 30 squarings."""
    ctx = Context(("u",), ("b2", "b3"))
    s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * ctx.u(1) ** 2)
    E = ctx.adjoin_exp_u(ctx.const(2))
    for _ in range(12):
        f = (random_dfun(ctx, rng, denominator=True, symbols=(s, E))
             / random_dfun(ctx, rng, max_degree=1, symbols=(s,)))
        for k in range(-4, 8):
            want = ctx.one()
            for _ in range(abs(k)):
                want = want * (f if k > 0 else 1 / f)
            got = f ** k
            assert (got.key(), str(got)) == (want.key(), str(want))
    big = ctx.u(1) ** (EXP_LIMIT // 2)
    assert big.num == {(EXP_LIMIT // 2) * mono_var(ctx.gen_var(0, 1)): 1}


# -- exact division: the heap loop against the max-scan loop it replaced -----


def _max_scan_sortkey(ctx, mono):
    """The graded key of the max-scan division: degree, then the (rank,
    exponent) pairs from the highest-ranked variable down."""
    pairs = mono_items(mono)
    deg = sum(e for _, e in pairs)
    return (deg, tuple(sorted(((ctx._rank[v], e) for v, e in pairs), reverse=True)))


_DIVERGES = "diverges"


def _max_scan_div(ctx, a, b):
    """Oracle: exact division that scans the whole remainder for its leading
    monomial on every step.  Returns _DIVERGES after 200 steps: with Laurent
    exponents the graded order is not a well-order, and a division such as
    1 / (1 + exp(x)^-1) never ends."""
    if not a:
        return {}

    def lead(p):
        return max(p, key=lambda m: _max_scan_sortkey(ctx, m))

    lb = lead(b)
    cb = b[lb]
    rem = dict(a)
    quo = {}
    for _ in range(200):
        if not rem:
            return quo
        la = lead(rem)
        m = mono_div(la, lb)
        if m is None:
            return None
        c = rem[la] / cb
        quo[m] = c
        for mb, v in poly_mul({m: c}, b).items():
            nv = rem.get(mb, 0) - v
            if nv:
                rem[mb] = nv
            else:
                del rem[mb]
    return _DIVERGES if rem else quo


def _division_vars(ctx, laurent=True):
    """(var id, lowest, highest exponent) for jets, x, parameters, a derived
    parameter, a sqrt symbol and two exp symbols, whose exponents may be
    negative unless laurent is False."""
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    low = -2 if laurent else 0
    out = [(_var_id(ctx.u(n)), 0, 3) for n in range(3)]
    out += [(_var_id(ctx.x()), 0, 2), (_var_id(b2), 0, 2), (_var_id(b3), 0, 2)]
    out.append((ctx.add_derived_parameter("c", -b3 / b2), 0, 1))
    out.append((_var_id(ctx.adjoin_sqrt(b2 + b3 * ctx.u(1) ** 2)), 0, 1))
    out.append((_var_id(ctx.adjoin_exp_x(b2)), low, 2))
    out.append((_var_id(ctx.adjoin_exp_u(ctx.const(2))), low, 2))
    return out


def _random_mono(rng, pool):
    picks = rng.sample(pool, rng.randint(0, 3))
    return mono_pack(sorted((v, e) for v, lo, hi in picks
                            for e in [rng.randint(lo, hi)] if e))


def _random_poly(rng, pool, terms):
    out = {}
    for _ in range(terms):
        c = Q(rng.randint(-5, 5), rng.randint(1, 3))
        if c:
            out[_random_mono(rng, pool)] = c
    return out


def _division_cases(rng, pool, count):
    """(a, b, q): a = q*b, plus a random remainder in about half the cases."""
    for _ in range(count):
        b = {}
        while not b:
            b = _random_poly(rng, pool, rng.randint(1, 4))
        q = _random_poly(rng, pool, rng.randint(0, 5))
        a = poly_mul(q, b)
        if rng.random() < 0.5:
            for m, c in _random_poly(rng, pool, rng.randint(1, 3)).items():
                a[m] = a.get(m, 0) + c
                if not a[m]:
                    del a[m]
        yield a, b, q


@pytest.mark.parametrize("laurent", [False, True], ids=["polynomial", "laurent"])
def test_sortkey_order_matches_max_scan_key(ctx, rng, laurent):
    pool = _division_vars(ctx, laurent)
    monos = list({_random_mono(rng, pool) for _ in range(400)})
    assert (sorted(monos, key=ctx.mono_sortkey)
            == sorted(monos, key=lambda m: _max_scan_sortkey(ctx, m), reverse=True))
    for _ in range(50):
        p = _random_poly(rng, pool, 6)
        if p:
            assert poly_lead(ctx, p) == max(p, key=lambda m: _max_scan_sortkey(ctx, m))


@pytest.mark.parametrize("laurent", [False, True], ids=["polynomial", "laurent"])
def test_exact_div_matches_max_scan(ctx, rng, laurent):
    """Same quotient, term for term and in the same order, and the same None.
    The heap loop takes the oracle's steps, so it is only run where the
    oracle ends."""
    pool = _division_vars(ctx, laurent)
    exact = inexact = 0
    for a, b, q in _division_cases(rng, pool, 400):
        want = _max_scan_div(ctx, a, b)
        if want is _DIVERGES:
            assert laurent
            continue
        got = poly_exact_div(ctx, a, b)
        if want is None:
            assert got is None
            inexact += 1
            continue
        assert got is not None and list(got.items()) == list(want.items())
        assert poly_mul(got, b) == a
        if not laurent and a == poly_mul(q, b):
            assert got == q
        exact += 1
    assert exact > 100 and inexact > 100


def test_exact_div_against_sympy(ctx, rng):
    sympy = pytest.importorskip("sympy")
    pool = _division_vars(ctx, laurent=False)
    gens = sympy.symbols("v0:%d" % (max(v for v, _, _ in pool) + 1))

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[gens[v] ** e for v, e in mono_items(m)])
                    for m, c in p.items()), sympy.Integer(0))

    for a, b, _ in _division_cases(rng, pool, 120):
        got = poly_exact_div(ctx, a, b)
        quo, rem = sympy.div(expr(a), expr(b), *gens, domain="QQ")
        assert (got is None) == (rem != 0)
        if got is not None:
            assert sympy.expand(expr(got) - quo) == 0


def test_degree_test_passes_over_negative_exponents():
    """E^-1*u + 1 = E^-1 * (u + E): b's degree in E exceeds a's, yet the
    quotient exists, so the degree test may not read E, whose exponents in
    a go negative; it still rejects by u's degree."""
    ctx = Context(("u",))
    E, u = ctx.adjoin_exp_x(1), ctx.u(0)
    a, b = (u / E + 1).num, (u + E).num
    assert poly_exact_div(ctx, a, b) == (1 / E).num
    assert poly_exact_div(ctx, a, (u * u + E).num) is None


def test_laurent_denominator_ends_and_is_canonical():
    """A division by 1 + E^-1 need not end (its leading monomial 1 divides
    every term), so the factor is cleared to E + 1 first; the same value
    reached two ways gets one key."""
    import signal

    def timeout(signum, frame):
        raise TimeoutError("field arithmetic did not end")

    ctx = Context(("u",))
    E = ctx.adjoin_exp_x(1)
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        a = ctx.one() / (1 + 1 / E)
        b = E / (E + 1)
        c = 1 / (E + E * E)
        d = 1 / E / (1 + E)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert a.key() == b.key() and str(a) == str(b)
    assert c.key() == d.key()


def test_numerator_laurent_content_cancels():
    """(1 + E^-1)/(E + 1) is E^-1: the numerator's own Laurent content is a
    unit, cleared before the exact division, so the cancellation is found."""
    ctx = Context(("u",))
    E = ctx.adjoin_exp_x(1)
    u = ctx.u(0)
    for got, want in [((1 + 1 / E) / (E + 1), 1 / E),
                      ((E ** -2 + E ** -1) / (E + 1), E ** -2),
                      ((E * u + u / E) / (E * E + 1), u / E)]:
        assert got.key() == want.key() and str(got) == str(want)


# -- derivations: the one-quotient-rule kernel against per-variable loops ------


def _poly_partial(a, vid):
    out = {}
    for m, c in a.items():
        e = dict(mono_items(m)).get(vid, 0)
        if e:
            key = m - mono_var(vid)
            out[key] = out.get(key, 0) + c * e
            if not out[key]:
                del out[key]
    return out


def _loop_formal_partial(f, vid):
    """Oracle: one field element per denominator factor, added one by one."""
    ctx = f.ctx
    out = DFun(ctx, _poly_partial(f.num, vid), f.den)
    for idx, (g, e) in enumerate(f.den):
        dg = _poly_partial(g, vid)
        if dg:
            den = list(f.den)
            den[idx] = (g, e + 1)
            out = out + DFun(ctx, poly_mul(poly_scale(f.num, Q(-e)), dg), tuple(den))
    return out


def _loop_total_derivative(f):
    """Oracle: one field element per variable, added one by one."""
    ctx = f.ctx
    out = ctx.zero()
    for vid in sorted(f._vars()):
        d = _loop_formal_partial(f, vid)
        if d.is_zero():
            continue
        key = ctx.var_key(vid)
        if key[0] == "x":
            out = out + d
        elif key[0] == "u":
            out = out + d * ctx.gen(key[1], key[2] + 1)
        elif key[0] == "s":
            out = out + d * ctx.sym_dlog[vid] * ctx.var_fun(vid)
    return out


def _random_fraction(ctx, rng, pool):
    """A random numerator over one to three composite factors (two or more
    terms each), a factor sometimes repeated or raised to a power."""
    num = {}
    while not num:
        num = _random_poly(rng, pool, rng.randint(1, 4))
    den = []
    for _ in range(rng.randint(1, 3)):
        g = {}
        while len(g) < 2:
            g = _random_poly(rng, pool, rng.randint(2, 3))
        den.append((g, rng.randint(1, 2)))
        if rng.random() < 0.3:
            den.append((g, 1))
    return DFun(ctx, num, tuple(den))


@pytest.mark.parametrize("laurent", [False, True], ids=["polynomial", "laurent"])
def test_derivations_match_per_variable_loops(ctx, rng, laurent):
    pool = _division_vars(ctx, laurent)
    for _ in range(60):
        f = _random_fraction(ctx, rng, pool)
        assert f.total_derivative().key() == _loop_total_derivative(f).key()
        for vid in sorted(f._vars()):
            assert f._formal_partial(vid).key() == _loop_formal_partial(f, vid).key()


def _per_symbol_total_derivative(f):
    """Oracle: the jet part by one quotient rule, then, for each symbol s, its
    rule d/ds * dlog(s) * s added as a field element of its own."""
    ctx = f.ctx
    ratios, rates = field._jet_images(ctx, f._vars())
    out = f._derive(ratios)
    for sid in rates:
        d = f._formal_partial(sid)
        if not d.is_zero():
            out = out + d * ctx.sym_dlog[sid] * ctx.var_fun(sid)
    return out


def _per_symbol_partial(f, i, n):
    """Oracle: d/du_i^(n), then, for each symbol s, its chain rule
    d/ds * dlog(s)/du_i^(n) * s added as a field element of its own."""
    ctx = f.ctx
    out = f._formal_partial(ctx.gen_var(i, n))
    for sid in sorted(f._vars()):
        rate = ctx.sym_plog[sid].get((i, n)) if ctx.is_symbol_var(sid) else None
        if rate is not None:
            out = out + f._formal_partial(sid) * rate * ctx.var_fun(sid)
    return out


@st.composite
def _symbol_elements(draw):
    """Sums of products over jets, x, parameters, s = sqrt(b3 u'^2 + b2) and
    E = exp(b2 u), over up to two denominators, s*g = s^3 among them."""
    ctx = Context(("u",), ("b2", "b3"))
    u, u1, b2, b3 = ctx.u(0), ctx.u(1), ctx.param("b2"), ctx.param("b3")
    g = b3 * u1 ** 2 + b2
    s, E = ctx.adjoin_sqrt(g), ctx.adjoin_exp_u(b2)
    atoms = [u, u1, ctx.u(2), ctx.x(), b2, b3, s, E, 1 / E]
    out = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = ctx.const(draw(st.integers(-3, 3).filter(bool)))
        for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
            term = term * a
        out = out + term
    for den in draw(st.lists(st.sampled_from([u1, u + 1, s * g, s * g + s, s + u, E + u1,
                                              u1 ** 2 + b2 * s]), max_size=2)):
        out = out / den
    return out


@settings(max_examples=60, deadline=None)
@given(f=_symbol_elements())
def test_symbol_derivatives_match_the_per_symbol_rules(f):
    assert f.total_derivative() == _per_symbol_total_derivative(f)
    for i, n in f.jet_vars():
        assert f.partial(i, n) == _per_symbol_partial(f, i, n)


@st.composite
def _normalized_elements(draw):
    """Sums of products over jets, x, parameters, a derived parameter
    c (c^2 = -b3/b2), s = sqrt(b3 u'^2 + b2), exp(b2 u) and exp(b2 x), with
    their inverses, over up to two denominators."""
    ctx = Context(("u",), ("b2", "b3"))
    u, u1, x, b2, b3 = ctx.u(0), ctx.u(1), ctx.x(), ctx.param("b2"), ctx.param("b3")
    g = b3 * u1 ** 2 + b2
    s, Eu, Ex = ctx.adjoin_sqrt(g), ctx.adjoin_exp_u(b2), ctx.adjoin_exp_x(b2)
    c = ctx.var_fun(ctx.add_derived_parameter("c", -b3 / b2))
    atoms = [u, u1, ctx.u(2), x, b2, b3, c, s, Eu, 1 / Eu, Ex, 1 / Ex]
    out = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = ctx.const(draw(st.sampled_from([1, -1, 2, Q(-3, 2)])))
        for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
            term = term * a
        out = out + term
    for den in draw(st.lists(st.sampled_from([u1, b2, u + 1, s * g, s + u, Eu + u1,
                                              Ex + b2, c * u1 + c, 2 * x + 1]),
                             max_size=2)):
        out = out / den
    return out


@settings(max_examples=80, deadline=None)
@given(f=_normalized_elements())
def test_normalize_is_idempotent_on_normalized_elements(f):
    """An element, its total derivative and its inverse come back from
    _normalize unchanged, so a product with one may return the other
    operand as it is (zero times one is zero)."""
    one = f.ctx.one()
    for g in [f, f.total_derivative()] + ([1 / f] if f else []):
        assert field._normalize(g.ctx, g.num, g.den) == (g.num, g.den)
        if g and not g.is_one():
            assert g * one is g and one * g is g


def test_a_relation_values_numerator_joins_the_plain_powers(ctx):
    """1/(b3 c) with c^2 = -b3/b2 is c/(b3 c^2) = -b2 c/b3^2: the relation
    value's numerator -b3 joins the power of b3 already there.  Listed as a
    factor of its own it gave the denominator b3*b3, which _normalize and a
    product with one turned into b3^2."""
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    c = ctx.var_fun(ctx.add_derived_parameter("c", -b3 / b2))
    f = 1 / (b3 * c)
    assert str(f) == "-b2*c/b3^2" and len(f.den) == 1
    assert field._normalize(ctx, f.num, f.den) == (f.num, f.den)
    assert f * ctx.one() is f and f * (b3 * c) == 1


def test_relation_variable_dividing_a_composite_factor_leaves_the_denominator(ctx):
    """A relation variable that divides every term of a denominator factor
    goes through 1/v^k = v^k/g^k, so none stays in a denominator."""
    u1, b2, b3 = ctx.u(1), ctx.param("b2"), ctx.param("b3")
    g = b3 * u1 ** 2 + b2
    s = ctx.adjoin_sqrt(g)
    c = ctx.var_fun(ctx.add_derived_parameter("c", -b3 / b2))
    rel = {_var_id(s), _var_id(c)}
    over_g2 = "sqrt(b3*(u')^2+b2)/(b3*(u')^2+b2)^2"
    for got, want in [(1 / (s * g), over_g2), (1 / s ** 3, over_g2),
                      (1 / (s * g + s), "sqrt(b3*(u')^2+b2)/((b3*(u')^2+b2+1)*(b3*(u')^2+b2))"),
                      (1 / (c * u1 + c), None), (u1 / (c * s * u1 + c * s), None)]:
        if want is not None:
            assert str(got) == want
        assert not any(v in rel for f, _ in got.den for m in f for v, _ in mono_items(m))
    assert (1 / (c * s * u1 + c * s)) * (c * s * (u1 + 1)) == 1


def test_total_derivative_against_sympy(ctx, rng):
    """Symbol-free elements: the value of the total derivative is the chain
    rule over x and the jets, u^(n) -> u^(n+1)."""
    sympy = pytest.importorskip("sympy")
    pool = [(v, lo, hi) for v, lo, hi in _division_vars(ctx, laurent=False)
            if not ctx.is_symbol_var(v) and v not in ctx.relations]
    nxt = {_var_id(ctx.u(n)): _var_id(ctx.u(n + 1)) for n in range(3)}
    gens = sympy.symbols("v0:%d" % (max(nxt.values()) + 1))

    def expr(f):
        def poly(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*[gens[v] ** e for v, e in mono_items(m)])
                        for m, c in p.items()), sympy.Integer(0))
        return poly(f.num) / sympy.Mul(*[poly(g) ** e for g, e in f.den])

    for _ in range(12):
        f = _random_fraction(ctx, rng, pool)
        e = expr(f)
        want = sympy.diff(e, gens[ctx.x_id]) + sum(
            sympy.diff(e, gens[v]) * gens[w] for v, w in nxt.items())
        got = expr(f.total_derivative())
        for _ in range(2):  # equal values at random points where both are defined
            point = {g: sympy.Rational(rng.randint(-9, 9), rng.randint(1, 4)) for g in gens}
            w = want.subs(point)
            if w.is_finite:
                assert got.subs(point) == w


# -- fast paths: sums and products that skip _normalize, against it ----------


def _general_add(a, b):
    """Oracle: the sum over the lcm of the denominators, through _normalize."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    den = _den_lcm(a.den, b.den)
    num = poly_mul(a.num, _den_cofactor(den, a.den))
    poly_add_into(num, poly_mul(b.num, _den_cofactor(den, b.den)))
    return DFun(a.ctx, num, den)


def _general_mul(a, b):
    """Oracle: the product through _normalize, a rational made a constant first."""
    if not isinstance(b, DFun):
        b = a.ctx.const(b)
    if a.is_zero() or b.is_zero():
        return a.ctx.zero()
    return DFun(a.ctx, poly_mul(a.num, b.num), _den_merge(a.den, b.den))


def _same(got, want):
    assert got.key() == want.key() and str(got) == str(want)


@pytest.mark.parametrize("relations", [False, True], ids=["relation-free", "relations"])
def test_fast_paths_match_normalize(rng, relations, monkeypatch):
    """Sums, products and rational multiples of polynomials, fractions,
    constants and zero get the key and print of the general path.  Jets, x,
    parameters and exp symbols with negative exponents come in both
    contexts; the second also has a sqrt symbol and a derived parameter, so
    a product of two polynomials there must still be reduced.  Such a
    product reaches _normalize with a polynomial only when the derived
    parameter's square, -b3/b2, brings in its denominator."""
    polynomial = []
    normalize = field._normalize

    def counted(ctx, num, den):
        polynomial.append(not den)
        return normalize(ctx, num, den)

    ctx = Context(("u",), ("b2", "b3"))
    if relations:
        pool = _division_vars(ctx)
    else:
        b2, b3 = ctx.param("b2"), ctx.param("b3")
        pool = [(_var_id(ctx.u(n)), 0, 3) for n in range(3)]
        pool += [(_var_id(ctx.x()), 0, 2), (_var_id(b2), 0, 2), (_var_id(b3), 0, 2),
                 (_var_id(ctx.adjoin_exp_x(b2)), -2, 2),
                 (_var_id(ctx.adjoin_exp_u(ctx.const(2))), -2, 2)]
    assert bool(ctx.relations) == relations
    elems = [ctx.zero(), ctx.const(Q(-3, 2))]
    while len(elems) < 30:
        if rng.random() < 0.6:
            elems.append(DFun(ctx, _random_poly(rng, pool, rng.randint(1, 4)), ()))
        else:
            elems.append(_random_fraction(ctx, rng, pool))
    for a in elems:
        for q in (0, 3, -1, Q(-5, 7)):
            want = _general_mul(a, q)
            _same(a * q, want)
            _same(q * a, want)
        _same(a + (-a), ctx.zero())
        for b in rng.sample(elems, 6):
            _same(a + b, _general_add(a, b))
            monkeypatch.setattr(field, "_normalize", counted)
            polynomial.clear()
            p = a * b
            monkeypatch.setattr(field, "_normalize", normalize)
            if not a.den and not b.den:
                assert p.den or not any(polynomial)
            _same(p, _general_mul(a, b))
            c = _general_add(b, -a)  # a + c cancels a's terms
            _same(a + c, _general_add(a, c))


def test_polynomial_jacobi_checks_skip_normalize(monkeypatch):
    """Every lambda-bracket coefficient of these checks is a polynomial, so
    no element without a denominator may reach _normalize: each such sum
    and product takes a fast path.  Through _normalize, J(L3) at (-5,-5)
    made 5,585 calls and J(M3) at (-4,-4) 19,184; with the fast paths they
    make 4 and 6.  The third structure is 3*L3 written with a derived
    parameter c, c**2 = 3, whose products are reduced by its relation."""
    polynomial = []
    normalize = field._normalize

    def counted(ctx, num, den):
        polynomial.append(not den)
        return normalize(ctx, num, den)

    monkeypatch.setattr(field, "_normalize", counted)
    ctx = Context(("u",))
    u1 = ctx.u(1)
    L3 = AtomStructure(AtomChain(ctx, [("mult", [[u1]]), ("d", -1), ("mult", [[u1]])]))
    ctx2 = Context(("u", "v"))
    uu, vv = ctx2.gen(0, 0), ctx2.gen(1, 0)
    M3 = AtomStructure(AtomChain(ctx2, [("mult", [[vv], [-uu]]), ("d", -1),
                                        ("mult", [[vv, -uu]])], 2))
    ctx3 = Context(("u",))
    c = ctx3.var_fun(ctx3.add_derived_parameter("c", ctx3.const(3)))
    cu1 = c * ctx3.u(1)
    L3c = AtomStructure(AtomChain(ctx3, [("mult", [[cu1]]), ("d", -1), ("mult", [[cu1]])]))
    for H, floors in [(L3, (-5, -5)), (M3, (-4, -4)), (L3c, (-4, -4))]:
        polynomial.clear()
        assert check_jacobi(H, floors).holds
        assert not any(polynomial), "%d of %d calls" % (sum(polynomial), len(polynomial))


def _general_subs(f, vid, value):
    """Reference: each term through the general path (_normalize)."""
    ctx = f.ctx

    def poly(a):
        out = ctx.zero()
        for m, c in a.items():
            k = dict(mono_items(m)).get(vid, 0)
            term = DFun(ctx, {mono_pack((v, e) for v, e in mono_items(m) if v != vid): c}, ())
            out = out + (term * value ** k if k else term)
        return out

    out = poly(f.num)
    for g, e in f.den:
        out = out * poly(g) ** (-e)
    return out


def test_substitution_terms_skip_normalize_only_when_canonical(rng, monkeypatch):
    """subs_var builds each term of a numerator or denominator factor, less
    the substituted variable, as normalized: _normalize must return every
    element built as normalized during a substitution unchanged, its
    coefficients each an int or a proper Fraction, with jets, x,
    parameters, a derived parameter, sqrt and exp symbols (negative
    exponents included) in the terms; and the result keeps the key and
    print of building each term through _normalize."""
    checked = []
    init = DFun.__init__
    subs = field._poly_subs
    inside = [False]

    def checked_init(self, ctx, num, den, normalized=False):
        if normalized and inside[0]:
            assert field._normalize(ctx, num, den) == (num, den)
            assert all(type(c) is int or c.denominator != 1 for c in num.values())
            checked.append(num)
        init(self, ctx, num, den, normalized)

    def flagged_subs(*args):
        inside[0] = True
        try:
            return subs(*args)
        finally:
            inside[0] = False

    ctx = Context(("u",), ("b2", "b3"))
    pool = _division_vars(ctx)
    u1 = ctx.u(1)
    vids = [_var_id(ctx.x()), _var_id(ctx.u(0)), _var_id(u1), _var_id(ctx.param("b3"))]
    values = [ctx.const(Q(-2, 3)), ctx.u(2) + 1, ctx.param("b2") * u1]
    for _ in range(25):
        f = _random_fraction(ctx, rng, pool)
        for vid in vids:
            for value in values:
                want = _general_subs(f, vid, value)
                monkeypatch.setattr(DFun, "__init__", checked_init)
                monkeypatch.setattr(field, "_poly_subs", flagged_subs)
                got = f.subs_var(vid, value)
                monkeypatch.undo()
                _same(got, want)
    assert len(checked) > 1000


# -- coefficients: an int when integral, a Fraction otherwise ----------------


def test_integral_operands_divide_to_fractions(ctx):
    """Each division of coefficients goes through qdiv: integral operands
    with a non-integral quotient give a Fraction, never a float."""
    u = ctx.u(0)
    um = mono_var(ctx.gen_var(0, 0))
    um2 = 2 * um
    # a composite factor is made monic: 1/(2u+1) = (1/2)/(u + 1/2)
    f = 1 / (2 * u + 1)
    assert f.num == {ONE_MONO: Q(1, 2)} and f.den == (({um: 1, ONE_MONO: Q(1, 2)}, 1),)
    # a scalar leaves a single-term factor: 1/(3u) = (1/3)/u
    g = 1 / (3 * u)
    assert g.num == {ONE_MONO: Q(1, 3)} and g.den == (({um: 1}, 1),)
    # exact division by a non-monic divisor: (u^2 + u) / (2u + 2) = u/2
    quo = poly_exact_div(ctx, {um2: 1, um: 1}, {um: 2, ONE_MONO: 2})
    assert quo == {um: Q(1, 2)}
    for c in (f.num[ONE_MONO], f.den[0][0][ONE_MONO], g.num[ONE_MONO], quo[um]):
        assert type(c) is Q


def test_every_coefficient_is_int_or_a_proper_fraction(monkeypatch):
    """Along J(L3), the kernels with sqrt and exp(c u) symbols, a KN kernel
    solve and one NLS chain step, every coefficient of every element made,
    in num and in each den factor, is an int or a Fraction with a
    denominator other than 1; and so is every coefficient of the basis
    numerators an ansatz solve hands to the operator, of each d and
    multiplication step of a batch application, of the batches it clears
    into rows, and of their cleared numerators, and of the numerators of
    each step of a Jacobi grid's (l+m+d)-shift and of a bracket's (l+d)
    rows, and of the Helmholtz check's towers and coefficients."""
    from lenard import brackets, functional, jacobi, operators, solve
    made, broken = [0], []
    init = DFun.__init__
    clear = solve._clear
    mu_step = jacobi._mu_step
    shifted_rows = brackets._shifted_rows
    numerator = solve.BasisTable.numerator
    helmholtz = functional._helmholtz_numerators

    def check(polys):
        for poly in polys:
            made[0] += 1
            broken.extend(c for c in poly.values()
                          if not (type(c) is int or (type(c) is Q and c.denominator != 1)))

    def checked(self, ctx, num, den, normalized=False):
        init(self, ctx, num, den, normalized)
        check([self.num] + [f for f, _ in self.den])

    def checked_clear(ctx, items):
        out, lcm = clear(ctx, items)
        check([num for num, _ in items] + [f for _, den in items for f, _ in den]
              + [num for num in out if num is not None] + [f for f, _ in lcm])
        return out, lcm

    def checked_mu_step(ctx, rows, den, floor):
        out, out_den = mu_step(ctx, rows, den, floor)
        check([num for row in out.values() for num in row.values()]
              + [f for f, _ in out_den])
        return out, out_den

    def checked_shifted_rows(ctx, s, nmax, floor):
        rows, den = shifted_rows(ctx, s, nmax, floor)
        check([num for row in rows.values() for num in row.values()] + [f for f, _ in den])
        return rows, den

    def checked_numerator(self, i):
        out = numerator(self, i)
        check([out])
        return out

    def checked_helmholtz(xi):
        for num in helmholtz(xi):
            check([num])
            yield num

    def checked_step(step):
        def checked_batch(*args):
            cols, den = step(*args)
            check([num for vec in cols for num in vec] + [f for f, _ in den])
            return cols, den
        return checked_batch

    monkeypatch.setattr(DFun, "__init__", checked)
    monkeypatch.setattr(solve, "_clear", checked_clear)
    monkeypatch.setattr(jacobi, "_mu_step", checked_mu_step)
    monkeypatch.setattr(brackets, "_shifted_rows", checked_shifted_rows)
    monkeypatch.setattr(solve.BasisTable, "numerator", checked_numerator)
    monkeypatch.setattr(functional, "_helmholtz_numerators", checked_helmholtz)
    for module in (jacobi, operators, brackets, functional):
        for name in ("batch_derivative", "batch_matmul"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked_step(getattr(module, name)))
    ctx = Context(("u",))
    u1 = ctx.u(1)
    L3 = AtomStructure(AtomChain(ctx, [("mult", [[u1]]), ("d", -1), ("mult", [[u1]])]))
    assert check_jacobi(L3, (-5, -5)).holds
    # ker(((x2+x3 u'^2)/u'')d - x3 u') = C sqrt(x2+x3 u'^2)
    ctx = Context(("u",), ("x1", "x2", "x3"))
    x1, x2, x3 = ctx.param("x1"), ctx.param("x2"), ctx.param("x3")
    u1, u2 = ctx.u(1), ctx.u(2)
    s = ctx.adjoin_sqrt(x2 + x3 * u1 ** 2)
    Y = MatrixPsdOp.scalar(ScalarPsdOp(ctx, {1: (x2 + x3 * u1 ** 2) / u2, 0: -x3 * u1}))
    assert in_span(ctx, kernel_of(Y, AnsatzSpace(ctx, 1, 2, multipliers=[s],
                                                 denominators=[(s, 1)])), [s])
    # ker(x1 d(1/u')d + x3 u') = span{exp(c u), exp(-c u)}, c^2 = -x3/x1
    ctx.add_derived_parameter("c13", -x3 / x1)
    E = ctx.adjoin_exp_u(ctx.param("c13"))
    D = ScalarPsdOp.d(ctx)
    Y = MatrixPsdOp.scalar(D.compose(ScalarPsdOp.of_fun(1 / u1)).compose(D).scale(x1)
                           + ScalarPsdOp.of_fun(x3 * u1))
    assert len(kernel_of(Y, AnsatzSpace(ctx, -1, 0, multipliers=[E, 1 / E]))) == 2
    # the constants in ker B of KN, from a small ansatz
    ctx = Context(("u",))
    v1, v2 = ctx.u(1), ctx.u(2)
    Du1 = ((1 / v1) * (v2 / v1).total_derivative()).total_derivative()
    B = AtomChain(ctx, [("d", 1), ("mult", [[1 / v1]]), ("d", 1), ("mult", [[1 / v1]]),
                        ("d", 1), ("mult", [[1 / Du1]]), ("d", 1)])
    ker = kernel_of(B.apply, AnsatzSpace(ctx, 2, 2, denominators=[(v1, 2)]), ell=1)
    assert in_span(ctx, ker, [ctx.one()])
    pre = load_nls()
    spF, spG = nls_spaces(pre.ctx)
    extend_right(pre.chain, spF, spG, steps=1, k_solver=nls_k_solver(pre),
                 h_solver=nls_h_solver(pre))
    assert pre.chain.verify()
    assert made[0] > 5000 and not broken, broken[:5]
