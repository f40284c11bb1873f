"""Undetermined-coefficient solving: the paper's kernel fixtures."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenard import chains, solve
from lenard.errors import AnsatzExhausted
from lenard.field import (DFun, ONE_MONO, Context, _den_cofactor, _den_lcm, over_lcm,
                          poly_mul, qdiv)
from lenard.functional import variational_derivative
from lenard.jacobi import AtomChain, SumChain
from lenard.operators import MatrixPsdOp, ScalarPsdOp
from lenard.presets import liouville_spaces, load_kn, load_liouville, load_nls, nls_spaces
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


def test_the_space_with_every_bound_raised_comes_last(ctx, monkeypatch):
    # x u''^3 needs dord, degree and x power all raised: no other space of
    # the lattice holds it.  The spaces tried before share basis elements,
    # and the operator is applied to each only once.
    batched = []
    inner = MatrixPsdOp.apply_batch

    def recorded(self, cols, den):
        batched.extend(DFun(ctx, vec[0], den).key() for vec in cols)
        return inner(self, cols, den)

    monkeypatch.setattr(MatrixPsdOp, "apply_batch", recorded)
    I = MatrixPsdOp.identity(ctx, 1)
    rhs = [ctx.x() * ctx.u(2) ** 3]
    space = AnsatzSpace(ctx, 1, 2)
    sol = solve_operator_equation(I, rhs, space, escalations=1)
    assert sol.particular == rhs
    assert sol.space.describe() == space.raised([1, 1, 1]).describe()
    assert len(batched) == len(set(batched)) == len(sol.basis)


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


def test_linear_solve_reduces_relations_after_clearing():
    # clearing s/(1+s) and s/(2+s) to one denominator makes s^2, which the
    # right-hand side's numerator holds as 1 + u'^2
    ctx = Context(("u",))
    s = ctx.adjoin_sqrt(1 + ctx.u(1) ** 2)
    a, b = s / (1 + s), s / (2 + s)
    assert in_span(ctx, [[a], [b]], [a + b])
    assert not in_span(ctx, [[a]], [a + b])


def test_relation_denominators_are_cleared_too():
    # d^2 exp(c x) = c^2 exp(c x) with c^2 = -x2/x1: reducing the batch
    # numerator brings in the denominator x1, which the rows must clear
    ctx = Context(("u",), ("x1", "x2"))
    x1, x2 = ctx.param("x1"), ctx.param("x2")
    ctx.add_derived_parameter("c12", -x2 / x1)
    E = ctx.adjoin_exp_x(ctx.param("c12"))
    sol = solve_operator_equation(MatrixPsdOp.scalar(ScalarPsdOp.d(ctx, 2)), [x2 * E],
                                  AnsatzSpace(ctx, -1, 0, multipliers=[E, 1 / E]))
    assert sol.particular == [-x1 * E] and len(sol.kernel) == 1  # the constants


_ENTRIES = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).filter(bool)


def _exact(q):
    """q as the rows hold it: an int when integral."""
    return q if q.__class__ is int or q.denominator != 1 else q.numerator


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_repeated_rows_change_no_elimination(data):
    """A rational system with some of its rows repeated later, each times a
    nonzero int or Fraction (negative ones included), eliminates as the
    system without the repeats, partial or not, and so do its distinct
    rows; a repeat of an int row by an int scale is dropped."""
    K = data.draw(st.integers(1, 4))
    cols = st.lists(st.integers(0, K), min_size=1, max_size=K + 1, unique=True)
    rows = [{c: _exact(Q(data.draw(_ENTRIES))) for c in sorted(cs)}
            for cs in data.draw(st.lists(cols, min_size=1, max_size=6))]
    with_repeats = list(rows)
    dropped = []
    for i, scale in data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), _ENTRIES),
                                       max_size=6)):
        copy = {c: _exact(v * scale) for c, v in rows[i].items()}
        at = data.draw(st.integers(with_repeats.index(rows[i]) + 1, len(with_repeats)))
        with_repeats.insert(at, copy)
        if scale.__class__ is int and all(v.__class__ is int for v in rows[i].values()):
            dropped.append(copy)
    distinct = solve._distinct_rows(with_repeats)
    assert not any(r is d for r in distinct for d in dropped)
    for partial in (False, True):
        want = solve._gauss_core(rows, K, 0, 1, lambda a: a == 0, lambda a: qdiv(1, a), partial)
        for system in (with_repeats, distinct):
            assert solve._gauss_core(system, K, 0, 1, lambda a: a == 0,
                                     lambda a: qdiv(1, a), partial) == want


# -- the batch application against the column-by-column one ------------------


def _is_rational(e):
    if e.den:
        return None
    if not e.num:
        return 0
    if len(e.num) == 1 and ONE_MONO in e.num:
        return e.num[ONE_MONO]
    return None


def _columnwise_rows_of(ctx, f, den_lcm, rows, col):
    num = f.num
    cof = _den_cofactor(den_lcm, f.den)
    if cof != {ONE_MONO: 1}:
        num = poly_mul(num, cof)
    for mono, q in num.items():
        par, rest = solve._split_param_mono(ctx, mono)
        row = rows.get(rest)
        if row is None:
            row = rows[rest] = {}
        add = DFun(ctx, {par: q}, (), normalized=True)
        cur = row.get(col)
        if cur is not None:
            add = cur + add
            if add.is_zero():
                del row[col]
                continue
        row[col] = add


def _columnwise_linear_solve(ctx, columns, rhs):
    """Reference: the row builder that took each column as a normalized
    element, with the elimination it chose by inspecting the rows."""
    K = len(columns)
    sparse_rows = []
    for comp in range(len(rhs)):
        items = [col[comp] for col in columns] + [rhs[comp]]
        den_lcm = ()
        for f in items:
            if f.den:
                den_lcm = _den_lcm(den_lcm, f.den)
        rows = {}
        for col_idx, f in enumerate(items):
            if not f.is_zero():
                _columnwise_rows_of(ctx, f, den_lcm, rows, col_idx)
        for rest in sorted(rows, key=solve._row_order):
            sparse_rows.append(rows[rest])
    if all(_is_rational(e) is not None for row in sparse_rows for e in row.values()):
        conv = [{c: _is_rational(e) for c, e in row.items()} for row in sparse_rows]
        part, kernel = solve._gauss_core(conv, K, 0, 1, lambda a: a == 0,
                                         lambda a: qdiv(1, a))
        if part is None:
            return None, None
        return [ctx.const(v) for v in part], [[ctx.const(v) for v in vec] for vec in kernel]
    return solve._gauss_core(sparse_rows, K, ctx.zero(), ctx.one(),
                             lambda a: a.is_zero(), lambda a: a.inverse())


def _escalated(space, k):
    """The space with every bound raised by k."""
    return space.raised([k] * len(space.bounds()))


def _columnwise_solve(apply, rhs, space, escalations):
    """Reference: every column applied and normalized on its own, and every
    bound raised by one per escalation; returns (final space, particular,
    kernel), or None when the spaces run out."""
    ctx = space.ctx
    for k in range(escalations + 1):
        cur = _escalated(space, k)
        basis = _vector_basis(ctx, cur.basis(), ctx.ell)
        particular, kernel = _columnwise_linear_solve(ctx, [apply(v) for v in basis], rhs)
        if particular is not None:
            return (cur, _combine(ctx, basis, particular),
                    reduce_span(ctx, [_combine(ctx, basis, kv) for kv in kernel]))
    return None


def _vector_basis(ctx, scalars, ell):
    """The vectors with one scalar in one component, component-major."""
    return [[f if c == comp else ctx.zero() for c in range(ell)]
            for comp in range(ell) for f in scalars]


def _combine(ctx, vectors, coeffs):
    """Reference: sum c_k vectors[k], term by term."""
    out = [ctx.zero()] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if not c.is_zero():
            out = [o if v.is_zero() else o + c * v for o, v in zip(out, vec)]
    return out


def _basis_batch(scalars, ell):
    """The vector basis (component-major, as _vector_basis) as numerators
    over the lcm of the scalars' denominators."""
    nums, den = over_lcm(scalars)
    return [[n if k == comp else {} for k in range(ell)]
            for comp in range(ell) for n in nums], den


def _keys(vec):
    return [f.key() for f in vec]


def _between(low, mid, high):
    """Is mid a space of the bound lattice from low to high?"""
    return (mid.multipliers == low.multipliers
            and [b for b, _ in mid.denominators] == [b for b, _ in low.denominators]
            and all(a <= m <= b for a, m, b in zip(low.bounds(), mid.bounds(), high.bounds())))


def _check_against_columns(op, rhs, space, escalations=0):
    """Every space the reference visits: each batch column equals the
    operator applied to its basis vector; then the solve's particular and
    kernel keys equal the reference's, and its final space lies between the
    start space and the reference's final one."""
    ctx, ell = space.ctx, space.ctx.ell
    apply = op if callable(op) else op.apply
    batch = solve._batch_operator(op)
    ref = _columnwise_solve(apply, rhs, space, escalations)
    for k in range(escalations + 1):
        cur = _escalated(space, k)
        scalars = cur.basis()
        cols, den = batch.apply_batch(*_basis_batch(scalars, ell))
        vectors = _vector_basis(ctx, scalars, ell)
        assert len(cols) == len(vectors)
        for col, vec in zip(cols, vectors):
            assert [DFun(ctx, n, den) for n in col] == apply(vec)
        if ref is not None and cur.describe() == ref[0].describe():
            break
    try:
        sol = solve_operator_equation(op, rhs, space, escalations)
    except AnsatzExhausted:
        assert ref is None
        return 0
    assert ref is not None and _between(space, sol.space, ref[0])
    assert _keys(sol.particular) == _keys(ref[1])
    assert [_keys(v) for v in sol.kernel] == [_keys(v) for v in ref[2]]
    return 1


def _kn_B(ctx):
    u1 = ctx.u(1)
    Du1 = ((1 / u1) * (ctx.u(2) / u1).total_derivative()).total_derivative()
    return AtomChain(ctx, [("d", 1), ("mult", [[1 / u1]]), ("d", 1),
                           ("mult", [[1 / u1]]), ("d", 1),
                           ("mult", [[1 / Du1]]), ("d", 1)])


def _recorded_solves(run, monkeypatch):
    """The (op, rhs, space, escalations) of every solve a chain step makes."""
    seen = []
    inner = chains.solve_operator_equation

    def recorded(op, rhs, space, escalations=2):
        seen.append((op, rhs, space, escalations))
        return inner(op, rhs, space, escalations)

    monkeypatch.setattr(chains, "solve_operator_equation", recorded)
    run()
    monkeypatch.undo()
    return seen


def test_batch_columns_and_solutions_match_column_by_column(monkeypatch):
    checked = 0
    # KN ker B at degree 3
    ctx = Context(("u",))
    checked += _check_against_columns(_kn_B(ctx), [ctx.zero()],
                                      AnsatzSpace(ctx, 3, 3, denominators=[(ctx.u(1), 3)]))
    # the liouville-v and -ix spaces, with the escalations the step makes
    escalated = 0
    for case in ("v", "ix"):
        pre = load_liouville(case)
        b = pre.extras["b"]
        spF, spG = liouville_spaces(pre.ctx, b[1], b[2])
        solves = _recorded_solves(lambda: chains.extend_right(pre.chain, spF, spG, steps=1),
                                  monkeypatch)
        assert solves
        for op, rhs, space, esc in solves:
            checked += _check_against_columns(op, rhs, space, esc)
            sol = solve_operator_equation(op, rhs, space, esc)
            escalated += sol.space.describe() != space.describe()
    assert escalated
    # a sqrt symbol: its kernel, and the seed solve with a right-hand side
    ctx = Context(("u",), ("x2", "x3"))
    x2, x3 = ctx.param("x2"), ctx.param("x3")
    u1, u2 = ctx.u(1), ctx.u(2)
    s = ctx.adjoin_sqrt(x2 + x3 * u1 ** 2)
    space = AnsatzSpace(ctx, 1, 2, multipliers=[s], denominators=[(s, 1)])
    Y = MatrixPsdOp.scalar(ScalarPsdOp(ctx, {1: (x2 + x3 * u1 ** 2) / u2, 0: -x3 * u1}))
    checked += _check_against_columns(Y, [ctx.zero()], space)
    D = ScalarPsdOp.d(ctx)
    B = MatrixPsdOp.scalar(D.compose(m(1 / u2)).compose(D))
    checked += _check_against_columns(B, variational_derivative(s), space)
    # exp(c u) with a derived parameter c, c^2 = -x3/x1
    ctx = Context(("u",), ("x1", "x3"))
    x1, x3 = ctx.param("x1"), ctx.param("x3")
    ctx.add_derived_parameter("c13", -x3 / x1)
    E = ctx.adjoin_exp_u(ctx.param("c13"))
    D = ScalarPsdOp.d(ctx)
    Y = MatrixPsdOp.scalar(D.compose(m(1 / ctx.u(1))).compose(D).scale(x1)
                           + m(x3 * ctx.u(1)))
    checked += _check_against_columns(Y, [ctx.zero()],
                                      AnsatzSpace(ctx, -1, 0, multipliers=[E, 1 / E]))
    # l = 2: the NLS kernels and the H-link of a right step
    pre = load_nls()
    ctx = pre.ctx
    space = AnsatzSpace(ctx, 0, 1, denominators=[(ctx.gen(0, 0), 1)])
    for op in (pre.H.den, pre.K.num):
        checked += _check_against_columns(op, [ctx.zero()] * 2, space)
    # the stacked [C; D] at l = 2, against applying C and D one after the other
    stacked = chains._stack_ops(pre.K.num, pre.K.den)
    for vec in _vector_basis(ctx, space.basis(), 2):
        assert stacked.apply(vec) == pre.K.num.apply(vec) + pre.K.den.apply(vec)
    checked += _check_against_columns(stacked, [ctx.zero()] * 4, space)
    spF, _ = nls_spaces(ctx)
    checked += _check_against_columns(pre.H.den, pre.chain.last().grad, spF)
    # the first left step: the K-link C G = P, D G = 0 as one stacked operator
    # (C a sum of chains for liouville-i), then the H-link
    pre = load_liouville("i")
    ctx = pre.ctx
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    solves = _recorded_solves(lambda: chains.extend_left(pre.chain, sp, sp, steps=1,
                                                         left_P=[ctx.u(1)]), monkeypatch)
    kn = load_kn(a_value=1)
    u = kn.ctx.u(0)
    spF = AnsatzSpace(kn.ctx, 3, 5, denominators=[(kn.ctx.u(1), 3)], weight_max=3)
    solves += _recorded_solves(
        lambda: chains.extend_left(kn.chain, AnsatzSpace(kn.ctx, 0, 2), spF, steps=1,
                                   left_P=[kn.ctx.one() + u + u * u]), monkeypatch)
    assert [len(rhs) for _, rhs, _, _ in solves] == [2, 1, 2, 1]
    for op, rhs, space, esc in solves:
        checked += _check_against_columns(op, rhs, space, esc)
    assert checked == 14


def test_solves_apply_the_operator_to_the_whole_basis_at_once(monkeypatch):
    """A solve never applies its operator column by column, whether it gets
    the operator or its bound apply; the left K-link's stacked operator is
    no exception, and an operator with no batch application is refused."""
    ctx = Context(("u",))
    u2 = ctx.u(2)
    D = ScalarPsdOp.d(ctx)
    matrix = MatrixPsdOp.scalar(D.compose(m(1 / u2)).compose(D))
    space = AnsatzSpace(ctx, 1, 2, x_power=1)
    nls = load_nls()
    nls_space = AnsatzSpace(nls.ctx, 0, 1, denominators=[(nls.ctx.gen(0, 0), 1)])
    solves, calls, inside = [], [], [0]

    def counted_solve(op, rhs, space, escalations=2, inner=solve.solve_operator_equation):
        solves.append((type(op).__name__, len(rhs)))
        inside[0] += 1
        try:
            return inner(op, rhs, space, escalations)
        finally:
            inside[0] -= 1

    for module in (solve, chains):
        monkeypatch.setattr(module, "solve_operator_equation", counted_solve)
    for cls in (AtomChain, SumChain, MatrixPsdOp):
        def counted(self, vec, inner=cls.apply):
            if inside[0]:
                calls.append(type(self).__name__)
            return inner(self, vec)
        monkeypatch.setattr(cls, "apply", counted)
    for op, sp, ell in [(_kn_B(ctx), space, 1), (matrix, space, 1),
                        (nls.H.den, nls_space, 2)]:
        assert kernel_of(op, sp, ell=ell)
        assert kernel_of(op.apply, sp, ell=ell)
    rhs = [ctx.u(0) ** 2]
    sol = solve.solve_operator_equation(MatrixPsdOp.identity(ctx, 1), rhs, space)
    assert sol.particular == rhs
    # extend_left applies K's numerator to the solution itself, after the solve
    pre = load_liouville("i")
    sp = AnsatzSpace(pre.ctx, 1, 2, x_power=1)
    chains.extend_left(pre.chain, sp, sp, steps=1, left_P=[pre.ctx.u(1)])
    assert pre.chain.left_steps and ("SumChain", 2) in solves
    assert calls == []
    with pytest.raises(TypeError):
        solve.solve_operator_equation(lambda vec: vec, rhs, space)


def test_an_operator_whose_output_does_not_match_rhs_is_refused(ctx):
    """A 2x1 stacked operator maps one component to two; against a
    one-component rhs the elimination would drop the second row unseen."""
    stacked = chains._stack_ops(AtomChain(ctx, [("d", 1)]),
                                AtomChain(ctx, [("mult", [[ctx.u(1)]])]))
    with pytest.raises(ValueError):
        solve_operator_equation(stacked, [ctx.u(2)], AnsatzSpace(ctx, 1, 2, x_power=1))


# -- the bound-lattice search against raising every bound at once -------------


def _every_bound_raised(op, rhs, space, escalations):
    """Reference: the spaces with every bound raised by 0, 1, ...,
    escalations, in turn; the first with a solution answers."""
    for k in range(escalations + 1):
        try:
            return solve_operator_equation(op, rhs, _escalated(space, k), escalations=0)
        except AnsatzExhausted:
            pass
    raise AnsatzExhausted("no solution in %s after %d escalations"
                          % (space.describe(), escalations))


def _summary(sol):
    """A solution's particular and kernel, by key and by print."""
    return ([_keys(sol.particular), [str(f) for f in sol.particular]],
            [[_keys(v), [str(f) for f in v]] for v in sol.kernel])


def _answered_solves(module, run, monkeypatch):
    """(op, rhs, space, escalations, answer, final space) of every solve
    the module makes while run() runs; an exhausted solve's answer is its
    message and its final space None."""
    seen = []
    inner = module.solve_operator_equation

    def recorded(op, rhs, space, escalations=2):
        try:
            sol = inner(op, rhs, space, escalations)
        except AnsatzExhausted as e:
            seen.append((op, rhs, space, escalations, ("exhausted", str(e)), None))
            raise
        seen.append((op, rhs, space, escalations, _summary(sol), sol.space))
        return sol

    monkeypatch.setattr(module, "solve_operator_equation", recorded)
    run()
    monkeypatch.undo()
    return seen


def test_lattice_search_answers_as_raising_every_bound(monkeypatch):
    """Every solve of the liouville-v and -ix right steps, of the c1 pattern
    (0,0,1),(0,1,0) and of the exhausted blocked-a K-link gives the same
    particular and kernel, by key and by print, or the same exhaustion, as
    the reference that raises every bound at once."""
    from lenard import liouville
    solves = []
    for case in ("v", "ix"):
        pre = load_liouville(case)
        b = pre.extras["b"]
        spF, spG = liouville_spaces(pre.ctx, b[1], b[2])
        solves += _answered_solves(
            chains, lambda: chains.extend_right(pre.chain, spF, spG, steps=1), monkeypatch)
    solves += _answered_solves(
        chains, lambda: liouville.empirical_class((0, 0, 1), (0, 1, 0)), monkeypatch)
    blocked = _answered_solves(
        liouville, lambda: liouville.empirical_class((0, 1, 0), (1, 0, 1)), monkeypatch)
    assert len(blocked) == 1
    escalated = exhausted = 0
    for op, rhs, space, esc, answer, final in solves + blocked:
        try:
            want = _summary(_every_bound_raised(op, rhs, space, esc))
        except AnsatzExhausted as e:
            want = ("exhausted", str(e))
        assert answer == want
        exhausted += final is None
        # answered inside the lattice, short of raising every bound
        escalated += final is not None and final.describe() not in (
            space.describe(), _escalated(space, esc).describe())
    assert exhausted == 1 and escalated == 3


def _reference_basis(space):
    """Reference: every product monomial * x power * multiplier *
    denominator of the space, built in one loop, the first of equal ones
    kept."""
    out, seen = [], set()
    for f in _reference_products(space):
        if f.key() not in seen:
            seen.add(f.key())
            out.append(f)
    return out


def _reference_products(space):
    """Every product ((monomial * x power) * multiplier) * denominator of
    the space, each a field element, in the order of the table's entries."""
    ctx = space.ctx
    jets = [(ctx.gen(i, n), n) for i in range(ctx.ell) for n in range(space.max_dord + 1)]
    monos = [(ctx.one(), 0)]
    for deg in range(1, space.max_degree + 1):
        for combo in itertools.combinations_with_replacement(jets, deg):
            m = ctx.one()
            for f, _ in combo:
                m = m * f
            monos.append((m, sum(n for _, n in combo)))
    xs = [(ctx.one(), 0)] + [(ctx.x() ** a, -a) for a in range(1, space.x_power + 1)]
    dens = [(ctx.one(), 0)]
    for base, emax in space.denominators:
        bw = base.dord()
        bw = 0 if bw == float("-inf") else int(bw)
        dens = [(d * base ** (-e), wd - e * bw) for d, wd in dens for e in range(emax + 1)]
    return [m * x * s * d for m, wm in monos for x, wx in xs for d, wd in dens
            if space.weight_max is None or wm + wx + wd <= space.weight_max
            for s in [ctx.one()] + space.multipliers]


def _cross_check_space(which):
    """A space with u' denominators, with a sqrt multiplier over its own
    cube (the liouville-i shape), with exp(2x)^(+-1) and x powers, or with
    exp(c u)^(+-1), c^2 = -x3/x1, whose relation value has a denominator;
    every context has parameters."""
    ctx = Context(("u",), ("b2", "b3"))
    u1 = ctx.u(1)
    if which == "u1":
        return AnsatzSpace(ctx, 2, 3, x_power=1, denominators=[(u1, 3)])
    if which == "sqrt":
        s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
        return AnsatzSpace(ctx, 1, 3, multipliers=[s], denominators=[(s, 3)])
    if which == "exp_x":
        E = ctx.adjoin_exp_x(ctx.const(2))
        return AnsatzSpace(ctx, 1, 2, x_power=2, multipliers=[E, 1 / E],
                           denominators=[(u1, 1)])
    ctx = Context(("u",), ("x1", "x3"))
    ctx.add_derived_parameter("c13", -ctx.param("x3") / ctx.param("x1"))
    E = ctx.adjoin_exp_u(ctx.param("c13"))
    return AnsatzSpace(ctx, 1, 2, multipliers=[E, 1 / E], denominators=[(ctx.u(1), 2)])


@pytest.mark.parametrize("which", ["u1", "sqrt", "exp_x", "exp_u"])
def test_table_numerators_are_the_products(which):
    """Each entry's numerator over the table's denominator is the field
    element its factors multiply to, with the same key; and the entries
    kept by equal numerators are those kept by equal keys."""
    space = _escalated(_cross_check_space(which), 2)  # a search's top table
    table = solve.BasisTable(space)
    products = _reference_products(space)
    assert len(products) == len(table.entries)
    first = {}
    for i, f in enumerate(products):
        g = DFun(space.ctx, table.numerator(i), table.den)
        assert g.key() == f.key() == table.element(i).key()
        first.setdefault(f.key(), i)
    assert table.distinct(range(len(products))) == list(first.values())
    assert len(first) < len(products)  # each space has equal products


def _products(table, bounds):
    """How many of the table's products a space with these bounds admits."""
    return sum(1 for _, k in table.entries
               if all(n <= b for n, b in zip(table.needs[k], bounds)))


@pytest.mark.parametrize("which", ["sqrt", "exp", "weight"])
def test_basis_table_restricts_to_each_lattice_space(which):
    """The table of the largest space, restricted to the bounds of any space
    of the lattice, gives that space's own basis, in order and with equal
    products kept once, as the one-loop reference does; the search sizes
    count the table's products."""
    ctx = Context(("u",), ("b2", "b3"))
    u1 = ctx.u(1)
    if which == "sqrt":
        # s * (1/s) = 1: the de-duplication case
        s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
        space = AnsatzSpace(ctx, 1, 2, multipliers=[s], denominators=[(s, 1)])
    elif which == "exp":
        # raising dord or degree alone adds nothing: no jets at degree 0
        E = ctx.adjoin_exp_x(ctx.const(2))
        space = AnsatzSpace(ctx, -1, 0, x_power=1, multipliers=[E, 1 / E])
    else:
        space = AnsatzSpace(ctx, 1, 2, denominators=[(u1, 1)], weight_max=1)
    step = 2
    table = solve.BasisTable(_escalated(space, step))
    merged = 0
    for steps in itertools.product((0, step), repeat=len(space.bounds())):
        point = space.raised(steps)
        want = [f.key() for f in _reference_basis(point)]
        assert [f.key() for f in table.basis(point.bounds())] == want
        assert [f.key() for f in point.basis()] == want
        merged += _products(table, point.bounds()) > len(want)
    assert merged or which != "sqrt"
    low = space.bounds()
    for size, steps in solve._lattice(table.masks(low), len(low), step):
        assert size == _products(table, space.raised(steps).bounds())
        assert _products(table, space.bounds()) < size < len(table.entries)
