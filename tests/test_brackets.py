"""Lambda brackets, Poisson verdicts, and the Lie structures."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenard.brackets import (check_compatible, check_jacobi, check_skewadjoint,
                             evolutionary_bracket, functional_action,
                             functional_bracket, lambda_bracket)
from lenard.errors import InvalidWitness
from lenard.field import Context, vec_is_zero
from lenard.functional import LocalFunctional
from lenard.jacobi import AtomChain, AtomStructure, _grid_trinomial
from lenard.operators import (MatrixPsdOp, OperatorSum, RationalOpPair,
                              ScalarPsdOp, _accumulate, _jf, binom)
from lenard.series import BiSeries, LambdaSeries

from conftest import random_dfun, series_agree_to


@pytest.fixture
def trio(ctx):
    u1 = ctx.u(1)

    def chain(*atoms):
        return AtomStructure(AtomChain(ctx, list(atoms)))

    L1 = chain(("d", 1))
    L2 = chain(("d", -1))
    L3 = chain(("mult", [[u1]]), ("d", -1), ("mult", [[u1]]))
    return L1, L2, L3


def test_atom_chain_expands_as_its_fraction_pairs(ctx, trio):
    # each chain split at its d^-k atoms, written out by hand as A B^-1 pairs
    _, _, L3 = trio
    u, u1 = ctx.u(0), ctx.u(1)
    D, one = ScalarPsdOp.d(ctx), ScalarPsdOp.identity(ctx)
    ctx2 = Context(("u", "v"))
    uu, vv = ctx2.gen(0, 0), ctx2.gen(1, 0)
    fun = ScalarPsdOp.of_fun
    cases = [
        (L3, [(fun(u1), D), (fun(u1), one)]),
        (AtomStructure(AtomChain(ctx, [("d", -1), ("mult", [[u1]]), ("d", -1),
                                       ("mult", [[u1]]), ("d", -1)])),
         [(one, D), (fun(u1), D), (fun(u1), D)]),
        (AtomStructure(AtomChain(ctx2, [("mult", [[vv], [-uu]]), ("d", -1),
                                        ("mult", [[vv, -uu]])], 2)),
         [(MatrixPsdOp([[fun(vv)], [fun(-uu)]]), ScalarPsdOp.d(ctx2)),
          (MatrixPsdOp([[fun(vv), fun(-uu)]]), MatrixPsdOp.identity(ctx2, 2))]),
        (AtomStructure(AtomChain(ctx, [("d", -1), ("mult", [[u]]), ("d", 1)])),
         [(one, D), (fun(u).compose(D), one)]),
    ]
    for H, pairs in cases:
        for floor in (-8, -12):
            got, ref = H.expand(floor), RationalOpPair(pairs).expand(floor)
            assert (got.rows, got.cols, got.floor()) == (ref.rows, ref.cols, floor)
            assert got.eq_to_floor(ref, floor)


def test_symbol_on_generators(ctx, trio):
    L1, L2, L3 = trio
    u = ctx.u(0)
    s = lambda_bracket(L1, u, u, -6)
    assert s.coeffs == {1: ctx.one()} or s.coeffs[1].is_one()
    s3 = lambda_bracket(L3, u, u, -4)
    u1, u2 = ctx.u(1), ctx.u(2)
    assert s3.coeffs[-1] == u1 * u1 and s3.coeffs[-2] == -u1 * u2


def test_sesquilinearity(ctx, trio, rng):
    _, _, L3 = trio
    for _ in range(6):
        f = random_dfun(ctx, rng, max_dord=1, max_degree=2)
        g = random_dfun(ctx, rng, max_dord=1, max_degree=2)
        lhs = lambda_bracket(L3, f.total_derivative(), g, -5)
        rhs = lambda_bracket(L3, f, g, -6).shift_power(1) * ctx.const(-1)
        assert series_agree_to(lhs, rhs, -4)


def test_left_leibniz(ctx, trio, rng):
    _, _, L3 = trio
    for _ in range(5):
        f = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        g = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        h = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        lhs = lambda_bracket(L3, f, g * h, -5)
        rhs = lambda_bracket(L3, f, g, -5) * h \
            + lambda_bracket(L3, f, h, -5) * g
        assert series_agree_to(lhs, rhs, -4)


def test_skewadjoint_verdicts(ctx, trio):
    L1, L2, L3 = trio
    assert check_skewadjoint(L1, -8).holds
    assert check_skewadjoint(L2, -8).holds
    assert check_skewadjoint(L3, -8).holds
    D2 = AtomStructure(AtomChain(ctx, [("d", 2)]))
    v = check_skewadjoint(D2, -8)
    assert not v.holds and v.witness is not None


def test_jacobi_verdicts(ctx, trio):
    L1, L2, L3 = trio
    assert check_jacobi(L1, (-6, -6)).holds
    assert check_jacobi(L2, (-6, -6)).holds
    assert check_jacobi(L3, (-6, -6)).holds


def test_jacobi_failure_witness(ctx):
    u1, u2 = ctx.u(1), ctx.u(2)
    bad = OperatorSum([
        (ctx.one(), AtomStructure(AtomChain(ctx, [("mult", [[u1]]), ("d", 1)]))),
        (ctx.const(Q(1, 2)), AtomStructure(AtomChain(ctx, [("mult", [[u2]])]))),
    ])
    assert check_skewadjoint(bad, -8).holds
    v = check_jacobi(bad, (-6, -6))
    assert not v.holds and v.witness is not None
    assert not v.witness["coefficient"].is_zero()


def test_virasoro_is_poisson(ctx):
    u, u1 = ctx.u(0), ctx.u(1)
    vir = OperatorSum([
        (ctx.one(), AtomStructure(AtomChain(ctx, [("mult", [[u]]), ("d", 1)]))),
        (ctx.const(Q(1, 2)), AtomStructure(AtomChain(ctx, [("mult", [[u1]])]))),
    ])
    assert check_jacobi(vir, (-6, -6)).holds


def test_compatibility_pairs(ctx, trio):
    L1, L2, L3 = trio
    assert check_compatible(L1, L2, (-6, -6)).holds
    assert check_compatible(L1, L3, (-6, -6)).holds
    assert check_compatible(L2, L3, (-6, -6)).holds
    assert check_compatible(L1, L1, (-6, -6)).holds


def test_evolutionary_bracket(ctx, rng):
    u, u1, u3 = ctx.u(0), ctx.u(1), ctx.u(3)
    assert vec_is_zero(evolutionary_bracket([u1], [u1]))
    assert vec_is_zero(evolutionary_bracket([u1], [u3]))
    assert evolutionary_bracket([ctx.one()], [u * u])[0] == 2 * u
    # antisymmetry and Jacobi on random triples
    for _ in range(12):
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


def test_functional_action(ctx):
    u, u1 = ctx.u(0), ctx.u(1)
    h = LocalFunctional(u * u / 2)
    assert functional_action([u1], h).is_zero()        # int u u' = 0
    assert functional_action([ctx.one()], h) == LocalFunctional(u)


def test_functional_bracket_skewness(ctx):
    # {int f, int f}_H = 0 with the witness from the Liouville fixtures
    from lenard.presets import load_liouville
    pre = load_liouville("v")
    step = pre.chain.steps[-1]
    bracket = functional_bracket(pre.H, step.h, step.h, step.P)
    assert bracket.is_zero()


def test_functional_bracket_rejects_bad_witness(ctx):
    from lenard.presets import load_liouville
    pre = load_liouville("v")
    step = pre.chain.steps[-1]
    with pytest.raises(InvalidWitness):
        functional_bracket(pre.H, step.h, step.h, [pre.ctx.one()],
                           witnesses=step.witness_H)


def test_functional_bracket_with_unit_field(ctx):
    # bracketing against the zero functional through P = 1 integrates the
    # gradient of the second argument
    from lenard.presets import load_liouville
    pre = load_liouville("v")
    ctxp = pre.ctx
    u = ctxp.u(0)
    g = LocalFunctional(u ** 2 / 2)
    out = functional_action([ctxp.one()], g)
    assert out == LocalFunctional(u)


def _trinomial_by_definition(g, r, lam_floor, mu_floor):
    """sum_k binom(r,k) l^(r-k) (m+d)^k on a grid, one apply_shift per l-row."""
    ctx = g.ctx
    rows = {}
    for (p, q), c in g.coeffs.items():
        rows.setdefault(p, {})[q] = c
    kmax = r if r >= 0 else max(rows) + r - lam_floor
    fm = None if g.floors[1] is None else mu_floor
    out = {}
    for k in range(kmax + 1):
        for p, row in rows.items():
            ser = LambdaSeries(ctx, row, g.floors[1]).apply_shift(k, floor=fm)
            for q, c in ser.coeffs.items():
                key = (p + r - k, q)
                out[key] = out.get(key, ctx.zero()) + c * Q(binom(r, k))
    return out, kmax


# h = l^r (the first term's (l+m+d)^r), or (powers, floor) of an h with
# function coefficients, exact or floored (the third term's bracket series)
_SHIFT_POLYS = [*range(-3, 4),
                pytest.param(((-2, 0, 1), None), id="h(-2,0,1)"),
                pytest.param(((-2, 0, 1), -3), id="h(-2,0,1)_floor-3"),
                pytest.param(((-1, 1, 2), -1), id="h(-1,1,2)_floor-1")]


@pytest.mark.parametrize("floors", [(None, None), (-3, None), (None, -4), (-3, -4)])
@pytest.mark.parametrize("r", _SHIFT_POLYS)
def test_grid_trinomial_against_definition(ctx, rng, r, floors):
    g = BiSeries(ctx, {(p, q): random_dfun(ctx, rng, max_dord=1)
                       for p in (-1, 0, 2) for q in (-2, 0, 1)}, floors)
    lam_floor, mu_floor = -5, -6
    powers, h_floor = ((r,), None) if isinstance(r, int) else r
    h = LambdaSeries(ctx, {r: ctx.one() if len(powers) == 1
                           else random_dfun(ctx, rng, max_dord=1)
                           for r in powers}, h_floor)
    got = _grid_trinomial(g, h, lam_floor, mu_floor)
    # sum_r h_r (l+m+d)^r, with the floors of every r joined; h's floor
    # caps l at h_floor + 2, the grid's top l-power
    ref, fl, fm = {}, lam_floor, floors[1]
    for r, hr in h.coeffs.items():
        part, kmax = _trinomial_by_definition(g, r, lam_floor, mu_floor)
        for key, c in part.items():
            ref[key] = ref.get(key, ctx.zero()) + hr * c
        fl = fl if floors[0] is None else max(fl, floors[0] + r)
        fm = None if floors[1] is None else max(fm, mu_floor, floors[1] + kmax)
    if h_floor is not None:
        fl = max(fl, h_floor + 2)
    assert got.floors == (fl, fm)
    assert got.coeffs
    for p, q in set(got.coeffs) | set(ref):
        if p >= fl and (fm is None or q >= fm):
            assert got.coeffs.get((p, q), ctx.zero()) == ref.get((p, q), ctx.zero())


# The iterated path _grid_trinomial replaced, as an oracle: the grid's
# l-rows as LambdaSeries in m, each (m+d) step an apply_shift(1) of a row,
# summed by the univariate shift kernel with that step.


def _iterated_binomial_shift(h, t, floor):
    sums = {q: {} for q in h}
    for p, c in t.items():
        reach = {q: q + p - floor if q < 0 else min(q, q + p - floor) for q in h}
        reach = {q: k for q, k in reach.items() if k >= 0}
        for k in range(max(reach.values(), default=-1) + 1):
            if k:
                c = c.apply_shift(1)
            if c.is_zero():
                break
            for q, kmax in reach.items():
                if k <= kmax:
                    _accumulate(sums[q], q + p - k, c * binom(q, k))
    out = {}
    for q, a in h.items():
        for deg, s in sums[q].items():
            _accumulate(out, deg, s * a)
    return out


def _iterated_grid_trinomial(g, h, lam_floor, mu_floor):
    ctx = g.ctx
    fl, fm = lam_floor, g.floors[1]
    ptop = max(p for p, _ in g.coeffs)
    for r in h.coeffs:
        kmax = r if r >= 0 else ptop + r - lam_floor
        if kmax >= 0:
            fl = _jf(fl, None if g.floors[0] is None else g.floors[0] + r)
            fm = None if fm is None else max(fm, mu_floor, g.floors[1] + kmax)
    if h.floor is not None:
        fl = max(fl, h.floor + ptop)
    rows = {}
    for (p, q), c in g.coeffs.items():
        rows.setdefault(p, {})[q] = c
    rows = {p: LambdaSeries(ctx, row, g.floors[1]) for p, row in rows.items()}
    out = _iterated_binomial_shift(h.coeffs, rows, lam_floor)
    return BiSeries(ctx, {(p, q): c for p, ser in out.items()
                          for q, c in ser.coeffs.items()}, (fl, fm))


def _grid_field(kind):
    """A context and the pieces its grid entries are drawn from: factors of
    a term, and the denominator factors of the rational kind."""
    ctx = Context(("u",))
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    factors, dens = [u, u1, u2, ctx.x()], []
    if kind == "sqrt":
        factors.append(ctx.adjoin_sqrt(u1 * u1 + 1))
    elif kind == "relation":
        factors.append(ctx.var_fun(ctx.add_derived_parameter("c", ctx.const(Q(3, 2)))))
    elif kind == "rational":
        dens = [u1 + 1, u2 * u2 + 1]
    elif kind == "exp":
        e = ctx.adjoin_exp_u(ctx.const(2))
        factors += [e, 1 / e]
        dens = [e + u1]
    return ctx, factors, dens


@st.composite
def _grid_entry(draw, ctx, factors, dens):
    out = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = ctx.const(draw(st.integers(-3, 3).filter(bool)))
        for f in draw(st.lists(st.sampled_from(factors), max_size=2)):
            term = term * f
        out = out + term
    if dens and draw(st.booleans()):
        out = out * draw(st.sampled_from(dens)).inverse() ** draw(st.integers(1, 2))
    return out if out else ctx.one()


@st.composite
def _trinomial_case(draw, kind):
    """A grid, exact or floored on either side, and an h with powers of
    either sign, unit or drawn coefficients, and maybe a floor."""
    ctx, factors, dens = _grid_field(kind)
    entry = _grid_entry(ctx, factors, dens)
    cells = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-2, 1)),
                          min_size=1, max_size=4, unique=True))
    floors = (draw(st.sampled_from([None, -2])), draw(st.sampled_from([None, -3])))
    g = BiSeries(ctx, {pq: draw(entry) for pq in cells}, floors)
    powers = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True))
    unit = draw(st.booleans())
    h = LambdaSeries(ctx, {r: ctx.one() if unit else draw(entry) for r in powers},
                     draw(st.sampled_from([None, min(powers) - 1])))
    return g, h


@pytest.mark.parametrize("kind", ["polynomial", "rational", "sqrt", "relation", "exp"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_grid_trinomial_matches_the_iterated_path(kind, data):
    """Polynomial grids agree by key and print; the others (a composite
    denominator factor, a sqrt symbol, a derived parameter's relation, an
    exponential symbol) as field elements, as the printed form is not
    canonical."""
    g, h = data.draw(_trinomial_case(kind))
    got = _grid_trinomial(g, h, -3, -4)
    ref = _iterated_grid_trinomial(g, h, -3, -4)
    assert got.floors == ref.floors
    assert set(got.coeffs) == set(ref.coeffs)
    for pq, c in got.coeffs.items():
        assert c == ref.coeffs[pq]
    if kind == "polynomial":
        assert ([c.key() for c in got.coeffs.values()]
                == [ref.coeffs[pq].key() for pq in got.coeffs])
        assert str(got) == str(ref)
