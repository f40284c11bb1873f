"""Lambda brackets, Poisson verdicts, and the Lie structures."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenard import brackets, jacobi
from lenard.brackets import (check_compatible, check_jacobi, check_skewadjoint,
                             evolutionary_bracket, functional_action,
                             functional_bracket, lambda_bracket, master_bracket)
from lenard.errors import InsufficientTruncation, InvalidWitness
from lenard.field import Context, vec_is_zero
from lenard.functional import LocalFunctional
from lenard.grammar import parse_operator
from lenard.jacobi import (AtomChain, AtomStructure, JacobiEngine, _grid_trinomial,
                           _symbol)
from lenard.operators import (MatrixPsdOp, OperatorSum, RationalOpPair,
                              ScalarPsdOp, _accumulate, _binomial_shift, _jf, binom,
                              structure_sum)
from lenard.series import BiSeries

from conftest import random_dfun, series_agree_to, shift


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


def _chain_field():
    """A two-generator context with a parameter, its jet variables and x,
    and the other functions mult atoms are drawn from: 1/(u''+1), a sqrt
    symbol, an exp symbol and the parameter."""
    ctx = Context(("u", "v"), ("b",))
    u, u1, u2, v = ctx.u(0), ctx.u(1), ctx.u(2), ctx.gen(1, 0)
    return ctx, [u, u1, v, ctx.x()], [1 / (u2 + 1), ctx.adjoin_sqrt(u1 * u1 + 1),
                                      ctx.adjoin_exp_u(ctx.const(2)), ctx.param("b")]


@st.composite
def _chain_case(draw, matrix):
    """2-6 atoms: d^k for k = +-1, +-2, and mult atoms, 1x1 in a scalar
    chain and 1x1, 1x2, 2x1 or 2x2 (entries maybe zero) in a matrix one.
    An entry is an integer times a jet variable, x or one of the other
    functions, one per chain, and the positive d powers sum to at most 3:
    the fraction route composes to floors well below the one asked for,
    where products of those functions, or deeper floors, take seconds.
    Returns (context, dimension, atoms)."""
    ctx, jets, others = _chain_field()
    factors = jets + [draw(st.sampled_from(others))]

    def entry():
        return ctx.const(draw(st.integers(-2, 2).filter(bool))) * draw(st.sampled_from(factors))

    ell = draw(st.sampled_from([1, 2])) if matrix else 1
    dim, atoms, up = ell, [], 0
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.booleans()):
            k = draw(st.sampled_from([k for k in (-2, -1, 1, 2) if up + k <= 3]))
            up += max(k, 0)
            atoms.append(("d", k))
            continue
        cols = draw(st.sampled_from([1, 2])) if matrix else 1
        data = [[ctx.zero() if matrix and draw(st.integers(0, 3)) == 3 else entry()
                 for _ in range(cols)] for _ in range(dim)]
        atoms.append(("mult", data))
        dim = cols
    return ctx, ell, atoms


def _fraction_split(ctx, ell, atoms):
    """The chain split at its d^-k atoms into A B^-1 pairs: each A the exact
    matrix product of the run before a d^-k, each B = d^k on the dimension
    it meets, a trailing run over the identity."""

    def product(run, rows):
        acc = MatrixPsdOp.identity(ctx, rows)
        for kind, data in run:
            if kind == "mult":
                step = MatrixPsdOp([[ScalarPsdOp.of_fun(e) for e in row] for row in data])
            else:
                step = _diagonal(ctx, acc.cols, ScalarPsdOp.d(ctx, data))
            acc = acc.compose(step)
        return acc

    pairs, run, rows, cols = [], [], ell, ell
    for kind, data in atoms:
        if kind == "d" and data < 0:
            pairs.append((product(run, rows), _diagonal(ctx, cols, ScalarPsdOp.d(ctx, -data))))
            run, rows = [], cols
        else:
            run.append((kind, data))
            if kind == "mult":
                cols = len(data[0])
    if run or not pairs:
        pairs.append((product(run, rows), MatrixPsdOp.identity(ctx, cols)))
    return RationalOpPair(pairs)


def _diagonal(ctx, n, op):
    return MatrixPsdOp([[op if i == j else ScalarPsdOp.zero(ctx) for j in range(n)]
                        for i in range(n)])


def _right_fold_suffixes(ctx, atoms, floor):
    """The symbols of the scalar suffixes atoms[n+1:], walked right to left:
    (l+d)^k for d^k, a negative k cut at the floor; f times for f."""
    val = ScalarPsdOp.identity(ctx)
    vals = [val]
    for kind, data in reversed(atoms[1:]):
        val = shift(val, data, floor if data < 0 else None) if kind == "d" \
            else val.scale(data)
        vals.append(val)
    vals.reverse()
    return vals


@pytest.mark.parametrize("matrix", [False, True], ids=["scalar", "matrix"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_atom_structure_expands_as_its_fraction_split(matrix, data):
    # the left fold of atom symbols against A B^-1 pairs with d^k inverted
    ctx, ell, atoms = data.draw(_chain_case(matrix))
    H = AtomStructure(AtomChain(ctx, atoms, ell))
    ref_pair = _fraction_split(ctx, ell, atoms)
    for floor in (-6, -10):
        got, ref = H.expand(floor), ref_pair.expand(floor)
        assert (got.rows, got.cols) == (ref.rows, ref.cols)
        assert got.floor() == ref.floor() == floor
        assert got.eq_to_floor(ref, floor)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_suffix_symbols_match_the_right_fold(data):
    # each suffix symbol is at least as accurate as the right fold's, and
    # agrees with it above the right fold's floor
    ctx, _, atoms = data.draw(_chain_case(False))
    atoms = [(k, d if k == "d" else d[0][0]) for k, d in atoms]
    for floor in (-6, -10):
        for n, ref in enumerate(_right_fold_suffixes(ctx, atoms, floor)):
            got = _symbol(ctx, atoms[n + 1:], floor)
            if ref.floor is None:
                assert got.floor is None and got.coeffs == ref.coeffs
            else:
                assert series_agree_to(got, ref, ref.floor)


def test_symbol_of_a_chain_below_its_floor_is_zero_at_the_floor(ctx):
    # the first product lies wholly below its cut, so the later d atoms
    # must still bring the zero down to the floor
    u1 = ctx.u(1)
    for atoms, floor in [([("d", -2)] * 4, -6),
                         ([("d", -2), ("mult", u1), ("d", -2), ("d", -2)], -4)]:
        got = _symbol(ctx, atoms, floor)
        assert got.is_zero() and got.floor == floor
        op = AtomStructure(AtomChain(ctx, [(k, d if k == "d" else [[d]]) for k, d in atoms]))
        assert op.expand(floor).floor() == floor


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
        rhs = lambda_bracket(L3, f, g, -6).compose(ScalarPsdOp.d(ctx)).scale(ctx.const(-1))
        assert series_agree_to(lhs, rhs, -4)


def test_left_leibniz(ctx, trio, rng):
    _, _, L3 = trio
    for _ in range(5):
        f = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        g = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        h = random_dfun(ctx, rng, max_dord=1, max_degree=1)
        lhs = lambda_bracket(L3, f, g * h, -5)
        rhs = lambda_bracket(L3, f, g, -5).scale(h) \
            + lambda_bracket(L3, f, h, -5).scale(g)
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
    """sum_k binom(r,k) l^(r-k) (m+d)^k on a grid, one shift per l-row."""
    ctx = g.ctx
    rows = {}
    for (p, q), c in g.coeffs.items():
        rows.setdefault(p, {})[q] = c
    kmax = r if r >= 0 else max(rows) + r - lam_floor
    fm = None if g.floors[1] is None else mu_floor
    out = {}
    for k in range(kmax + 1):
        for p, row in rows.items():
            ser = shift(ScalarPsdOp(ctx, row, g.floors[1]), k, fm)
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
    h = ScalarPsdOp(ctx, {r: ctx.one() if len(powers) == 1
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
# l-rows as series in m, each (m+d) step a shift by 1 of a row, summed by
# the univariate shift kernel with that step.


def _iterated_binomial_shift(h, t, floor):
    sums = {q: {} for q in h}
    for p, c in t.items():
        reach = {q: q + p - floor if q < 0 else min(q, q + p - floor) for q in h}
        reach = {q: k for q, k in reach.items() if k >= 0}
        for k in range(max(reach.values(), default=-1) + 1):
            if k:
                c = shift(c, 1)
            if c.is_zero():
                break
            for q, kmax in reach.items():
                if k <= kmax:
                    _accumulate(sums[q], q + p - k, c.scale(c.ctx.const(binom(q, k))))
    out = {}
    for q, a in h.items():
        for deg, s in sums[q].items():
            _accumulate(out, deg, s.scale(a))
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
    rows = {p: ScalarPsdOp(ctx, row, g.floors[1]) for p, row in rows.items()}
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
    h = ScalarPsdOp(ctx, {r: ctx.one() if unit else draw(entry) for r in powers},
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


# The one-g master formula the batch replaced, as an oracle: s_j at the
# floor less g's top order, and the contraction through the univariate
# kernel, one call per g.


def _apply_symbol_one(sym, t, floor):
    if not t.coeffs:
        fl = None if sym.floor is None and t.floor is None else floor
        return ScalarPsdOp.zero(sym.ctx, fl)
    fl = floor
    if sym.floor is not None:
        fl = max(fl, sym.floor + int(t.order()))
    if t.floor is not None and sym.coeffs:
        fl = max(fl, int(max(sym.coeffs)) + t.floor)
    return sym.compose(t, fl)


def _master_bracket_one(sym, f, g, floor):
    ctx = sym.ctx
    ell = sym.rows
    f_parts = [f.jet_partials(i) for i in range(ell)]
    g_parts = [g.jet_partials(j) for j in range(ell)]
    if all(not ps for ps in f_parts) or all(not ps for ps in g_parts):
        return ScalarPsdOp.zero(ctx)
    tvec = [ScalarPsdOp(ctx, ps).adjoint() for ps in f_parts]
    n_max = max(max(ps, default=0) for ps in g_parts)
    out, fl = ScalarPsdOp.zero(ctx), None
    for j in range(ell):
        if not g_parts[j]:
            continue
        s = ScalarPsdOp.zero(ctx)
        for i in range(ell):
            if not tvec[i].coeffs:
                continue
            s = s + _apply_symbol_one(sym.entry(j, i), tvec[i], floor - n_max)
        # sum_n dg/du_j^(n) (l+d)^n s, every power of s's coefficients
        out = out + ScalarPsdOp(ctx, g_parts[j]).compose(ScalarPsdOp(ctx, s.coeffs))
        if s.floor is not None:
            fl = _jf(fl, s.floor + max(g_parts[j]))
    return ScalarPsdOp(ctx, out.coeffs, _jf(fl, floor))


def _bracket_structures(ctx, ell):
    """Atom structures, an OperatorSum and a frac(...) input on ell
    generators, for the master formula's symbol."""
    u, u1, v = ctx.u(0), ctx.u(1), ctx.gen(ell - 1, 0)
    if ell == 1:
        L3 = AtomStructure(AtomChain(ctx, [("mult", [[u1]]), ("d", -1), ("mult", [[u1]])]))
        return [L3,
                AtomStructure(AtomChain(ctx, [("d", -1), ("mult", [[u1]]), ("d", -1),
                                              ("mult", [[u1]]), ("d", -1)])),
                OperatorSum([(ctx.const(2), AtomStructure(AtomChain(ctx, [("d", 1)]))),
                             (ctx.const(Q(-1, 3)), L3)]),
                parse_operator(ctx, "frac(D, D^2 + u')")]
    M3 = AtomStructure(AtomChain(ctx, [("mult", [[v], [-u]]), ("d", -1),
                                       ("mult", [[v, -u]])], 2))
    return [M3,
            AtomStructure(AtomChain(ctx, [("mult", [[u1, ctx.one()], [ctx.zero(), v]]),
                                          ("d", -1), ("mult", [[ctx.one(), u], [u1, v]])])),
            OperatorSum([(ctx.one(), M3), (ctx.const(3), AtomStructure(AtomChain(
                ctx, [("mult", [[ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]]),
                      ("d", 1)])))]),
            parse_operator(ctx, "frac([[D,u],[0,D]], [[D^2,0],[0,D^2+1]])")]


@st.composite
def _bracket_case(draw, ell):
    """(sym, f, batch, floor): a structure's symbol taken 0 or 3 powers
    below what the floor needs, f a generator or a drawn function, and 1-6
    g's, each a sum of integer multiples of up to two factors (jets, x and
    one of 1/(u''+1), a sqrt symbol, an exp symbol and a parameter), or a
    constant."""
    ctx = Context(("u", "v")[:ell], ("b",))
    u1, u2 = ctx.u(1), ctx.u(2)
    others = [1 / (u2 + 1), ctx.adjoin_sqrt(u1 * u1 + 1), ctx.adjoin_exp_u(ctx.const(2)),
              ctx.param("b")]
    factors = ([ctx.gen(i, n) for i in range(ell) for n in range(3)]
               + [ctx.x(), draw(st.sampled_from(others))])

    def fun():
        out = ctx.const(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(1, 3))):
            term = ctx.const(draw(st.integers(-3, 3).filter(bool)))
            for f in draw(st.lists(st.sampled_from(factors), max_size=2)):
                term = term * f
            out = out + term
        return out

    H = draw(st.sampled_from(_bracket_structures(ctx, ell)))
    f = ctx.gen(draw(st.integers(0, ell - 1)), 0) if draw(st.booleans()) else fun()
    gs = [fun() for _ in range(draw(st.integers(1, 6)))]
    floor = draw(st.integers(-8, -4))
    top = [max((n for i in range(ell) for n in h.jet_partials(i)), default=0)
           for h in [f] + gs]
    sym = structure_sum(H).expand(floor - top[0] - max(top[1:]) - draw(st.sampled_from([0, 3])))
    return sym, f, gs, floor


# The univariate shifts the compositions replaced, copied as they were:
# LambdaSeries.apply_shift and brackets.apply_symbol join a requested floor
# below the one their operands support, where compose raises; the callers
# now join it themselves.


def _old_apply_shift(s, n, floor=None):
    if n < 0 and floor is None:
        raise InsufficientTruncation("negative shift needs a floor")
    out = _binomial_shift({n: s.ctx.one()}, s.coeffs, floor)
    return ScalarPsdOp(s.ctx, out, _jf(floor, None if s.floor is None
                                       else s.floor + max(n, 0)))


def _old_apply_symbol(sym, t, floor):
    fl = _jf(floor, None if sym.floor is None else sym.floor + int(t.order()))
    return ScalarPsdOp(sym.ctx, _binomial_shift(sym.coeffs, t.coeffs, floor), fl)


def _old_f_part(sym, f, floor):
    """s_a = sum_i H_ai(l+d) t_i, one apply_symbol per nonzero t_i."""
    ctx = sym.ctx
    tvec = [ScalarPsdOp(ctx, f.jet_partials(i)).adjoint() for i in range(sym.rows)]
    return [sum((_old_apply_symbol(sym.entry(a, i), t, floor)
                 for i, t in enumerate(tvec) if t.coeffs), ScalarPsdOp.zero(ctx))
            for a in range(sym.rows)]


def _old_grid_mu_shift(g, r, mu_floor):
    if r >= 0 and g.floors[1] is None:
        mu_floor = None
    rows = {}
    for (p, q), c in g.coeffs.items():
        rows.setdefault(p, {})[q] = c
    out = {}
    for p in sorted(rows):
        ser = _old_apply_shift(ScalarPsdOp(g.ctx, rows[p], g.floors[1]), r, mu_floor)
        out.update(((p, q), c) for q, c in ser.coeffs.items())
    fm = g.floors[1]
    if fm is not None and r > 0:
        fm += r
    return BiSeries(g.ctx, out, (g.floors[0], _jf(fm, mu_floor)))


def _keys(coeffs):
    return {n: c.key() for n, c in coeffs.items()}


@st.composite
def _f_part_case(draw):
    """A 2x2 symbol whose entries are exact or all known from one floor,
    some of them zero; f with a zero partial in u or in v, or in neither;
    1-3 g's; and a floor, at or below what the symbol supports."""
    ctx = Context(("u", "v"))
    u, u1, v, v1 = ctx.u(0), ctx.u(1), ctx.gen(1, 0), ctx.gen(1, 1)
    entry = _grid_entry(ctx, [u, u1, v, v1, ctx.x()], [u1 + 1])
    hfloor = draw(st.sampled_from([None, -5, -3]))
    sym = MatrixPsdOp([[ScalarPsdOp(ctx, {n: draw(entry) for n in draw(
        st.lists(st.integers(-3, 1), max_size=3, unique=True))}, hfloor)
        for _ in range(2)] for _ in range(2)])
    on = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    f = ctx.zero()
    for uses, jets in zip(on, ([u, u1], [v, v1])):
        if uses:
            f = f + draw(_grid_entry(ctx, jets, [])) * draw(st.sampled_from(jets))
    gs = [draw(entry) * draw(st.sampled_from([u, u1, v, v1]))
          for _ in range(draw(st.integers(1, 3)))]
    return sym, f, gs, draw(st.integers(-7, -2))


@settings(max_examples=60, deadline=None)
@given(case=_f_part_case())
def test_f_part_matches_apply_symbol(case):
    """master_bracket's f part, the column H o D_f^* in one composition, has
    the floors and coefficient keys of one apply_symbol per nonzero column
    entry, at the floor less the batch's top jet order."""
    sym, f, gs, floor = case
    seen = []
    real = brackets._shifted_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brackets, "_shifted_rows",
                   lambda ctx, s, nmax, fl: seen.append(s) or real(ctx, s, nmax, fl))
        master_bracket(sym, f, gs, floor, {})
    nmax = max(n for g in gs for i in range(2) for n in g.jet_partials(i))
    got, = seen
    for s, ref in zip(got, _old_f_part(sym, f, floor - nmax)):
        assert s.floor == ref.floor
        assert _keys(s.coeffs) == _keys(ref.coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_mu_shift_matches_apply_shift(data):
    """(m+d)^r on a grid, each row composed with l^r, against one apply_shift
    per row: shifts of both signs, rows exact or floored in either variable,
    and zero entries, which the grid drops."""
    ctx, factors, dens = _grid_field("rational")
    entry = _grid_entry(ctx, factors, dens)
    cells = data.draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-3, 1)),
                               max_size=5, unique=True))
    g = BiSeries(ctx, {pq: data.draw(st.one_of(entry, st.just(ctx.zero())))
                       for pq in cells},
                 (data.draw(st.sampled_from([None, -2])),
                  data.draw(st.sampled_from([None, -3, -1]))))
    r, mu_floor = data.draw(st.integers(-2, 2)), data.draw(st.integers(-6, -2))
    got = jacobi._grid_mu_shift(g, r, mu_floor)
    ref = _old_grid_mu_shift(g, r, mu_floor)
    assert got.floors == ref.floors
    assert _keys(got.coeffs) == _keys(ref.coeffs)


@pytest.mark.parametrize("ell", [1, 2], ids=["scalar", "matrix"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_master_bracket_batch_matches_one_g_at_a_time(ell, data):
    """Each g's series has the one-g formula's floor and coefficient keys.
    One rows cache serves all three calls: rows built at floor + 2 must not
    serve the floor, and rows built for one g must grow for the batch."""
    sym, f, gs, floor = data.draw(_bracket_case(ell))
    rows = {}
    for fl, batch in ((floor + 2, gs), (floor, gs[:1]), (floor, gs)):
        got = master_bracket(sym, f, batch, fl, rows)
        assert len(got) == len(batch)
        for g, ser in zip(batch, got):
            ref = _master_bracket_one(sym, f, g, fl)
            assert ser.floor == ref.floor
            assert ({p: c.key() for p, c in ser.coeffs.items()}
                    == {p: c.key() for p, c in ref.coeffs.items()})


def _jacobi_structures():
    ctx, ctx2 = Context(("u",)), Context(("u", "v"))
    u1, u2 = ctx.u(1), ctx.u(2)
    u, v = ctx2.gen(0, 0), ctx2.gen(1, 0)

    def chain(*atoms):
        return AtomStructure(AtomChain(ctx, list(atoms)))

    L3 = chain(("mult", [[u1]]), ("d", -1), ("mult", [[u1]]))
    M3 = AtomStructure(AtomChain(ctx2, [("mult", [[v], [-u]]), ("d", -1),
                                        ("mult", [[v, -u]])], 2))
    return [
        pytest.param(L3, (-5, -5), id="L3"),
        pytest.param(chain(("d", -1), ("mult", [[u1]]), ("d", -1), ("mult", [[u1]]),
                           ("d", -1)), (-5, -5), id="dorfman"),
        pytest.param(M3, (-4, -4), id="M3"),
        pytest.param(OperatorSum([(ctx.const(Q(3, 2)), chain(("d", 1))),
                                  (ctx.const(-2), chain(("d", -1))),
                                  (ctx.const(Q(1, 3)), L3)]), (-5, -5), id="combination"),
        pytest.param(chain(("mult", [[u2]]), ("d", -1), ("mult", [[u2]])), (-5, -5),
                     id="negative_control"),
    ]


def _t2_one_by_one(eng, i, j, k):
    """The second term as it was: one master_bracket per l-coefficient."""
    fl, fm = eng.floors
    coeffs, fm_out = {}, fm
    for p, e in eng.sym.entry(k, i).coeffs.items():
        if p < fl:
            continue
        ser = _master_bracket_one(eng.sym, eng.gens[j], e, fm)
        if ser.floor is not None:
            fm_out = max(fm_out, ser.floor)
        for q, c in ser.coeffs.items():
            coeffs[(p, q)] = c
    return BiSeries(eng.ctx, coeffs, (fl, fm_out))


@pytest.mark.parametrize("H, floors", _jacobi_structures())
def test_jacobi_terms_match_one_bracket_per_g(monkeypatch, H, floors):
    """Every triple's three terms, with the batch and the rows cache,
    against an engine whose brackets are the one-g formula, one call per g,
    and against the second term's loop over the symbol coefficients."""
    eng = JacobiEngine(H, floors)
    got = {}
    for i, j, k in itertools.product(range(eng.ell), repeat=3):
        got[(i, j, k)] = (eng.t1_matrix(i)[k][j], eng.t2_grid(i, j, k),
                          eng.t3_grid(i, j, k))
    monkeypatch.setattr(jacobi, "master_bracket", lambda sym, f, gs, floor, rows: [
        _master_bracket_one(sym, f, g, floor) for g in gs])
    ref_eng = JacobiEngine(H, floors)
    for (i, j, k), grids in got.items():
        refs = (ref_eng.t1_matrix(i)[k][j], _t2_one_by_one(ref_eng, i, j, k),
                ref_eng.t3_grid(i, j, k))
        for grid, ref in zip(grids, refs):
            assert grid.floors == ref.floors
            assert ({pq: c.key() for pq, c in grid.coeffs.items()}
                    == {pq: c.key() for pq, c in ref.coeffs.items()})
