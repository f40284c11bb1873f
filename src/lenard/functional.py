"""Local functionals: variational derivative and the quotient modulo d/dx.

A local functional is a density f understood modulo total derivatives.
Equality of functionals is decided by is_null_functional: the variational
derivative must vanish and an explicit antiderivative of the residue must
exist inside the field.  One kernel, antiderivative_in_var, integrates in a
single variable t (x or a jet variable): every factor free of t, with
denominators, is a constant, and its catalog is powers t^k (k != -1) times
exp(c*t) symbols, the exponential terms polynomial in t.  The procedure is
sound; when the residue falls outside the decidable catalog it raises
Undecidable instead of guessing.
"""

from __future__ import annotations

from .errors import AnsatzExhausted, Undecidable
from .field import DFun, EXP_BITS, NEG_INF, mono_exp, mono_items, mono_var, poly_vars, qdiv
from .operators import MatrixPsdOp, ScalarPsdOp
from .solve import AnsatzSpace, reduce_mod_span, solve_operator_equation


def variational_derivative(f: DFun):
    """delta f / delta u as a vector of length ell: sum_n (-d)^n df/du_i^(n)."""
    ctx = f.ctx
    out = []
    for i in range(ctx.ell):
        acc = ctx.zero()
        for n, term in f.jet_partials(i).items():
            for _ in range(n):
                term = -term.total_derivative()
            acc = acc + term
        out.append(acc)
    return out


def is_self_adjoint_frechet(xi):
    """Helmholtz condition: the Frechet derivative of xi is formally self-adjoint."""
    ctx = xi[0].ctx
    ell = len(xi)
    entries = [[ScalarPsdOp(ctx, xi[i].jet_partials(j)) for j in range(ell)]
               for i in range(ell)]
    D = MatrixPsdOp(entries)
    return (D - D.adjoint()).is_zero()


def _symbol_rate(ctx, sid, vid):
    """d log(s)/d vid for the symbol s: None when s is free of vid, False
    when s depends on vid other than as exp(c*vid)."""
    kind, arg = ctx.sym_expr[sid]
    if vid == ctx.x_id:
        if any(v == vid or (ctx.is_symbol_var(v) and _symbol_rate(ctx, v, vid) is not None)
               for v in arg._vars()):
            return ctx.sym_dlog[sid] if kind == "exp" else False
        return None
    _, i, n = ctx.var_key(vid)
    rate = ctx.sym_plog[sid].get((i, n))
    if rate is None:
        return None
    return rate if kind == "exp" else False


def _by_parts(q: DFun, rate, vid):
    """sum_j (-1)^j rate^-(j+1) d^j q/d vid^j, or None past the guard.

    For q polynomial in vid and E = exp(rate*vid), q*E integrates in vid to
    E times this sum; the symbols inside q ride along as constants.
    """
    rinv = 1 / rate
    acc = q.ctx.zero()
    for _ in range(120):
        if q.is_zero():
            return acc
        acc = acc + rinv * q
        q = -(rinv * q._formal_partial(vid))
    return None


def antiderivative_in_var(ctx, f: DFun, vid):
    """Antiderivative of f with respect to the single variable vid (x or a
    jet variable), or None.

    Every factor free of vid is a constant, denominators included.  f may
    hold powers of vid (a 1/vid term has no antiderivative in the field) and
    exponential symbols exp(c*vid), whose terms must be polynomial in vid
    and are integrated by parts; any other symbol depending on vid, or a
    denominator factor depending on vid other than a power of vid, makes
    this return None.
    """
    rates = {}
    for v in f._vars():
        if ctx.is_symbol_var(v):
            r = _symbol_rate(ctx, v, vid)
            if r is False:
                return None
            if r is not None:
                rates[v] = r
    v_pow_den = 0
    const_den = []
    for fac, e in f.den:
        if not any(vv == vid or vv in rates for vv in poly_vars([fac])):
            const_den.append((fac, e))
        elif fac == {mono_var(vid): 1}:
            v_pow_den = e
        else:
            return None
    const_den = tuple(const_den)

    def term(mono, c):
        # a monomial of f's reduced numerator over no denominator is canonical
        return DFun(ctx, {mono: c}, const_den, normalized=not const_den)

    out = ctx.zero()
    groups = {}     # rate key -> [rate, q]
    for mono, c in f.num.items():
        k = mono_exp(mono, vid)
        rest = mono - (k << (EXP_BITS * vid))
        k -= v_pow_den
        rate = ctx.zero()
        for vv, e in mono_items(rest):
            if vv in rates:
                rate = rate + rates[vv] * e
        if rate.is_zero():
            if k == -1:
                return None
            out = out + term(rest, qdiv(c, k + 1)) * ctx.var_fun(vid) ** (k + 1)
        elif k < 0:
            return None
        else:
            group = groups.setdefault(rate.key(), [rate, ctx.zero()])
            group[1] = group[1] + term(rest, c) * ctx.var_fun(vid) ** k
    for rate, q in groups.values():
        part = _by_parts(q, rate, vid)
        if part is None:
            return None
        out = out + part
    return out


def reduce_by_parts(f: DFun):
    """Reduce f modulo total derivatives: returns (residue, antiderivative)
    with f = residue + d(antiderivative)/dx.

    At each step the top derivative u_i^(N) must occur linearly with a
    cofactor that has an antiderivative in u_i^(N-1) inside the field;
    otherwise the reduction stops there.
    """
    ctx = f.ctx
    parts = ctx.zero()
    guard = 0
    while True:
        guard += 1
        if guard > 400:
            break
        d = f.dord()
        if d is NEG_INF or d == NEG_INF or d < 1:
            break
        progressed = False
        for i in range(ctx.ell):
            A = f.partial(i, d)
            if A.is_zero():
                continue
            ad = A.dord()
            if ad != NEG_INF and ad >= d:
                continue  # nonlinear in, or coupled at, the top level
            tilde = antiderivative_in_var(ctx, A, ctx.gen_var(i, d - 1))
            if tilde is None:
                continue
            f = f - tilde.total_derivative()
            parts = parts + tilde
            progressed = True
            break
        if not progressed:
            break
    return f, parts


def _antiderivative_ansatz(f: DFun):
    """Fallback: solve g' = f by undetermined coefficients over a space
    derived from f's own shape (its variables, denominators and symbols)."""
    ctx = f.ctx
    d = f.dord()
    if d == NEG_INF:
        d = 0
    mult = []
    for v in sorted(f._vars()):
        if ctx.is_symbol_var(v):
            sym = ctx.var_fun(v)
            mult.append(sym)
            if not ctx.laurent[v]:
                mult.append(1 / sym)
    dens = [(DFun(ctx, dict(fac), ()), e + 1) for fac, e in f.den]
    deg = max((sum(ee for vv, ee in mono_items(mono) if not ctx.is_param_var(vv))
               for mono in f.num), default=1) + 1
    space = AnsatzSpace(ctx, max_dord=int(d), max_degree=min(deg, 6),
                        x_power=1, multipliers=mult, denominators=dens)

    from .jacobi import AtomChain  # jacobi imports functional through brackets
    # d acts on every generator's component: solve (g, 0, ...)' = (f, 0, ...)
    rhs = [f] + [ctx.zero()] * (ctx.ell - 1)
    try:
        sol = solve_operator_equation(AtomChain(ctx, [("d", 1)]), rhs, space,
                                      escalations=0)
    except AnsatzExhausted:
        return None
    g, _ = reduce_mod_span(ctx, sol.kernel, sol.particular)
    return g[0]


def antiderivative(f: DFun):
    """A g with g' = f, or None when none exists in the field (best effort:
    raises Undecidable when the procedure cannot tell)."""
    ctx = f.ctx
    if f.is_zero():
        return ctx.zero()
    residue, parts = reduce_by_parts(f)
    if residue.is_zero():
        return parts
    d = residue.dord()
    if d == NEG_INF:
        anti = antiderivative_in_var(ctx, residue, ctx.x_id)
        if anti is not None:
            return parts + anti
        raise Undecidable("quasiconstant residue outside the antiderivative catalog: %s"
                          % residue)
    # residue of differential order 0 can never be a total derivative
    if d == 0:
        return None
    vd = variational_derivative(residue)
    if any(not v.is_zero() for v in vd):
        return None
    anti = _antiderivative_ansatz(residue)
    if anti is not None:
        return parts + anti
    raise Undecidable("stuck integrating %s" % residue)


def antiderivative_or_none(f: DFun):
    """antiderivative(f), with Undecidable read as None: for callers that
    fall back the same way whether no antiderivative exists or none was
    found."""
    try:
        return antiderivative(f)
    except Undecidable:
        return None


def is_null_functional(f: DFun) -> bool:
    """True iff the functional of f vanishes, i.e. f is a total derivative."""
    if f.is_zero():
        return True
    for v in variational_derivative(f):
        if not v.is_zero():
            return False
    return antiderivative(f) is not None


class LocalFunctional:
    """A density modulo total derivatives."""

    __slots__ = ("density",)

    def __init__(self, density: DFun):
        self.density = density

    @property
    def ctx(self):
        return self.density.ctx

    def gradient(self):
        return variational_derivative(self.density)

    def is_zero(self):
        return is_null_functional(self.density)

    def __add__(self, other):
        if isinstance(other, LocalFunctional):
            other = other.density
        return LocalFunctional(self.density + other)

    def __sub__(self, other):
        if isinstance(other, LocalFunctional):
            other = other.density
        return LocalFunctional(self.density - other)

    def __mul__(self, c):
        return LocalFunctional(self.density * c)

    __rmul__ = __mul__

    def __neg__(self):
        return LocalFunctional(-self.density)

    def __eq__(self, other):
        if isinstance(other, DFun):
            other = LocalFunctional(other)
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return is_null_functional(self.density - other.density)

    def __hash__(self):
        raise TypeError("LocalFunctional is not hashable")

    def __str__(self):
        return "int(%s)" % self.density

    __repr__ = __str__
