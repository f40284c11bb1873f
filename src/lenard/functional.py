"""Local functionals: variational derivative and the quotient modulo d/dx.

A local functional is a density f understood modulo total derivatives.
Equality of functionals is decided by is_null_functional: the variational
derivative must vanish and an explicit antiderivative of the residue must
exist inside the field (constants and x-polynomials times the catalog
exponentials).  The procedure is sound; when the residue falls outside the
decidable catalog it raises Undecidable instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .errors import Undecidable
from .field import DFun, NEG_INF, ONE_MONO


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
    from .operators import MatrixPsdOp, ScalarPsdOp
    ctx = xi[0].ctx
    ell = len(xi)
    entries = [[ScalarPsdOp(ctx, xi[i].jet_partials(j)) for j in range(ell)]
               for i in range(ell)]
    D = MatrixPsdOp(entries)
    return (D - D.adjoint()).is_zero()


def antiderivative_in_var(ctx, f: DFun, vid):
    """Antiderivative of f with respect to the single variable vid, or None.

    Handles rational dependence with v-free denominators plus pure negative
    powers v^-k (k >= 2); a 1/v term has no antiderivative in the field.
    Exponential symbols exp(c*u_i) are integrated by parts when vid is the
    matching u_i; square-root symbols depending on vid make this bail out.
    """
    vkey = ctx.var_key(vid)
    gen_pair = (vkey[1], vkey[2]) if vkey[0] == "u" else None
    exp_syms = {}
    for v in f._vars():
        if not ctx.is_symbol_var(v):
            continue
        plog = ctx.sym_plog.get(v, {})
        if gen_pair is not None and gen_pair in plog:
            kind = ctx.sym_expr[v][0]
            if kind != "exp":
                return None
            exp_syms[v] = plog[gen_pair]
    # split off denominator powers of v
    v_pow_den = 0
    rest_den = []
    for fac, e in f.den:
        if len(fac) == 1:
            (mono, coeff), = fac.items()
            if len(mono) == 1 and mono[0][0] == vid:
                v_pow_den += mono[0][1] * e
                if coeff != 1:
                    rest_den.append(({ONE_MONO: Q(coeff) ** e}, 1))
                continue
        if any(vv == vid for m in fac for vv, _ in m):
            return None
        rest_den.append((fac, e))
    if exp_syms and (v_pow_den or rest_den):
        return None
    if exp_syms:
        # group terms by total exponential rate and integrate by parts
        groups = {}
        for mono, c in f.num.items():
            rate = ctx.zero()
            for vv, e in mono:
                if vv in exp_syms:
                    rate = rate + exp_syms[vv] * e
            groups.setdefault(rate.key(), [ctx.zero(), rate])
            groups[rate.key()][0] = groups[rate.key()][0] \
                + DFun(ctx, {mono: c}, (), normalized=True)
        out = ctx.zero()
        for part, rate in groups.values():
            if rate.is_zero():
                plain = antiderivative_in_var(ctx, part, vid)
                if plain is None:
                    return None
                out = out + plain
            else:
                acc = ctx.zero()
                q = part
                rinv = 1 / rate
                guard = 0
                while not q.is_zero():
                    acc = acc + rinv * q
                    q = -(rinv * q._formal_partial(vid))
                    guard += 1
                    if guard > 120:
                        return None
                out = out + acc
        return out
    out = ctx.zero()
    for mono, c in f.num.items():
        k = 0
        rest = []
        for vv, e in mono:
            if vv == vid:
                k = e
            else:
                rest.append((vv, e))
        k -= v_pow_den
        if k == -1:
            return None
        term = DFun(ctx, {tuple(rest): c / (k + 1)}, tuple(rest_den))
        term = term * ctx.var_fun(vid) ** (k + 1)
        out = out + term
    return out


def _exp_x_antiderivative(ctx, f: DFun):
    """Antiderivative of a quasiconstant that is an x-polynomial times
    exponentials exp(c*x); None when outside that catalog."""
    if f.den:
        return None
    groups = {}
    for mono, c in f.num.items():
        rate = None
        x_deg = 0
        rest = []
        for v, e in mono:
            key = ctx.var_key(v)
            if key[0] == "x":
                x_deg = e
            elif key[0] == "p":
                rest.append((v, e))
            elif key[0] == "s":
                kind, arg, gi = ctx.sym_expr[v]
                if kind != "exp" or gi is not None:
                    return None
                r = ctx.sym_dlog[v] * e
                rate = r if rate is None else rate + r
                rest.append((v, e))
            else:
                return None
        rkey = "0" if rate is None else str(rate)
        groups.setdefault(rkey, []).append((rate, x_deg, tuple(rest), c))
    out = ctx.zero()
    for items in groups.values():
        rate = items[0][0]
        if rate is None:
            # plain x-polynomial: integrate term by term
            for _, x_deg, rest, c in items:
                out = out + DFun(ctx, {rest: c / (x_deg + 1)}, ()) * ctx.x() ** (x_deg + 1)
        else:
            # p(x) e^{rx}: repeated integration by parts; the symbol factors ride
            # along inertly inside q, only the explicit x is differentiated
            p = ctx.zero()
            for _, x_deg, rest, c in items:
                p = p + DFun(ctx, {rest: c}, ()) * ctx.x() ** x_deg
            acc = ctx.zero()
            sign = ctx.one() / rate
            q = p
            guard = 0
            while not q.is_zero():
                acc = acc + sign * q
                q = -(sign * q._formal_partial(ctx.x_id))
                guard += 1
                if guard > 200:
                    return None
            out = out + acc
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
    from .solve import AnsatzSpace, reduce_mod_span, solve_operator_equation
    from .errors import AnsatzExhausted
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
    deg = max((sum(ee for vv, ee in mono if not ctx.is_param_var(vv))
               for mono in f.num), default=1) + 1
    space = AnsatzSpace(ctx, max_dord=int(d), max_degree=min(deg, 6),
                        x_power=1, multipliers=mult, denominators=dens)

    def op(vec):
        return [vec[0].total_derivative()]

    try:
        sol = solve_operator_equation(op, [f], space, escalations=0)
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
        anti = _exp_x_antiderivative(ctx, residue)
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
