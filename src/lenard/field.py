"""Exact arithmetic in a field of differential functions.

Elements are rational functions in x, the generator jets u_i^(n), named
constant parameters, and a controlled catalog of adjoined symbols
(exp(c*x), exp(c*u_i), sqrt(g)).  Coefficients are exact rationals with
one representation each: an int when integral, a Fraction otherwise.  Both
compare, hash and print alike, so keys and printed forms do not depend on
it, and integral products run on machine ints.  Every helper that makes a
coefficient keeps the rule, and every division of coefficients goes through
qdiv, because int / int is a float.

Representation: a DFun is num/den where num is a sparse multivariate
polynomial and den a product of monic polynomial factors with positive
integer exponents.  Square-root symbols and derived parameters carry a
quadratic relation v**2 = g and are reduced so no power >= 2 survives;
exponential symbols are Laurent variables (negative powers allowed).
Neither kind ever remains in a denominator as a factor of its own, and a
composite factor holds no power of an exponential symbol common to all
its terms, nor a negative one.

Three operations are canonical by construction, so they skip _normalize,
which would return their result unchanged.  A sum of two polynomials (no
denominator) has no monomial that its operands lack, so it stays reduced,
and it has no factor to split, cancel or make monic.  A product with a
rational q != 0 keeps the monic denominator: no factor divides q*N unless
it divides N, and neither the monomials nor their Laurent content change.
A product of two polynomials is canonical once its relation variables are
reduced, unless a relation value's denominator comes in.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, Optional, Tuple

from .errors import ZeroDivisor

Q = Fraction
NEG_INF = float("-inf")

# variable kinds, also the major key of the canonical variable order
KIND_PARAM = 0
KIND_SYMBOL = 1
KIND_X = 2
KIND_GEN = 3

Mono = Tuple[Tuple[int, int], ...]  # sorted ((var_id, exp), ...), exps nonzero
ONE_MONO: Mono = ()
_PAIRS_END = (float("inf"),)  # closes a mono_sortkey, after every (place, -exp)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i]); i += 1
        elif vb < va:
            out.append(b[j]); j += 1
        else:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1; j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    """a / b, or None when b does not divide a."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while j < nb:
        vb, eb = b[j]
        while i < na and a[i][0] < vb:
            out.append(a[i]); i += 1
        if i == na or a[i][0] != vb or a[i][1] < eb:
            return None
        e = a[i][1] - eb
        if e:
            out.append((a[i][0], e))
        i += 1; j += 1
    out.extend(a[i:])
    return tuple(out)


def mono_gcd(a: Mono, b: Mono) -> Mono:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            i += 1
        elif vb < va:
            j += 1
        else:
            if ea > 0 and eb > 0:
                out.append((va, min(ea, eb)))
            i += 1; j += 1
    return tuple(out)


class Context:
    """Variable registry for one field of differential functions.

    Holds the generator names, the constant parameters (with optional
    quadratic relations for derived parameters), and the adjoined-symbol
    catalog.  Variables get integer ids on demand; canonical ordering is
    by structural rank, not id, so it does not depend on creation order.
    """

    def __init__(self, generators=("u",), parameters=()):
        self.gen_names = tuple(generators)
        self.ell = len(self.gen_names)
        self._keys = []          # id -> structural key
        self._ids = {}           # structural key -> id
        self._names = []         # id -> display name
        self._rank = []          # id -> canonical sort rank (tuple)
        self._pos = []           # id -> place in descending rank order (int)
        self.laurent = []        # id -> bool (exponential symbols)
        self.relations = {}      # id -> DFun value of var**2 (relation-free)
        self.sym_dlog = {}       # id -> DFun, total derivative of log(symbol)
        self.sym_plog = {}       # id -> {(i, n): DFun}, partials of log(symbol)
        self.sym_expr = {}       # id -> ("exp"|"sqrt", argument DFun)
        self._sym_by_expr = {}   # canonical expression key -> id
        self.params = {}
        self.x_id = self._register(("x",), "x", (KIND_X,))
        for name in parameters:
            self.add_parameter(name)

    # -- registry ---------------------------------------------------------

    def _register(self, key, name, rank, laurent=False):
        if key in self._ids:
            return self._ids[key]
        vid = len(self._keys)
        self._keys.append(key)
        self._ids[key] = vid
        self._names.append(name)
        self._rank.append(rank)
        self.laurent.append(laurent)
        pos = self._pos = [0] * len(self._rank)
        for i, v in enumerate(sorted(range(len(pos)), key=self._rank.__getitem__,
                                     reverse=True)):
            pos[v] = i
        return vid

    def add_parameter(self, name):
        if name in self.params:
            return self.params[name]
        vid = self._register(("p", name), name, (KIND_PARAM, name))
        self.params[name] = vid
        return vid

    def add_derived_parameter(self, name, square: "DFun"):
        """Adjoin a constant c with relation c**2 = square (constant, relation-free)."""
        if name in self.params:
            return self.params[name]
        if not square.is_constant():
            raise ValueError("derived parameter square must be constant")
        if square.has_relation_vars():
            raise ValueError("relation right-hand sides must be relation-free")
        vid = self._register(("p", name), name, (KIND_PARAM, name))
        self.params[name] = vid
        self.relations[vid] = square
        return vid

    def gen_var(self, i, n):
        if not (0 <= i < self.ell):
            raise IndexError("generator index out of range")
        name = self.gen_names[i]
        if n == 0:
            disp = name
        elif n <= 3:
            disp = name + "'" * n
        else:
            disp = "%s^(%d)" % (name, n)
        return self._register(("u", i, n), disp, (KIND_GEN, n, i))

    def var_name(self, vid):
        return self._names[vid]

    def var_key(self, vid):
        return self._keys[vid]

    def is_param_var(self, vid):
        return self._keys[vid][0] == "p"

    def is_symbol_var(self, vid):
        return self._keys[vid][0] == "s"

    # -- adjoined symbols (closed catalog) ----------------------------------

    def adjoin_exp_x(self, c: "DFun"):
        """Adjoin exp(c*x) for a nonzero constant c; returns the symbol."""
        c = self._as_fun(c)
        if not c.is_constant() or c.is_zero():
            raise ValueError("exp rate must be a nonzero constant")
        key = ("exp", "x", c.key())
        if key in self._sym_by_expr:
            return self.var_fun(self._sym_by_expr[key])
        name = "exp(%s*x)" % c
        vid = self._register(("s", name), name, (KIND_SYMBOL, name), laurent=True)
        self._sym_by_expr[key] = vid
        self.sym_dlog[vid] = c
        self.sym_plog[vid] = {}
        self.sym_expr[vid] = ("exp", c * self.x())
        return self.var_fun(vid)

    def adjoin_exp_u(self, c: "DFun", i=0):
        """Adjoin exp(c*u_i) for a nonzero constant c."""
        c = self._as_fun(c)
        if not c.is_constant() or c.is_zero():
            raise ValueError("exp rate must be a nonzero constant")
        key = ("exp", ("u", i), c.key())
        if key in self._sym_by_expr:
            return self.var_fun(self._sym_by_expr[key])
        name = "exp(%s*%s)" % (c, self.gen_names[i])
        vid = self._register(("s", name), name, (KIND_SYMBOL, name), laurent=True)
        self._sym_by_expr[key] = vid
        self.sym_dlog[vid] = c * self.gen(i, 1)
        self.sym_plog[vid] = {(i, 0): c}
        self.sym_expr[vid] = ("exp", c * self.gen(i, 0))
        return self.var_fun(vid)

    def adjoin_sqrt(self, g: "DFun"):
        """Adjoin s = sqrt(g) with relation s**2 = g (g relation-free, nonzero)."""
        g = self._as_fun(g)
        if g.is_zero():
            raise ValueError("sqrt of zero")
        if g.has_relation_vars():
            raise ValueError("relation right-hand sides must be relation-free")
        key = ("sqrt", g.key())
        if key in self._sym_by_expr:
            return self.var_fun(self._sym_by_expr[key])
        name = "sqrt(%s)" % g
        vid = self._register(("s", name), name, (KIND_SYMBOL, name))
        self._sym_by_expr[key] = vid
        self.relations[vid] = g
        half_over_g = self.const(Q(1, 2)) / g
        self.sym_dlog[vid] = g.total_derivative() * half_over_g
        plog = {}
        for (i, n) in g.jet_vars():
            p = g.partial(i, n)
            if not p.is_zero():
                plog[(i, n)] = p * half_over_g
        self.sym_plog[vid] = plog
        self.sym_expr[vid] = ("sqrt", g)
        return self.var_fun(vid)

    # -- element constructors ------------------------------------------------

    def _as_fun(self, v):
        if isinstance(v, DFun):
            return v
        return self.const(v)

    def zero(self):
        return DFun(self, {}, (), normalized=True)

    def one(self):
        return DFun(self, {ONE_MONO: 1}, (), normalized=True)

    def const(self, q):
        if q.__class__ is not int:
            q = Q(q)
            if q.denominator == 1:
                q = q.numerator
        if q == 0:
            return self.zero()
        return DFun(self, {ONE_MONO: q}, (), normalized=True)

    def var_fun(self, vid):
        return DFun(self, {((vid, 1),): 1}, (), normalized=True)

    def x(self):
        return self.var_fun(self.x_id)

    def param(self, name):
        return self.var_fun(self.add_parameter(name))

    def gen(self, i=0, n=0):
        return self.var_fun(self.gen_var(i, n))

    def u(self, n=0):
        return self.gen(0, n)

    def mono_sortkey(self, mono: Mono):
        """Key whose ascending order lists monomials leading first.

        The canonical order is graded: higher total degree first, then the
        (rank, exponent) pairs compared from the highest-ranked variable
        down, a monomial outranking each proper prefix of its pairs.  Here
        each pair becomes (place, -exponent), places counting down the
        ranks, and _PAIRS_END outsorts every pair.  The key is only
        comparable with keys made before the next variable is registered.
        """
        pos = self._pos
        deg = 0
        pairs = []
        for v, e in mono:
            deg -= e
            pairs.append((pos[v], -e))
        pairs.sort()
        return (deg, *pairs, _PAIRS_END)


# ---------------------------------------------------------------------------
# raw polynomial helpers ({Mono: Q} dicts, each Q an int when integral)


def qdiv(a, b):
    """a / b for int or Fraction coefficients, an int when integral."""
    q = Q(a, b)
    return q.numerator if q.denominator == 1 else q


def _demote(a: Dict[Mono, Q]) -> Dict[Mono, Q]:
    """Make each integral Fraction value of a an int, in place."""
    for m, c in a.items():
        if c.__class__ is not int and c.denominator == 1:
            a[m] = c.numerator
    return a


def poly_add_into(acc: Dict[Mono, Q], other: Dict[Mono, Q]):
    for m, c in other.items():
        v = acc.get(m)
        if v is None:
            acc[m] = c
        else:
            v = v + c
            if not v:
                del acc[m]
            else:
                acc[m] = v if v.__class__ is int or v.denominator != 1 else v.numerator


def poly_mul(a: Dict[Mono, Q], b: Dict[Mono, Q]) -> Dict[Mono, Q]:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: Dict[Mono, Q] = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            v = get(m)
            if v is None:
                out[m] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[m] = v
                else:
                    del out[m]
    return _demote(out)


def poly_scale(a, q):
    if not q:
        return {}
    return _demote({m: c * q for m, c in a.items()})


def poly_lead(ctx, a: Dict[Mono, Q]) -> Mono:
    return min(a, key=ctx.mono_sortkey)


def poly_exact_div(ctx, a: Dict[Mono, Q], b: Dict[Mono, Q]) -> Optional[Dict[Mono, Q]]:
    """a / b as a polynomial, or None when the division is not exact.

    Each step divides the remainder's leading monomial by b's and subtracts
    c*m*(b - lead(b)); the leading term itself cancels exactly.  The leading
    monomial comes off a heap of (mono_sortkey, monomial) entries, one
    pushed whenever a monomial enters the remainder; an entry whose monomial
    has cancelled since is skipped (Monagan and Pearce, CASC 2007).

    First a test that needs no sort key: a variable whose exponents are
    never negative in a or b has degree deg(q) + deg(b) >= deg(b) in a
    quotient a = q*b, because the loop gives q no negative exponent of it.
    """
    if not a:
        return {}
    top_a = _top_degrees(a)
    for v, e in _top_degrees(b).items():
        ea = top_a.get(v, 0)
        if e is not None and ea is not None and e > ea:
            return None
    key = ctx.mono_sortkey
    lb = poly_lead(ctx, b)
    cb = b[lb]
    tail = [(t, ct) for t, ct in b.items() if t != lb]
    rem = dict(a)
    heap = [(key(m), m) for m in rem]
    heapify(heap)
    quo: Dict[Mono, Q] = {}
    while rem:
        la = heappop(heap)[1]
        c = rem.pop(la, None)
        if c is None:
            continue
        m = mono_div(la, lb)
        if m is None:
            return None
        c = qdiv(c, cb)
        quo[m] = c
        for t, ct in tail:
            mt = mono_mul(m, t)
            v = rem.get(mt)
            if v is None:
                v = -(c * ct)
                heappush(heap, (key(mt), mt))
            else:
                v = v - c * ct
                if not v:
                    del rem[mt]
                    continue
            if v.__class__ is not int and v.denominator == 1:
                v = v.numerator
            rem[mt] = v
    return quo


def _top_degrees(a: Dict[Mono, Q]) -> Dict[int, Optional[int]]:
    """Each variable's highest exponent in a; None once one is negative."""
    top: Dict[int, Optional[int]] = {}
    for m in a:
        for v, e in m:
            t = top.get(v, 0)
            if t is not None and (e < 0 or e > t):
                top[v] = None if e < 0 else e
    return top


def _poly_derive(a: Dict[Mono, Q], images: Dict[int, Mono]) -> Dict[Mono, Q]:
    """The derivation v -> images[v] (a monomial; 0 for the variables not
    listed) applied to a polynomial: sum over v of d(a)/dv * images[v]."""
    out: Dict[Mono, Q] = {}
    for m, c in a.items():
        for idx, (v, e) in enumerate(m):
            image = images.get(v)
            if image is None:
                continue
            nm = list(m)
            if e == 1:
                del nm[idx]
            else:
                nm[idx] = (v, e - 1)
            key = mono_mul(tuple(nm), image)
            val = out.get(key)
            nv = c * e if val is None else val + c * e
            if nv:
                out[key] = nv
            elif val is not None:
                del out[key]
    return _demote(out)


def poly_key(a: Dict[Mono, Q]):
    return tuple(sorted(a.items()))


def _quotient_rule(nums, den, derive, shared):
    """The derivation derive of the polynomial ring (a map of polynomials),
    divided by the product `shared` of denominator factors, applied to each
    n / den of a list of numerators over one denominator den = prod f^e.
    Its moved factors (df != 0) give the shared part of the quotient rule
    once, their product P and the cross term C = -sum e df prod_{g != f} g,
    and then

        (d n * P + n * C) / (prod' f^(e+1) * prod'' f^e * shared)

    for every n, prod'' running over the factors d fixes.  Returns the new
    numerators (in order, unnormalized) and the new denominator."""
    moved = []
    out_den = []
    for f, e in den:
        df = derive(f)
        if df:
            moved.append((f, e, df))
            out_den.append((f, e + 1))
        else:
            out_den.append((f, e))
    prod = cross = None
    if moved:
        cross = {}
        for idx, (_, e, df) in enumerate(moved):
            term = poly_scale(df, -e)
            for jdx, (g, _, _) in enumerate(moved):
                if jdx != idx:
                    term = poly_mul(term, g)
            poly_add_into(cross, term)
        prod = moved[0][0]
        for g, _, _ in moved[1:]:
            prod = poly_mul(prod, g)
    out = []
    for n in nums:
        dn = derive(n)
        if moved:
            dn = poly_mul(dn, prod)
            poly_add_into(dn, poly_mul(n, cross))
        out.append(dn)
    return out, _den_merge(tuple(out_den), shared) if shared else tuple(out_den)


def _jet_images(ctx, vids):
    """The total derivative on x and the jets among the variables vids, as
    monomial images (x -> 1, u_i^(n) -> u_i^(n+1); parameters get none),
    and the symbols among them, in id order."""
    images = {}
    symbols = []
    for vid in sorted(vids):
        kind = ctx.var_key(vid)
        if kind[0] == "x":
            images[vid] = ONE_MONO
        elif kind[0] == "u":
            images[vid] = ((ctx.gen_var(kind[1], kind[2] + 1), 1),)
        elif kind[0] == "s":
            symbols.append(vid)
    return images, symbols


# ---------------------------------------------------------------------------
# batches: a list of vectors of numerators over one shared denominator (a
# tuple of (factor, exponent) like DFun.den), unnormalized, with relations
# unreduced; an operator maps a whole ansatz basis this way at once


def batch_derivative(ctx, cols, den):
    """The total derivative of numerator vectors over one denominator den:
    (vectors, denominator), unnormalized, relations not reduced.  One
    quotient rule covers x, the jets and the symbols.  Its derivation is
    d/dx times B, the lcm of the symbols' log-derivative denominators
    (sqrt's g'/(2g) has one), so it maps polynomials to polynomials: B
    times the jet part, plus d/ds times s dlog(s) B for each symbol s.  B
    joins the shared denominator."""
    nums = [p for vec in cols for p in vec]
    vids = set()
    for p in nums + [f for f, _ in den]:
        for m in p:
            for v, _ in m:
                vids.add(v)
    images, symbols = _jet_images(ctx, vids)
    shared = ()
    for sid in symbols:
        if ctx.sym_dlog[sid].den:
            shared = _den_lcm(shared, ctx.sym_dlog[sid].den)
    unit = _den_cofactor(shared, ())
    rules = [(sid, poly_mul(poly_mul({((sid, 1),): 1}, ctx.sym_dlog[sid].num),
                            _den_cofactor(shared, ctx.sym_dlog[sid].den)))
             for sid in symbols]

    def derive(p):
        out = _poly_derive(p, images)
        if shared:
            out = poly_mul(out, unit)
        for sid, image in rules:
            ds = _poly_derive(p, {sid: ONE_MONO})
            if ds:
                poly_add_into(out, poly_mul(ds, image))
        return out

    nums, den = _quotient_rule(nums, den, derive, shared)
    it = iter(nums)
    return [[next(it) for _ in vec] for vec in cols], den


def batch_matmul(matrix, cols, den):
    """Left-multiply numerator vectors over one denominator den by a matrix
    of field elements.  An entry contributes its numerator times its
    cofactor in L, the lcm of the entries' denominators, and L joins den.
    Returns (vectors, denominator), unnormalized."""
    lcm = ()
    for row in matrix:
        for a in row:
            if a.den:
                lcm = _den_lcm(lcm, a.den)
    mult = [[poly_mul(a.num, _den_cofactor(lcm, a.den)) if lcm else a.num
             for a in row] for row in matrix]
    out = []
    for vec in cols:
        new = []
        for mrow in mult:
            terms = [poly_mul(m, n) for m, n in zip(mrow, vec) if m and n]
            acc = terms[0] if terms else {}
            for t in terms[1:]:
                poly_add_into(acc, t)
            new.append(acc)
        out.append(new)
    return out, _den_merge(den, lcm) if lcm else den


def batch_sum(parts):
    """The sum of batches [(vectors, denominator)] of one shape, over the
    lcm of their denominators."""
    lcm = ()
    for _, den in parts:
        lcm = _den_lcm(lcm, den)
    out = [[{} for _ in vec] for vec in parts[0][0]]
    for cols, den in parts:
        cof = _den_cofactor(lcm, den)
        for acc, vec in zip(out, cols):
            for a, n in zip(acc, vec):
                poly_add_into(a, poly_mul(n, cof))
    return out, lcm


# ---------------------------------------------------------------------------


class DFun:
    """An element of the differential function field (immutable)."""

    __slots__ = ("ctx", "num", "den", "_key", "_dord", "_td", "_jp")

    def __init__(self, ctx, num, den, normalized=False):
        self.ctx = ctx
        self._key = None
        self._dord = -2  # sentinel: not yet computed
        self._td = None
        self._jp = None
        if normalized:
            self.num = num
            self.den = den
        else:
            self.num, self.den = _normalize(ctx, num, den)

    # -- basics --------------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return not self.den and self.num == {ONE_MONO: 1}

    def _vars(self):
        seen = set()
        for m in self.num:
            for v, _ in m:
                seen.add(v)
        for f, _ in self.den:
            for m in f:
                for v, _ in m:
                    seen.add(v)
        return seen

    def has_relation_vars(self):
        rel = self.ctx.relations
        return any(v in rel for v in self._vars())

    def is_constant(self):
        """Annihilated by the total derivative: built from parameters only."""
        ctx = self.ctx
        return all(ctx.is_param_var(v) for v in self._vars())

    def key(self):
        if self._key is None:
            self._key = (poly_key(self.num),
                         tuple(sorted((poly_key(f), e) for f, e in self.den)))
        return self._key

    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            other = self.ctx.const(other)
        if not isinstance(other, DFun):
            return NotImplemented
        if self.key() == other.key():
            return True
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("DFun is not hashable; use .key() explicitly")

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DFun):
            return other
        if isinstance(other, (int, Q)):
            return self.ctx.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if not self.den and not other.den:
            num = dict(self.num)
            poly_add_into(num, other.num)
            return DFun(self.ctx, num, (), normalized=True)
        den = _den_lcm(self.den, other.den)
        a = poly_mul(self.num, _den_cofactor(den, self.den))
        poly_add_into(a, poly_mul(other.num, _den_cofactor(den, other.den)))
        return DFun(self.ctx, a, den)

    __radd__ = __add__

    def __neg__(self):
        return DFun(self.ctx, poly_scale(self.num, -1), self.den, normalized=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            if not other:
                return self.ctx.zero()
            return DFun(self.ctx, poly_scale(self.num, other), self.den, normalized=True)
        if not isinstance(other, DFun):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.ctx.zero()
        num = poly_mul(self.num, other.num)
        if not self.den and not other.den:
            reduced, extra_den = _reduce_relations(self.ctx, num)
            if not extra_den:
                return DFun(self.ctx, reduced, (), normalized=True)
        den = _den_merge(self.den, other.den)
        return DFun(self.ctx, num, den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisor("inverse of zero")
        num = {ONE_MONO: 1}
        for f, e in self.den:
            for _ in range(e):
                num = poly_mul(num, f)
        return DFun(self.ctx, num, ((dict(self.num), 1),))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k == 0:
            return self.ctx.one()
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    # -- calculus ---------------------------------------------------------------

    def _derive(self, images):
        """The derivation v -> images[v] (a monomial per variable, 0 for the
        rest) of the polynomial ring, extended to self by _quotient_rule:
        one normalization."""
        if not self.den:
            return DFun(self.ctx, _poly_derive(self.num, images), (), normalized=True)
        (num,), den = _quotient_rule([self.num], self.den,
                                     lambda p: _poly_derive(p, images), ())
        return DFun(self.ctx, num, den)

    def _formal_partial(self, vid):
        """d/d(var) treating every variable as independent (no chain rules)."""
        return self._derive({vid: ONE_MONO})

    def total_derivative(self):
        """d/dx through x, all jets (u_i^(n) -> u_i^(n+1)) and symbol rules."""
        if self._td is None:
            ctx = self.ctx
            # the jet part, then the symbol rule one symbol at a time: folded
            # into the one quotient rule, as batch_derivative does, it gives
            # equal values whose denominators can print differently
            images, symbols = _jet_images(ctx, self._vars())
            out = self._derive(images)
            for sid in symbols:
                d = self._formal_partial(sid)
                if not d.is_zero():
                    out = out + d * ctx.sym_dlog[sid] * ctx.var_fun(sid)
            self._td = out
        return self._td

    def partial(self, i, n):
        """d/d(u_i^(n)) with the symbol chain rule."""
        ctx = self.ctx
        vid = ctx.gen_var(i, n)
        out = self._formal_partial(vid)
        for sid in sorted(self._vars()):
            if ctx.var_key(sid)[0] != "s":
                continue
            rate = ctx.sym_plog[sid].get((i, n))
            if rate is None:
                continue
            d = self._formal_partial(sid)
            if not d.is_zero():
                out = out + d * rate * ctx.var_fun(sid)
        return out

    def jet_partials(self, i):
        """{n: d/d(u_i^(n))} without zero entries; cached, so callers only read it."""
        if self._jp is None:
            self._jp = {}
        out = self._jp.get(i)
        if out is None:
            out = {}
            for j, n in self.jet_vars():
                if j == i:
                    p = self.partial(i, n)
                    if not p.is_zero():
                        out[n] = p
            self._jp[i] = out
        return out

    def jet_vars(self):
        """Sorted (i, n) pairs the element may depend on, symbols included."""
        ctx = self.ctx
        pairs = set()
        for v in self._vars():
            key = ctx.var_key(v)
            if key[0] == "u":
                pairs.add((key[1], key[2]))
            elif key[0] == "s":
                pairs.update(ctx.sym_plog[v].keys())
        return sorted(pairs)

    def dord(self):
        """Differential order; -inf for quasiconstants."""
        if self._dord != -2:
            return self._dord
        pairs = self.jet_vars()
        levels = sorted({n for _, n in pairs}, reverse=True)
        for n in levels:
            for i, m in pairs:
                if m == n and not self.partial(i, n).is_zero():
                    self._dord = n
                    return n
        self._dord = NEG_INF
        return NEG_INF

    def derivative(self, k=1):
        out = self
        for _ in range(k):
            out = out.total_derivative()
        return out

    def subs_var(self, vid, value: "DFun"):
        """Substitute a variable by a field element (purely formal)."""
        ctx = self.ctx
        out = _poly_subs(ctx, self.num, vid, value)
        for f, e in self.den:
            out = out * _poly_subs(ctx, f, vid, value) ** (-e)
        return out

    def bind_params(self, values):
        """Substitute numeric values for named parameters ({name: rational})."""
        out = self
        for name, q in values.items():
            vid = self.ctx.params.get(name)
            if vid is not None and vid in out._vars():
                if vid in self.ctx.relations:
                    raise ValueError("cannot bind derived parameter %r directly" % name)
                out = out.subs_var(vid, self.ctx.const(q))
        return out

    # -- display -------------------------------------------------------------

    def __str__(self):
        from .grammar import fun_text
        return fun_text(self)

    def __repr__(self):
        return "DFun(%s)" % self


# -- normalization ------------------------------------------------------------


def _den_merge(a, b):
    out = {}
    for f, e in a:
        k = poly_key(f)
        if k in out:
            out[k] = (f, out[k][1] + e)
        else:
            out[k] = (f, e)
    for f, e in b:
        k = poly_key(f)
        if k in out:
            out[k] = (f, out[k][1] + e)
        else:
            out[k] = (f, e)
    return tuple(out.values())


def _den_lcm(a, b):
    out = {poly_key(f): (f, e) for f, e in a}
    for f, e in b:
        k = poly_key(f)
        if k in out:
            out[k] = (f, max(out[k][1], e))
        else:
            out[k] = (f, e)
    return tuple(out.values())


def _den_cofactor(lcm, den) -> Dict[Mono, Q]:
    have = {poly_key(f): e for f, e in den}
    out = {ONE_MONO: 1}
    for f, e in lcm:
        extra = e - have.get(poly_key(f), 0)
        for _ in range(extra):
            out = poly_mul(out, f)
    return out


def _normalize(ctx, num, den):
    num = _demote(dict(num))
    num, extra_den = _reduce_relations(ctx, num)
    if not num:
        return {}, ()
    work = list(den) + extra_den

    # split single-term factors into per-variable powers, clearing scalars,
    # Laurent variables and relation-bearing variables out of the denominator
    simple: Dict[int, int] = {}      # var_id -> power (plain variables)
    composite = []                   # (poly, exp) with >= 2 terms
    extra_num = {ONE_MONO: 1}
    rerun = False
    for f, e in work:
        if e == 0 or not f:
            if not f:
                raise ZeroDivisor("zero denominator factor")
            continue
        if len(f) == 1:
            (mono, coeff), = f.items()
            if coeff != 1:
                num = poly_scale(num, qdiv(1, coeff ** e))
            for v, k in mono:
                p = k * e
                if ctx.laurent[v]:
                    extra_num = poly_mul(extra_num, {((v, -p),): 1})
                elif v in ctx.relations:
                    # 1/v**p = v**p / g**p with g = v**2; fold g**p back in
                    extra_num = poly_mul(extra_num, {((v, p),): 1})
                    g = ctx.relations[v] ** p
                    gden = {ONE_MONO: 1}
                    for fg, eg in g.den:
                        for _ in range(eg):
                            gden = poly_mul(gden, fg)
                    extra_num = poly_mul(extra_num, gden)
                    composite.append((dict(g.num), 1))
                    rerun = True
                else:
                    simple[v] = simple.get(v, 0) + p
        else:
            composite.append((_demote(dict(f)), e))
    if extra_num != {ONE_MONO: 1}:
        num = poly_mul(num, extra_num)
        rerun = True
    if rerun:
        num, extra_den = _reduce_relations(ctx, num)
        for f, e in extra_den:
            if len(f) == 1:  # a normalized factor: a variable, coefficient 1
                (mono,) = f
                for v, k in mono:
                    simple[v] = simple.get(v, 0) + k * e
            else:
                composite.append((f, e))
    if not num:
        return {}, ()

    # cancel numerator monomial content against plain variable powers
    # (the content is only worth its gcds when there are such powers)
    content = None
    if simple:
        for m in num:
            content = m if content is None else mono_gcd(content, m)
            if not content:
                break
    if content:
        strip = []
        for v, e in content:
            if e > 0 and simple.get(v, 0) > 0:
                k = min(e, simple[v])
                simple[v] -= k
                strip.append((v, k))
        if strip:
            strip = tuple(strip)
            num = {mono_div(m, strip): c for m, c in num.items()}

    # exact-division cancellation of composite factors, each first cleared
    # of its Laurent content: a unit, so it moves to the numerator, and the
    # factor left is a polynomial, which the division needs to end
    out_den = []
    merged = {}
    for f, e in composite:
        unit = _laurent_content(ctx, f)
        if unit:
            inv = tuple((v, -k) for v, k in unit)
            f = {mono_mul(m, inv): c for m, c in f.items()}
            inv = tuple((v, -k * e) for v, k in unit)
            num = {mono_mul(m, inv): c for m, c in num.items()}
        k = poly_key(f)
        if k in merged:
            merged[k] = (f, merged[k][1] + e)
        else:
            merged[k] = (f, e)
    # the numerator's own Laurent content is a unit too: divide it out for
    # the divisions, so that a cancellation exact over the Laurent ring is
    # found, and multiply it back after
    num_unit = _laurent_content(ctx, num) if merged else ONE_MONO
    if num_unit:
        inv = tuple((v, -k) for v, k in num_unit)
        num = {mono_mul(m, inv): c for m, c in num.items()}
    for f, e in merged.values():
        while e > 0:
            q = poly_exact_div(ctx, num, f)
            if q is None:
                break
            num = q
            e -= 1
        if e > 0:
            lead = poly_lead(ctx, f)
            lc = f[lead]
            if lc != 1:
                f = poly_scale(f, qdiv(1, lc))
                num = poly_scale(num, qdiv(1, lc ** e))
            out_den.append((f, e))
    if num_unit:
        num = {mono_mul(m, num_unit): c for m, c in num.items()}
    for v, e in simple.items():
        if e > 0:
            out_den.append(({((v, 1),): 1}, e))
    if not num:
        return {}, ()
    out_den.sort(key=lambda fe: poly_key(fe[0]))
    return num, tuple(out_den)


def _laurent_content(ctx, f) -> Mono:
    """The lowest exponent in f of each exponential symbol, as a monomial
    (an exponent counts as 0 in a term without the symbol)."""
    laurent = ctx.laurent
    if True not in laurent:
        return ONE_MONO
    low = None
    for m in f:
        part = {v: e for v, e in m if laurent[v]}
        low = part if low is None else {v: min(low.get(v, 0), part.get(v, 0))
                                        for v in low.keys() | part.keys()}
    return tuple(sorted((v, e) for v, e in low.items() if e))


def _reduce_relations(ctx, num):
    """Rewrite v**k (k >= 2) via v**2 = g inside a numerator polynomial.

    Returns (numerator, extra_denominator_factors); the latter arises when a
    relation value g is itself a fraction (derived parameters).
    """
    if not ctx.relations:
        return num, []
    rel = ctx.relations
    if not any(v in rel and e >= 2 for m in num for v, e in m):
        return num, []
    plain: Dict[Mono, Q] = {}
    patched = None
    for m, c in num.items():
        if any(v in rel and e >= 2 for v, e in m):
            rest = []
            factor = None
            for v, e in m:
                if v in rel and e >= 2:
                    g = rel[v] ** (e // 2)
                    factor = g if factor is None else factor * g
                    if e % 2:
                        rest.append((v, 1))
                else:
                    rest.append((v, e))
            term = factor * DFun(ctx, {tuple(sorted(rest)): c}, (), normalized=True)
            patched = term if patched is None else patched + term
        else:
            plain[m] = c
    total = patched + DFun(ctx, plain, (), normalized=True)
    return dict(total.num), [(dict(f), e) for f, e in total.den]


def _poly_subs(ctx, a: Dict[Mono, Q], vid, value: DFun) -> DFun:
    out = ctx.zero()
    pow_cache = {0: ctx.one()}

    def vpow(k):
        if k not in pow_cache:
            pow_cache[k] = value ** k
        return pow_cache[k]

    for m, c in a.items():
        rest = []
        k = 0
        for v, e in m:
            if v == vid:
                k = e
            else:
                rest.append((v, e))
        # one term of a reduced numerator, less a variable: canonical
        term = DFun(ctx, {tuple(rest): c}, (), normalized=True)
        out = out + (term * vpow(k) if k else term)
    return out


# ---------------------------------------------------------------------------
# vector helpers over DFun


def vec_is_zero(a):
    return all(x.is_zero() for x in a)


def vec_eq(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))
