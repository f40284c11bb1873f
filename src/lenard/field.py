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
integer exponents.  A polynomial is a dict from monomial to coefficient,
and a monomial is one Python int, a packed exponent vector (Monagan and
Pearce, CASC 2007): the exponent e_v of the variable with id v is the
signed EXP_BITS-bit field at bit EXP_BITS*v, the int being the sum of the
e_v * 2**(EXP_BITS*v).  So the monomial 1 is 0, a product of monomials is
the sum of their ints and a quotient their difference.  A negative field
borrows one from the field above; reading a field adds EXP_LIMIT to every
field first, which leaves plain digits.  The fields are 32 bits wide, as
inputs such as u'^40000 need more than 16, and every exponent lies in
[-EXP_LIMIT, EXP_LIMIT), EXP_LIMIT = 2**31.  An operation whose result
would leave that range raises ExponentOverflow; no field ever wraps into
the next.  The check is cheap: when every exponent of two monomials lies
in the guard band [-EXP_LIMIT/2, EXP_LIMIT/2), tested with one addition
and one mask each, their sum cannot leave the range, and only otherwise
are the fields unpacked and added one by one.  Unpacking (mono_items) is
memoized, and orders that follow the (var_id, exponent) pairs, such as
that of a denominator's factors, are taken from the unpacked pairs.

Square-root symbols and derived parameters carry a quadratic relation
v**2 = g and are reduced so no power >= 2 survives; exponential symbols
are Laurent variables (negative powers allowed).  Neither kind ever
remains in a denominator as a factor of its own, and a composite factor
holds no power of a symbol or derived parameter common to all its terms,
nor a negative one.

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
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Dict, Optional

from .errors import ExponentOverflow, ZeroDivisor

Q = Fraction
NEG_INF = float("-inf")

# variable kinds, also the major key of the canonical variable order
KIND_PARAM = 0
KIND_SYMBOL = 1
KIND_X = 2
KIND_GEN = 3

# A monomial: the sum of e_v * 2**(EXP_BITS*v) over the variable ids v, each
# exponent e_v a signed EXP_BITS-bit field in [-EXP_LIMIT, EXP_LIMIT); an
# operation that would take one outside raises ExponentOverflow
Mono = int
ONE_MONO: Mono = 0
EXP_BITS = 32
EXP_LIMIT = 1 << (EXP_BITS - 1)
_MASK = (1 << EXP_BITS) - 1
_PAIRS_END = (float("inf"),)  # closes a mono_sortkey, after every (place, -exp)

# per-field constants over the variable ids of every context so far (_widen;
# they only grow, and cover the _WIDTH ids a monomial can hold): _ONES has bit 0
# of each field, _QB the value EXP_LIMIT/2 in each and _HB EXP_LIMIT.
# m + _QB turns each exponent e into the digit e + EXP_LIMIT/2, so
# (m + _QB) & _HB is zero exactly when every e lies in the guard band
# [-EXP_LIMIT/2, EXP_LIMIT/2), where a sum of two monomials cannot leave
# its fields; and (m + _QB) & (_QB | _HB) == _QB exactly when every e lies
# in [0, EXP_LIMIT/2), where m's raw bits are its fields, top bits clear.
_ONES = _QB = _HB = _WIDTH = 0


def _widen(n):
    """Let the per-field constants cover the variable ids below n: only the
    fields not yet covered are made, so the ids covered cost no division."""
    global _ONES, _QB, _HB, _WIDTH
    if n > _WIDTH:
        _ONES |= ((1 << (EXP_BITS * (n - _WIDTH))) - 1) // _MASK << (EXP_BITS * _WIDTH)
        _QB, _HB, _WIDTH = _ONES << (EXP_BITS - 2), _ONES << (EXP_BITS - 1), n


def _banded(monos) -> bool:
    """Does every exponent of the monomials lie in the guard band?"""
    return not reduce(or_, map(_QB.__add__, monos), 0) & _HB


def _check_exp(e):
    if not -EXP_LIMIT <= e < EXP_LIMIT:
        raise ExponentOverflow("exponent %d leaves the %d-bit exponent field"
                               % (e, EXP_BITS))


def mono_var(vid) -> Mono:
    """The monomial of one variable to the first power."""
    return 1 << (EXP_BITS * vid)


def mono_pack(pairs) -> Mono:
    """The monomial with these (var_id, exponent) pairs."""
    m = 0
    for v, e in pairs:
        _check_exp(e)
        m += e << (EXP_BITS * v)
    return m


@lru_cache(maxsize=1 << 10)
def mono_items(m: Mono):
    """The (var_id, exponent) pairs of m's nonzero fields, by id.  Each step
    reads the lowest nonzero field, found from the lowest set bit, and
    clears it.  Memoized: a computation reuses few monomials many times."""
    pairs = []
    while m:
        shift = (m & -m).bit_length() - 1
        shift -= shift % EXP_BITS
        e = ((m >> shift) + EXP_LIMIT & _MASK) - EXP_LIMIT
        pairs.append((shift // EXP_BITS, e))
        m -= e << shift
    return tuple(pairs)


def mono_exp(m: Mono, vid) -> int:
    """The exponent of one variable in m: biased by EXP_LIMIT, every field
    is a plain digit, with no borrow from the fields below."""
    return ((m + _HB) >> (EXP_BITS * vid) & _MASK) - EXP_LIMIT


def mono_mul(a: Mono, b: Mono) -> Mono:
    """a * b, which is a + b once no exponent of it can leave its field."""
    if not _banded((a, b)):
        exps = dict(mono_items(a))
        for v, e in mono_items(b):
            _check_exp(e + exps.get(v, 0))
    return a + b


def mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    """a / b, or None unless each variable of b occurs in a, to at least
    its power in b.  Divisibility is settled over all of b before an
    exponent is checked, so a quotient that does not exist is None, not
    an overflow."""
    top = 0
    for v, e in mono_items(b):
        have = mono_exp(a, v)
        if not have or have < e:
            return None
        top = max(top, have - e)
    _check_exp(top)
    return a - b


def mono_gcd(a: Mono, b: Mono) -> Mono:
    """Each variable's lower power in a and b, where both are positive."""
    qb, band = _QB, _QB | _HB
    if (a + qb) & band == qb and (b + qb) & band == qb:
        # raw bits with the top bits clear: each field of (a | _HB) - b is
        # EXP_LIMIT + a_v - b_v, its top bit set where a_v >= b_v
        pick = (((a | _HB) - b) >> (EXP_BITS - 1) & _ONES) * _MASK
        return a & ~pick | b & pick
    exps = dict(mono_items(a))
    return mono_pack((v, min(e, exps[v])) for v, e in mono_items(b)
                     if e > 0 and exps.get(v, 0) > 0)


def poly_vars(polys):
    """The ids of the variables occurring in a list of polynomials."""
    out = set()
    for p in polys:
        for m in p:
            for v, _ in mono_items(m):
                out.add(v)
    return out


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
        self._pos = None         # id -> place in descending rank order, when needed
        self._sortkeys = {}      # monomial -> mono_sortkey, until the next id
        self._d_ratios = {}      # id of x or a jet -> its total derivative over it
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
        _widen(vid + 1)
        self._sortkeys = {}
        self._pos = None
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
        return self._adjoin_exp(c, None)

    def adjoin_exp_u(self, c: "DFun", i=0):
        """Adjoin exp(c*u_i) for a nonzero constant c."""
        return self._adjoin_exp(c, i)

    def _adjoin_exp(self, c, i):
        """Adjoin exp(c*t) for t = x (i None) or the generator u_i.  Ids
        follow the order of registration and key()s carry them, so the
        symbol is registered first, then u_i' and u_i."""
        c = self._as_fun(c)
        if not c.is_constant() or c.is_zero():
            raise ValueError("exp rate must be a nonzero constant")
        key = ("exp", "x" if i is None else ("u", i), c.key())
        if key in self._sym_by_expr:
            return self.var_fun(self._sym_by_expr[key])
        name = "exp(%s*%s)" % (c, "x" if i is None else self.gen_names[i])
        vid = self._register(("s", name), name, (KIND_SYMBOL, name), laurent=True)
        self._sym_by_expr[key] = vid
        if i is None:
            dlog, plog, t = c, {}, self.x()
        else:
            dlog, plog, t = c * self.gen(i, 1), {(i, 0): c}, self.gen(i, 0)
        self.sym_dlog[vid], self.sym_plog[vid], self.sym_expr[vid] = dlog, plog, ("exp", c * t)
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
        return DFun(self, {mono_var(vid): 1}, (), normalized=True)

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
        comparable with keys made before the next variable is registered,
        so the cache of keys starts afresh then.
        """
        key = self._sortkeys.get(mono)
        if key is None:
            pos = self._pos
            if pos is None:   # a run of registrations places the ids once
                rank = self._rank
                ranked = sorted(range(len(rank)), key=rank.__getitem__, reverse=True)
                pos = self._pos = {v: i for i, v in enumerate(ranked)}
            deg = 0
            pairs = []
            for v, e in mono_items(mono):
                deg -= e
                pairs.append((pos[v], -e))
            pairs.sort()
            key = self._sortkeys[mono] = (deg, *pairs, _PAIRS_END)
        return key


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


def poly_add_scaled(acc: Dict[Mono, Q], other: Dict[Mono, Q], b: int):
    """acc += b * other, in place, for an integer b."""
    for m, c in other.items():
        v = acc.get(m)
        v = b * c if v is None else v + b * c
        if not v:
            acc.pop(m, None)
        else:
            acc[m] = v if v.__class__ is int or v.denominator != 1 else v.numerator


def poly_mul(a: Dict[Mono, Q], b: Dict[Mono, Q]) -> Dict[Mono, Q]:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    # _banded(a) and _banded(b), inlined: most products are of single terms
    qb = _QB
    band = 0
    for m in a:
        band |= m + qb
    for m in b:
        band |= m + qb
    if band & _HB:
        for ma in a:
            for mb in b:
                mono_mul(ma, mb)  # raises if an exponent leaves its field
    out: Dict[Mono, Q] = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
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
    banded = _banded(t for t, _ in tail)
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
        plain = banded and _banded((m,))
        for t, ct in tail:
            mt = m + t if plain else mono_mul(m, t)
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
        for v, e in mono_items(m):
            t = top.get(v, 0)
            if t is not None and (e < 0 or e > t):
                top[v] = None if e < 0 else e
    return top


def _poly_derive(a: Dict[Mono, Q], ratios: Dict[int, Mono]) -> Dict[Mono, Q]:
    """The derivation v -> ratios[v] * v (ratios[v] a Laurent monomial; 0
    for the variables not listed) applied to a polynomial: sum over v of
    d(a)/dv * ratios[v] * v, each term of d(a)/dv * v being e * m."""
    out: Dict[Mono, Q] = {}
    plain = _banded(a)  # then m + ratio stays in its fields, a ratio's exponents 0 or +-1
    for m, c in a.items():
        for v, e in mono_items(m):
            ratio = ratios.get(v)
            if ratio is None:
                continue
            key = m + ratio if plain else mono_mul(m, ratio)
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
    _poly_derive's ratios of image to variable (x -> 1, u_i^(n) ->
    u_i^(n+1); parameters get none), and the dlog rates of the symbols
    among them, in id order."""
    ratios = {}
    rates = {}
    cache = ctx._d_ratios
    for vid in sorted(vids):
        ratio = cache.get(vid)
        if ratio is None:
            kind = ctx.var_key(vid)
            if kind[0] == "x":
                ratio = cache[vid] = -mono_var(vid)
            elif kind[0] == "u":
                ratio = cache[vid] = (mono_var(ctx.gen_var(kind[1], kind[2] + 1))
                                      - mono_var(vid))
            else:
                if kind[0] == "s":
                    rates[vid] = ctx.sym_dlog[vid]
                continue
        ratios[vid] = ratio
    return ratios, rates


# ---------------------------------------------------------------------------
# batches: a list of vectors of numerators over one shared denominator (a
# tuple of (factor, exponent) like DFun.den), unnormalized, with relations
# unreduced; an operator maps a whole ansatz basis this way at once


def _derivation(ctx, nums, den, ratios, rates):
    """The derivation v -> ratios[v] * v (see _poly_derive) on x and the
    jets, and s -> rates[s] * s on each symbol s (rates[s], a field element,
    the derivative of log s), applied to numerators over one denominator
    den by one quotient rule: (numerators, denominator), unnormalized,
    relations not reduced.  It runs times B, the lcm of the rates'
    denominators (sqrt's g'/(2g) has one), so it maps polynomials to
    polynomials: B times the jet part, plus d/ds times s rates[s] B for
    each symbol s.  B joins the shared denominator."""
    shared = ()
    for r in rates.values():
        if r.den:
            shared = _den_lcm(shared, r.den)
    unit = _den_cofactor(shared, ())
    rules = [({sid: -mono_var(sid)},
              poly_mul(poly_mul({mono_var(sid): 1}, r.num), _den_cofactor(shared, r.den)))
             for sid, r in rates.items()]

    def derive(p):
        out = _poly_derive(p, ratios)
        if shared:
            out = poly_mul(out, unit)
        for d_ds, image in rules:
            ds = _poly_derive(p, d_ds)
            if ds:
                poly_add_into(out, poly_mul(ds, image))
        return out

    return _quotient_rule(nums, den, derive, shared)


def batch_derivative(ctx, cols, den):
    """The total derivative of numerator vectors over one denominator den,
    through the symbols' dlog rates: (vectors, denominator), unnormalized,
    relations not reduced (see _derivation)."""
    nums = [p for vec in cols for p in vec]
    ratios, rates = _jet_images(ctx, poly_vars(nums + [f for f, _ in den]))
    nums, den = _derivation(ctx, nums, den, ratios, rates)
    it = iter(nums)
    return [[next(it) for _ in vec] for vec in cols], den


def over_lcm(funs):
    """Field elements as numerators over the lcm of their denominators:
    (numerators, lcm).  With no denominator the numerators are the
    elements' own, so they are only to be read."""
    lcm = ()
    for f in funs:
        if f.den:
            lcm = _den_lcm(lcm, f.den)
    if not lcm:
        return [f.num for f in funs], lcm
    return [poly_mul(f.num, _den_cofactor(lcm, f.den)) for f in funs], lcm


def batch_matmul(matrix, cols, den):
    """Left-multiply numerator vectors over one denominator den by a matrix
    of field elements.  An entry contributes its numerator times its
    cofactor in L, the lcm of the entries' denominators, and L joins den.
    Returns (vectors, denominator), unnormalized."""
    nums, lcm = over_lcm([a for row in matrix for a in row])
    it = iter(nums)
    mult = [[next(it) for _ in row] for row in matrix]
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
        return poly_vars([self.num] + [f for f, _ in self.den])

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
        if self.is_one() or other.is_one():  # the other is normalized already
            return other if self.is_one() else self
        num = poly_mul(self.num, other.num)
        if not self.den and not other.den:
            return field_element(self.ctx, num, ())
        return DFun(self.ctx, num, _den_merge(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisor("inverse of zero")
        return DFun(self.ctx, _den_expand(self.den), ((dict(self.num), 1),))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        """self**k by repeated squaring; raises ExponentOverflow before any
        work when k times an exponent of self could leave its field."""
        if k == 0:
            return self.ctx.one()
        if abs(k) > 1:
            top = max((abs(e) for p in [self.num] + [f for f, _ in self.den]
                       for m in p for _, e in mono_items(m)), default=0)
            if abs(k) * top >= EXP_LIMIT:
                raise ExponentOverflow("power %d leaves the %d-bit exponent field"
                                       % (k, EXP_BITS))
        if k < 0:
            return self.inverse() ** -k
        if k == 1:
            return self
        half = self ** (k // 2)
        return half * half * self if k % 2 else half * half

    # -- calculus ---------------------------------------------------------------

    def _derive(self, ratios, rates=None):
        """_derivation on self: one normalization."""
        if not self.den and not rates:
            return DFun(self.ctx, _poly_derive(self.num, ratios), (), normalized=True)
        (num,), den = _derivation(self.ctx, [self.num], self.den, ratios, rates or {})
        return DFun(self.ctx, num, den)

    def _formal_partial(self, vid):
        """d/d(var) treating every variable as independent (no chain rules)."""
        return self._derive({vid: -mono_var(vid)})

    def total_derivative(self):
        """d/dx through x, all jets (u_i^(n) -> u_i^(n+1)) and symbol rules."""
        if self._td is None:
            self._td = self._derive(*_jet_images(self.ctx, self._vars()))
        return self._td

    def partial(self, i, n):
        """d/d(u_i^(n)) with the symbol chain rule; memoized per (i, n)."""
        if self._jp is None:
            self._jp = {}  # (i, n) -> partial, and i -> jet_partials(i)
        out = self._jp.get((i, n))
        if out is None:
            ctx = self.ctx
            vid = ctx.gen_var(i, n)
            rates = {s: ctx.sym_plog[s][(i, n)] for s in sorted(self._vars())
                     if ctx.is_symbol_var(s) and (i, n) in ctx.sym_plog[s]}
            out = self._jp[(i, n)] = self._derive({vid: -mono_var(vid)}, rates)
        return out

    def jet_partials(self, i):
        """{n: d/d(u_i^(n))} without zero entries; memoized, so callers only read it."""
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
        if self._dord == -2:  # the top n with a nonzero partial, read from the top down
            self._dord = next((n for i, n in sorted(self.jet_vars(), key=lambda p: -p[1])
                               if self.partial(i, n)), NEG_INF)
        return self._dord

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


def field_element(ctx, num, den) -> DFun:
    """num / den as a field element.  A polynomial whose relations reduce
    without a denominator is canonical as it is, and skips _normalize."""
    if not den:
        reduced, extra_den = _reduce_relations(ctx, num)
        if not extra_den:
            return DFun(ctx, reduced, (), normalized=True)
    return DFun(ctx, num, den)


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


def _den_expand(den) -> Dict[Mono, Q]:
    """The product of f**e over the factors (f, e) of den, multiplied out."""
    out = {ONE_MONO: 1}
    for f, e in den:
        for _ in range(e):
            out = poly_mul(out, f)
    return out


def _den_cofactor(lcm, den) -> Dict[Mono, Q]:
    have = {poly_key(f): e for f, e in den}
    return _den_expand([(f, e - have.get(poly_key(f), 0)) for f, e in lcm])


def _normalize(ctx, num, den):
    num = _demote(dict(num))
    num, extra_den = _reduce_relations(ctx, num)
    if not num:
        return {}, ()
    work = list(den) + extra_den

    # split single-term factors into per-variable powers, clearing scalars,
    # Laurent variables and relation-bearing variables out of the denominator,
    # where the relation variables dividing every term of a composite go too
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
            for v, k in mono_items(mono):
                p = k * e
                if ctx.laurent[v]:
                    extra_num = poly_mul(extra_num, {mono_pack([(v, -p)]): 1})
                elif v in ctx.relations:
                    # 1/v**p = v**p / g**p with g = v**2; fold g**p back in,
                    # its numerator a factor like any other (one term is plain)
                    extra_num = poly_mul(extra_num, {mono_pack([(v, p)]): 1})
                    g = ctx.relations[v] ** p
                    extra_num = poly_mul(extra_num, _den_expand(g.den))
                    work.append((g.num, 1))
                    rerun = True
                else:
                    simple[v] = simple.get(v, 0) + p
        else:
            cut = sum(min(mono_exp(m, v) for m in f) << (EXP_BITS * v)
                      for v in ctx.relations if all(mono_exp(m, v) > 0 for m in f))
            if cut:
                work += [({cut: 1}, e), ({m - cut: c for m, c in f.items()}, e)]
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
                for v, k in mono_items(mono):
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
        strip = ONE_MONO  # divides every monomial, each exponent at most its own
        for v, e in mono_items(content):
            if e > 0 and simple.get(v, 0) > 0:
                k = min(e, simple[v])
                simple[v] -= k
                strip += k << (EXP_BITS * v)
        if strip:
            num = {m - strip: c for m, c in num.items()}

    # exact-division cancellation of composite factors, each first cleared
    # of its Laurent content: a unit, so it moves to the numerator, and the
    # factor left is a polynomial, which the division needs to end
    out_den = []
    merged = {}
    for f, e in composite:
        unit = _laurent_content(ctx, f)
        if unit:
            inv = mono_pack((v, -k) for v, k in mono_items(unit))
            f = {mono_mul(m, inv): c for m, c in f.items()}
            inv = mono_pack((v, -k * e) for v, k in mono_items(unit))
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
        inv = mono_pack((v, -k) for v, k in mono_items(num_unit))
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
            out_den.append(({mono_var(v): 1}, e))
    if not num:
        return {}, ()
    if len(out_den) > 1:  # in the order of their terms' (var_id, exponent) pairs
        out_den.sort(key=lambda fe: sorted((mono_items(m), c) for m, c in fe[0].items()))
    return num, tuple(out_den)


def _laurent_content(ctx, f) -> Mono:
    """The lowest exponent in f of each exponential symbol, as a monomial
    (an exponent counts as 0 in a term without the symbol)."""
    laurent = ctx.laurent
    if True not in laurent:
        return ONE_MONO
    low = None
    for m in f:
        part = {v: e for v, e in mono_items(m) if laurent[v]}
        low = part if low is None else {v: min(low.get(v, 0), part.get(v, 0))
                                        for v in low.keys() | part.keys()}
    return mono_pack(low.items())


def _reduce_relations(ctx, num):
    """Rewrite v**k (k >= 2) via v**2 = g inside a numerator polynomial.

    Returns (numerator, extra_denominator_factors); the latter arises when a
    relation value g is itself a fraction (derived parameters).
    """
    if not ctx.relations:
        return num, []
    rel = ctx.relations
    vids = sorted(rel)
    if not any(mono_exp(m, v) >= 2 for m in num for v in vids):
        return num, []
    plain: Dict[Mono, Q] = {}
    patched = None
    for m, c in num.items():
        if any(mono_exp(m, v) >= 2 for v in vids):
            rest = m
            factor = None
            for v in vids:
                e = mono_exp(m, v)
                if e >= 2:
                    g = rel[v] ** (e // 2)
                    factor = g if factor is None else factor * g
                    rest -= (e - e % 2) << (EXP_BITS * v)
            term = factor * DFun(ctx, {rest: c}, (), normalized=True)
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
        k = mono_exp(m, vid)
        # one term of a reduced numerator, less a variable: canonical
        term = DFun(ctx, {m - (k << (EXP_BITS * vid)): c}, (), normalized=True)
        out = out + (term * vpow(k) if k else term)
    return out


# ---------------------------------------------------------------------------
# vector helpers over DFun


def vec_is_zero(a):
    return all(x.is_zero() for x in a)


def vec_eq(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))
