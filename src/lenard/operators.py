"""Pseudodifferential operator calculus.

ScalarPsdOp is a sparse Laurent map degree -> coefficient with an optional
accuracy floor (None means every stored coefficient list is complete).
Composition follows the symbol rule (A o B)(l) = A(l+d) B(l), i.e.
sum binom(m, k) a_m b_n^(k) l^(m+n-k); floors shrink by the documented
formula max(floor_A + topdeg(B), floor_B + topdeg(A)).

MatrixPsdOp wraps a grid of scalars; RationalOpPair is a chain
A1 B1^-1 ... An Bn^-1 of matrix differential operators with nondegenerate
denominators, expanded on demand by leading-term inversion.  It serves the
frac(...) and chain(...) operator inputs and the fraction A B^-1 of a
chains.StructurePair; an atom chain is expanded as a product of symbols
instead (jacobi._symbol).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .errors import (InsufficientTruncation, NotDifferential, SingularLeadingSymbol,
                     ZeroDivisor)
from .field import DFun, NEG_INF, batch_derivative, batch_matmul, batch_sum

DEFAULT_GUARD = 6


def binom(m: int, k: int) -> int:
    """binom(m, k) for integer m of either sign; 0 for k < 0.  For m < 0,
    binom(m, k) = (-1)^k binom(k - m - 1, k)."""
    if k < 0:
        return 0
    return math.comb(m, k) if m >= 0 else (-1) ** k * math.comb(k - m - 1, k)


def _binomial_shift(h: Dict[int, DFun], t: Dict[int, DFun], floor: Optional[int] = None,
                    out: Optional[Dict[int, DFun]] = None) -> Dict[int, DFun]:
    """h(l+d) applied to t: sum of binom(q, k) h_q d^k(t_p) at degree q+p-k.

    The one univariate shift kernel, called by ScalarPsdOp.compose and
    ScalarPsdOp.adjoint only (the Jacobi grid's (l+m+d)^r and the master
    formula's (l+d)^n rows walk their own numerator towers, see
    jacobi._grid_trinomial and brackets._shifted_rows).  Each t_p's
    total-derivative tower is walked once and serves every q; h_q
    multiplies each degree's sum over (p, k) once.  Degrees below the floor
    are dropped.  For q >= 0 the k-sum is finite; for q < 0 it runs down to
    the floor, or, without one, until d^k(t_p) vanishes, which never
    happens when t_p has a jet variable (its top jet partial survives every
    d): InsufficientTruncation at once for such a t_p, and past k = 80 for
    a quasiconstant.  Terms are added into `out` when it is given.
    """
    if out is None:
        out = {}
    sums: Dict[int, Dict[int, DFun]] = {q: {} for q in h}
    for p, c in t.items():
        reach = {}  # q -> last k; None runs until d^k(t_p) vanishes
        for q in h:
            kmax = None if floor is None else q + p - floor
            if q >= 0:
                kmax = q if kmax is None else min(q, kmax)
            if kmax is None or kmax >= 0:
                reach[q] = kmax
        top = None if None in reach.values() else max(reach.values(), default=-1)
        weights = dict.fromkeys(reach, 1)  # q -> binom(q, k), stepped with k
        k = 0
        while top is None or k <= top:
            if k:
                c = c.total_derivative()
            if c.is_zero():
                break
            if top is None and (k > 80 or c.dord() != NEG_INF):
                raise InsufficientTruncation(
                    "composition has an infinite tail; pass a floor")
            for q, kmax in reach.items():
                if kmax is None or k <= kmax:
                    b = weights[q]
                    _accumulate(sums[q], q + p - k, c if b == 1 else c * b)
                    weights[q] = b * (q - k) // (k + 1)
            k += 1
    for q, a in h.items():
        unit = a.is_one()
        for deg, s in sums[q].items():
            _accumulate(out, deg, s if unit else s * a)
    return out


def _jf(a, b):
    """Join two floors (None = exact)."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _accumulate(acc: dict, key, term) -> None:
    """acc[key] += term, dropping a sum that cancels."""
    s = acc.get(key)
    s = term if s is None else s + term
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


class ScalarPsdOp:
    """A truncated-Laurent pseudodifferential operator; exact when floor is None."""

    __slots__ = ("ctx", "coeffs", "floor")

    def __init__(self, ctx, coeffs: Dict[int, DFun], floor: Optional[int] = None):
        self.ctx = ctx
        cleaned = {}
        for n, c in coeffs.items():
            if not c.is_zero() and (floor is None or n >= floor):
                cleaned[n] = c
        self.coeffs = cleaned
        self.floor = floor

    @classmethod
    def zero(cls, ctx, floor=None):
        return cls(ctx, {}, floor)

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, {0: ctx.one()})

    @classmethod
    def d(cls, ctx, k=1):
        return cls(ctx, {k: ctx.one()})

    @classmethod
    def of_fun(cls, f: DFun):
        return cls(f.ctx, {0: f})

    def is_zero(self):
        return not self.coeffs

    def order(self):
        """|D|: the top degree with nonzero coefficient (-inf for zero)."""
        return max(self.coeffs) if self.coeffs else NEG_INF

    def min_degree(self):
        return min(self.coeffs) if self.coeffs else NEG_INF

    def is_differential(self):
        return self.floor is None and (not self.coeffs or self.min_degree() >= 0)

    def dord(self):
        d = NEG_INF
        for c in self.coeffs.values():
            cd = c.dord()
            if cd != NEG_INF and (d == NEG_INF or cd > d):
                d = cd
        return d

    def truncate(self, floor):
        if floor is None:
            if self.floor is not None:
                raise InsufficientTruncation("cannot un-truncate")
            return self
        if self.floor is not None and floor < self.floor:
            raise InsufficientTruncation(
                "requested floor %d below accuracy %d" % (floor, self.floor))
        return ScalarPsdOp(self.ctx, {n: c for n, c in self.coeffs.items() if n >= floor},
                           floor)

    def __add__(self, other):
        if isinstance(other, ScalarPsdOp):
            out = dict(self.coeffs)
            for n, c in other.coeffs.items():
                _accumulate(out, n, c)
            return ScalarPsdOp(self.ctx, out, _jf(self.floor, other.floor))
        return NotImplemented

    def __neg__(self):
        return ScalarPsdOp(self.ctx, {n: -c for n, c in self.coeffs.items()}, self.floor)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f: DFun):
        """Left multiplication by a function."""
        return ScalarPsdOp(self.ctx, {n: f * c for n, c in self.coeffs.items()}, self.floor)

    def compose(self, other: "ScalarPsdOp", floor: Optional[int] = None) -> "ScalarPsdOp":
        """A o B by the symbol formula; floor required when the tail is infinite.
        A floor below the one the operands support raises, but is joined for
        a zero product.  The top degree an operand may hold is its order, or
        floor - 1 for a zero; an exact zero holds none and the product is exact."""
        ctx = self.ctx
        ta, tb = (op.order() if op.coeffs else None if op.floor is None else op.floor - 1
                  for op in (self, other))
        derived = _jf(None if self.floor is None or tb is None else self.floor + tb,
                      None if other.floor is None or ta is None else other.floor + ta)
        if self.is_zero() or other.is_zero():
            return ScalarPsdOp.zero(ctx, _jf(floor, derived))
        if floor is not None and derived is not None and floor < derived:
            raise InsufficientTruncation(
                "requested floor %d below supported %d" % (floor, derived))
        out_floor = floor if floor is not None else derived
        out = _binomial_shift(self.coeffs, other.coeffs, out_floor)
        return ScalarPsdOp(ctx, out, out_floor)

    def __matmul__(self, other):
        return self.compose(other)

    def adjoint(self, floor: Optional[int] = None) -> "ScalarPsdOp":
        """Formal adjoint: (a d^n)* = (-d)^n o a."""
        ctx = self.ctx
        out_floor = _jf(floor, self.floor)
        out: Dict[int, DFun] = {}
        for n, a in self.coeffs.items():
            _binomial_shift({n: ctx.const(-1 if n % 2 else 1)}, {0: a}, out_floor, out)
        return ScalarPsdOp(ctx, out, out_floor)

    def apply(self, f: DFun) -> DFun:
        """Apply a differential operator to a function."""
        if not self.is_differential():
            raise NotDifferential("operator has negative-degree terms")
        out = self.ctx.zero()
        if self.is_zero():
            return out
        tower = [f]
        for _ in range(int(self.order())):
            tower.append(tower[-1].total_derivative())
        for n, a in self.coeffs.items():
            out = out + a * tower[n]
        return out

    def inverse(self, floor: int) -> "ScalarPsdOp":
        """B^-1 to the floor, by leading-term recursion: an error term at
        degree e is corrected at e - N, N the order, so the error is formed
        down to floor + min(0, N).  compose refuses that floor when B's own
        floor does not support it."""
        ctx = self.ctx
        if self.is_zero():
            raise ZeroDivisor("inverse of the zero operator")
        N = self.order()
        bN = self.coeffs[N]
        if bN.is_zero():
            raise SingularLeadingSymbol("zero leading coefficient")
        bNi = bN.inverse()
        inv = ScalarPsdOp(ctx, {-N: bNi}, None)
        err_floor = floor + min(0, N)
        err = ScalarPsdOp.identity(ctx) - self.compose(inv, err_floor)
        guard = 0
        while not err.is_zero():
            e = err.order()
            if e - N < floor:
                break
            t = ScalarPsdOp(ctx, {e - N: bNi * err.coeffs[e]})
            inv = inv + t
            err = err - self.compose(t, err_floor)
            guard += 1
            if guard > 4 * (N - floor) + 200:
                raise InsufficientTruncation("inverse iteration did not converge")
        return ScalarPsdOp(ctx, inv.coeffs, floor)

    def eq_to_floor(self, other, floor):
        d = self - other
        for n, c in d.coeffs.items():
            if n >= floor and not c.is_zero():
                return False
        fl = d.floor
        return fl is None or fl <= floor

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs, reverse=True):
            c = self.coeffs[n]
            cs = str(c)
            if n == 0:
                parts.append(cs)
            else:
                dd = "D" if n == 1 else "D^%d" % n
                parts.append(dd if c.is_one() else "(%s) %s" % (cs, dd))
        body = " + ".join(parts)
        if self.floor is not None:
            body += "  [floor %d]" % self.floor
        return body

    __repr__ = __str__


class MatrixPsdOp:
    """A matrix of scalar pseudodifferential operators."""

    __slots__ = ("ctx", "entries",)

    def __init__(self, entries: List[List[ScalarPsdOp]]):
        self.entries = entries
        self.ctx = entries[0][0].ctx

    @classmethod
    def scalar(cls, op: ScalarPsdOp):
        return cls([[op]])

    @classmethod
    def identity(cls, ctx, n):
        return cls([[ScalarPsdOp.identity(ctx) if i == j else ScalarPsdOp.zero(ctx)
                     for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, ctx, rows, cols, floor=None):
        return cls([[ScalarPsdOp.zero(ctx, floor) for _ in range(cols)]
                    for _ in range(rows)])

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    def entry(self, i, j):
        return self.entries[i][j]

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def order(self):
        o = NEG_INF
        for row in self.entries:
            for e in row:
                oe = e.order()
                if oe != NEG_INF and (o == NEG_INF or oe > o):
                    o = oe
        return o

    def dord(self):
        d = NEG_INF
        for row in self.entries:
            for e in row:
                de = e.dord()
                if de != NEG_INF and (d == NEG_INF or de > d):
                    d = de
        return d

    def floor(self):
        fl = None
        for row in self.entries:
            for e in row:
                fl = _jf(fl, e.floor)
        return fl

    def is_differential(self):
        return all(e.is_differential() for row in self.entries for e in row)

    def map(self, fn):
        return MatrixPsdOp([[fn(e) for e in row] for row in self.entries])

    def truncate(self, floor):
        return self.map(lambda e: e.truncate(floor))

    def __add__(self, other):
        return MatrixPsdOp([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return MatrixPsdOp([[a - b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return self.map(lambda e: -e)

    def scale(self, f: DFun):
        return self.map(lambda e: e.scale(f))

    def compose(self, other: "MatrixPsdOp", floor=None) -> "MatrixPsdOp":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    t = self.entries[i][k].compose(other.entries[k][j], floor)
                    acc = t if acc is None else acc + t
                row.append(acc)
            out.append(row)
        return MatrixPsdOp(out)

    def __matmul__(self, other):
        return self.compose(other)

    def adjoint(self, floor=None) -> "MatrixPsdOp":
        return MatrixPsdOp([[self.entries[j][i].adjoint(floor)
                             for j in range(self.rows)] for i in range(self.cols)])

    def apply(self, F):
        if not self.is_differential():
            raise NotDifferential("operator has negative-degree terms")
        if len(F) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = self.ctx.zero()
            for j in range(self.cols):
                acc = acc + self.entries[i][j].apply(F[j])
            out.append(acc)
        return out

    def apply_batch(self, cols, den):
        """apply on a batch of numerator vectors over one shared denominator
        (see AtomChain.apply_batch): the batch's derivative tower once, then
        the coefficient matrix of each power of d."""
        if not self.is_differential():
            raise NotDifferential("operator has negative-degree terms")
        zero = self.ctx.zero()
        powers = {n for row in self.entries for e in row for n in e.coeffs}
        parts = []
        for n in range(max(powers, default=-1) + 1):
            if n:
                cols, den = batch_derivative(self.ctx, cols, den)
            if n in powers:
                matrix = [[e.coeffs.get(n, zero) for e in row] for row in self.entries]
                parts.append(batch_matmul(matrix, cols, den))
        if not parts:
            return [[{} for _ in range(self.rows)] for _ in cols], den
        return batch_sum(parts)

    def leading_matrix(self):
        """Coefficients of d^|self| entrywise (a DFun matrix)."""
        N = self.order()
        z = self.ctx.zero()
        return [[self.entries[i][j].coeffs.get(N, z) for j in range(self.cols)]
                for i in range(self.rows)]

    def inverse(self, floor: int) -> "MatrixPsdOp":
        return _mat_inverse(self, floor)

    def eq_to_floor(self, other, floor):
        return all(a.eq_to_floor(b, floor)
                   for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def __str__(self):
        if self.rows == 1 and self.cols == 1:
            return str(self.entries[0][0])
        return "[" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"

    __repr__ = __str__


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _mat_inverse(B: MatrixPsdOp, floor: int) -> MatrixPsdOp:
    ctx = B.ctx
    n = B.rows
    if n != B.cols:
        raise ValueError("inverse of a non-square matrix")
    if n == 1:
        return MatrixPsdOp.scalar(B.entries[0][0].inverse(floor))
    # pivot: first row whose leading column-0 entry is nonzero
    pivot = None
    for r in range(n):
        if not B.entries[r][0].is_zero():
            pivot = r
            break
    if pivot is None:
        raise SingularLeadingSymbol("zero column during inversion")
    perm = list(range(n))
    perm[0], perm[pivot] = perm[pivot], perm[0]
    rows = [B.entries[perm[i]] for i in range(n)]
    a = rows[0][0]
    b = [rows[0][j] for j in range(1, n)]
    c = [rows[i][0] for i in range(1, n)]
    d = [[rows[i][j] for j in range(1, n)] for i in range(1, n)]
    guard = int(2 * abs(B.order())) + 4 if B.order() != NEG_INF else 4
    work = floor - guard
    ai = a.inverse(work)
    # Schur complement s = d - c o a^-1 o b
    s_entries = []
    for i in range(n - 1):
        row = []
        for j in range(n - 1):
            t = c[i].compose(ai).compose(b[j])
            row.append(d[i][j] - t)
        s_entries.append(row)
    s = MatrixPsdOp(s_entries)
    si = _mat_inverse(s, work)
    # assemble the block formula for (PB)^-1
    aib = [ai.compose(bj) for bj in b]
    cai = [ci.compose(ai) for ci in c]
    tl = ai
    for i in range(n - 1):
        for j in range(n - 1):
            tl = tl + aib[i].compose(si.entries[i][j]).compose(cai[j])
    out = [[None] * n for _ in range(n)]
    out[0][0] = tl
    for j in range(n - 1):
        acc = None
        for i in range(n - 1):
            t = aib[i].compose(si.entries[i][j])
            acc = t if acc is None else acc + t
        out[0][j + 1] = -acc
    for i in range(n - 1):
        acc = None
        for j in range(n - 1):
            t = si.entries[i][j].compose(cai[j])
            acc = t if acc is None else acc + t
        out[i + 1][0] = -acc
    for i in range(n - 1):
        for j in range(n - 1):
            out[i + 1][j + 1] = si.entries[i][j]
    M = MatrixPsdOp(out)
    # right-multiply by the permutation: column swap
    cols = [[M.entries[i][perm[j]] for j in range(n)] for i in range(n)]
    return MatrixPsdOp(cols).truncate(floor)


def is_nondegenerate(B: MatrixPsdOp) -> bool:
    """Invertibility in the skew field of matrix pseudodifferential operators."""
    if B.is_zero():
        return False
    if B.rows != B.cols:
        return False
    if B.rows == 1:
        return not B.entries[0][0].is_zero()
    lead = B.leading_matrix()
    if B.rows == 2 and not _det2(lead).is_zero():
        return True
    try:
        B.inverse(default_floor(B))
        return True
    except (SingularLeadingSymbol, ZeroDivisor):
        return False


def default_floor(*ops) -> int:
    """Default truncation depth: -(2*max|order| + 6)."""
    m = 1
    for op in ops:
        o = op.order()
        if o != NEG_INF:
            m = max(m, int(abs(o)))
    return -(2 * m + DEFAULT_GUARD)


class RationalOpPair:
    """A chain A1 B1^-1 A2 B2^-1 ... An Bn^-1 of matrix differential operators."""

    __slots__ = ("pairs", "ctx", "_cache")

    def __init__(self, pairs):
        norm = []
        for a, b in pairs:
            if isinstance(a, ScalarPsdOp):
                a = MatrixPsdOp.scalar(a)
            if isinstance(b, ScalarPsdOp):
                b = MatrixPsdOp.scalar(b)
            norm.append((a, b))
        self.pairs = norm
        self.ctx = norm[0][0].ctx
        self._cache = {}

    @classmethod
    def fraction(cls, a, b):
        return cls([(a, b)])

    @property
    def ell(self):
        return self.pairs[0][0].rows

    def is_single(self):
        return len(self.pairs) == 1

    def expand(self, floor: int) -> MatrixPsdOp:
        """Laurent expansion of the chain product, accurate to the floor."""
        if floor not in self._cache:
            self._cache[floor] = _expand_chain(self.pairs, floor)
        return self._cache[floor]

    def adjoint_sum(self) -> "OperatorSum":
        """The adjoint chain (Bn*)^-1 An* ... (B1*)^-1 A1* as an expandable."""
        return OperatorSum([(self.ctx.one(), _AdjointChain(self))])

    def __str__(self):
        if self.is_single():
            return "frac(%s, %s)" % self.pairs[0]
        return "chain(" + ", ".join("(%s, %s)" % p for p in self.pairs) + ")"

    __repr__ = __str__


def _expand_chain(pairs, floor: int) -> MatrixPsdOp:
    """Product of a b^-1 over the ordered pairs, accurate to the floor.

    Each b^-1 is expanded to the floor its pair needs; the whole product is
    retried with a deeper margin (extra 1, 4, 16) when truncation falls short.
    """
    tops = [max(0, int(a.order() - b.order())) if a.order() != NEG_INF else 0
            for a, b in pairs]
    total = sum(tops)
    for extra in (1, 4, 16):
        acc = None
        for (a, b), top in zip(pairs, tops):
            need = floor - (total - top) - extra
            a_top = int(a.order()) if a.order() != NEG_INF else 0
            part = a.compose(b.inverse(need - max(0, a_top)))
            acc = part if acc is None else acc.compose(part)
        try:
            return acc.truncate(floor)
        except InsufficientTruncation:
            continue
    raise InsufficientTruncation("chain expansion did not reach floor %d" % floor)


class _AdjointChain:
    """Expandable adjoint of a chain; used by the skewadjointness check."""

    __slots__ = ("base",)

    def __init__(self, base: RationalOpPair):
        self.base = base

    @property
    def ctx(self):
        return self.base.ctx

    @property
    def ell(self):
        return self.base.ell

    def expand(self, floor: int) -> MatrixPsdOp:
        # exact to the floor: a_n d^n only reaches degrees <= n under adjoint
        return self.base.expand(floor).adjoint(floor)

    def adjoint_sum(self) -> "OperatorSum":
        return structure_sum(self.base)


class OperatorSum:
    """A constant-linear combination of expandable structures."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = list(terms)

    @property
    def ctx(self):
        return self.terms[0][1].ctx

    @property
    def ell(self):
        return self.terms[0][1].ell

    def expand(self, floor: int) -> MatrixPsdOp:
        acc = None
        for c, t in self.terms:
            part = t.expand(floor).scale(c)
            acc = part if acc is None else acc + part
        return acc

    def adjoint_sum(self):
        return OperatorSum([(c * c2, t2) for c, t in self.terms
                            for c2, t2 in t.adjoint_sum().terms])

    def __add__(self, other):
        return OperatorSum(self.terms + structure_sum(other).terms)

    def __str__(self):
        return " + ".join("(%s)*%s" % (c, t) for c, t in self.terms)


def structure_sum(H) -> OperatorSum:
    """Coerce a structure (pair, sum, or expandable) to an OperatorSum."""
    if isinstance(H, OperatorSum):
        return H
    one = H.ctx.one()
    return OperatorSum([(one, H)])


def expand_fraction(H, floor: int) -> MatrixPsdOp:
    """Laurent expansion of a rational operator (chain or sum) to the floor."""
    return structure_sum(H).expand(floor)


def verify_fraction(X, H, floor: int) -> bool:
    """True iff the fraction H expands to the same series as the structure
    X, to the floor."""
    ref = expand_fraction(X, floor)
    return expand_fraction(H, floor).eq_to_floor(ref, floor)


# ---------------------------------------------------------------------------
# scalar skew-Euclidean algorithms


def skew_divide(A: ScalarPsdOp, B: ScalarPsdOp, side="left"):
    """Division with |R| < |B| (scalar, differential): A = Q o B + R for
    side="left", A = B o Q + R for side="right"."""
    if B.is_zero():
        raise ZeroDivisor("division by the zero operator")
    if not (A.is_differential() and B.is_differential()):
        raise NotDifferential("skew division needs differential operators")
    ctx = A.ctx
    nB = int(B.order())
    lBi = B.coeffs[nB].inverse()
    Q_ = ScalarPsdOp.zero(ctx)
    R = A
    while not R.is_zero() and R.order() >= nB:
        k = int(R.order()) - nB
        lead = R.coeffs[int(R.order())]
        if side == "left":
            t = ScalarPsdOp(ctx, {k: lead * lBi})
            R = R - t.compose(B)
        else:
            t = ScalarPsdOp(ctx, {k: lBi * lead})
            R = R - B.compose(t)
        Q_ = Q_ + t
    return Q_, R


def right_lcm(A: ScalarPsdOp, B: ScalarPsdOp):
    """Cofactors (Bt, At) with A o Bt = B o At, the right least common multiple.

    Computed by the extended Euclidean scheme with right-quotient divisions;
    the identity is re-verified by exact expansion before returning.
    """
    if A.is_zero() or B.is_zero():
        raise ZeroDivisor("right lcm needs nonzero operators")
    if not (A.is_differential() and B.is_differential()):
        raise NotDifferential("right lcm needs differential operators")
    ctx = A.ctx
    r_prev, r_cur = A, B
    x_prev, x_cur = ScalarPsdOp.identity(ctx), ScalarPsdOp.zero(ctx)
    y_prev, y_cur = ScalarPsdOp.zero(ctx), ScalarPsdOp.identity(ctx)
    while not r_cur.is_zero():
        q, r_next = skew_divide(r_prev, r_cur, side="right")
        x_next = x_prev - x_cur.compose(q)
        y_next = y_prev - y_cur.compose(q)
        r_prev, r_cur = r_cur, r_next
        x_prev, x_cur = x_cur, x_next
        y_prev, y_cur = y_cur, y_next
    gcd_order = int(r_prev.order())
    Bt, At = x_cur, -y_cur
    lcm_left = A.compose(Bt)
    lcm_right = B.compose(At)
    if not (lcm_left - lcm_right).is_zero():
        raise ZeroDivisor("right lcm verification failed")
    expected = int(A.order()) + int(B.order()) - gcd_order
    if int(lcm_left.order()) != expected:
        raise ZeroDivisor("right lcm has the wrong order")
    return Bt, At
