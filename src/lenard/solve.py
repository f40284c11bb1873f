"""Undetermined-coefficient solving over the constant field.

An AnsatzSpace generates a finite basis of differential functions
(jet monomials times x-powers, symbol multipliers and whitelist
denominators).  solve_operator_equation writes F as a constant
combination of basis vectors.  When the given space has no solution it
searches the lattice of spaces with each bound raised by 0 or by the
escalation, fewest products first, and the space with every bound raised
comes last; all of these take their products from its BasisTable, made
only then.  A table's products are numerators over one denominator, each
its multiplier * denominator pair's numerator shifted by its monomial, so
equal numerators are equal products; a field element is made only for a
product a solution reads.  The operator is applied to each product once
per solve, in batches of numerators: each atom maps a batch to a batch
(field.batch_*), so the quotient rule's shared work is done once per d.
linear_solve clears every column and the right-hand side to one
denominator, reduces the relations of each cleared numerator, and takes
one row per monomial in the non-parameter variables.  Gaussian elimination
solves the system over plain rationals when no parameter occurs, with the
rows that repeat an earlier one up to a scalar left out, and otherwise over
the field of rational functions in the named parameters.  A
multiple of the rows by a common polynomial spans the same row space, and
the pivots are the reduced echelon form of that space, so neither the
shared denominator nor the batch a column was applied in changes the
solution.  Parameters are generic: any nonzero constant is invertible;
zero-parameter cases are handled by binding those parameters to literal
zero in the preset context.  Each span question is one elimination.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd
from typing import Dict, List, Sequence

from .errors import AnsatzExhausted
from .field import (DFun, EXP_BITS, EXP_LIMIT, ONE_MONO, _banded, _den_cofactor,
                    _den_lcm, _den_merge, _reduce_relations, mono_items, mono_var,
                    poly_mul, qdiv)

_POLY_ONE = {ONE_MONO: 1}


class AnsatzSpace:
    """A finite search space of differential functions.

    max_dord   -- highest derivative u_i^(n) allowed (-1: no jets at all)
    max_degree -- total degree of jet monomials
    x_power    -- highest power of x allowed as a quasiconstant factor
    multipliers-- symbol factors (each a DFun, e.g. exp or sqrt symbols);
                  the constant 1 is always included
    denominators -- [(DFun, max power)] whitelist of denominator bases
    weight_max -- when set, the largest weight of a basis element: its
                  derivative count, less its x power and each denominator
                  power times the dord of its base
    """

    def __init__(self, ctx, max_dord=1, max_degree=2, x_power=0,
                 multipliers=(), denominators=(), weight_max=None):
        self.ctx = ctx
        self.max_dord = max_dord
        self.max_degree = max_degree
        self.x_power = x_power
        self.multipliers = list(multipliers)
        self.denominators = list(denominators)
        self.weight_max = weight_max

    def bounds(self):
        """The bounds a solve may raise: dord, degree, x power, each
        denominator's power, and the weight when it is set."""
        out = (self.max_dord, self.max_degree, self.x_power) + tuple(
            e for _, e in self.denominators)
        return out if self.weight_max is None else out + (self.weight_max,)

    def raised(self, steps):
        """The space with each bound raised by its entry of steps."""
        b = [v + k for v, k in zip(self.bounds(), steps)]
        dens = [(base, e) for (base, _), e in zip(self.denominators, b[3:])]
        return AnsatzSpace(self.ctx, b[0], b[1], b[2], self.multipliers, dens,
                           None if self.weight_max is None else b[-1])

    def describe(self):
        return "AnsatzSpace(N=%d, d=%d, p=%d, mult=%d, den=%s)" % (
            self.max_dord, self.max_degree, self.x_power, len(self.multipliers),
            [(str(b), e) for b, e in self.denominators])

    def basis(self) -> List[DFun]:
        return BasisTable(self).basis(self.bounds())


class BasisTable:
    """The products monomial * x power * multiplier * denominator of a
    space, in basis order, each with the index in needs of the least bounds
    (as AnsatzSpace.bounds) that admit it.  Each multiplier * denominator
    pair has one numerator over den, the lcm of them all; a product's is its
    pair's shifted by its monomial * x power, and equal numerators are equal
    products.  A space inside this one takes its products from here, and a
    product becomes a field element only when it is read."""

    def __init__(self, space: AnsatzSpace):
        ctx = space.ctx
        self.ctx = ctx
        mults = [ctx.one()] + list(space.multipliers)
        jets = [(i, n) for i in range(ctx.ell) for n in range(0, space.max_dord + 1)]
        monos = [((), (-1, 0), 0)]  # (jets, least (dord, degree), weight)
        for deg in range(1, space.max_degree + 1):
            for combo in itertools.combinations_with_replacement(jets, deg):
                orders = [n for _, n in combo]
                monos.append((combo, (max(orders), deg), sum(orders)))
        dens = [(ctx.one(), (), 0)]  # (denominator, its powers, weight)
        for base, emax in space.denominators:
            bw = base.dord()
            bw = 0 if bw == float("-inf") else int(bw)
            dens = [(d * base ** (-e), pw + (e,), wd - e * bw)
                    for d, pw, wd in dens for e in range(0, emax + 1)]
        # the pairs, by denominator and then multiplier, as (numerator, its
        # least monomial, its shape): equal shapes are equal numerators up
        # to a monomial factor
        nums, self.den = _clear(ctx, [(p.num, p.den) for d, _, _ in dens
                                      for p in (s * d for s in mults)])
        shapes: Dict = {}
        self._pairs = []
        for num in nums:
            low = min(num)
            shape = frozenset((m - low, c) for m, c in num.items())
            self._pairs.append((num, low, shapes.setdefault(shape, len(shapes))))
        # sums of monomials inside the guard band cannot leave their fields
        self._in_band = (max(space.max_degree, space.x_power) < EXP_LIMIT // 2
                         and _banded(m for num in nums for m in num))
        nm = self._nm = len(mults)
        self._factors = [(pw, si) for _, pw, _ in dens for si in range(nm)]
        self._combos = [combo for combo, _, _ in monos]
        self._jets = [None] * len(monos)  # a monomial's, made when first read
        self._x = mono_var(ctx.x_id)
        # (x power, first pair index, least bounds, weight) per x power * denominator
        tails = [(a, di * nm, (a,) + pw, wd - a)
                 for a in range(space.x_power + 1) for di, (_, pw, wd) in enumerate(dens)]
        wmax = space.weight_max
        self.needs = []  # the distinct least bounds
        self.entries = []  # ((monomial index, x power, first pair index), need index)
        index: Dict = {}
        for ci, (_, need_m, wm) in enumerate(monos):
            for a, p, need_t, wt in tails:
                if wmax is not None and wm + wt > wmax:
                    continue
                need = need_m + need_t if wmax is None else need_m + need_t + (wm + wt,)
                k = index.get(need)
                if k is None:
                    k = index[need] = len(self.needs)
                    self.needs.append(need)
                self.entries += [((ci, a, p), k)] * nm  # entry i has pair p + i % nm
        self._keys = [None] * len(self.entries)
        self._made: Dict = {}

    def key(self, i):
        """(identity, value) of entry i.  The identity, (monomial * x power,
        denominator powers, multiplier index), is the same in every table;
        equal values are equal products."""
        got = self._keys[i]
        if got is None:
            (ci, a, p), _ = self.entries[i]
            p += i % self._nm
            jets = self._jets[ci]
            if jets is None:  # registers the jets in the order products read them
                jets = self._jets[ci] = sum(mono_var(self.ctx.gen_var(*j))
                                            for j in self._combos[ci])
            shift = jets + a * self._x
            _, low, shape = self._pairs[p]
            got = self._keys[i] = ((shift,) + self._factors[p], (low + shift, shape))
        return got

    def distinct(self, picked):
        """The entries picked (indices, in order), the first of equal
        products kept."""
        first: Dict = {}
        for i in picked:
            first.setdefault(self.key(i)[1], i)
        return list(first.values())

    def masks(self, low):
        """Per entry, the bits of the bounds of low that it needs raised: 0
        exactly for the entries of the space with bounds low."""
        need = [sum(1 << i for i, (n, b) in enumerate(zip(nd, low)) if n > b)
                for nd in self.needs]
        return [need[k] for _, k in self.entries]

    def numerator(self, i):
        """Entry i's numerator over den."""
        num = self._pairs[self.entries[i][0][2] + i % self._nm][0]
        shift = self.key(i)[0][0]
        if self._in_band:
            return {m + shift: c for m, c in num.items()}
        return poly_mul(num, {shift: 1})  # raises if an exponent leaves its field

    def element(self, i) -> DFun:
        f = self._made.get(i)
        if f is None:
            f = self._made[i] = DFun(self.ctx, self.numerator(i), self.den,
                                     normalized=not self.den)
        return f

    def basis(self, bounds) -> List[DFun]:
        """The basis of the space with these bounds, each at most the
        table's: its elements in order, the first of equal ones kept."""
        return [self.element(i) for i in self.distinct(
            i for i, m in enumerate(self.masks(bounds)) if not m)]


def _split_param_mono(ctx, mono):
    """(parameter part, rest) of a monomial."""
    par = ONE_MONO
    for v, e in mono_items(mono):
        if ctx.is_param_var(v):
            par += e << (EXP_BITS * v)
    return par, mono - par


def _clear(ctx, items):
    """(numerators, denominator): the numerators of items [(num, den)], all
    cleared to the lcm of the denominators and reduced by the relations
    (None for a zero item).  A relation value's own denominator, constant
    and relation-free, is cleared the same way after the reduction, and
    joins the denominator.  Columns applied in one batch share one den
    object, so its cofactor is made once."""
    dens = {}
    for num, den in items:
        if num and den:
            dens.setdefault(id(den), den)
    lcm = ()
    for den in dens.values():
        lcm = _den_lcm(lcm, den)
    cofactors = {}
    out = []
    extras = []
    extra_lcm = ()
    for num, den in items:
        extra = ()
        if num:
            cof = cofactors.get(id(den))
            if cof is None:
                cof = cofactors[id(den)] = _den_cofactor(lcm, den)
            if cof != _POLY_ONE:
                num = poly_mul(num, cof)
            num, extra = _reduce_relations(ctx, num)
            if extra:
                extra_lcm = _den_lcm(extra_lcm, extra)
        out.append(num or None)
        extras.append(extra)
    if extra_lcm:
        out = [num and poly_mul(num, _den_cofactor(extra_lcm, extra))
               for num, extra in zip(out, extras)]
        lcm = _den_merge(lcm, extra_lcm)
    return out, lcm


def _row_order(mono):
    """Rows by their monomial's variable count, then its (var_id, exponent)
    pairs."""
    pairs = mono_items(mono)
    return len(pairs), pairs


def linear_solve(ctx, columns, rhs: Sequence[DFun], partial=False, dens=None):
    """Solve sum_k c_k columns[k] = rhs over the constant field.

    columns and rhs are vectors (length ell) of DFun, or, with dens given,
    column k is a vector of numerators over the denominator dens[k]; the
    c_k are constants.  Returns (particular, kernel basis), both as
    coefficient lists, or (None, None) when the system is inconsistent: a
    row with the right-hand side alone shows it before any elimination, and
    otherwise the elimination stops at the first row that shows it.  With
    partial=True the particular is the pivot-row choice even then (never
    None).

    Each component's numerators, cleared to one denominator and reduced,
    give one row per monomial in the non-parameter variables, with the
    coefficient of each column (the right-hand side last, at column K).  The
    rows are plain rationals unless a parameter occurs, and then polynomials
    in the parameters.
    """
    K = len(columns)
    comps: List[Dict] = []  # per component: rest monomial -> row
    split: Dict = {}
    params = bool(ctx.params)
    rational = True
    for comp in range(len(rhs)):
        if dens is None:
            items = [(col[comp].num, col[comp].den) for col in columns]
        else:
            items = [(col[comp], den) for col, den in zip(columns, dens)]
        items.append((rhs[comp].num, rhs[comp].den))
        rows: Dict = {}
        for col, num in enumerate(_clear(ctx, items)[0]):
            if num is None:
                continue
            for mono, q in num.items():
                if params:
                    pr = split.get(mono)
                    if pr is None:
                        pr = split[mono] = _split_param_mono(ctx, mono)
                    par, mono = pr
                    if par:
                        rational = False
                    q = {par: q}
                row = rows.get(mono)
                if row is None:
                    rows[mono] = {col: q}
                elif col in row:  # another parameter monomial, same rest
                    row[col].update(q)
                else:
                    row[col] = q
        if not partial and any(len(row) == 1 and K in row for row in rows.values()):
            return None, None  # a monomial of the right-hand side alone
        comps.append(rows)
    # a rational system has one reduced echelon form, whatever the row order;
    # a parametric one may print its entries differently, and partial=True
    # picks its pivot rows, by the order, so these keep the order of the
    # rows' (var_id, exponent) pairs
    order = None if rational and not partial else _row_order
    raw = [rows[rest] for rows in comps for rest in sorted(rows, key=order)]
    if params and rational:
        raw = [{c: e[ONE_MONO] for c, e in row.items()} for row in raw]
    if rational:
        part, kernel = _gauss_core(_distinct_rows(raw), K, 0, 1, lambda a: a == 0,
                                   lambda a: qdiv(1, a), partial)
        if part is None:
            return None, None
        return ([ctx.const(v) for v in part],
                [[ctx.const(v) for v in vec] for vec in kernel])
    rows = [{c: DFun(ctx, e, (), normalized=True) for c, e in row.items()} for row in raw]
    return _gauss_core(rows, K, ctx.zero(), ctx.one(),
                       lambda a: a.is_zero(), lambda a: a.inverse(), partial)


def _distinct_rows(rows):
    """The rational rows less each that is a nonzero multiple of an earlier
    one, the right-hand side included: the same equation.  A row is keyed by
    its column if it has one entry, else by its primitive form: divided by
    the gcd of its entries, with the sign of its lead entry, if they are
    ints, and by its lead entry if not (rows list their columns in order)."""
    first: Dict = {}
    for row in rows:
        key = next(iter(row))
        if len(row) > 1:
            try:
                g = gcd(*row.values())
            except TypeError:  # a Fraction entry
                key = tuple((c, qdiv(v, row[key])) for c, v in row.items())
            else:
                g = -g if row[key] < 0 else g
                key = (tuple(row.items()) if g == 1
                       else tuple((c, v // g) for c, v in row.items()))
        first.setdefault(key, row)
    return list(first.values())


def _eliminate(row, c, prow, is_zero):
    """row -= row[c] * prow, in place, for the pivot row prow of column c."""
    factor = row.pop(c)
    for c2, v in prow.items():
        if c2 != c:
            cur = row.get(c2)
            nv = -factor * v if cur is None else cur - factor * v
            if is_zero(nv):
                row.pop(c2, None)
            else:
                row[c2] = nv


def _gauss_core(rows, K, zero, one, is_zero, inv, partial=False):
    pivots: Dict[int, Dict[int, object]] = {}  # pivot col -> normalized row
    # sparse rows first keeps fill-in and coefficient growth down
    queue = sorted(range(len(rows)), key=lambda i: (len(rows[i]), i))
    for ridx in queue:
        row = dict(rows[ridx])
        # reduce against existing pivots
        while True:
            cols = [c for c in row if c < K and c in pivots]
            if not cols:
                break
            c = min(cols)
            _eliminate(row, c, pivots[c], is_zero)
        lead = min((c for c in row if c < K), default=None)
        if lead is None:
            if not partial and row and not is_zero(row.get(K, zero)):
                return None, None  # inconsistent: the elimination stops here
            continue
        scale = inv(row[lead])
        row = {c: v * scale for c, v in row.items()}
        row[lead] = one
        pivots[lead] = row
    # back substitution so every pivot row is reduced against later pivots
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in [cc for cc in row if cc != c and cc < K and cc in pivots]:
            _eliminate(row, c2, pivots[c2], is_zero)
        pivots[c] = row
    particular = [zero] * K
    for c, row in pivots.items():
        particular[c] = row.get(K, zero)
    kernel = []
    for free in range(K):
        if free in pivots:
            continue
        vec = [zero] * K
        vec[free] = one
        for c, row in pivots.items():
            v = row.get(free)
            if v is not None:
                vec[c] = -v
        kernel.append(vec)
    return particular, kernel


class SolutionSet:
    """Affine solution set of an ansatz solve: particular + span(kernel)."""

    __slots__ = ("ctx", "_basis", "particular", "kernel", "space")

    def __init__(self, ctx, basis, particular, kernel, space):
        self.ctx = ctx
        self._basis = basis           # the basis vectors, or what makes them
        self.particular = particular  # vector of DFun or None
        self.kernel = kernel          # list of vectors of DFun
        self.space = space

    @property
    def basis(self):
        if callable(self._basis):
            self._basis = self._basis()
        return self._basis


def _batch_operator(op):
    """op itself, also when given as its bound apply; TypeError for an
    operator that does not apply to batches."""
    owner = getattr(op, "__self__", None)
    if owner is not None and op == getattr(owner, "apply", None):
        op = owner
    if not hasattr(op, "apply_batch"):
        raise TypeError("%r does not apply to a batch of basis vectors" % (op,))
    return op


# The spaces a solve tries between its first and its last hold at most this
# share of the last one's products in all.  The measured liouville and c1
# K-links that the search answers early need 0.02-0.41 of it; the operator
# is applied to no basis element twice, so an exhausted search costs the
# last space plus at most this much elimination.
_SEARCH_BUDGET = 0.5


def _lattice(masks, n, step):
    """The spaces with each of n bounds raised by 0 or by step, in order of
    size, one per distinct set of table products; those with all of the
    table's products or only the unraised space's are left out.  masks has
    per product the bits of the bounds it needs raised (BasisTable.masks),
    and a product is in a space when all of them are.  Returns (size,
    steps); the size counts products, before equal ones merge in the basis."""
    counts = Counter(masks)
    full = (1 << n) - 1

    def inside(M):
        return frozenset(m for m in counts if m & ~M == 0)

    seen = {inside(0), inside(full)}
    points = []
    for M in range(1, full):
        held = inside(M)
        if held not in seen:
            seen.add(held)
            points.append((sum(counts[m] for m in held),
                           tuple(step if M >> i & 1 else 0 for i in range(n))))
    return sorted(points)


def solve_operator_equation(op, rhs: Sequence[DFun], space: AnsatzSpace,
                            escalations=2) -> SolutionSet:
    """Solve op(F) = rhs for F inside the ansatz space.

    F has one component per generator of the space's context; op's output
    must have as many components as rhs, or ValueError is raised (a
    stacked operator maps l components to 2l).  op is an operator with a
    batch application (AtomChain, SumChain, MatrixPsdOp, or the bound
    apply of one), which maps a batch of basis vectors at once as
    numerators over one shared denominator; any other op raises TypeError.

    When the space has no solution, the spaces with each bound raised by 0
    or by `escalations` are searched, fewest products first, and the first
    with a solution answers.  The space with every bound raised is always
    tried last, and AnsatzExhausted is raised when it has no solution
    either; escalations=0 tries the given space alone.  The spaces tried in
    between hold at most _SEARCH_BUDGET times the last one's products in
    all.  Every space after the first takes its products from one table,
    made when the first fails, and the operator is applied to each product
    once per solve.  For rhs = 0 the system is homogeneous, so the first
    space always answers.
    """
    ctx = space.ctx
    ell = ctx.ell
    batch = _batch_operator(op)
    applied: Dict = {}  # product identity -> its ell columns, with their dens

    def solved(table, picked, cur):
        picked = table.distinct(picked)
        new = [i for i in picked if table.key(i)[0] not in applied]
        if new:
            nums = [table.numerator(i) for i in new]
            cols, den = batch.apply_batch(
                [[n if k == comp else {} for k in range(ell)]
                 for comp in range(ell) for n in nums], table.den)
            if len(cols[0]) != len(rhs):
                raise ValueError("the operator has %d output components, rhs %d"
                                 % (len(cols[0]), len(rhs)))
            for j, i in enumerate(new):
                applied[table.key(i)[0]] = [(cols[comp * len(new) + j], den)
                                              for comp in range(ell)]
        columns = [applied[table.key(i)[0]][comp] for comp in range(ell) for i in picked]
        particular, kernel = linear_solve(ctx, [col for col, _ in columns], rhs,
                                          dens=[den for _, den in columns])
        if particular is None:
            return None

        def combine(coeffs):  # sum c_k b_k, each b_k made only for c_k != 0
            out = [ctx.zero()] * ell
            for k, c in enumerate(coeffs):
                if not c.is_zero():
                    comp, j = divmod(k, len(picked))
                    out[comp] = out[comp] + c * table.element(picked[j])
            return out
        return SolutionSet(ctx, lambda: [  # the vector basis, component-major
            [table.element(i) if c == comp else ctx.zero() for c in range(ell)]
            for comp in range(ell) for i in picked],
            combine(particular), reduce_span(ctx, [combine(kv) for kv in kernel]), cur)

    first = BasisTable(space)
    sol = solved(first, range(len(first.entries)), space)
    if sol is None and escalations:
        low = space.bounds()
        top = space.raised([escalations] * len(low))
        table = BasisTable(top)
        masks = table.masks(low)
        budget = _SEARCH_BUDGET * len(table.entries)
        for size, steps in _lattice(masks, len(low), escalations):
            if size > budget:
                break
            budget -= size
            unraised = sum(1 << i for i, k in enumerate(steps) if not k)
            sol = solved(table, [i for i, m in enumerate(masks) if not m & unraised],
                         space.raised(steps))
            if sol is not None:
                return sol
        sol = solved(table, range(len(table.entries)), top)
    if sol is None:
        raise AnsatzExhausted("no solution in %s after %d escalations"
                              % (space.describe(), escalations))
    return sol


def reduce_mod_span(ctx, vectors: List[List[DFun]], target: List[DFun]):
    """Canonical representative of target modulo the constant span of vectors.

    Returns (reduced_target, coefficients): target - sum c_i vectors[i], with
    the c_i chosen by sparse pivot elimination (deterministic)."""
    coeffs, _ = linear_solve(ctx, vectors, target, partial=True)
    reduced = list(target)
    for c, vec in zip(coeffs, vectors):
        if c.is_zero():
            continue
        reduced = [r - c * v for r, v in zip(reduced, vec)]
    return reduced, coeffs


def reduce_span(ctx, vectors: List[List[DFun]]) -> List[List[DFun]]:
    """An independent subset spanning the same constant-span (first wins).

    These are the pivot columns of one elimination, the columns outside the
    span of those before them; a kernel vector's last nonzero entry is its
    free column."""
    if not vectors:
        return []
    _, kernel = linear_solve(ctx, vectors, [ctx.zero()] * len(vectors[0]))
    free = {max(k for k, c in enumerate(vec) if not c.is_zero()) for vec in kernel}
    return [vec for k, vec in enumerate(vectors) if k not in free]


def in_span(ctx, vectors, target) -> bool:
    """Is target a constant combination of the vectors?"""
    particular, _ = linear_solve(ctx, vectors, target)
    return particular is not None


def kernel_of(op, space: AnsatzSpace, ell=None) -> List[List[DFun]]:
    """The kernel of a differential operator inside the ansatz space; ell
    is the number of op's output components, one per generator if None."""
    ctx = space.ctx
    rhs = [ctx.zero()] * (ctx.ell if ell is None else ell)
    return solve_operator_equation(op, rhs, space, escalations=0).kernel
