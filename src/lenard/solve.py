"""Undetermined-coefficient solving over the constant field.

An AnsatzSpace generates a finite basis of differential functions
(jet monomials times x-powers, symbol multipliers and whitelist
denominators).  solve_operator_equation writes F as a constant
combination of basis vectors and applies the operator to the whole basis
at once, on numerators: the basis is cleared to one shared denominator,
and each atom of the operator maps that batch to a batch (field.batch_*),
so the quotient rule's shared work is done once per d and no column is
normalized.  linear_solve reads the rows straight off the numerators: it
clears every column and the right-hand side to one denominator, reduces
the relations of each cleared numerator, and takes one row per monomial in
the non-parameter variables.  The system is solved by Gaussian
elimination, over plain rationals when no parameter occurs and otherwise
over the field of rational functions in the named parameters.  A
multiple of the rows by a common polynomial spans the same row space, and
the pivots are the reduced echelon form of that space, so the shared
denominator does not change the solution.  Parameters are generic: any
nonzero constant is invertible; zero-parameter cases are handled by
binding those parameters to literal zero in the preset context.  Each
span question (reduce_span, in_span, reduce_mod_span) is one elimination.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

from .errors import AnsatzExhausted
from .field import (DFun, ONE_MONO, _den_cofactor, _den_lcm, _reduce_relations,
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

    def escalated(self):
        """One escalation step: every bound grows by one."""
        return AnsatzSpace(self.ctx, self.max_dord + 1, self.max_degree + 1,
                           self.x_power + 1, self.multipliers,
                           [(b, e + 1) for b, e in self.denominators],
                           None if self.weight_max is None else self.weight_max + 1)

    def describe(self):
        return "AnsatzSpace(N=%d, d=%d, p=%d, mult=%d, den=%s)" % (
            self.max_dord, self.max_degree, self.x_power, len(self.multipliers),
            [(str(b), e) for b, e in self.denominators])

    def basis(self) -> List[DFun]:
        ctx = self.ctx
        jets = [(ctx.gen(i, n), n) for i in range(ctx.ell)
                for n in range(0, self.max_dord + 1)]
        monos = [(ctx.one(), 0)]
        for deg in range(1, self.max_degree + 1):
            for combo in itertools.combinations_with_replacement(jets, deg):
                w = sum(n for _, n in combo)
                m = ctx.one()
                for f, _ in combo:
                    m = m * f
                monos.append((m, w))
        xs = [(ctx.one(), 0)]
        for a in range(1, self.x_power + 1):
            xs.append((ctx.x() ** a, -a))
        mults = [ctx.one()] + list(self.multipliers)
        dens = [(ctx.one(), 0)]
        for base, emax in self.denominators:
            bw = base.dord()
            bw = 0 if bw == float("-inf") else int(bw)
            dens = [(d * base ** (-e), wd - e * bw)
                    for d, wd in dens for e in range(0, emax + 1)]
        out = []
        seen = set()
        for m, wm in monos:
            for x, wx in xs:
                mx = m * x
                mxs = [mx * s for s in mults]
                for d, wd in dens:
                    if self.weight_max is not None and wm + wx + wd > self.weight_max:
                        continue
                    for ms in mxs:
                        f = ms * d
                        key = f.key()
                        if key not in seen:
                            seen.add(key)
                            out.append(f)
        return out


def _split_param_mono(ctx, mono):
    par = []
    rest = []
    for v, e in mono:
        if ctx.is_param_var(v):
            par.append((v, e))
        else:
            rest.append((v, e))
    return tuple(par), tuple(rest)


def _clear(ctx, items):
    """The numerators of items [(num, den)], all cleared to the lcm of the
    denominators and reduced by the relations (None for a zero item).  A
    relation value's own denominator, constant and relation-free, is
    cleared the same way after the reduction.  The columns of a batch share
    one den object, so its cofactor is made once."""
    lcm = ()
    last = None
    for num, den in items:
        if num and den and den is not last:
            lcm = _den_lcm(lcm, den)
            last = den
    out = []
    extras = []
    extra_lcm = ()
    last = None
    for num, den in items:
        extra = ()
        if num:
            if den is not last:
                last, cof = den, _den_cofactor(lcm, den)
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
    return out


def linear_solve(ctx, columns, rhs: Sequence[DFun], partial=False, den=None):
    """Solve sum_k c_k columns[k] = rhs over the constant field.

    columns and rhs are vectors (length ell) of DFun, or, with den given,
    the columns are vectors of numerators over that one denominator; the
    c_k are constants.  Returns (particular or None, kernel basis), both as
    coefficient lists.  With partial=True the particular is the pivot-row
    choice even when the system is inconsistent (never None).

    Each component's numerators, cleared to one denominator and reduced,
    give one row per monomial in the non-parameter variables, with the
    coefficient of each column (the right-hand side last, at column K).  The
    rows are plain rationals unless a parameter occurs, and then polynomials
    in the parameters.
    """
    K = len(columns)
    raw: List[Dict[int, object]] = []
    split: Dict = {}
    params = bool(ctx.params)
    rational = True
    for comp in range(len(rhs)):
        if den is None:
            items = [(col[comp].num, col[comp].den) for col in columns]
        else:
            items = [(col[comp], den) for col in columns]
        items.append((rhs[comp].num, rhs[comp].den))
        rows: Dict = {}
        for col, num in enumerate(_clear(ctx, items)):
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
        for rest in sorted(rows, key=lambda m: (len(m), m)):
            raw.append(rows[rest])
    if params and rational:
        raw = [{c: e[()] for c, e in row.items()} for row in raw]
    if rational:
        part, kernel = _gauss_core(raw, K, 0, 1, lambda a: a == 0,
                                   lambda a: qdiv(1, a), partial)
        if part is not None:
            part = [ctx.const(v) for v in part]
        return part, [[ctx.const(v) for v in vec] for vec in kernel]
    rows = [{c: DFun(ctx, e, (), normalized=True) for c, e in row.items()} for row in raw]
    return _gauss_core(rows, K, ctx.zero(), ctx.one(),
                       lambda a: a.is_zero(), lambda a: a.inverse(), partial)


def _gauss_core(rows, K, zero, one, is_zero, inv, partial=False):
    pivots: Dict[int, Dict[int, object]] = {}  # pivot col -> normalized row
    order: List[int] = []
    inconsistent = False
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
            factor = row.pop(c)
            prow = pivots[c]
            for c2, v in prow.items():
                if c2 == c:
                    continue
                cur = row.get(c2)
                nv = -factor * v if cur is None else cur - factor * v
                if is_zero(nv):
                    row.pop(c2, None)
                else:
                    row[c2] = nv
        lead = min((c for c in row if c < K), default=None)
        if lead is None:
            if row and not is_zero(row.get(K, zero)):
                inconsistent = True
            continue
        scale = inv(row[lead])
        row = {c: v * scale for c, v in row.items()}
        row[lead] = one
        pivots[lead] = row
        order.append(lead)
    # back substitution so every pivot row is reduced against later pivots
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in [cc for cc in row if cc != c and cc < K and cc in pivots]:
            factor = row.pop(c2)
            for c3, v in pivots[c2].items():
                if c3 == c2:
                    continue
                cur = row.get(c3)
                nv = -factor * v if cur is None else cur - factor * v
                if is_zero(nv):
                    row.pop(c3, None)
                else:
                    row[c3] = nv
        pivots[c] = row
    particular = None
    if not inconsistent or partial:
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

    __slots__ = ("ctx", "basis", "particular", "kernel", "space")

    def __init__(self, ctx, basis, particular, kernel, space):
        self.ctx = ctx
        self.basis = basis
        self.particular = particular  # vector of DFun or None
        self.kernel = kernel          # list of vectors of DFun
        self.space = space


def _vector_basis(ctx, scalars, ell):
    out = []
    for comp in range(ell):
        for f in scalars:
            vec = [ctx.zero()] * ell
            vec[comp] = f
            out.append(vec)
    return out


def _combine(ctx, basis_vectors, coeffs):
    ell = len(basis_vectors[0]) if basis_vectors else 1
    out = [ctx.zero()] * ell
    for c, vec in zip(coeffs, basis_vectors):
        if c.is_zero():
            continue
        for comp in range(ell):
            if not vec[comp].is_zero():
                out[comp] = out[comp] + c * vec[comp]
    return out


def _batch_operator(op):
    """op itself when it applies to batches, also when given as its bound
    apply; None for any other callable."""
    owner = getattr(op, "__self__", None)
    if owner is not None and op == getattr(owner, "apply", None):
        op = owner
    return op if hasattr(op, "apply_batch") else None


def _basis_batch(scalars, ell):
    """The vector basis (component-major, as _vector_basis) as numerators
    over the lcm of the scalars' denominators."""
    den = ()
    for f in scalars:
        if f.den:
            den = _den_lcm(den, f.den)
    cofactors = {}
    nums = []
    for f in scalars:
        dkey = f.key()[1]
        if dkey not in cofactors:
            cofactors[dkey] = _den_cofactor(den, f.den)
        nums.append(poly_mul(f.num, cofactors[dkey]))
    return [[n if k == comp else {} for k in range(ell)]
            for comp in range(ell) for n in nums], den


def solve_operator_equation(op, rhs: Sequence[DFun], space: AnsatzSpace,
                            escalations=2) -> SolutionSet:
    """Solve op(F) = rhs for F inside the ansatz space.

    op is an operator with a batch application (AtomChain, SumChain,
    MatrixPsdOp, or the bound apply of one), which maps the whole basis at
    once as numerators over one shared denominator; any other callable
    vector -> vector linear map is applied column by column.  Escalates the
    space (bounds +1) at most `escalations` times; raises AnsatzExhausted
    when no solution exists in the largest space.  For rhs = 0 the system
    is homogeneous, so the first space always answers.
    """
    ctx = space.ctx
    ell = len(rhs)
    batch = _batch_operator(op)
    cur = space
    for attempt in range(escalations + 1):
        scalars = cur.basis()
        basis_vectors = _vector_basis(ctx, scalars, ell)
        if batch is None:
            particular, kernel = linear_solve(ctx, [op(vec) for vec in basis_vectors], rhs)
        else:
            cols, den = batch.apply_batch(*_basis_batch(scalars, ell))
            particular, kernel = linear_solve(ctx, cols, rhs, den=den)
        if particular is not None:
            part_vec = _combine(ctx, basis_vectors, particular)
            ker_vecs = reduce_span(ctx, [_combine(ctx, basis_vectors, kv)
                                         for kv in kernel])
            return SolutionSet(ctx, basis_vectors, part_vec, ker_vecs, cur)
        cur = cur.escalated()
    raise AnsatzExhausted("no solution in %s after %d escalations"
                          % (space.describe(), escalations))


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
    """The kernel of a differential operator inside the ansatz space."""
    ctx = space.ctx
    if ell is None:
        ell = op.cols if hasattr(op, "cols") else ctx.ell
    rhs = [ctx.zero()] * ell
    return solve_operator_equation(op, rhs, space, escalations=0).kernel
