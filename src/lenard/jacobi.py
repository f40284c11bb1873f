"""Atom structures, and the Jacobi identity for them in one fixed completion.

An atom structure is a chain of multiplications and powers of d of either
sign.  Its symbol is the product of its atoms' symbols, f for a
multiplication by f and l^k for d^k, composed from the left (_symbol);
structures expand, and the Jacobi terms take their suffix values, by it.

Comparison domain: Laurent series in the first bracket variable l whose
coefficients are Laurent series in the second variable m; in this domain
the unique expansions are

    (l+m+d)^r = sum_k binom(r,k) (m+d)^k l^(r-k)          (m, d ascending)
    (m+d)^r   = sum_t binom(r,t) d^t m^(r-t)              (d ascending)

The second Jacobi term {u_j m {u_i l u_k}} expands coefficientwise (this
completion is its natural home; its l-powers do not mix): the l-coefficients
of the symbol entry H_ki go to master_bracket as one batch, contracted on
numerators with the rows (m+d)^n H_aj(m) of H's column j, which the engine
builds once per floor and keeps for every triple, as it keeps the rows of
the other terms' brackets.  The first and third terms are evaluated in
operator form over the atom chain, using

    left Leibniz      {a_l f w}       = {a_l f} w + f {a_l w}
    shift rule        {a_l (m+d)^r w} = (l+m+d)^r {a_l w}
    right Leibniz     {(f x)_s b} -> c = {f_s b} -> (x c) + {x_s b} -> (f c)
    left sesquilin.   {((l+d)^r x)_s b} = (-m)^r {x_s b}     at s = l+m+d

where "-> c" carries the substitution s = l+m+d acting on c.  Expanding any
bracket argument coefficientwise instead silently lands in the opposite
completion and breaks on genuinely non-local structures.

Both operator-form terms apply (l+m+d)^r, and a series h(l+m+d), to grids
through _grid_trinomial.  It is its own numerator walk, not the univariate
kernel operators._binomial_shift: the grid goes over one denominator, each
l-row's (m+d)-tower is walked once, a step being a shift in m plus one
batch total derivative, and each output coefficient is normalized once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import InsufficientTruncation
from .field import (DFun, NEG_INF, ONE_MONO, _den_cofactor, _den_merge, batch_derivative,
                    batch_matmul, batch_sum, field_element, over_lcm, poly_add_into,
                    poly_add_scaled, poly_mul)
from .brackets import master_bracket
from .operators import (MatrixPsdOp, OperatorSum, ScalarPsdOp, _accumulate, _jf,
                        structure_sum)
from .series import BiSeries


# ---------------------------------------------------------------------------
# atom chains


def _symbol(ctx, atoms, floor) -> ScalarPsdOp:
    """The symbol of a scalar atom chain, its atoms composed from the left:
    f for ("mult", f), l^k for ("d", k).  Without a floor an infinite tail
    raises InsufficientTruncation.  With one, a chain with a negative d
    power cuts its first product at the floor less the d powers after it,
    and the later atoms bring the result to exactly the floor; a chain
    without one is differential, hence exact."""
    syms = [ScalarPsdOp.of_fun(data) if kind == "mult" else ScalarPsdOp.d(ctx, data)
            for kind, data in atoms]
    cut = None
    if floor is not None and any(kind == "d" and data < 0 for kind, data in atoms):
        cut = floor - sum(data for kind, data in atoms[2:] if kind == "d")
    acc = syms[0] if syms else ScalarPsdOp.identity(ctx)
    for s in syms[1:]:
        acc = acc.compose(s, cut)
        if acc.is_zero():  # all of it lies below the floor
            return ScalarPsdOp.zero(ctx, floor)
        cut = None
    return acc


class AtomChain:
    """A composition of atoms: ("mult", matrix of DFun) | ("d", power).

    Applied left to right: the operator is atoms[0] o atoms[1] o ... .
    d-atoms act diagonally in whatever dimension they meet.
    """

    __slots__ = ("ctx", "atoms", "ell")

    def __init__(self, ctx, atoms, ell=None):
        self.ctx = ctx
        self.atoms = list(atoms)
        if ell is None:
            ell = 1
            for kind, data in self.atoms:
                if kind == "mult":
                    ell = len(data)
                    break
        self.ell = ell

    def scaled(self, c: DFun):
        kind, data = self.atoms[0]
        if kind == "mult":
            first = ("mult", [[c * e for e in row] for row in data])
            return AtomChain(self.ctx, [first] + self.atoms[1:], self.ell)
        ident = [[c if i == j else self.ctx.zero() for j in range(self.ell)]
                 for i in range(self.ell)]
        return AtomChain(self.ctx, [("mult", ident)] + self.atoms, self.ell)

    def to_operator(self, floor=None) -> MatrixPsdOp:
        """The product of the atoms' symbols, entry by entry: entry (r, c)
        sums _symbol over the scalar paths from r to c, starting from zero
        at the floor.  Exact without a floor (an infinite tail raises
        InsufficientTruncation), else accurate to exactly the floor."""
        ctx = self.ctx
        cols = next((len(d[0]) for k, d in reversed(self.atoms) if k == "mult"), self.ell)
        entries = [[ScalarPsdOp.zero(ctx, floor) for _ in range(cols)]
                   for _ in range(self.ell)]
        for r, c, ats in self.scalar_paths():
            entries[r][c] = entries[r][c] + _symbol(ctx, ats, floor)
        return MatrixPsdOp(entries)

    def diagonalized(self, ell):
        """A scalar chain acting diagonally on ell components."""
        if self.ell == ell:
            return self
        if self.ell != 1:
            raise ValueError("only scalar chains can be diagonalized")
        ctx = self.ctx
        atoms = []
        for kind, data in self.atoms:
            if kind == "mult":
                f = data[0][0]
                atoms.append(("mult", [[f if i == j else ctx.zero()
                                        for j in range(ell)] for i in range(ell)]))
            else:
                atoms.append((kind, data))
        return AtomChain(ctx, atoms, ell)

    def scalar_paths(self):
        """All (row, col, [scalar atoms]) index paths through the chain."""
        paths = [(r, r, []) for r in range(self.ell)]
        for kind, data in self.atoms:
            if kind == "d":
                paths = [(r0, c, ats + [("d", data)]) for r0, c, ats in paths]
            else:
                out = []
                for r0, r, ats in paths:
                    for c in range(len(data[0])):
                        f = data[r][c]
                        if f.is_zero():
                            continue
                        out.append((r0, c, ats + [("mult", f)]))
                paths = out
        return paths

    def apply(self, vec):
        """Apply the (differential) chain to a vector, factor by factor; the
        entries are functions or formal fields (chains.NonlocalVectorField)."""
        ctx = self.ctx
        cur = list(vec)
        for kind, data in reversed(self.atoms):
            if kind == "d":
                if data < 0:
                    raise ValueError("cannot apply d^-1 exactly")
                for _ in range(data):
                    cur = [f.total_derivative() for f in cur]
            else:
                rows = len(data)
                cur = [sum((data[r][c] * cur[c] for c in range(len(data[0]))),
                           ctx.zero()) for r in range(rows)]
        return cur

    def apply_batch(self, cols, den):
        """apply on a batch: vectors of numerators over one shared
        denominator, mapped to a batch (unnormalized, relations unreduced).
        Each d step runs the quotient rule's shared work once for the whole
        batch, and each mult atom merges its entries' denominators into the
        shared one."""
        for kind, data in reversed(self.atoms):
            if kind == "d":
                if data < 0:
                    raise ValueError("cannot apply d^-1 exactly")
                for _ in range(data):
                    cols, den = batch_derivative(self.ctx, cols, den)
            else:
                cols, den = batch_matmul(data, cols, den)
        return cols, den


def entry_chain(ctx, rows, cols, r, c, scalar_atoms):
    """Embed a scalar atom chain as the (r, c) entry of a rows x cols matrix."""
    col = [[ctx.one() if i == r else ctx.zero()] for i in range(rows)]
    row = [[ctx.one() if j == c else ctx.zero() for j in range(cols)]]
    return AtomChain(ctx, [("mult", col)] + list(scalar_atoms) + [("mult", row)], rows)


class SumChain:
    """A sum of atom chains (matrix differential operators that do not factor)."""

    __slots__ = ("ctx", "summands", "ell")

    def __init__(self, summands):
        self.summands = list(summands)
        self.ctx = self.summands[0].ctx
        self.ell = self.summands[0].ell

    def apply(self, vec):
        out = None
        for ch in self.summands:
            part = ch.apply(vec)
            out = part if out is None else [a + b for a, b in zip(out, part)]
        return out

    def apply_batch(self, cols, den):
        """The sum of the summands' batches (see AtomChain.apply_batch)."""
        return batch_sum([ch.apply_batch(cols, den) for ch in self.summands])

    def to_operator(self) -> MatrixPsdOp:
        ops = [ch.to_operator() for ch in self.summands]
        return sum(ops[1:], ops[0])

    @property
    def atoms(self):
        raise TypeError("a sum of chains has no single factorization")


class AtomStructure:
    """A structure given by an atom chain: the product of its atoms'
    symbols, f for a mult atom and l^k for d^k, expanded per floor by
    AtomChain.to_operator and kept in _cache."""

    __slots__ = ("chain", "_cache")

    def __init__(self, chain: AtomChain):
        self.chain = chain
        self._cache = {}

    @property
    def ctx(self):
        return self.chain.ctx

    @property
    def ell(self):
        return self.chain.ell

    def expand(self, floor: int) -> MatrixPsdOp:
        if floor not in self._cache:
            self._cache[floor] = self.chain.to_operator(floor)
        return self._cache[floor]

    def adjoint_sum(self):
        """Adjoint chain: reverse atoms, transpose mults, sign (-1)^(sum d)."""
        ctx = self.ctx
        rev = []
        for kind, data in reversed(self.chain.atoms):
            if kind == "mult":
                rows, cols = len(data), len(data[0])
                rev.append(("mult", [[data[r][c] for r in range(rows)]
                                     for c in range(cols)]))
            else:
                rev.append(("d", data))
        sign = 1
        for kind, data in self.chain.atoms:
            if kind == "d" and data % 2:
                sign = -sign
        chain = AtomChain(ctx, rev, self.ell)
        if sign < 0:
            chain = chain.scaled(ctx.const(-1))
        return OperatorSum([(ctx.one(), AtomStructure(chain))])

    def __str__(self):
        parts = []
        for kind, data in self.chain.atoms:
            if kind == "d":
                parts.append("D" if data == 1 else "D^%d" % data)
            else:
                parts.append("[" + "; ".join(", ".join(str(e) for e in row)
                                             for row in data) + "]")
        return " o ".join(parts)

    __repr__ = __str__


def atoms_of(H):
    """Extract [(coefficient, AtomChain)] from a structure built with atoms."""
    if isinstance(H, AtomStructure):
        return [(H.ctx.one(), H.chain)]
    if isinstance(H, OperatorSum):
        out = []
        for c, t in H.terms:
            for c2, ch in atoms_of(t):
                out.append((c * c2, ch))
        return out
    raise TypeError("structure has no atom-chain representation")


# ---------------------------------------------------------------------------
# grid helpers


def _grid_scale_fun(g: BiSeries, f: DFun) -> BiSeries:
    return BiSeries(g.ctx, {pq: f * c for pq, c in g.coeffs.items()}, g.floors)


def _grid_mul_series(g: BiSeries, s: ScalarPsdOp) -> BiSeries:
    """Multiply by a symbol, a series in the first variable."""
    ctx = g.ctx
    out: Dict[Tuple[int, int], DFun] = {}
    for (p, q), c in g.coeffs.items():
        for n, c2 in s.coeffs.items():
            _accumulate(out, (p + n, q), c * c2)
    # a floor of either factor, raised by the other factor's top power
    gt = max((p for p, _ in g.coeffs), default=0)
    st = int(s.order()) if s.coeffs else 0
    fl = _jf(None if g.floors[0] is None else g.floors[0] + st,
             None if s.floor is None else s.floor + gt)
    return BiSeries(ctx, out, (fl, g.floors[1]))


def _grid_mu_shift(g: BiSeries, r: int, mu_floor: Optional[int]) -> BiSeries:
    """(m+d)^r along the second variable of a grid, one l-row at a time: each
    row is composed with l^r at mu_floor, or at the floor the row supports
    when that is higher.  The grid keeps the m floor raised by r > 0 only."""
    fm = g.floors[1]
    if r >= 0 and fm is None:
        mu_floor = None  # finite binomial of an exact series stays exact
    cut = _jf(mu_floor, None if fm is None else fm + r)
    shift = ScalarPsdOp.d(g.ctx, r)
    rows: Dict[int, Dict[int, DFun]] = {}
    for (p, q), c in g.coeffs.items():
        rows.setdefault(p, {})[q] = c
    out = {}
    for p in sorted(rows):
        ser = shift.compose(ScalarPsdOp(g.ctx, rows[p], fm), cut)
        out.update(((p, q), c) for q, c in ser.coeffs.items())
    if fm is not None and r > 0:
        fm += r
    return BiSeries(g.ctx, out, (g.floors[0], _jf(fm, mu_floor)))


def _mu_step(ctx, rows, den, floor):
    """(m+d) on l-rows {p: {q: numerator}} over one denominator den: the d
    part is one batch_derivative of every numerator, the m part moves each
    numerator up one m-power, times its cofactor in the new denominator.
    m-powers below floor (None: none) and rows that vanish are dropped.
    Returns (rows, denominator)."""
    keys = [(p, q) for p, row in rows.items() for q in row]
    (nums,), new_den = batch_derivative(ctx, [[rows[p][q] for p, q in keys]], den)
    cof = _den_cofactor(new_den, den)
    unit = cof == {ONE_MONO: 1}
    out: Dict[int, Dict[int, dict]] = {p: {} for p in rows}
    for (p, q), dn in zip(keys, nums):
        if dn and (floor is None or q >= floor):
            out[p][q] = dn
    for p, row in rows.items():
        new = out[p]
        for q, n in row.items():
            if floor is not None and q + 1 < floor:
                continue
            s = n if unit else poly_mul(n, cof)
            acc = new.get(q + 1)
            if acc is None:
                new[q + 1] = s  # may be n itself: a level is only read once built
            else:
                poly_add_into(acc, s)
                if not acc:
                    del new[q + 1]
    return {p: row for p, row in out.items() if row}, new_den


def _grid_trinomial(g: BiSeries, h: ScalarPsdOp, lam_floor: int,
                    mu_floor: int) -> BiSeries:
    """h(l+m+d) on a grid, for h a series in l (l^r for (l+m+d)^r):
    sum over r and k of h_r binom(r, k) l^(r-k) (m+d)^k, on numerators.

    The grid goes over one shared denominator, and each l-row's (m+d)-tower
    is walked once, all rows a step at a time (_mu_step).  Level k keeps
    the m-powers from g's m floor + k up: a row cut off below that floor is
    still right there.  The denominators of the levels divide one another,
    so each level is lifted to the last one's with one cofactor product per
    numerator, and binom(r, k), stepped with k, adds it in place at l-power
    r+p-k.  Each h_r then multiplies its sums once, as a numerator over the
    lcm of h's denominators, and each output coefficient becomes a DFun
    once, with relations reduced (field_element).

    The floors join those of each (l+m+d)^r that reaches lam_floor: l at
    lam_floor or g's l floor + r, m at g's m floor + the last k reached.
    h's floor caps l at h.floor + the grid's top l-power, the rule
    ScalarPsdOp.compose applies to a symbol's floor.  No output coefficient
    below the floors is formed."""
    ctx = g.ctx
    fl, fm = lam_floor, g.floors[1]
    if not g.coeffs:
        return BiSeries(ctx, {}, (_jf(g.floors[0], fl) if h.coeffs else fl, fm))
    ptop = max(p for p, _ in g.coeffs)
    for r in h.coeffs:
        kmax = r if r >= 0 else ptop + r - lam_floor
        if kmax >= 0:
            fl = _jf(fl, None if g.floors[0] is None else g.floors[0] + r)
            fm = None if fm is None else max(fm, mu_floor, g.floors[1] + kmax)
    if h.floor is not None:
        fl = max(fl, h.floor + ptop)
    # row p's last k for each r: its l-power r+p-k reaches fl, and k <= r if r >= 0
    reach = {}
    for p in {p for p, _ in g.coeffs}:
        ks = {r: min(r, r + p - fl) if r >= 0 else r + p - fl for r in h.coeffs}
        ks = {r: k for r, k in ks.items() if k >= 0}
        if ks:
            reach[p] = ks
    cells = [pq for pq in g.coeffs if pq[0] in reach]
    nums, den = over_lcm([g.coeffs[pq] for pq in cells])
    rows: Dict[int, Dict[int, dict]] = {}
    for (p, q), n in zip(cells, nums):
        rows.setdefault(p, {})[q] = n
    levels = []
    gm = g.floors[1]
    while rows:
        levels.append((rows, den))
        k = len(levels)
        rows = {p: row for p, row in rows.items() if max(reach[p].values()) >= k}
        if rows:
            rows, den = _mu_step(ctx, rows, den, None if gm is None else gm + k)
    sums: Dict[Tuple[int, int, int], dict] = {}  # (r, l-power, m-power) -> numerator over den
    binoms = dict.fromkeys(h.coeffs, 1)  # r -> binom(r, k), stepped with k
    for k, (rows, lden) in enumerate(levels):
        cof = _den_cofactor(den, lden)
        unit = cof == {ONE_MONO: 1}
        for p, row in rows.items():
            weights = [(r, binoms[r], r + p - k)
                       for r, kmax in reach[p].items() if k <= kmax]
            for q, n in row.items():
                if fm is not None and q < fm:
                    continue
                if not unit:
                    n = poly_mul(n, cof)
                for r, b, deg in weights:
                    acc = sums.get((r, deg, q))
                    if acc is None:
                        acc = sums[(r, deg, q)] = {}
                    poly_add_scaled(acc, n, b)
        binoms = {r: b * (r - k) // (k + 1) for r, b in binoms.items()}
    hnums, hden = over_lcm(list(h.coeffs.values()))
    hnum = dict(zip(h.coeffs, hnums))
    out: Dict[Tuple[int, int], dict] = {}
    for (r, deg, q), s in sums.items():
        hn = hnum[r]
        term = s if hn == {ONE_MONO: 1} else poly_mul(hn, s)
        acc = out.get((deg, q))
        if acc is None:
            out[(deg, q)] = term
        else:
            poly_add_into(acc, term)
    if hden:
        den = _den_merge(den, hden)
    return BiSeries(ctx, {pq: field_element(ctx, n, den) for pq, n in out.items() if n},
                    (fl, fm))


# ---------------------------------------------------------------------------
# the engine


class JacobiEngine:
    """Per-structure state for the generator-triple Jacobi checks."""

    def __init__(self, H, floors):
        S = structure_sum(H)
        self.ctx = S.ctx
        self.ell = S.ell
        self.floors = floors
        fl, fm = floors
        probe = S.expand(min(fl, fm) - 2)
        top, dord = probe.order(), probe.dord()
        self.sym_top = 0 if top == NEG_INF else int(top)
        self.dmax = 0 if dord == NEG_INF else max(0, int(dord))
        self.sym = S.expand(min(fl, fm) - self.dmax - self.sym_top - 2)
        self.gens = [self.ctx.gen(i, 0) for i in range(self.ell)]
        self._t1_cache = {}
        self._rows = {}  # master_bracket's shifted rows, per (f, floor)
        self._paths = []
        for coeff, chain in atoms_of(H):
            for r0, c0, ats in chain.scalar_paths():
                self._paths.append((coeff, r0, c0, ats))

    # -- first term -------------------------------------------------------------

    def t1_matrix(self, i) -> List[List[BiSeries]]:
        """Grids of {u_i l {u_j m u_k}}, entry [k][j], operator-form route."""
        if i in self._t1_cache:
            return self._t1_cache[i]
        fl, fm = self.floors
        ell = self.ell
        zero = BiSeries.zero(self.ctx, (fl, fm))
        total = [[zero for _ in range(ell)] for _ in range(ell)]
        for coeff, k0, j0, ats in self._paths:
            up = sum(d for kind, d in ats if kind == "d" and d > 0)
            down = sum(-d for kind, d in ats if kind == "d" and d < 0)
            tries = (self._t1_path(i, ats, fl - up - 1, fm - margin)
                     for margin in (down + 2, 3 * (down + 4) + self.dmax))
            total[k0][j0] = total[k0][j0] + self._accurate(tries, coeff, "first")
        self._t1_cache[i] = total
        return total

    def _accurate(self, tries, coeff: DFun, term: str) -> BiSeries:
        """coeff times the first grid of `tries` accurate at the floors."""
        for grid in tries:
            if grid.accurate_at(self.floors):
                return grid if coeff.is_one() else _grid_scale_fun(grid, coeff)
        raise InsufficientTruncation("%s Jacobi term did not reach floors" % term)

    def _t1_path(self, i, atoms, lam_floor, mu_floor) -> BiSeries:
        """{u_i l (value of scalar atom chain at m)} by Leibniz + shift rules."""
        ctx = self.ctx
        cur = BiSeries.zero(ctx, (lam_floor, None))
        for n in reversed(range(len(atoms))):
            kind, data = atoms[n]
            if kind == "d":
                cur = _grid_trinomial(cur, ScalarPsdOp.d(ctx, data), lam_floor, mu_floor)
            else:
                f = data
                br, = master_bracket(self.sym, self.gens[i], [f], lam_floor, self._rows)
                cur = _grid_scale_fun(cur, f)
                if br.coeffs or br.floor is not None:
                    suffix = _symbol(ctx, atoms[n + 1:], mu_floor)  # a series in m
                    cur = cur + BiSeries(ctx, {(p, q): a * b
                                               for p, a in br.coeffs.items()
                                               for q, b in suffix.coeffs.items()},
                                         (br.floor, suffix.floor))
        return cur

    # -- second term -------------------------------------------------------------

    def t2_grid(self, i, j, k) -> BiSeries:
        """{u_j m {u_i l u_k}}: {u_j m e_p} for the l-coefficients e_p of H_ki
        from the l floor up, one batch over the cached rows of H's column j."""
        fl, fm = self.floors
        entry = self.sym.entry(k, i).coeffs
        ps = [p for p in entry if p >= fl]
        sers = master_bracket(self.sym, self.gens[j], [entry[p] for p in ps], fm,
                              self._rows)
        coeffs = {(p, q): c for p, ser in zip(ps, sers) for q, c in ser.coeffs.items()}
        fm_out = max([fm] + [ser.floor for ser in sers if ser.floor is not None])
        return BiSeries(self.ctx, coeffs, (fl, fm_out))

    # -- third term --------------------------------------------------------------

    def t3_grid(self, i, j, k) -> BiSeries:
        fl, fm = self.floors
        total = BiSeries.zero(self.ctx, (fl, fm))
        base = self.sym_top + self.dmax + 2
        for coeff, r0, c0, ats in self._paths:
            if r0 != j or c0 != i:
                continue
            down = sum(-d for kind, d in ats if kind == "d" and d < 0)
            # mu works as far below fm as lam below fl, and sym_top+down+4+extra more
            tries = (self._t3_path(ats, k, fl - (base + down + extra),
                                   fm - base - self.sym_top - 4 - 2 * (down + extra))
                     for extra in (0, 8))
            total = total + self._accurate(tries, coeff, "third")
        return total

    def _t3_path(self, atoms, k, lam_floor, mu_floor) -> BiSeries:
        """{(value of atoms at l)_s u_k}, with s = l+m+d, in one left-to-right
        walk by right Leibniz.  The carrier is the m-side value of the prefix
        read so far: a d atom shifts it by (-(m+d))^r, and a mult atom f adds
        {f_s u_k} -> (suffix value * carrier), one trinomial call with h =
        the bracket series of f, before f joins the carrier."""
        ctx = self.ctx
        carrier = BiSeries(ctx, {(0, 0): ctx.one()}, (None, None))
        total = None
        for n, (kind, data) in enumerate(atoms):
            if kind == "d":
                carrier = _grid_mu_shift(carrier, data, mu_floor)
                if data % 2:
                    carrier = -carrier
                continue
            prod = _grid_mul_series(carrier, _symbol(ctx, atoms[n + 1:], lam_floor))
            ptop = max((p for p, _ in prod.coeffs), default=0)
            dser, = master_bracket(self.sym, data, [self.gens[k]],
                                   self.floors[0] - max(0, ptop) - 1, self._rows)
            piece = _grid_trinomial(prod, dser, lam_floor, mu_floor)
            total = piece if total is None else total + piece
            carrier = _grid_scale_fun(carrier, data)
        end = BiSeries.zero(ctx, (lam_floor, carrier.floors[1]))
        return end if total is None else total + end

    # -- the verdict ----------------------------------------------------------------

    def jacobiator(self, i, j, k) -> BiSeries:
        T1 = self.t1_matrix(i)[k][j]
        T2 = self.t2_grid(i, j, k)
        T3 = self.t3_grid(i, j, k)
        return T1 - T2 - T3

