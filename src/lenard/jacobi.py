"""Jacobi identity for non-local structures, in one fixed completion.

Comparison domain: Laurent series in the first bracket variable l whose
coefficients are Laurent series in the second variable m; in this domain
the unique expansions are

    (l+m+d)^r = sum_k binom(r,k) (m+d)^k l^(r-k)          (m, d ascending)
    (m+d)^r   = sum_t binom(r,t) d^t m^(r-t)              (d ascending)

The second Jacobi term {u_j m {u_i l u_k}} expands coefficientwise (this
completion is its natural home; its l-powers do not mix).  The first and
third terms are evaluated in operator form over the structure's atom chain
(multiplications and powers of d), using

    left Leibniz      {a_l f w}       = {a_l f} w + f {a_l w}
    shift rule        {a_l (m+d)^r w} = (l+m+d)^r {a_l w}
    right Leibniz     {(f x)_s b} -> c = {f_s b} -> (x c) + {x_s b} -> (f c)
    left sesquilin.   {((l+d)^r x)_s b} = (-m)^r {x_s b}     at s = l+m+d

where "-> c" carries the substitution s = l+m+d acting on c.  Expanding any
bracket argument coefficientwise instead silently lands in the opposite
completion and breaks on genuinely non-local structures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import InsufficientTruncation
from .field import DFun, NEG_INF
from .brackets import master_bracket
from .operators import (MatrixPsdOp, OperatorSum, RationalOpPair, ScalarPsdOp,
                        _binomial_shift, structure_sum)
from .series import BiSeries, LambdaSeries, _jf


# ---------------------------------------------------------------------------
# atom chains


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

    def to_operator(self) -> MatrixPsdOp:
        """Compose the atoms into an exact matrix operator (a d^-k before a
        non-constant factor has an infinite tail: InsufficientTruncation)."""
        ctx = self.ctx
        acc = None
        for kind, data in self.atoms:
            if kind == "mult":
                step = MatrixPsdOp([[ScalarPsdOp.of_fun(e) for e in row] for row in data])
            else:
                cols = acc.cols if acc is not None else self.ell
                step = MatrixPsdOp.diag([ScalarPsdOp.d(ctx, data)] * cols)
            acc = step if acc is None else acc.compose(step)
        return acc

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
        """Apply the (differential) chain to a vector, factor by factor."""
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


class SumChain:
    """A sum of atom chains (matrix differential operators that do not factor)."""

    __slots__ = ("ctx", "summands", "ell")

    def __init__(self, summands):
        self.summands = [s if isinstance(s, AtomChain) else AtomChain(*s)
                         for s in summands]
        self.ctx = self.summands[0].ctx
        self.ell = self.summands[0].ell

    def apply(self, vec):
        out = None
        for ch in self.summands:
            part = ch.apply(vec)
            out = part if out is None else [a + b for a, b in zip(out, part)]
        return out

    def to_operator(self) -> MatrixPsdOp:
        acc = None
        for ch in self.summands:
            op = ch.to_operator()
            acc = op if acc is None else acc + op
        return acc

    @property
    def atoms(self):
        raise TypeError("a sum of chains has no single factorization")


class AtomStructure:
    """A structure given by an atom chain, expanded as the fraction chain
    A1 B1^-1 ... An Bn^-1 split at its d^-k atoms: each A is the exact
    product of the differential run before a d^-k, each B = d^k, and a
    trailing run ends the chain over the identity."""

    __slots__ = ("chain", "fraction")

    def __init__(self, chain: AtomChain):
        self.chain = chain
        ctx = chain.ctx
        pairs = []
        run, rows, cols = [], chain.ell, chain.ell

        def numerator():
            if not run:
                return MatrixPsdOp.identity(ctx, cols)
            return AtomChain(ctx, run, rows).to_operator()

        for kind, data in chain.atoms:
            if kind == "d" and data < 0:
                pairs.append((numerator(),
                              MatrixPsdOp.diag([ScalarPsdOp.d(ctx, -data)] * cols)))
                run, rows = [], cols
            else:
                run.append((kind, data))
                if kind == "mult":
                    cols = len(data[0])
        if run or not pairs:
            pairs.append((numerator(), MatrixPsdOp.identity(ctx, cols)))
        self.fraction = RationalOpPair(pairs)

    @property
    def ctx(self):
        return self.chain.ctx

    @property
    def ell(self):
        return self.chain.ell

    def order(self):
        return sum(d for kind, d in self.chain.atoms if kind == "d")

    def expand(self, floor: int) -> MatrixPsdOp:
        return self.fraction.expand(floor)

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


def _grid_mul_series(g: BiSeries, s: LambdaSeries) -> BiSeries:
    """Multiply by a series in the first variable."""
    ctx = g.ctx
    out: Dict[Tuple[int, int], DFun] = {}
    for (p, q), c in g.coeffs.items():
        for n, c2 in s.coeffs.items():
            key = (p + n, q)
            v = c * c2
            acc = out.get(key)
            acc = v if acc is None else acc + v
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    # a floor of either factor, raised by the other factor's top power
    gt = max((p for p, _ in g.coeffs), default=0)
    st = int(s.top()) if s.coeffs else 0
    fl = _jf(None if g.floors[0] is None else g.floors[0] + st,
             None if s.floor is None else s.floor + gt)
    return BiSeries(ctx, out, (fl, g.floors[1]))


def _lambda_rows(g: BiSeries) -> Dict[int, LambdaSeries]:
    """The grid as l-power -> m-series, ascending in l, each with g's m floor."""
    rows: Dict[int, Dict[int, DFun]] = {}
    for (p, q), c in g.coeffs.items():
        rows.setdefault(p, {})[q] = c
    return {p: LambdaSeries(g.ctx, rows[p], g.floors[1]) for p in sorted(rows)}


def _grid_of_rows(ctx, rows: Dict[int, LambdaSeries], floors) -> BiSeries:
    return BiSeries(ctx, {(p, q): c for p, ser in rows.items()
                          for q, c in ser.coeffs.items()}, floors)


def _grid_mu_shift(g: BiSeries, r: int, mu_floor: Optional[int]) -> BiSeries:
    """(m+d)^r along the second variable of a grid."""
    if r >= 0 and g.floors[1] is None:
        mu_floor = None  # finite binomial of an exact series stays exact
    rows = {p: ser.apply_shift(r, floor=mu_floor)
            for p, ser in _lambda_rows(g).items()}
    fm = g.floors[1]
    if fm is not None and r > 0:
        fm += r
    return _grid_of_rows(g.ctx, rows, (g.floors[0], _jf(fm, mu_floor)))


def _grid_trinomial(g: BiSeries, r: int, lam_floor: int, mu_floor: int) -> BiSeries:
    """(l+m+d)^r on a grid: the shift kernel h(l+D) with h = l^r and D = m+d,
    applied to the grid's l-rows."""
    ctx = g.ctx
    if not g.coeffs:
        return BiSeries(ctx, {}, (_jf(g.floors[0], lam_floor), g.floors[1]))
    kmax = r if r >= 0 else max(p for p, _ in g.coeffs) + r - lam_floor
    if kmax < 0:
        return BiSeries(ctx, {}, (lam_floor, g.floors[1]))
    rows = _binomial_shift({r: ctx.one()}, _lambda_rows(g), lam_floor,
                           step=lambda ser: ser.apply_shift(1))
    fl = lam_floor if g.floors[0] is None else max(lam_floor, g.floors[0] + r)
    fm = None if g.floors[1] is None else max(mu_floor, g.floors[1] + kmax)
    return _grid_of_rows(ctx, rows, (fl, fm))


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
        self._paths = []
        for coeff, chain in atoms_of(H):
            for r0, c0, ats in chain.scalar_paths():
                self._paths.append((coeff, r0, c0, ats))

    def _path_value(self, atoms, floor: int) -> LambdaSeries:
        """The symbol value of a scalar atom suffix, as a series."""
        ctx = self.ctx
        val = LambdaSeries.of_fun(ctx.one())
        for kind, data in reversed(atoms):
            if kind == "d":
                val = val.apply_shift(data, floor=floor if data < 0 else None)
            else:
                val = val.scale(data)
        return val

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
            grid = None
            for margin in (down + 2, 3 * (down + 4) + self.dmax):
                cand = self._t1_path(i, ats, fl - up - 1, fm - margin)
                if cand.accurate_at((fl, fm)):
                    grid = cand
                    break
            if grid is None:
                raise InsufficientTruncation("first Jacobi term did not reach floors")
            if not coeff.is_one():
                grid = _grid_scale_fun(grid, coeff)
            total[k0][j0] = total[k0][j0] + grid
        self._t1_cache[i] = total
        return total

    def _t1_path(self, i, atoms, lam_floor, mu_floor) -> BiSeries:
        """{u_i l (value of scalar atom chain at m)} by Leibniz + shift rules."""
        ctx = self.ctx
        cur = BiSeries.zero(ctx, (lam_floor, None))
        suffix = LambdaSeries.of_fun(ctx.one())  # mu-series value of the suffix
        for kind, data in reversed(atoms):
            if kind == "d":
                cur = _grid_trinomial(cur, data, lam_floor, mu_floor)
                suffix = suffix.apply_shift(data, floor=mu_floor if data < 0 else None)
            else:
                f = data
                br = master_bracket(self.sym, self.gens[i], f, lam_floor)
                cur = _grid_scale_fun(cur, f)
                if br.coeffs or br.floor is not None:
                    cur = cur + BiSeries(ctx, {(p, q): a * b
                                               for p, a in br.coeffs.items()
                                               for q, b in suffix.coeffs.items()},
                                         (br.floor, suffix.floor))
                suffix = suffix.scale(f)
        return cur

    # -- second term -------------------------------------------------------------

    def t2_grid(self, i, j, k) -> BiSeries:
        fl, fm = self.floors
        coeffs: Dict[Tuple[int, int], DFun] = {}
        fm_out = fm
        for p, e in self.sym.entry(k, i).coeffs.items():
            if p < fl:
                continue
            ser = master_bracket(self.sym, self.gens[j], e, fm)
            if ser.floor is not None:
                fm_out = max(fm_out, ser.floor)
            for q, c in ser.coeffs.items():
                coeffs[(p, q)] = c
        return BiSeries(self.ctx, coeffs, (fl, fm_out))

    # -- third term --------------------------------------------------------------

    def t3_grid(self, i, j, k) -> BiSeries:
        fl, fm = self.floors
        total = BiSeries.zero(self.ctx, (fl, fm))
        one = BiSeries(self.ctx, {(0, 0): self.ctx.one()}, (None, None))
        base = self.sym_top + self.dmax + 2
        for coeff, r0, c0, ats in self._paths:
            if r0 != j or c0 != i:
                continue
            down = sum(-d for kind, d in ats if kind == "d" and d < 0)
            grid = None
            for extra in (0, 8):
                lam_work = fl - base - down - extra
                mu_work = fm - (fl - lam_work) - self.sym_top - down - 4 - extra
                cand = self._t3_path(ats, k, one, lam_work, mu_work)
                if cand.accurate_at((fl, fm)):
                    grid = cand
                    break
            if grid is None:
                raise InsufficientTruncation("third Jacobi term did not reach floors")
            if not coeff.is_one():
                grid = _grid_scale_fun(grid, coeff)
            total = total + grid
        return total

    def _t3_path(self, atoms, k, carrier: BiSeries, lam_floor, mu_floor) -> BiSeries:
        """{(value of atoms at l)_s u_k} -> carrier, with s = l+m+d."""
        ctx = self.ctx
        if not atoms:
            return BiSeries.zero(ctx, (lam_floor, carrier.floors[1]))
        kind, data = atoms[0]
        rest = atoms[1:]
        if kind == "d":
            carrier2 = _grid_mu_shift(carrier, data, mu_floor)
            if data % 2:
                carrier2 = _grid_scale_fun(carrier2, ctx.const(-1))
            return self._t3_path(rest, k, carrier2, lam_floor, mu_floor)
        f = data
        # piece 1: {f_s u_k} -> (suffix value * carrier)
        xval = self._path_value(rest, lam_floor)
        prod = _grid_mul_series(carrier, xval)
        ptop = max((p for p, _ in prod.coeffs), default=0)
        nu_floor = self.floors[0] - max(0, ptop) - 1
        dser = master_bracket(self.sym, f, self.gens[k], nu_floor)
        piece1 = BiSeries.zero(ctx, (lam_floor, prod.floors[1]))
        for r, dr in dser.coeffs.items():
            t = _grid_trinomial(prod, r, lam_floor, mu_floor)
            piece1 = piece1 + _grid_scale_fun(t, dr)
        if dser.floor is not None and prod.coeffs:
            # unknown nu-powers below dser.floor reach lambda <= dser.floor+ptop-1
            fl2 = dser.floor + ptop
            piece1 = BiSeries(ctx, piece1.coeffs,
                              (max(piece1.floors[0], fl2)
                               if piece1.floors[0] is not None else fl2,
                               piece1.floors[1]))
        # piece 2: {(rest value)_s u_k} -> (f * carrier)
        piece2 = self._t3_path(rest, k, _grid_scale_fun(carrier, f),
                               lam_floor, mu_floor)
        return piece1 + piece2

    # -- the verdict ----------------------------------------------------------------

    def jacobiator(self, i, j, k) -> BiSeries:
        T1 = self.t1_matrix(i)[k][j]
        T2 = self.t2_grid(i, j, k)
        T3 = self.t3_grid(i, j, k)
        return T1 - T2 - T3

