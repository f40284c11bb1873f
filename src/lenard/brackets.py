"""Non-local lambda-brackets and the Poisson checks.

The bracket {f_l g} of a structure H is evaluated by the master formula

    sum over i, j, m, n of
        dg/du_j^(n) (l+d)^n H_ji(l+d) (-l-d)^m df/du_i^(m),

where the symbol H(l) is read off H's expansion: entry (j, i) of the
expanded MatrixPsdOp holds the coefficient of l^n at degree n.  H is
expanded deep enough that the requested accuracy floor of the result is
certified: the expansion depth is the target floor minus the maximal m
and n that occur.  Every series in l is a ScalarPsdOp read as a symbol,
with compose's floors: f's part is the column H o D_f^*, one MatrixPsdOp
composition (D_f the Frechet derivative of f, a row), and lambda_bracket
hands its result out as a series.LambdaSeries, which only prints it.
Jacobi and compatibility verdicts are always floor-qualified; the
comparison domain expands (l+mu)^q by the geometric series in mu/l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InsufficientTruncation, InvalidWitness
from .field import (DFun, ONE_MONO, _den_cofactor, _den_merge, batch_derivative,
                    field_element, over_lcm, poly_add_into, poly_add_scaled, poly_mul)
from .functional import LocalFunctional
from .operators import MatrixPsdOp, ScalarPsdOp, _jf, structure_sum
from .series import LambdaSeries

DEFAULT_JACOBI_FLOORS = (-8, -8)


def _shifted_rows(ctx, s, nmax, floor):
    """The rows (l+d)^n s_a, n = 0..nmax, of the series s = [s_a] at the
    l-powers from floor up, as numerators over one denominator:
    ({(a, n): {power: numerator}}, denominator).  Each coefficient's
    total-derivative tower is walked once, a level at a time with one
    batch_derivative, and d^k s_a,q adds binom(n, k) times itself at power
    q+n-k of row n; level k keeps only the q from floor - nmax + k up, the
    coefficients that still reach the floor."""
    cells = [(a, q) for a, sa in enumerate(s) for q in sa.coeffs if q >= floor - nmax]
    nums, den = over_lcm([s[a].coeffs[q] for a, q in cells])
    levels = [(dict(zip(cells, nums)), den)]
    for k in range(1, nmax + 1):
        keep = [c for c, n in levels[-1][0].items() if n and c[1] >= floor - nmax + k]
        if not keep:
            break
        (nums,), den = batch_derivative(ctx, [[levels[-1][0][c] for c in keep]], den)
        levels.append((dict(zip(keep, nums)), den))
    rows: Dict[Tuple[int, int], Dict[int, dict]] = {}
    for k, (level, lden) in enumerate(levels):
        cof = _den_cofactor(den, lden)
        unit = cof == {ONE_MONO: 1}
        for (a, q), num in level.items():
            if not unit:
                num = poly_mul(num, cof)
            b = 1  # binom(n, k), stepped with n
            for n in range(k, nmax + 1):
                if q + n - k >= floor:
                    poly_add_scaled(rows.setdefault((a, n), {}).setdefault(q + n - k, {}),
                                    num, b)
                b = b * (n + 1) // (n + 1 - k)
    return rows, den


def master_bracket(sym: MatrixPsdOp, f: DFun, gs, floor, rows) -> List[ScalarPsdOp]:
    """The master formula for {f_l g}, with sym H's expansion (its symbol),
    for each g of the batch gs: one series per g.

    f's part s_a = sum_i H_ai(l+d) t_i, t_i = sum_m (-l-d)^m df/du_i^(m),
    is the column H o D_f^*, D_f^* the adjoint of f's Frechet derivative,
    composed at floor - N, N the batch's top jet order, or at the floor H
    supports when that is higher.  The contraction
    sum_{a,n} dg/du_a^(n) (l+d)^n s_a runs on numerators: the rows
    (l+d)^n s_a over one denominator (_shifted_rows), the batch's jet
    partials over another, and each output coefficient becomes a field
    element once.  g's floor: that of s_a at floor - (g's top order), plus
    g's top order in u_a, at least floor.  `rows`, a dict, keeps the rows
    per (f, floor) for later calls on the same sym (the Jacobi engine's
    cache); rows for a larger N serve a smaller one."""
    ctx, ell = sym.ctx, sym.rows
    parts = [[g.jet_partials(a) for a in range(ell)] for g in gs]
    tops = [max((max(ps) for ps in gp if ps), default=None) for gp in parts]
    f_parts = [f.jet_partials(i) for i in range(ell)]
    if all(not ps for ps in f_parts) or all(n is None for n in tops):
        return [ScalarPsdOp.zero(ctx) for _ in gs]
    nmax = max(n for n in tops if n is not None)
    key = (f.key(), floor)
    hit = rows.get(key)
    if hit is None or hit[0] < nmax:
        col = MatrixPsdOp([[ScalarPsdOp(ctx, ps).adjoint()] for ps in f_parts])
        hfl = sym.floor()
        cut = _jf(floor - nmax, None if hfl is None else hfl + int(col.order()))
        svec = [s for s, in sym.compose(col, cut).entries]
        hit = rows[key] = ((nmax, [s.floor for s in svec])
                           + _shifted_rows(ctx, svec, nmax, floor))
    _, sfloors, srows, sden = hit
    gnums, gden = over_lcm([c for gp in parts for ps in gp for c in ps.values()])
    den = _den_merge(sden, gden) if gden else sden
    gnums = iter(gnums)
    out = []
    for gp, top in zip(parts, tops):
        if top is None:
            out.append(ScalarPsdOp.zero(ctx))
            continue
        fl = max([floor] + [max(floor - top, sfloors[a]) + max(ps)
                            for a, ps in enumerate(gp) if ps])
        sums: Dict[int, dict] = {}
        for a, ps in enumerate(gp):
            for n in ps:
                gn = next(gnums)
                for deg, r in srows.get((a, n), {}).items():
                    if deg >= fl and r:
                        poly_add_into(sums.setdefault(deg, {}), poly_mul(gn, r))
        out.append(ScalarPsdOp(ctx, {deg: field_element(ctx, num, den)
                                     for deg, num in sums.items() if num}, fl))
    return out


def lambda_bracket(H, f: DFun, g: DFun, floor: int) -> LambdaSeries:
    """{f_l g}_H to the floor."""
    S = structure_sum(H)
    # the top jet orders M of f and N of g; the symbol is needed to floor - M - N
    tops = [max((n for i in range(S.ell) for n in h.jet_partials(i)), default=None)
            for h in (f, g)]
    if None in tops:
        return LambdaSeries.zero(S.ctx)
    br, = master_bracket(S.expand(floor - sum(tops)), f, [g], floor, {})
    return LambdaSeries(S.ctx, br.coeffs, br.floor)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    """Floor-qualified outcome of a structure check."""
    check: str
    holds: bool
    floors: Tuple
    witness: Optional[dict] = None
    structure: str = ""

    def as_record(self):
        rec = {"property": self.check, "floor": list(self.floors),
               "verdict": "holds-to-floor" if self.holds else "fails",
               "structure": self.structure}
        if self.witness is not None:
            rec["witness"] = {k: str(v) for k, v in self.witness.items()}
        return rec

    def __bool__(self):
        return self.holds


def check_skewadjoint(H, floor: int = -8) -> Verdict:
    """H* = -H, compared as expansions to the floor."""
    S = structure_sum(H)
    total = S.expand(floor) + S.adjoint_sum().expand(floor)
    if total.eq_to_floor(MatrixPsdOp.zero(S.ctx, S.ell, S.ell, floor), floor):
        return Verdict("skewadjoint", True, (floor,))
    wit = None
    for r in range(S.ell):
        for c in range(S.ell):
            for n, cf in sorted(total.entries[r][c].coeffs.items(), reverse=True):
                if n >= floor and not cf.is_zero():
                    wit = {"entry": (r, c), "degree": n, "coefficient": cf}
                    break
            if wit:
                break
        if wit:
            break
    return Verdict("skewadjoint", False, (floor,), wit)


def check_jacobi(H, floors: Tuple[int, int] = DEFAULT_JACOBI_FLOORS) -> Verdict:
    """The Jacobi identity on every generator triple (floor-qualified)."""
    from .jacobi import JacobiEngine
    eng = JacobiEngine(H, floors)
    for i in range(eng.ell):
        for j in range(eng.ell):
            for k in range(eng.ell):
                diff = eng.jacobiator(i, j, k)
                if not diff.accurate_at(floors):
                    raise InsufficientTruncation(
                        "jacobiator accuracy %s short of floors %s"
                        % (diff.floors, floors))
                wit = diff.nonzero_witness(floors)
                if wit is not None:
                    (lp, mp), coeff = wit
                    return Verdict("jacobi", False, floors,
                                   {"triple": (i, j, k), "lambda_power": lp,
                                    "mu_power": mp, "coefficient": coeff})
    return Verdict("jacobi", True, floors)


def check_compatible(H, K, floors: Tuple[int, int] = DEFAULT_JACOBI_FLOORS) -> Verdict:
    """Jacobi for H + K; with H and K Poisson this certifies all aH + bK."""
    total = structure_sum(H) + structure_sum(K)
    v = check_jacobi(total, floors)
    return Verdict("compatible", v.holds, floors, v.witness)


# ---------------------------------------------------------------------------
# Lie structures on vector fields and functionals


def evolutionary_bracket(P, Qv):
    """[P, Q]_i = sum (dQ_i/du_j^(n)) d^n P_j - (dP_i/du_j^(n)) d^n Q_j."""
    ctx = P[0].ctx
    ell = len(P)
    out = []
    for i in range(ell):
        acc = ctx.zero()
        for jj in range(ell):
            for n, c in Qv[i].jet_partials(jj).items():
                acc = acc + c * P[jj].derivative(n)
            for n, c in P[i].jet_partials(jj).items():
                acc = acc - c * Qv[jj].derivative(n)
        out.append(acc)
    return out


def functional_action(P, h: LocalFunctional) -> LocalFunctional:
    """phi(P) int h = int P . delta h / delta u."""
    grad = h.gradient()
    if len(P) != len(grad):
        raise ValueError("vector length mismatch")
    ctx = h.ctx
    acc = ctx.zero()
    for p, g in zip(P, grad):
        acc = acc + p * g
    return LocalFunctional(acc)


def functional_bracket(H, f: LocalFunctional, g: LocalFunctional, P,
                       witnesses=None) -> LocalFunctional:
    """{int f, int g}_H = int P . delta g/delta u for an association witness P."""
    if witnesses is not None:
        from .chains import verify_association
        if not verify_association(H, f, P, witnesses):
            raise InvalidWitness("P is not an association witness for the functional")
    return functional_action(P, g)
