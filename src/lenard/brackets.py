"""Non-local lambda-brackets and the Poisson checks.

The bracket {f_l g} of a structure H is evaluated by the master formula

    sum over i, j, m, n of
        dg/du_j^(n) (l+d)^n H_ji(l+d) (-l-d)^m df/du_i^(m),

where the symbol H(l) is read off H's expansion: entry (j, i) of the
expanded MatrixPsdOp holds the coefficient of l^n at degree n.  H is
expanded deep enough that the requested accuracy floor of the result is
certified: the expansion depth is the target floor minus the maximal m
and n that occur.  Jacobi and compatibility verdicts are always
floor-qualified; the comparison domain expands (l+mu)^q by the geometric
series in mu/l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import InsufficientTruncation, InvalidWitness
from .field import DFun
from .functional import LocalFunctional
from .operators import MatrixPsdOp, ScalarPsdOp, _binomial_shift, _jf, structure_sum
from .series import LambdaSeries

DEFAULT_JACOBI_FLOORS = (-8, -8)


def apply_symbol(sym: ScalarPsdOp, t: LambdaSeries, floor) -> LambdaSeries:
    """H(l+d) applied to a series: sum_q h_q (l+d)^q t, to the floor."""
    ctx = sym.ctx
    if not t.coeffs:
        fl = None if sym.floor is None and t.floor is None else floor
        return LambdaSeries.zero(ctx, fl)
    t_top = int(t.top())
    acc = _binomial_shift(sym.coeffs, t.coeffs, floor)
    # accuracy: unknown symbol terms (q < sym.floor) pollute up to sym.floor+t_top-1;
    # unknown t terms pollute up to sym_top + t.floor - 1
    fl = floor
    if sym.floor is not None:
        fl = max(fl, sym.floor + t_top)
    if t.floor is not None and sym.coeffs:
        fl = max(fl, int(max(sym.coeffs)) + t.floor)
    return LambdaSeries(ctx, acc, fl)


def master_bracket(sym: MatrixPsdOp, f: DFun, g: DFun, floor) -> LambdaSeries:
    """The master formula for {f_l g}, with sym H's expansion (its symbol)."""
    ctx = sym.ctx
    ell = sym.rows
    f_parts = [f.jet_partials(i) for i in range(ell)]
    g_parts = [g.jet_partials(j) for j in range(ell)]
    if all(not ps for ps in f_parts) or all(not ps for ps in g_parts):
        return LambdaSeries.zero(ctx, None)
    # t_i = sum_m (-l-d)^m f_{i,m}, the symbol of the adjoint of f's partials
    tvec = [LambdaSeries(ctx, ScalarPsdOp(ctx, ps).adjoint().coeffs, None)
            for ps in f_parts]
    n_max = max(max(ps, default=0) for ps in g_parts)
    # sum_j sum_n g_{j,n} (l+d)^n s_j, with s_j = sum_i H_ji(l+d) t_i
    out, fl = {}, None
    for j in range(ell):
        if not g_parts[j]:
            continue
        s = LambdaSeries.zero(ctx, None)
        for i in range(ell):
            if not tvec[i].coeffs:
                continue
            s = s + apply_symbol(sym.entry(j, i), tvec[i], floor - n_max)
        _binomial_shift(g_parts[j], s.coeffs, None, out)
        if s.floor is not None:
            fl = _jf(fl, s.floor + max(g_parts[j]))
    return LambdaSeries(ctx, out, fl).truncate(floor)


def lambda_bracket(H, f: DFun, g: DFun, floor: int) -> LambdaSeries:
    """{f_l g}_H to the floor."""
    S = structure_sum(H)
    f_parts = [f.jet_partials(i) for i in range(S.ell)]
    g_parts = [g.jet_partials(j) for j in range(S.ell)]
    if all(not ps for ps in f_parts) or all(not ps for ps in g_parts):
        return LambdaSeries.zero(S.ctx, None)
    M = max(m for ps in f_parts for m in ps)
    N = max(n for ps in g_parts for n in ps)
    return master_bracket(S.expand(floor - M - N), f, g, floor)


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
