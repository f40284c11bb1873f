"""Closed-form hierarchy families and the zero-pattern classification
for pairs built from d, d^-1 and u' d^-1 u'.

The bounded families come as explicit double-factorial sums; the
exponential-polynomial families come from a two-term recursion whose
integration constants are carried as fresh symbolic parameters and
defaulted to zero.  Every produced pair is verified on both association
links before it is returned.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Tuple

from .chains import (Chain, ChainStep, dord_threshold, extend_right, peel_denominator,
                     verify_association)
from .errors import AnsatzExhausted, ParamDegenerate, Proportional
from .field import Context, DFun, vec_is_zero
from .functional import _by_parts, antiderivative_in_var, variational_derivative
from .operators import binom
from .presets import liouville_fraction, liouville_spaces, load_liouville
from .solve import AnsatzSpace, in_span, kernel_of, solve_operator_equation


def double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    out = 1
    while n > 0:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# C1-type closed forms (a1 = b1 = 0)


def family_sqrt(ctx, a2, a3, b2, b3, n):
    """Case b2 b3 != 0, a1 = 0: (P_n, h_n) built on sqrt(b2 + b3 u'^2)."""
    u1 = ctx.u(1)
    delta = a2 * b3 - a3 * b2
    if delta.is_zero():
        raise ParamDegenerate("a and b are proportional")
    if b3.is_zero() or b2.is_zero():
        raise ParamDegenerate("family needs b2 b3 != 0")
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    g = b2 + b3 * u1 ** 2
    P = ctx.zero()
    h = ctx.zero()

    def gpow_half(m):
        # (b2 + b3 u'^2)^(1/2 + m) as g^m * s
        return (g ** m) * s

    for k in range(n + 1):
        c = Q(binom(n, k)) * Q(double_factorial(2 * n - 1 - 2 * k))
        coeffP = ctx.const(c / Q(double_factorial(2 * n - 2 * k)))
        coeffH = ctx.const(c / Q(double_factorial(2 * n - 2 * k + 2)))
        corer = delta ** (n + 1 - k) * a3 ** k / gpow_half(n - k)
        P = P + coeffP * corer * (-u1) / b3 ** n
        # the density carries no u' factor (P does); with it, no witness
        # satisfies the K-link, and the paper's own helper identities
        # C g^(-m/2), A g^(-m/2) act on plain powers
        h = h - coeffH * corer / b3 ** (n + 1)
    return P, h


def family_odd_powers(ctx, a2, a3, b2, n):
    """Case b3 = 0, a1 = 0 (b2 != 0): P_(n-1), h_(n-1) in odd powers of u'."""
    if b2.is_zero():
        raise ParamDegenerate("family needs b2 != 0")
    if a3.is_zero():
        raise ParamDegenerate("independence needs a3 != 0")
    u1 = ctx.u(1)
    P = ctx.zero()
    h = ctx.zero()
    for k in range(n + 1):
        c = Q(binom(n, k)) * Q(double_factorial(2 * k - 1))
        coeffP = ctx.const(c / Q(double_factorial(2 * k)))
        coeffH = ctx.const(c / Q(double_factorial(2 * k + 2)))
        core = a2 ** (n - k) * a3 ** k
        P = P + coeffP * core * u1 ** (2 * k + 1) / b2 ** n
        # density denominator is b2^(n+1): F = P/b2 must satisfy d F = grad h
        h = h - coeffH * core * u1 ** (2 * k + 2) / b2 ** (n + 1)
    return P, h


def family_inverse_powers(ctx, a2, a3, b3, n):
    """Case b2 = 0, a1 = 0 (b3 != 0): P_(n-1), h_(n-1) in powers of 1/u'."""
    if b3.is_zero():
        raise ParamDegenerate("family needs b3 != 0")
    if a2.is_zero():
        raise ParamDegenerate("independence needs a2 != 0")
    u1 = ctx.u(1)
    P = ctx.zero()
    h = ctx.zero()
    for k in range(n + 1):
        c = Q(binom(n, k)) * Q(double_factorial(2 * k - 1))
        coeffP = ctx.const(c / Q(double_factorial(2 * k)))
        coeffH = ctx.const(c / Q(double_factorial(2 * k + 2)))
        core = a3 ** (n - k) * a2 ** k
        P = P + coeffP * core / (b3 ** n * u1 ** (2 * k))
        h = h + coeffH * core / (b3 ** (n + 1) * u1 ** (2 * k + 1))
    return P, h


# ---------------------------------------------------------------------------
# C2-type polynomial recursions (b1 != 0)


def pq_recursion(ctx, a1, ax, b1, bx, n, in_u=False):
    """The (p_n, q_n) pairs: q'' + 2 c q' = p and
    p_next = (a1/b1) p + ((ax b1 - a1 bx)/b1^2) q.

    c = sqrt(-bx/b1) is a derived parameter; integration constants are zero,
    except the seeding constant of q_0 which is set to one (a zero seed
    collapses the whole family).  Works in t = x, or in t = u when in_u.
    """
    name = "c13" if in_u else "c12"
    if bx.is_zero() or b1.is_zero():
        raise ParamDegenerate("needs b1 bx != 0 in the two-term recursion")
    ctx.add_derived_parameter(name, -bx / b1)
    c = ctx.param(name)
    tid = ctx.gen_var(0, 0) if in_u else ctx.x_id

    def solve_q(p):
        # polynomial solution of q'' + 2c q' = p, constant term zero:
        # (q' e^(2ct))' = p e^(2ct) gives q' by parts, then integrate once
        qp = _by_parts(p, 2 * c, tid)
        if qp is None:
            raise ParamDegenerate("recursion failed to terminate")
        q = antiderivative_in_var(ctx, qp, tid)
        if q is None:
            raise ParamDegenerate("antiderivative of a genuine fraction in t")
        return q

    pairs = []
    p = ctx.zero()
    q = ctx.one()   # the seeding constant epsilon_0 = 1
    pairs.append((p, q))
    for _ in range(n):
        p = (a1 / b1) * p + ((ax * b1 - a1 * bx) / b1 ** 2) * q
        q = solve_q(p)
        pairs.append((p, q))
    return pairs, c


def family_exp(ctx, a1, ax, b1, bx, n, in_u=False):
    """b1 bx != 0, the other cross pair zero: (P_k, g_k, F_k) with e^(c t).

    t = x (ax = a2, bx = b2, a3 = b3 = 0): g_k is the density h_k.
    t = u (ax = a3, bx = b3, a2 = b2 = 0): g_k is the gradient of h_k.
    F_k witnesses both links: D F = grad h_k, C F = P_k, and the same F
    drives the H-link to P_(k+1).
    """
    pairs, c = pq_recursion(ctx, a1, ax, b1, bx, n, in_u=in_u)
    E = ctx.adjoin_exp_u(c) if in_u else ctx.adjoin_exp_x(c)
    u = ctx.gen(0, 0)
    tid, t = (ctx.gen_var(0, 0), u) if in_u else (ctx.x_id, ctx.x())
    out = []
    for p, q in pairs:
        pm = p.subs_var(tid, -t)
        qm = q.subs_var(tid, -t)                # q(-t)
        qp = q._formal_partial(tid)             # q'(t)
        qpm = qp.subs_var(tid, -t)              # q'(-t)
        P = p * E + pm / E
        if in_u:
            P = P * ctx.u(1)
        g = (qp + c * q) * E - (qpm + c * qm) / E
        g = g / b1 if in_u else g * u / b1
        F = (q * E + qm / E) / b1
        out.append((P, g, F))
    return out


def family_case6(ctx, a1, ax, b1, n, in_u=False):
    """b2 = b3 = 0 (K = b1 d), one of a2/a3 nonzero: polynomial families.

    Canonical representative of the double-antiderivative recursion
    p_(k+1) = (a1 p_k + ax (d/dt)^-2 p_k)/b1: integration constants are
    zero and the scheme is seeded with P_0 = 1 (x-version, t = x) or
    P_0 = u' (u-version, t = u).  Returns [(P_k, h_k, F_k, G_k)] with both
    link witnesses.
    """
    if b1.is_zero() or ax.is_zero():
        raise ParamDegenerate("needs b1 != 0 and the cross coefficient nonzero")
    tid = ctx.x_id if not in_u else ctx.gen_var(0, 0)
    u = ctx.gen(0, 0)
    u1 = ctx.u(1)

    out = []
    p = ctx.one() / b1
    for _ in range(n + 1):
        r = antiderivative_in_var(ctx, p, tid)
        s = None if r is None else antiderivative_in_var(ctx, r, tid)
        if s is None:
            raise ParamDegenerate("antiderivative of a genuine fraction in t")
        if not in_u:
            P = b1 * p
            h = r * u
        else:
            P = b1 * p * u1
            h = s
        out.append((P, h, s, r))
        p = (a1 * p + ax * s) / b1
    return out


def hodograph_dual(ctx, f: DFun) -> DFun:
    """x <-> u exchange on functions of u' only: (f/u')(u' -> -1/u')."""
    u1 = ctx.u(1)
    g = f / u1
    return g.subs_var(ctx.gen_var(0, 1), -1 / u1)


FAMILY_IDS = ("sqrt", "odd-powers", "inverse-powers",
              "exp-x", "exp-u", "case6a", "case6b")


def closed_form_family(family, params, n, verify=True):
    """Evaluate a closed-form hierarchy family up to index n.

    family in FAMILY_IDS; params a dict of parameter names to bind
    symbolically present coefficients (a1, a2, a3, b1, b2, b3 as needed).
    Returns (ctx, [(P_k, g_k)]), g_k the density h_k; exp-u alone gives
    its gradient (family_exp: density for t = x, gradient for t = u).
    Every consecutive pair is verified on both association links before
    returning.
    """
    ctx = Context(("u",), tuple(sorted(params)))
    vals = {k: (ctx.param(k) if v is None else ctx.const(v))
            for k, v in params.items()}
    zero = ctx.zero()
    a1 = vals.get("a1", zero)
    a2 = vals.get("a2", zero)
    a3 = vals.get("a3", zero)
    b1 = vals.get("b1", zero)
    b2 = vals.get("b2", zero)
    b3 = vals.get("b3", zero)
    u1 = ctx.u(1)
    vd = variational_derivative
    in_u = family in ("exp-u", "case6b")
    ax, bx = (a3, b3) if in_u else (a2, b2)

    def fraction_in_t(x1, xt):   # x1 L1 + xt L3 for t = u, x1 L1 + xt L2 for t = x
        return liouville_fraction(ctx, x1, *((zero, xt) if in_u else (xt, zero)))

    if family in ("sqrt", "odd-powers", "inverse-powers"):
        # H = L(0, a2, a3), K = L(0, b2, b3): only the K-witness differs
        if family == "sqrt":
            seq = [family_sqrt(ctx, a2, a3, b2, b3, k) for k in range(n + 1)]
            witness_K = lambda P, h: [-h]
        elif family == "odd-powers":
            seq = [family_odd_powers(ctx, a2, a3, b2, k) for k in range(n + 1)]
            witness_K = lambda P, h: [P / b2]
        else:
            seq = [family_inverse_powers(ctx, a2, a3, b3, k) for k in range(n + 1)]
            witness_K = lambda P, h: [P / (b3 * u1)]
        if verify:
            _verify_links(family, liouville_fraction(ctx, zero, a2, a3),
                          liouville_fraction(ctx, zero, b2, b3),
                          [(P, vd(h), witness_K(P, h), [-h]) for P, h in seq])
        return ctx, seq
    if family in ("exp-x", "exp-u"):
        rows = family_exp(ctx, a1, ax, b1, bx, n, in_u=in_u)
        if verify:
            _verify_links(family, fraction_in_t(a1, ax), fraction_in_t(b1, bx),
                          [(P, [g] if in_u else vd(g), [F], [F])
                           for P, g, F in rows])
        return ctx, [(P, g) for P, g, _ in rows]
    if family in ("case6a", "case6b"):
        rows = family_case6(ctx, a1, ax, b1, n, in_u=in_u)
        if verify:
            _verify_links(family, fraction_in_t(a1, ax),
                          liouville_fraction(ctx, b1, zero, zero),
                          [(P, vd(h), [G], [F]) for P, h, F, G in rows])
        return ctx, [(P, h) for P, h, _, _ in rows]
    raise ParamDegenerate("unknown family %r" % (family,))


def _verify_links(family, H, K, rows):
    """Check both association links of a closed-form family.

    rows are (P_k, grad h_k, K-witness, H-witness): the K-link holds with its
    witness, and the H-witness F gives A F = P_(k+1) and B F = grad h_k.
    """
    for k, (P, grad, wK, wH) in enumerate(rows):
        if not verify_association(K, grad, [P], [wK]):
            raise ParamDegenerate("%s family: K-link failed at %d" % (family, k))
        if k + 1 < len(rows) and not verify_association(
                H, grad, [rows[k + 1][0]], [wH]):
            raise ParamDegenerate("%s family: H-link failed at %d" % (family, k))


# ---------------------------------------------------------------------------
# the zero-pattern classification


S_TYPE = "S-type"
C1_TYPE = "C1-type"
C2_TYPE = "C2-type"
FINITE = "finite"
BLOCKED = "blocked"


def classify(a: Tuple[bool, bool, bool], b: Tuple[bool, bool, bool]) -> str:
    """The scheme class for nonzero-pattern (a1,a2,a3), (b1,b2,b3).

    Booleans say whether the coefficient is nonzero.  Raises Proportional
    when the patterns force linearly dependent structures only if identical
    single-entry patterns coincide.
    """
    a1, a2, a3 = a
    b1, b2, b3 = b
    if a == b and sum(a) == 1:
        raise Proportional("single matching entries are proportional")
    if not any(a) or not any(b):
        raise Proportional("a structure vanished")
    # S-type
    if not b1 and (b2 or b3) and a1 and a2 and a3:
        return S_TYPE
    if not b1 and a1 and ((b2 and not a2 and (b3 or a3))
                          or (b3 and not a3 and (b2 or a2))):
        return S_TYPE
    # C1
    if not b1 and not a1 and ((b2 and a3) or (b3 and a2)):
        return C1_TYPE
    # C2
    if b1 and a1 and ((not b2 and not a2 and (b3 or a3))
                      or (not b3 and not a3 and (b2 or a2))):
        return C2_TYPE
    if b1 and not a1 and ((not b2 and not a2 and a3)
                          or (not b3 and not a3 and a2)):
        return C2_TYPE
    # finite
    if b1 and b2 and b3 and not a1 and (a2 or a3):
        return FINITE
    if not b1 and a1 and ((not b2 and not a2 and b3)
                          or (not b3 and not a3 and b2)):
        return FINITE
    if not b1 and not a1 and ((not b2 and not a2 and b3 and a3)
                              or (b2 and a2 and not b3 and not a3)):
        return FINITE
    if b1 and b2 and b3 and a1 and a2 and a3:
        return FINITE
    if b1 and b2 and b3 and a1 and not (a2 and a3):
        return FINITE
    # blocked
    if b1 and not a1 and ((not b2 and a2 and (b3 or a3))
                          or (not b3 and a3 and (b2 or a2))):
        return BLOCKED
    if b1 and not (b2 and b3) and a1 and a2 and a3:
        return BLOCKED
    if b1 and a1 and ((b2 and a3 and not b3 and not a2)
                      or (not b2 and not a3 and b3 and a2)):
        return BLOCKED
    # remaining patterns: the scheme never leaves the kernel layer
    return FINITE


# ---------------------------------------------------------------------------
# empirical cross-validation: run the engine on representative patterns


EMPIRICAL_PATTERNS = {
    # pattern -> (expected class, strategy)
    ((1, 1, 1), (0, 1, 1)): (S_TYPE, "s-preset-i"),
    ((1, 0, 0), (0, 1, 1)): (S_TYPE, "s-preset-iv"),
    ((0, 0, 1), (0, 1, 0)): (C1_TYPE, "c1-preset-vii"),
    ((0, 1, 0), (0, 0, 1)): (C1_TYPE, "c1-preset-x"),
    ((1, 1, 0), (1, 1, 0)): (C2_TYPE, "c2-exp-x"),
    ((1, 0, 1), (1, 0, 1)): (C2_TYPE, "c2-exp-u"),
    ((0, 1, 1), (1, 1, 1)): (FINITE, "finite-a"),
    ((1, 0, 0), (0, 1, 0)): (FINITE, "finite-b"),
    ((0, 1, 0), (1, 0, 1)): (BLOCKED, "blocked-a"),
    ((1, 1, 1), (1, 1, 0)): (BLOCKED, "blocked-b"),
}


def empirical_class(a_pattern, b_pattern):
    """Derive the class by actually running the engine on the pattern.

    Supported for the documented representative patterns (at least two per
    class); raises for others.  Parameters are bound to numeric values that
    keep the needed square roots rational.
    """
    key = (tuple(a_pattern), tuple(b_pattern))
    if key not in EMPIRICAL_PATTERNS:
        raise ParamDegenerate("no empirical strategy for pattern %s" % (key,))
    expected, strategy = EMPIRICAL_PATTERNS[key]

    if strategy in ("s-preset-i", "s-preset-iv"):
        case = "i" if strategy.endswith("i") else "iv"
        pre = load_liouville(case)
        ctx = pre.ctx
        spF, spG = liouville_spaces(ctx, *pre.extras["b"][1:])
        extend_right(pre.chain, spF, spG, steps=1)
        if pre.chain.status.kind != "extendable":
            return pre.chain.status.kind
        dp, _ = pre.chain.last().dords()
        thr = dord_threshold(pre.H, pre.K)
        if dp > thr and pre.H.order() > pre.K.order():
            return S_TYPE
        return "inconclusive"

    if strategy.startswith("c1-preset"):
        case = strategy.rsplit("-", 1)[1]
        pre = load_liouville(case, a1_nonzero=False)
        ctx = pre.ctx
        u1 = ctx.u(1)
        spF = AnsatzSpace(ctx, 1, 4, denominators=[(u1, 4)])
        spG = AnsatzSpace(ctx, 1, 4, denominators=[(u1, 4)])
        extend_right(pre.chain, spF, spG, steps=2)
        if pre.chain.status.kind != "extendable":
            return pre.chain.status.kind
        dords = [s.dords()[0] for s in pre.chain.steps]
        Ps = [s.P for s in pre.chain.steps if not vec_is_zero(s.P)]
        independent = not in_span(ctx, Ps[:-1], Ps[-1])
        bounded = max(d for d in dords if d == d) <= 1
        if independent and bounded and pre.H.order() == pre.K.order() == -1:
            return C1_TYPE
        return "inconclusive"

    if strategy in ("c2-exp-x", "c2-exp-u"):
        in_u = strategy.endswith("u")
        ctx = Context(("u",))
        # crafted values keep sqrt(-bx/b1) rational
        a1, ax, b1, bx = (ctx.const(-1), ctx.const(16), ctx.const(-1),
                          ctx.const(4))
        zero = ctx.zero()
        if in_u:
            H = liouville_fraction(ctx, a1, zero, ax)
            K = liouville_fraction(ctx, b1, zero, bx)
        else:
            H = liouville_fraction(ctx, a1, ax, zero)
            K = liouville_fraction(ctx, b1, bx, zero)
        c = ctx.const(2)  # sqrt(-bx/b1) = sqrt(4)
        E = ctx.adjoin_exp_u(c) if in_u else ctx.adjoin_exp_x(c)
        # seed with the h-side kernel move: 0 --K--> int h_0 with
        # F_0 = (E + E^-1)/b1 in ker(C), grad h_0 = D F_0
        F0 = [(E + 1 / E) / b1]
        if not vec_is_zero(K.num.apply(F0)):
            return "inconclusive"
        grad0 = K.den.apply(F0)
        chain = Chain(H, K, [ChainStep(-1, [ctx.zero()], grad0, None,
                                       witness_H=None, witness_K=[F0])])
        spF = AnsatzSpace(ctx, 1, 2, x_power=2, multipliers=[E, 1 / E])
        spG = AnsatzSpace(ctx, 1, 3, x_power=2, multipliers=[E, 1 / E])
        extend_right(chain, spF, spG, steps=2)
        if chain.status.kind != "extendable":
            return chain.status.kind
        Ps = [s.P for s in chain.steps if not vec_is_zero(s.P)]
        independent = len(Ps) >= 2 and not in_span(ctx, Ps[:-1], Ps[-1])
        if independent and K.order() == 1 and H.order() <= K.order():
            return C2_TYPE
        return "inconclusive"

    if strategy == "finite-b":
        ctx = Context(("u",))
        H = liouville_fraction(ctx, ctx.const(2), ctx.zero(), ctx.zero())
        K = liouville_fraction(ctx, ctx.zero(), ctx.const(3), ctx.zero())
        spG = AnsatzSpace(ctx, 1, 2, x_power=1)
        kers = kernel_of(H.den, spG)
        candidates = [H.num.apply(k) for k in kers]
        if all(vec_is_zero(c) for c in candidates):
            return FINITE
        return "inconclusive"

    if strategy == "finite-a":
        ctx = Context(("u",))
        u1 = ctx.u(1)
        H = liouville_fraction(ctx, ctx.zero(), ctx.const(2), ctx.const(3))
        K = liouville_fraction(ctx, ctx.const(5), ctx.const(7), ctx.const(11))
        # P0 in the image of ker(B_H): pick A k != 0, then ask the K-link
        spK = AnsatzSpace(ctx, 1, 2, x_power=1)
        kers = kernel_of(H.den, spK)
        P0 = None
        for k in kers:
            cand = H.num.apply(k)
            if not vec_is_zero(cand):
                P0 = cand
                break
        if P0 is None:
            return FINITE
        spG = AnsatzSpace(ctx, 2, 3, x_power=1, denominators=[(ctx.u(2), 2)])
        try:
            solG = solve_operator_equation(K.num, P0, spG)
        except AnsatzExhausted:
            return BLOCKED
        xi = K.den.apply(solG.particular)
        if vec_is_zero(xi):
            return FINITE  # gradient dies: the scheme repeats itself
        return "inconclusive"

    if strategy == "blocked-a":
        ctx = Context(("u",))
        u1 = ctx.u(1)
        H = liouville_fraction(ctx, ctx.zero(), ctx.const(2), ctx.zero())
        K = liouville_fraction(ctx, ctx.const(3), ctx.zero(), ctx.const(5))
        # H0(H) = constants; ask for the K-link of P0 = 1
        spG = AnsatzSpace(ctx, 2, 3, x_power=1, denominators=[(u1, 3)])
        try:
            solve_operator_equation(K.num, [ctx.one()], spG)
        except AnsatzExhausted:
            return BLOCKED
        return "inconclusive"

    if strategy == "blocked-b":
        ctx = Context(("u",))
        # K = (1,1,0) pattern with sqrt(-b2/b1) = 2; the kernel functional
        # of K is int e^(2x) u, and the H-link out of it must fail
        H = liouville_fraction(ctx, ctx.const(7), ctx.const(2), ctx.const(3))
        E = ctx.adjoin_exp_x(ctx.const(2))
        grad = [ctx.const(2) * E]
        if peel_denominator(H.den, grad, strict=True)[0] is None:
            spF = AnsatzSpace(ctx, 2, 2, x_power=1, multipliers=[E, 1 / E],
                              denominators=[(ctx.u(2), 2)])
            try:
                solve_operator_equation(H.den, grad, spF)
            except AnsatzExhausted:
                return BLOCKED
        return "inconclusive"

    raise ParamDegenerate("unhandled strategy")


def classification_table():
    """All 2^6 nonzero patterns with their classes (minus degenerate ones)."""
    out = []
    for a1 in (0, 1):
        for a2 in (0, 1):
            for a3 in (0, 1):
                for b1 in (0, 1):
                    for b2 in (0, 1):
                        for b3 in (0, 1):
                            a = (bool(a1), bool(a2), bool(a3))
                            b = (bool(b1), bool(b2), bool(b3))
                            try:
                                cls = classify(a, b)
                            except Proportional:
                                cls = "proportional"
                            out.append(((a1, a2, a3), (b1, b2, b3), cls))
    return out
