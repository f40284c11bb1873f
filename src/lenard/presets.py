"""Built-in structures, fractions, kernels, seed chains and expected outputs.

Every preset is self-validating: loading it re-checks the stored kernel
bases and every stored association witness as an exact identity.  The
hand-written H_sum/K_sum of a preset equal its fractions H and K by Laurent
expansion to floor -8; tests/test_presets.py checks that identity once for
every preset, so a load does not repeat it.  Parameters stay symbolic by
default; bind_params gives a numeric copy for faster regression runs.
"""

from __future__ import annotations


from .chains import Chain, ChainStep, StructurePair
from .errors import UnknownPreset, ValidationFailure
from .field import Context
from .functional import LocalFunctional, antiderivative_or_none, variational_derivative
from .jacobi import AtomChain, AtomStructure, SumChain, entry_chain
from .operators import OperatorSum
from .solve import AnsatzSpace


def _ch(ctx, *atoms):
    return AtomChain(ctx, list(atoms))


def _ms(f):
    return ("mult", [[f]])


class Preset:
    """A loaded, validated fixture."""

    def __init__(self, pid, ctx, H, K, chain, extras):
        self.id = pid
        self.ctx = ctx
        self.H = H                     # StructurePair
        self.K = K
        self.chain = chain             # seeded Chain with witnesses
        self.extras = extras           # dict of fixture data

    def __repr__(self):
        return "Preset(%s)" % self.id


# ---------------------------------------------------------------------------
# Liouville family: L1 = d, L2 = d^-1, L3 = u' d^-1 u'


def liouville_structure_atoms(ctx, x1, x2, x3):
    """x1 L1 + x2 L2 + x3 L3 as an expandable atom-structure sum."""
    u1 = ctx.u(1)
    terms = []
    if not x1.is_zero():
        terms.append((x1, AtomStructure(_ch(ctx, ("d", 1)))))
    if not x2.is_zero():
        terms.append((x2, AtomStructure(_ch(ctx, ("d", -1)))))
    if not x3.is_zero():
        terms.append((x3, AtomStructure(_ch(ctx, _ms(u1), ("d", -1), _ms(u1)))))
    return OperatorSum(terms)


def liouville_fraction(ctx, x1, x2, x3) -> StructurePair:
    """The minimal fractional decomposition, dispatched on the zero pattern."""
    u1, u2 = ctx.u(1), ctx.u(2)
    z2, z3 = x2.is_zero(), x3.is_zero()
    if z2 and z3:
        return StructurePair("liouville", _ch(ctx, _ms(x1), ("d", 1)),
                             _ch(ctx, _ms(ctx.one())))
    if not z2 and not z3:
        lead = [("d", 2), _ms(1 / u2), ("d", 1)]
        rest = [_ch(ctx, _ms((x2 + x3 * u1 ** 2) / u2), ("d", 1)),
                _ch(ctx, _ms(-x3 * u1))]
        den = _ch(ctx, ("d", 1), _ms(1 / u2), ("d", 1))
    elif z3:
        lead, rest, den = [("d", 2)], [_ch(ctx, _ms(x2))], _ch(ctx, ("d", 1))
    else:
        lead = [("d", 1), _ms(1 / u1), ("d", 1)]
        rest = [_ch(ctx, _ms(x3 * u1))]
        den = _ch(ctx, _ms(1 / u1), ("d", 1))
    # the x1 L1 term joins the numerator only when x1 != 0
    chains = rest if x1.is_zero() else [_ch(ctx, _ms(x1), *lead)] + rest
    num = chains[0] if len(chains) == 1 else SumChain(chains)
    return StructurePair("liouville", num, den)


_LIOUVILLE_CASES = {
    # case id -> (a2?, a3?, b2?, b3?) nonzero flags (b1 = 0 throughout)
    "i": (True, True, True, True),
    "ii": (True, False, True, True),
    "iii": (False, True, True, True),
    "iv": (False, False, True, True),
    "v": (True, True, True, False),
    "vi": (True, False, True, False),
    "vii": (False, True, True, False),
    "viii": (False, False, True, False),
    "ix": (True, True, False, True),
    "x": (True, False, False, True),
    "xi": (False, True, False, True),
    "xii": (False, False, False, True),
}


def _liouville_case_params(ctx, case, a1_nonzero=True):
    nz = _LIOUVILLE_CASES[case]
    zero = ctx.zero()
    a1 = ctx.param("a1") if a1_nonzero else zero
    a2 = ctx.param("a2") if nz[0] else zero
    a3 = ctx.param("a3") if nz[1] else zero
    b2 = ctx.param("b2") if nz[2] else zero
    b3 = ctx.param("b3") if nz[3] else zero
    return a1, a2, a3, zero, b2, b3


def _liouville_seed(ctx, case, a, b):
    """The starting sequence of the case list, with stored witnesses."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    u, u1 = ctx.u(0), ctx.u(1)
    one, zero = ctx.one(), ctx.zero()
    steps = []

    def wit_P_one():
        # int0 --X--> 1: F depends on the minimal decomposition of H
        if a3.is_zero():
            return [one / a2]      # B = d, A = a1 d^2 + a2
        return [u1 / a2]           # B = d (1/u'') d

    def wit_P_uprime():
        # int0 --X--> u'
        if a2.is_zero():
            return [one / a3]      # B = (1/u') d, A = a1 d(1/u')d + a3 u'
        return [-one / a3]

    s = None
    if not b2.is_zero() and not b3.is_zero():
        s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)

    def K_wit_for(P, h):
        # witness G with C G = P, D G = grad h for the K decomposition
        if not b2.is_zero() and not b3.is_zero():
            base = -s if h is not None else zero
            if P == "one":
                return [base + u1 / b2]
            if P == "uprime":
                return [base - 1 / b3]
            return [base]
        if not b2.is_zero():
            if h is None:
                return [one / b2] if P == "one" else [zero]
            # h = -(u')^2/(2 b2) reached by u'
            return [u1 / b2]
        # b2 = 0, b3 != 0
        if h is None:
            return [one / b3] if P == "uprime" else [zero]
        return [1 / (b3 * u1)]

    idx = -1
    seq = {
        "i": [("one", None), ("uprime", "s")],
        "ii": [("one", "s")],
        "iii": [("uprime", "s")],
        "iv": [("zero", "s")],
        "v": [("one", None), ("uprime", "sq")],
        "vi": [("one", None)],
        "vii": [("uprime", "sq")],
        "viii": [("zero", None)],
        "ix": [("uprime", None), ("one", "inv")],
        "x": [("one", "inv")],
        "xi": [("uprime", None)],
        "xii": [("zero", None)],
    }[case]
    idx = -len(seq)
    for P_tag, h_tag in seq:
        if P_tag == "one":
            P = [one]
            wH = wit_P_one()
        elif P_tag == "uprime":
            P = [u1]
            wH = wit_P_uprime()
        else:
            P = [zero]
            wH = [zero]
        if h_tag == "s":
            h = s
        elif h_tag == "sq":
            h = -(u1 ** 2) / (2 * b2)
        elif h_tag == "inv":
            h = 1 / (2 * b3 * u1)
        else:
            h = None
        wK = K_wit_for(P_tag, h_tag)
        hf = LocalFunctional(h) if h is not None else LocalFunctional(ctx.zero())
        steps.append(ChainStep(idx, P, variational_derivative(hf.density), hf,
                               witness_H=[wH], witness_K=[wK]))
        idx += 1
    return steps


def load_liouville(case="i", a1_nonzero=True) -> Preset:
    if case not in _LIOUVILLE_CASES:
        raise UnknownPreset("liouville case %r" % case)
    names = ["a2", "a3", "b2", "b3"] + (["a1"] if a1_nonzero else [])
    ctx = Context(("u",), tuple(sorted(set(names))))
    a1, a2, a3, b1, b2, b3 = _liouville_case_params(ctx, case, a1_nonzero)
    H = liouville_fraction(ctx, a1, a2, a3)
    K = liouville_fraction(ctx, b1, b2, b3)
    steps = _liouville_seed(ctx, case, (a1, a2, a3), (b1, b2, b3))
    chain = Chain(H, K, steps)
    pre = Preset("liouville-%s" % case, ctx, H, K, chain, {
        "a": (a1, a2, a3), "b": (b1, b2, b3),
        "H_sum": liouville_structure_atoms(ctx, a1, a2, a3),
        "K_sum": liouville_structure_atoms(ctx, b1, b2, b3),
    })
    _validate(pre)
    return pre


def liouville_spaces(ctx, b2, b3):
    """Ansatz spaces for the first right extension of the S-type seeds."""
    u1 = ctx.u(1)
    mult = []
    dens = []
    if not b2.is_zero() and not b3.is_zero():
        s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
        mult = [s]
        dens = [(s, 3)]
    else:
        dens = [(u1, 3)]
    spaceF = AnsatzSpace(ctx, 1, 2, 0, multipliers=mult, denominators=dens)
    spaceG = AnsatzSpace(ctx, 1, 3, 0, multipliers=mult, denominators=dens)
    return spaceF, spaceG


# ---------------------------------------------------------------------------
# KN family: L1 = u' d^-1 u' (Sokolov), L2 = d^-1 u' d^-1 u' d^-1 (Dorfman)


def kn_context(symbolic_a=True):
    return Context(("u",), ("a",) if symbolic_a else ())


def kn_structure_atoms(ctx):
    """Sokolov u' d^-1 u' and Dorfman d^-1 u' d^-1 u' d^-1 as atom structures."""
    u1 = ctx.u(1)
    return (AtomStructure(_ch(ctx, _ms(u1), ("d", -1), _ms(u1))),
            AtomStructure(_ch(ctx, ("d", -1), _ms(u1), ("d", -1), _ms(u1), ("d", -1))))


def kn_Du1(ctx):
    u1, u2 = ctx.u(1), ctx.u(2)
    return ((1 / u1) * (u2 / u1).total_derivative()).total_derivative()


def load_kn(a_value=None) -> Preset:
    """H = Sokolov + a Dorfman, K = Dorfman, with the four-step seed chain."""
    ctx = kn_context(symbolic_a=a_value is None)
    a = ctx.param("a") if a_value is None else ctx.const(a_value)
    if a.is_zero():
        raise UnknownPreset("use load_kn0 for a = 0")
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    one = ctx.one()
    Du1 = kn_Du1(ctx)
    w = (u2 / u1).total_derivative()
    A = SumChain([
        _ch(ctx, ("d", 2), _ms(1 / Du1), ("d", 1)),
        _ch(ctx, _ms(-2 * u2 / u1), ("d", 1), _ms(1 / Du1), ("d", 1)),
        _ch(ctx, _ms((w + a) / Du1), ("d", 1)),
        _ch(ctx, _ms(-u1)),
    ])
    B = _ch(ctx, ("d", 1), _ms(1 / u1), ("d", 1), _ms(1 / u1), ("d", 1),
            _ms(1 / Du1), ("d", 1))
    H = StructurePair("kn-H", A, B)
    D = _ch(ctx, ("d", 1), _ms(1 / u1), ("d", 1), _ms(1 / u1), ("d", 1))
    K = StructurePair("kn-K", _ch(ctx, _ms(one)), D)
    f1 = one
    f2 = (1 / u1) * w
    f3 = (u / u1) * w - u2 / u1
    f4 = (u ** 2 / u1) * w - 2 * u * u2 / u1 + 2 * u1
    h3 = (u2 / u1) ** 2 / 2
    zero = ctx.zero()
    steps = [
        ChainStep(0, [one], [zero], LocalFunctional(zero),
                  witness_H=[[f2 / a]], witness_K=[[one]]),
        ChainStep(1, [u], [zero], LocalFunctional(zero),
                  witness_H=[[f3 / a]], witness_K=[[u]]),
        ChainStep(2, [u ** 2], [zero], LocalFunctional(zero),
                  witness_H=[[f4 / a]], witness_K=[[u ** 2]]),
        ChainStep(3, [u1], variational_derivative(h3), LocalFunctional(h3),
                  witness_H=[[-f1]], witness_K=[[u1]]),
    ]
    chain = Chain(H, K, steps)
    sok, dorf = kn_structure_atoms(ctx)
    pre = Preset("kn", ctx, H, K, chain, {
        "a": a, "kernel_B": [f1, f2, f3, f4],
        "H_sum": OperatorSum([(one, sok), (a, dorf)]),
        "K_sum": OperatorSum([(one, dorf)]),
    })
    _validate(pre)
    return pre


def kn_spaces(ctx, step_index):
    """Ansatz spaces for the KN right extension at a given step index."""
    u1 = ctx.u(1)
    n = max(step_index, 4)
    w = 2 * n - 5
    spaceF = AnsatzSpace(ctx, max_dord=min(n - 1, w), max_degree=n,
                         denominators=[(u1, n - 1)], weight_max=w)
    return spaceF


def load_kn0() -> Preset:
    """The a = 0 case: H = Sokolov = 1 S^-1, K = Dorfman = 1 D^-1."""
    ctx = kn_context(symbolic_a=False)
    u1, u2 = ctx.u(1), ctx.u(2)
    one = ctx.one()
    S = _ch(ctx, _ms(1 / u1), ("d", 1), _ms(1 / u1))
    H = StructurePair("kn0-H", _ch(ctx, _ms(one)), S)
    D = _ch(ctx, ("d", 1), _ms(1 / u1), ("d", 1), _ms(1 / u1), ("d", 1))
    K = StructurePair("kn0-K", _ch(ctx, _ms(one)), D)
    h0 = (u2 / u1) ** 2 / 2
    steps = [
        ChainStep(0, [u1], variational_derivative(h0), LocalFunctional(h0),
                  witness_H=[[u1]], witness_K=[[u1]]),
    ]
    chain = Chain(H, K, steps)
    sok, dorf = kn_structure_atoms(ctx)
    pre = Preset("kn0", ctx, H, K, chain, {
        "H_sum": OperatorSum([(one, sok)]),
        "K_sum": OperatorSum([(one, dorf)]),
    })
    _validate(pre)
    return pre


# ---------------------------------------------------------------------------
# NLS family (two components)


def load_nls() -> Preset:
    """H = d + a2 L2 + a3 L3, K = L2 + b3 L3 on generators (u, v)."""
    ctx = Context(("u", "v"), ("a2", "a3", "b3"))
    a2, a3, b3 = ctx.param("a2"), ctx.param("a3"), ctx.param("b3")
    u, v = ctx.gen(0, 0), ctx.gen(1, 0)
    one, zero = ctx.one(), ctx.zero()

    def E(r, c, *atoms):
        return entry_chain(ctx, 2, 2, r, c, atoms)

    # B = [[1, 0], [v/u, (1/u) d u]]
    Bm = SumChain([
        E(0, 0, _ms(one)),
        E(1, 0, _ms(v / u)),
        E(1, 1, _ms(1 / u), ("d", 1), _ms(u)),
    ])
    # A = [[d - a2 v/u, -a2 (1/u) d u - a3 u v], [d(v/u) + a2, d(1/u)d u + a3 u^2]]
    Am = SumChain([
        E(0, 0, ("d", 1)), E(0, 0, _ms(-a2 * v / u)),
        E(0, 1, _ms(-a2 / u), ("d", 1), _ms(u)), E(0, 1, _ms(-a3 * u * v)),
        E(1, 0, ("d", 1), _ms(v / u)), E(1, 0, _ms(a2)),
        E(1, 1, ("d", 1), _ms(1 / u), ("d", 1), _ms(u)), E(1, 1, _ms(a3 * u ** 2)),
    ])
    # C = [[-v/u, -(1/u) d u - b3 u v], [1, b3 u^2]]
    Cm = SumChain([
        E(0, 0, _ms(-v / u)),
        E(0, 1, _ms(-1 / u), ("d", 1), _ms(u)), E(0, 1, _ms(-b3 * u * v)),
        E(1, 0, _ms(one)), E(1, 1, _ms(b3 * u ** 2)),
    ])
    H = StructurePair("nls-H", Am, Bm)
    K = StructurePair("nls-K", Cm, Bm)

    # seed chain (alpha = 1/a3, beta = 0)
    P0 = [-v, u]
    h0 = (u ** 2 + v ** 2) / 2
    u1, v1 = ctx.gen(0, 1), ctx.gen(1, 1)
    P1 = [u1 - a2 * v, v1 + a2 * u]
    h1 = u * v1 + a2 * (u ** 2 + v ** 2) / 2 + b3 * (u ** 2 + v ** 2) ** 2 / 8
    F0 = [zero, 1 / (a3 * u)]
    F1 = [u, zero]
    F2 = [u, zero]
    F3 = [v1 + a2 * u + b3 * u * (u ** 2 + v ** 2) / 2,
          -(u ** 2 + v ** 2) / (2 * u)]
    steps = [
        ChainStep(0, P0, variational_derivative(h0), LocalFunctional(h0),
                  witness_H=[F0], witness_K=[F1]),
        ChainStep(1, P1, variational_derivative(h1), LocalFunctional(h1),
                  witness_H=[F2], witness_K=[F3]),
    ]
    chain = Chain(H, K, steps)

    L1s = AtomStructure(AtomChain(ctx, [("mult", [[one, zero], [zero, one]]),
                                        ("d", 1)], 2))
    L2s = AtomStructure(AtomChain(ctx, [("mult", [[zero, -one], [one, zero]])], 2))
    L3s = AtomStructure(AtomChain(ctx, [("mult", [[v], [-u]]), ("d", -1),
                                        ("mult", [[v, -u]])], 2))
    P2 = [ctx.gen(1, 2) + 2 * a2 * u1 - a2 ** 2 * v
          + b3 * (u * (u ** 2 + v ** 2)).total_derivative() / 2
          + (a3 - a2 * b3) * v * (u ** 2 + v ** 2) / 2,
          -ctx.gen(0, 2) + 2 * a2 * v1 + a2 ** 2 * u
          + b3 * (v * (u ** 2 + v ** 2)).total_derivative() / 2
          - (a3 - a2 * b3) * u * (u ** 2 + v ** 2) / 2]
    pre = Preset("nls", ctx, H, K, chain, {
        "H_sum": OperatorSum([(one, L1s), (a2, L2s), (a3, L3s)]),
        "K_sum": OperatorSum([(one, L2s), (b3, L3s)]),
        "P2": P2,
    })
    _validate(pre)
    return pre


def nls_spaces(ctx):
    u = ctx.gen(0, 0)
    spaceF = AnsatzSpace(ctx, max_dord=1, max_degree=3, denominators=[(u, 1)])
    spaceG = AnsatzSpace(ctx, max_dord=1, max_degree=3, denominators=[(u, 1)])
    return spaceF, spaceG


def nls_h_solver(pre: Preset):
    """Closed-form H-link: B is triangular, so B F = xi solves exactly:
    F1 = xi_1 and (u F2)' = u xi_2 - v xi_1."""
    ctx = pre.ctx
    u = ctx.gen(0, 0)
    v = ctx.gen(1, 0)

    def solver(xi):
        W = antiderivative_or_none(u * xi[1] - v * xi[0])
        if W is None:
            return None
        return [xi[0], W / u]
    return solver


def nls_k_solver(pre: Preset):
    """Closed-form K-link for the two-component structures.

    From the rows of C: G1 + b3 u^2 G2 = P_2 and the first row reduces to
    (u G2)' = -(u P_1 + v P_2), solvable exactly whenever u P_1 + v P_2 is
    a total derivative (the orthogonality condition).
    """
    ctx = pre.ctx
    u = ctx.gen(0, 0)
    v = ctx.gen(1, 0)
    b3 = ctx.param("b3")

    def solver(P):
        W = antiderivative_or_none(u * P[0] + v * P[1])
        if W is None:
            return None
        G2 = -W / u
        G1 = P[1] - b3 * u ** 2 * G2
        return [G1, G2]
    return solver


# ---------------------------------------------------------------------------
# validation and the registry


def _validate(pre: Preset):
    """Embedded checks: every stored witness and kernel element."""
    chain = pre.chain
    if not chain.verify():
        raise ValidationFailure("%s: a stored association witness fails" % pre.id)
    kerB = pre.extras.get("kernel_B")
    if kerB is not None:
        for f in kerB:
            if not all(e.is_zero() for e in pre.H.den.apply([f])):
                raise ValidationFailure("%s: stored kernel element fails" % pre.id)


_EXPECTED_EQUATIONS = {
    # canonical renderings of the headline flows, for regression diffing
    "liouville-i": ["u_t = u'''/(1+(u')^2)^(3/2) - 3*u'*(u'')^2/(1+(u')^2)^(5/2)"
                    " + alpha/(1+(u')^2)^(1/2)"],
    "liouville-v": ["u_t = u''' + u' + alpha*(u')^3"],
    "liouville-vii": ["u_t = u''' + alpha*(u')^3"],
    "liouville-ix": ["u_t = u'''/(u')^3 - 3*(u'')^2/(u')^4 + 1/(u')^2 + alpha"],
    "liouville-iv-left": ["u_tx = u + (u^3)_xx"],
    "liouville-iii-left": ["u_tx = e^u - alpha*e^-u + eps*(e^u - alpha*e^-u)_xx"],
    "liouville-vii-left": ["u_tx = e^u - alpha*e^-u"],
    "kn": ["u_t = u''' - 3/2*(u'')^2/u' + alpha1*u' + alpha2 + alpha3*u"
           " + alpha4*u^2"],
    "kn0": ["u_t = u''' - 3/2*(u'')^2/u' + alpha1*u'"],
    "kn0-left": ["(u_tx/u')_x = 1/(2*u') + gamma*u'"],
    "nls": ["i*psi_t = psi'' + alpha*psi*|psi|^2 + i*beta*(psi*|psi|^2)'",
            "u_t = v'' + alpha*v*(u^2+v^2) + beta*(u*(u^2+v^2))'",
            "v_t = -u'' - alpha*u*(u^2+v^2) + beta*(v*(u^2+v^2))'"],
}


def expected_equations(pid):
    """Canonical text of the headline equations reached from a preset
    (ids accept an optional -left suffix for the backward blockages)."""
    try:
        return list(_EXPECTED_EQUATIONS[pid])
    except KeyError:
        raise UnknownPreset(pid)


_LOADERS = {
    "kn": load_kn,
    "kn0": load_kn0,
    "nls": load_nls,
}


def load_preset(pid, **kwargs) -> Preset:
    """Load a preset by id: kn, kn0, nls, or liouville-<case>."""
    if pid.startswith("liouville-"):
        case = pid.split("-", 1)[1]
        a1_nonzero = kwargs.pop("a1_nonzero", True)
        return load_liouville(case, a1_nonzero=a1_nonzero)
    if pid == "liouville":
        return load_liouville("i")
    loader = _LOADERS.get(pid)
    if loader is None:
        raise UnknownPreset(pid)
    return loader(**kwargs)


def preset_ids():
    return ["liouville-%s" % c for c in _LIOUVILLE_CASES] + sorted(_LOADERS)
