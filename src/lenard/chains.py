"""Lenard-Magri chains: association, extension, blockage, bookkeeping.

A structure used in a chain is a pair of matrix differential operators
(numerator, denominator) kept in factored atom-chain form so applications
are exact.  Associations are verified link by link as exact field
identities; extensions solve the two links by undetermined coefficients.
A scalar denominator link B F = xi is solved by one walk,
peel_denominator, which peels B factor by factor: strictly (exact
antiderivatives, None at the first non-total-derivative) for the H-link
and the first try of a K-link, and formally on the left, where an
integration that hits a non-total-derivative introduces a d^-1(kernel)
term and yields the non-evolutionary equation at the blockage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .errors import (AnsatzExhausted, HelmholtzFailure, InsufficientChain,
                     InvalidWitness, LengthMismatch, ThresholdNotMet)
from .field import DFun, NEG_INF, vec_eq, vec_is_zero
from .functional import (LocalFunctional, antiderivative_or_none,
                         is_self_adjoint_frechet, reduce_by_parts)
from .jacobi import AtomChain, SumChain
from .operators import MatrixPsdOp, RationalOpPair
from .solve import AnsatzSpace, kernel_of, reduce_mod_span, solve_operator_equation

Chainlike = Union[AtomChain, SumChain]


class StructurePair:
    """A structure H = A B^-1 with both operators as factored atom chains."""

    def __init__(self, name, num: Chainlike, den: Chainlike):
        self.name = name
        self.num = num
        self.den = den
        self._num_op = None
        self._den_op = None

    @property
    def ctx(self):
        return self.num.ctx

    @property
    def ell(self):
        return self.num.ell

    def num_op(self) -> MatrixPsdOp:
        if self._num_op is None:
            self._num_op = self.num.to_operator()
        return self._num_op

    def den_op(self) -> MatrixPsdOp:
        if self._den_op is None:
            self._den_op = self.den.to_operator()
        return self._den_op

    def fraction(self) -> RationalOpPair:
        return RationalOpPair.fraction(self.num_op(), self.den_op())

    def order(self):
        a, b = self.num_op().order(), self.den_op().order()
        if a == NEG_INF:
            return NEG_INF
        return a - b

    def stats(self):
        """(|H|, dord A, dord B) for the order bookkeeping."""
        return (self.order(), self.num_op().dord(), self.den_op().dord())

    def num_is_identity(self):
        ch = self.num
        if not isinstance(ch, AtomChain) or len(ch.atoms) != 1:
            return False
        kind, data = ch.atoms[0]
        if kind != "mult" or len(data) != len(data[0]):
            return False
        for r, row in enumerate(data):
            for c, e in enumerate(row):
                if r == c and not e.is_one():
                    return False
                if r != c and not e.is_zero():
                    return False
        return True

    def __repr__(self):
        return "StructurePair(%s)" % self.name


def verify_association(H, functional, P, witnesses) -> bool:
    """Exact link-by-link check that the functional and P are H-associated.

    H is a StructurePair or a list of (A, B) atom-chain pairs (a chain
    decomposition A1 B1^-1 ... An Bn^-1); witnesses is the matching list of
    F-vectors; `functional` may be a LocalFunctional or a gradient vector.
    """
    pairs = H if isinstance(H, list) else [(H.num, H.den)]
    if len(witnesses) != len(pairs):
        raise LengthMismatch("expected %d witnesses, got %d"
                             % (len(pairs), len(witnesses)))
    if isinstance(functional, LocalFunctional):
        grad = functional.gradient()
    else:
        grad = list(functional)
    # P = A1 F1
    if not vec_eq(pairs[0][0].apply(witnesses[0]), P):
        return False
    # B_i F_i = A_{i+1} F_{i+1}
    for idx in range(len(pairs) - 1):
        lhs = pairs[idx][1].apply(witnesses[idx])
        rhs = pairs[idx + 1][0].apply(witnesses[idx + 1])
        if not vec_eq(lhs, rhs):
            return False
    # B_n F_n = grad
    return vec_eq(pairs[-1][1].apply(witnesses[-1]), grad)


@dataclass
class ChainStep:
    """One rung: functional h_n (through its gradient) and vector field P_n."""
    index: int
    P: List[DFun]
    grad: List[DFun]                 # delta h_n / delta u
    h: Optional[LocalFunctional]
    witness_H: Optional[List[List[DFun]]] = None   # links h_{n-1} --H--> P_n
    witness_K: Optional[List[List[DFun]]] = None   # links P_n --K--> h_n
    free_constants: Tuple[str, ...] = ()

    def dords(self):
        dp = max((f.dord() for f in self.P), default=NEG_INF)
        dg = max((f.dord() for f in self.grad), default=NEG_INF)
        return (dp, dg)


@dataclass
class NonlocalTerm:
    prefactor: DFun
    kernel: DFun      # the term is prefactor * d^-1(kernel)


@dataclass
class NonlocalVectorField:
    """Formal solution with genuine d^-1 content (scalar case).

    It supports what an atom chain's walk asks of a field element: + (with
    a function or another formal field), a function factor on the left, /
    by a function and the total derivative, so chains apply to it as they
    apply to functions."""
    local: DFun
    terms: List[NonlocalTerm]

    def __add__(self, other):
        if isinstance(other, NonlocalVectorField):
            return NonlocalVectorField(self.local + other.local, self.terms + other.terms)
        return NonlocalVectorField(self.local + other, list(self.terms))

    __radd__ = __add__

    def __rmul__(self, g: DFun):
        return NonlocalVectorField(self.local * g,
                                   [NonlocalTerm(t.prefactor * g, t.kernel)
                                    for t in self.terms])

    def __truediv__(self, g: DFun):
        return NonlocalVectorField(self.local / g,
                                   [NonlocalTerm(t.prefactor / g, t.kernel)
                                    for t in self.terms])

    def total_derivative(self):
        """D(p W) = p' W + p r for each term p W, W = d^-1(r)."""
        local = self.local.total_derivative()
        terms = []
        for t in self.terms:
            local = local + t.prefactor * t.kernel
            dp = t.prefactor.total_derivative()
            if not dp.is_zero():
                terms.append(NonlocalTerm(dp, t.kernel))
        return NonlocalVectorField(local, terms)

    def __str__(self):
        parts = [str(self.local)] if not self.local.is_zero() else []
        for t in self.terms:
            parts.append("(%s)*D^-1(%s)" % (t.prefactor, t.kernel))
        return " + ".join(parts) if parts else "0"


@dataclass
class BlockedEquation:
    """The non-evolutionary equation read off at a blockage.

    lhs_atoms applied to u_t equal the right-hand side; when lhs_atoms is
    empty the equation is u_tx = rhs_kernel + (rhs_exact)_xx after one x-
    derivative of u_t = P (constant prefactors only).
    """
    lhs_atoms: List
    rhs: DFun
    rhs_kernel: Optional[DFun] = None       # u_tx form: direct part
    rhs_dxx: Optional[DFun] = None          # u_tx form: (...)_xx part

    def text(self):
        if self.lhs_atoms:
            body = "u_t"
            for kind, data in reversed(self.lhs_atoms):
                if kind == "d":
                    if body == "u_t":
                        body = "u_tx"
                    else:
                        body = "(%s)_x" % body
                else:
                    g = data[0][0]
                    ginv = 1 / g
                    if not ginv.den and len(ginv.num) == 1:
                        body = "%s/%s" % (body, ginv)
                    else:
                        body = "(%s)*(%s)" % (g, body)
            return "%s = %s" % (body, self.rhs)
        rhs = []
        if self.rhs_kernel is not None and not self.rhs_kernel.is_zero():
            rhs.append(str(self.rhs_kernel))
        if self.rhs_dxx is not None and not self.rhs_dxx.is_zero():
            rhs.append("(%s)_xx" % self.rhs_dxx)
        return "u_tx = %s" % (" + ".join(rhs) if rhs else "0")


@dataclass
class ChainStatus:
    kind: str                      # extendable | blocked | finite-type
    direction: Optional[str] = None
    index: Optional[int] = None
    reason: str = ""
    blocked_field: Optional[NonlocalVectorField] = None
    equation: Optional[BlockedEquation] = None


class Chain:
    """A Lenard-Magri sequence for a compatible pair (H, K)."""

    def __init__(self, H: StructurePair, K: StructurePair, steps=None):
        self.H = H
        self.K = K
        self.steps: List[ChainStep] = list(steps or [])
        self.left_steps: List[ChainStep] = []
        self.status = ChainStatus("extendable")
        self.left_status = ChainStatus("extendable")
        self._kerB_cache = None

    @property
    def ctx(self):
        return self.H.ctx

    def last(self) -> ChainStep:
        return self.steps[-1]

    def verify(self) -> bool:
        """Both links of every step, as exact identities."""
        ctx = self.ctx
        prev_grad = [ctx.zero()] * self.H.ell
        for step in self.steps:
            if step.witness_H is not None:
                if not verify_association(self.H, prev_grad, step.P, step.witness_H):
                    return False
            if step.witness_K is not None:
                if not verify_association(self.K, step.grad, step.P, step.witness_K):
                    return False
            prev_grad = step.grad
        return True


# ---------------------------------------------------------------------------
# scalar denominator links: one peeler, strict or formal


def _formal_antiderivative(ctx, nv: NonlocalVectorField, const_name):
    """d^-1 of a formal field; may add a nonlocal term for the local residue.

    Returns (the integrated field, the residue), or (None, None) at a
    second-level obstruction: a prefactor or a by-parts tail that does not
    integrate."""
    terms = []
    local_parts = ctx.zero()
    for t in nv.terms:
        # d^-1(p W) with W = d^-1(r): needs p = dq exact, then = qW - d^-1(q r)
        q = antiderivative_or_none(t.prefactor)
        inner = None if q is None else antiderivative_or_none(q * t.kernel)
        if inner is None:
            return None, None
        terms.append(NonlocalTerm(q, t.kernel))
        local_parts = local_parts - inner
    residue, parts = reduce_by_parts(nv.local)
    local_parts = local_parts + parts
    if not residue.is_zero():
        anti = antiderivative_or_none(residue)
        if anti is not None:
            local_parts = local_parts + anti
        else:
            terms.append(NonlocalTerm(ctx.one(), residue))
    gamma = ctx.param(const_name)
    return NonlocalVectorField(local_parts + gamma, terms), residue


def peel_denominator(den: AtomChain, xi: List[DFun], strict):
    """Solve den(G) = xi for one-component G by peeling den's factors in order:
    divide by each multiplication, integrate once per power of d.

    Strict: every integration is an exact antiderivative with no constant,
    so G holds a function, and is None from the first non-total-derivative
    on.  Formal: every integration adds a constant gamma<k>, and one that
    meets a non-total-derivative adds a d^-1(kernel) term, so G holds a
    NonlocalVectorField; it is None only at a second-level obstruction.

    Returns (G, blocked_info): blocked_info is None while every integration
    stayed local, else (remaining atoms incl. the failing d, the local
    right-hand side at that point) for rendering the obstructed equation.
    """
    ctx = den.ctx
    z = xi[0] if strict else NonlocalVectorField(xi[0], [])
    const_idx = 0
    blocked_info = None
    atoms = list(den.atoms)
    for pos, (kind, data) in enumerate(atoms):
        if kind == "mult":
            z = z / data[0][0]
            continue
        if data < 0:
            raise ValueError("denominator chains must be differential")
        for _ in range(data):
            if strict:
                anti = antiderivative_or_none(z)
                if anti is None:
                    return None, (atoms[pos:], z)
                z = anti
                continue
            pre_local = z.local
            const_idx += 1
            z, residue = _formal_antiderivative(ctx, z, "gamma%d" % const_idx)
            if z is None:
                # a second-level obstruction: the first blockage already
                # carries the renderable equation
                return None, blocked_info
            if not residue.is_zero() and blocked_info is None:
                blocked_info = (atoms[pos:], pre_local)
    return [z], blocked_info


# ---------------------------------------------------------------------------
# right extension


def extend_right(chain: Chain, spaceF: AnsatzSpace, spaceG: AnsatzSpace,
                 steps=1, keep_constants=False, k_solver=None, h_solver=None,
                 den_kernel=None) -> Chain:
    """Grow the chain to the right: solve the H-link then the K-link.

    New steps are canonicalized: F is reduced modulo ker(B) by leading
    monomials, so repeated runs are identical.  When keep_constants is set,
    the kernel directions are added back with fresh symbolic constants.
    k_solver, when given, solves the K-link (C G = P) in closed form and
    returns G or None (falls back to the ansatz).
    """
    ctx = chain.ctx
    H, K = chain.H, chain.K
    for _ in range(steps):
        if chain.status.kind != "extendable":
            return chain
        xi_prev = chain.last().grad
        n = chain.last().index + 1
        F = None
        kernel = chain._kerB_cache
        if h_solver is not None:
            F = h_solver(xi_prev)
        elif isinstance(H.den, AtomChain) and H.ell == 1:
            F, _ = peel_denominator(H.den, xi_prev, strict=True)
        if F is not None and not vec_eq(H.den.apply(F), xi_prev):
            raise InvalidWitness("closed-form H-link solver returned a non-witness")
        if F is not None:
            if kernel is None:
                if den_kernel is not None:
                    kernel = den_kernel
                elif spaceF is not None:
                    kernel = kernel_of(H.den, spaceF)
                else:
                    kernel = []
                chain._kerB_cache = kernel
            solF_kernel = kernel
        else:
            try:
                solF = solve_operator_equation(H.den, xi_prev, spaceF)
            except AnsatzExhausted as e:
                chain.status = ChainStatus("blocked", "right", n, str(e))
                return chain
            F = solF.particular
            solF_kernel = solF.kernel
        names = ()
        if solF_kernel:
            # canonical representative: reduce F modulo ker(B) by leading
            # monomials (reproduces the paper's displayed representatives)
            F, _ = reduce_mod_span(ctx, solF_kernel, F)
        P = H.num.apply(F)
        if keep_constants and solF_kernel:
            F, names = _add_free_constants(ctx, F, solF_kernel, "alpha", n)
            P = H.num.apply(F)
        G = None
        if K.num_is_identity():
            G = list(P)
        elif k_solver is not None:
            G = k_solver(P)
        if G is None:
            try:
                solG = solve_operator_equation(K.num, P, spaceG)
            except AnsatzExhausted as e:
                chain.status = ChainStatus("blocked", "right", n,
                                           "no K-link witness: " + str(e))
                return chain
            G = solG.particular
        elif not vec_eq(K.num.apply(G), P):
            raise InvalidWitness("closed-form K-link solver returned a non-witness")
        xi = K.den.apply(G)
        if not is_self_adjoint_frechet(xi):
            raise HelmholtzFailure("K-link produced a non-gradient at step %d" % n)
        step = ChainStep(n, P, xi, None, witness_H=[F], witness_K=[G],
                         free_constants=names)
        chain.steps.append(step)
        # finite-type detection: the new pair adds nothing new
        if vec_is_zero(xi) and vec_is_zero(P):
            chain.status = ChainStatus("finite-type", "right", n,
                                       "step is identically zero")
    return chain


def _add_free_constants(ctx, particular, kernel, prefix, n):
    out = list(particular)
    names = []
    for idx, vec in enumerate(kernel):
        name = "%s%d_%d" % (prefix, n, idx + 1)
        c = ctx.param(name)
        names.append(name)
        out = [a + c * b for a, b in zip(out, vec)]
    return out, tuple(names)


# ---------------------------------------------------------------------------
# differential-order bookkeeping


def dord_threshold(H: StructurePair, K: StructurePair):
    """The right-hand side of the order-propagation precondition."""
    oH, dA, dB = H.stats()
    oK, dC, dD = K.stats()
    vals = [dA - oH + oK, dB + oK, dC, dD + oK]
    vals = [v for v in vals if v != NEG_INF]
    return max(vals) if vals else NEG_INF


def predict_dord(chain: Chain):
    """Predicted (dord P_n, dord grad_n) from the first step past threshold.

    Raises ThresholdNotMet when no recorded step exceeds the threshold.
    """
    thr = dord_threshold(chain.H, chain.K)
    oH = chain.H.order()
    oK = chain.K.order()
    start = None
    for step in chain.steps:
        dp, _ = step.dords()
        if dp != NEG_INF and dp > thr:
            start = step
            break
    if start is None:
        raise ThresholdNotMet("no recorded step exceeds the threshold %s" % thr)
    dp0, _ = start.dords()
    out = []
    increasing = oH > oK
    for step in chain.steps:
        if step.index < start.index:
            continue
        k = step.index - start.index
        dp = dp0 + k * int(oH - oK)
        out.append((step.index, dp, dp - int(oK)))
    return {"from_index": start.index, "threshold": thr,
            "predictions": out, "independent": increasing}


# ---------------------------------------------------------------------------
# higher structures H^[s]


def higher_structure_chain(H: StructurePair, K: StructurePair, s: int):
    """The chain decomposition of H^[s] = (H K^-1)^(s-1) H as (A,B) pairs."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return [(K.num, K.den)]
    pairs = [(H.num, H.den)]
    for _ in range(s - 1):
        pairs.append((K.den, K.num))
        pairs.append((H.num, H.den))
    return pairs


def verify_higher_structures(chain: Chain, s: int) -> bool:
    """Check h_n --H^[s]--> P_(n+s) using the stored step witnesses."""
    if s == 0:
        step = chain.steps[-1]
        return verify_association(chain.K, step.grad, step.P, step.witness_K)
    usable = [st for st in chain.steps if st.witness_H is not None
              and st.witness_K is not None]
    if len(usable) < s:
        raise InsufficientChain("need %d consecutive solved steps" % s)
    ok_any = False
    for base in range(len(usable) - s + 1):
        window = usable[base:base + s]
        if any(window[i + 1].index != window[i].index + 1 for i in range(s - 1)):
            continue
        # ordered: [wH(n+s), wK(n+s-1), wH(n+s-1), ..., wK(n+1), wH(n+1)]
        witnesses = []
        for idx in range(s - 1, -1, -1):
            witnesses.append(window[idx].witness_H[0])
            if idx > 0:
                witnesses.append(window[idx - 1].witness_K[0])
        pairs = higher_structure_chain(chain.H, chain.K, s)
        grad_prev_index = window[0].index - 1
        grad_prev = None
        for st in chain.steps:
            if st.index == grad_prev_index:
                grad_prev = st.grad
        if grad_prev is None:
            if grad_prev_index < chain.steps[0].index:
                grad_prev = [chain.ctx.zero()] * chain.H.ell
            else:
                continue
        if verify_association(pairs, grad_prev, window[-1].P, witnesses):
            ok_any = True
        else:
            return False
    if not ok_any:
        raise InsufficientChain("no window of %d consecutive steps" % s)
    return True


# ---------------------------------------------------------------------------
# left extension with the formal nonlocal solver (scalar case)


def _merge_terms(nv: NonlocalVectorField) -> NonlocalVectorField:
    """Combine nonlocal terms with identical kernels; drop zero prefactors."""
    buckets = []
    for t in nv.terms:
        if t.prefactor.is_zero() or t.kernel.is_zero():
            continue
        for b in buckets:
            if (b.kernel - t.kernel).is_zero():
                b.prefactor = b.prefactor + t.prefactor
                break
        else:
            buckets.append(NonlocalTerm(t.prefactor, t.kernel))
    return NonlocalVectorField(nv.local,
                               [b for b in buckets if not b.prefactor.is_zero()])


def render_blocked(P: NonlocalVectorField) -> BlockedEquation:
    """The non-evolutionary equation at a blockage.

    P's prefactors are constants (extend_left renders no other field), so
    u_t = P differentiates once to u_tx = sum pref*kernel + (local)_x, and
    the local part is displayed through its antiderivative as a second
    x-derivative when one exists.
    """
    ctx = P.local.ctx
    kernel_part = ctx.zero()
    for t in P.terms:
        kernel_part = kernel_part + t.prefactor * t.kernel
    dxx = None if P.local.is_zero() else antiderivative_or_none(P.local)
    if dxx is None and not P.local.is_zero():
        return BlockedEquation([], P.local.total_derivative() + kernel_part)
    return BlockedEquation([], ctx.zero(), rhs_kernel=kernel_part, rhs_dxx=dxx)


def extend_left(chain: Chain, spaceG: AnsatzSpace, spaceF: AnsatzSpace,
                steps=1, left_P: Optional[List[DFun]] = None,
                left_F: Optional[List[DFun]] = None) -> Chain:
    """Grow the chain to the left: ... --K-- P_(-1) --H-- h_(-2) --K-- ...

    The first left step starts from the zero functional; left_P picks the
    kernel element (otherwise the first kernel basis vector is used).  A
    K-link that only has a nonlocal formal solution marks the chain blocked
    and records the field and its non-evolutionary equation.
    """
    ctx = chain.ctx
    H, K = chain.H, chain.K
    for _ in range(steps):
        if chain.left_status.kind != "extendable":
            return chain
        n = -(len(chain.left_steps)) - 1
        grad_prev = chain.left_steps[-1].grad if chain.left_steps else [ctx.zero()] * H.ell
        # K-link: D G = grad_prev, P = C G
        if vec_is_zero(grad_prev):
            if left_P is not None:
                target = list(left_P) + [ctx.zero()] * H.ell
                stacked = _stack_ops(K.num, K.den)
                try:
                    G = solve_operator_equation(stacked, target, spaceG).particular
                except AnsatzExhausted as e:
                    chain.left_status = ChainStatus("blocked", "left", n,
                                                    "no K-link witness: " + str(e))
                    return chain
            else:
                kers = kernel_of(K.den, spaceG)
                if not kers:
                    chain.left_status = ChainStatus("finite-type", "left", n,
                                                    "denominator kernel is zero")
                    return chain
                G = kers[0]
        else:
            if isinstance(K.den, AtomChain) and H.ell == 1:
                G, _ = peel_denominator(K.den, grad_prev, strict=True)
            else:
                try:
                    G = solve_operator_equation(K.den, grad_prev,
                                                spaceG).particular
                except AnsatzExhausted:
                    G = None
            if G is None:
                if H.ell != 1:
                    chain.left_status = ChainStatus("blocked", "left", n,
                                                    "no local K-link solution")
                    return chain
                G_formal, blocked_info = peel_denominator(K.den, grad_prev, strict=False)
                P_formal = eq = None
                if G_formal is not None:
                    P_formal = _merge_terms(K.num.apply(G_formal)[0])
                if P_formal is not None and all(
                        t.prefactor.is_constant() for t in P_formal.terms):
                    eq = render_blocked(P_formal)
                elif blocked_info is not None:
                    eq = BlockedEquation(list(blocked_info[0]), blocked_info[1])
                chain.left_status = ChainStatus("blocked", "left", n,
                                                "nonlocal kernel obstruction",
                                                blocked_field=P_formal, equation=eq)
                return chain
        P = K.num.apply(G)
        # H-link: A F = P, grad_new = B F
        if vec_is_zero(P) and left_F is not None:
            if not all(e.is_zero() for e in H.num.apply(left_F)):
                raise InvalidWitness("left_F is not in the numerator kernel")
            F = list(left_F)
        elif H.num_is_identity():
            F = list(P)
        else:
            try:
                solF = solve_operator_equation(H.num, P, spaceF)
            except AnsatzExhausted as e:
                chain.left_status = ChainStatus("blocked", "left", n,
                                                "no H-link witness: " + str(e))
                return chain
            F = solF.particular
        grad_new = H.den.apply(F)
        step = ChainStep(n, P, grad_new, None, witness_H=[F], witness_K=[G])
        chain.left_steps.append(step)
        if vec_is_zero(grad_new):
            chain.left_status = ChainStatus(
                "finite-type", "left", n,
                "new gradient vanishes; the scheme repeats itself")
            return chain
    return chain


def _stack_ops(top: Chainlike, bottom: Chainlike) -> SumChain:
    """The 2l x l operator [top; bottom] of two l x l operators: each summand
    of either behind a 0/1 mult atom that puts its rows in place."""
    ctx, ell = top.ctx, top.ell
    summands = []
    for part, first in ((top, 0), (bottom, ell)):
        place = [[ctx.one() if r == first + c else ctx.zero() for c in range(ell)]
                 for r in range(2 * ell)]
        for ch in part.summands if isinstance(part, SumChain) else [part]:
            summands.append(AtomChain(ctx, [("mult", place)] + ch.atoms))
    return SumChain(summands)
