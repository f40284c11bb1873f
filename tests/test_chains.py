"""Lenard-Magri chain machinery on the built-in fixtures."""

from fractions import Fraction as Q

import pytest

from lenard.chains import (Chain, ChainStep, NonlocalTerm, NonlocalVectorField,
                           _merge_terms, dord_threshold, extend_left, extend_right,
                           peel_denominator, predict_dord, verify_association,
                           verify_higher_structures)
from lenard.errors import ThresholdNotMet, Undecidable
from lenard.field import Context, vec_eq
from lenard.functional import antiderivative, variational_derivative
from lenard.jacobi import AtomChain, SumChain
from lenard.presets import (liouville_fraction, liouville_spaces, load_kn,
                            load_kn0, load_liouville, load_nls, load_preset,
                            nls_h_solver, nls_k_solver, nls_spaces, preset_ids)
from lenard.solve import AnsatzSpace, in_span


def test_association_fixtures():
    # Liouville (iii)-style: int0 --X--> u' with F = -1/x3
    pre = load_liouville("i")
    ctx = pre.ctx
    a3 = ctx.param("a3")
    zero = [ctx.zero()]
    assert verify_association(pre.H, zero, [ctx.u(1)], [[-1 / a3]])
    assert not verify_association(pre.H, zero, [ctx.u(1)], [[1 / a3]])


def test_association_kn_table():
    # KN: h3 = int (u''/u')^2/2 reached by P3 = u' with F3 = -1
    pre = load_kn(a_value=1)
    assert pre.chain.verify()


def test_association_nls():
    pre = load_nls()
    assert pre.chain.verify()


def test_liouville_s_type_first_step():
    # cases (i)-(iv): P0 is the corrected closed form
    pre = load_liouville("iii")
    ctx = pre.ctx
    u1, u2, u3 = ctx.u(1), ctx.u(2), ctx.u(3)
    a1, a2, a3 = pre.extras["a"]
    b2, b3 = pre.extras["b"][1], pre.extras["b"][2]
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    g = b2 + b3 * u1 ** 2
    spF, spG = liouville_spaces(ctx, b2, b3)
    extend_right(pre.chain, spF, spG, steps=1)
    assert pre.chain.status.kind == "extendable"
    P0 = pre.chain.steps[-1].P[0]
    expected = -(a1 * b2 * b3 * u3) / (g * s) \
        + 3 * a1 * b2 * b3 ** 2 * u1 * u2 ** 2 / (g ** 2 * s) \
        + (a3 * b2 - a2 * b3) * u1 / s
    assert P0 == expected
    assert pre.chain.verify()
    assert pre.chain.steps[-1].dords()[0] == 3


def test_liouville_case_vii_first_step():
    # cases (v),(vii): P0 = (a1/b2) u''' + (a3/(2 b2)) u'^3 (a2 = 0 here)
    pre = load_liouville("vii")
    ctx = pre.ctx
    u1, u3 = ctx.u(1), ctx.u(3)
    a1, _, a3 = pre.extras["a"]
    b2 = pre.extras["b"][1]
    spF, spG = liouville_spaces(ctx, b2, pre.extras["b"][2])
    extend_right(pre.chain, spF, spG, steps=1)
    P0 = pre.chain.steps[-1].P[0]
    assert P0 == a1 / b2 * u3 + a3 / (2 * b2) * u1 ** 3
    assert pre.chain.verify()


def test_liouville_case_x_first_step():
    # cases (ix),(x): P0 = -(a1/b3) u'''/u'^3 + 3(a1/b3) u''^2/u'^4
    #                 + (a2/(2 b3)) u'^-2 + a3/b3   (a3 = 0 here)
    pre = load_liouville("x")
    ctx = pre.ctx
    u1, u2, u3 = ctx.u(1), ctx.u(2), ctx.u(3)
    a1, a2, _ = pre.extras["a"]
    b3 = pre.extras["b"][2]
    spF, spG = liouville_spaces(ctx, pre.extras["b"][1], b3)
    extend_right(pre.chain, spF, spG, steps=1)
    P0 = pre.chain.steps[-1].P[0]
    expected = -(a1 / b3) * u3 / u1 ** 3 + 3 * (a1 / b3) * u2 ** 2 / u1 ** 4 \
        + a2 / (2 * b3) / u1 ** 2
    assert P0 == expected


def test_kn_first_equation_and_dords():
    pre = load_kn(a_value=1)
    ctx = pre.ctx
    u, u1, u2, u3 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
    ker = [[f] for f in pre.extras["kernel_B"]]
    extend_right(pre.chain, None, None, steps=3, den_kernel=ker)
    assert pre.chain.status.kind == "extendable"
    assert pre.chain.verify()
    P4 = pre.chain.steps[4].P[0]
    core = u3 - Q(3, 2) * u2 ** 2 / u1
    # the first nontrivial equation, modulo the documented free constants
    assert in_span(ctx, [[ctx.one()], [u], [u * u], [u1]], [P4 - core])
    dords = {s.index: s.dords() for s in pre.chain.steps}
    for n in (4, 5, 6):
        assert dords[n] == (2 * n - 5, 2 * n - 2)


def test_kn_predict_dord():
    pre = load_kn(a_value=1)
    ker = [[f] for f in pre.extras["kernel_B"]]
    extend_right(pre.chain, None, None, steps=3, den_kernel=ker)
    pred = predict_dord(pre.chain)
    assert pred["threshold"] == 4
    assert pred["from_index"] == 5
    assert pred["independent"]
    recorded = {s.index: s.dords() for s in pre.chain.steps}
    for idx, dp, dgrad in pred["predictions"]:
        assert recorded[idx] == (dp, dgrad)


def test_threshold_not_met():
    pre = load_kn(a_value=1)
    with pytest.raises(ThresholdNotMet):
        predict_dord(pre.chain)  # seed steps stay below the threshold


def test_nls_chain_and_dords():
    pre = load_nls()
    ctx = pre.ctx
    spF, spG = nls_spaces(ctx)
    extend_right(pre.chain, spF, spG, steps=3, k_solver=nls_k_solver(pre),
                 h_solver=nls_h_solver(pre))
    assert pre.chain.status.kind == "extendable"
    assert pre.chain.verify()
    assert vec_eq(pre.chain.steps[2].P, pre.extras["P2"])
    for s in pre.chain.steps:
        assert s.dords() == (s.index, s.index)
    pred = predict_dord(pre.chain)
    assert pred["threshold"] == 1 and pred["from_index"] == 2


def test_higher_structures():
    pre = load_kn(a_value=1)
    ker = [[f] for f in pre.extras["kernel_B"]]
    extend_right(pre.chain, None, None, steps=1, den_kernel=ker)
    assert verify_higher_structures(pre.chain, 0)
    assert verify_higher_structures(pre.chain, 1)

    pre2 = load_nls()
    spF, spG = nls_spaces(pre2.ctx)
    extend_right(pre2.chain, spF, spG, steps=1, k_solver=nls_k_solver(pre2),
                 h_solver=nls_h_solver(pre2))
    assert verify_higher_structures(pre2.chain, 1)
    assert verify_higher_structures(pre2.chain, 2)


def test_left_liouville_iv_blocked_short_pulse():
    pre = load_liouville("iv")
    ctx = pre.ctx
    u, u1 = ctx.u(0), ctx.u(1)
    a1, b2, b3 = ctx.param("a1"), ctx.param("b2"), ctx.param("b3")
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    extend_left(pre.chain, sp, sp, steps=2, left_P=[u1])
    assert pre.chain.left_status.kind == "blocked"
    # the intermediate functional: grad = u/a1 (h = u^2/(2 a1))
    assert pre.chain.left_steps[-1].grad[0] == u / a1
    eq = pre.chain.left_status.equation
    g0 = {"gamma%d" % i: 0 for i in range(1, 9)}
    assert eq.rhs_kernel.bind_params(g0) == b2 * u / a1
    assert eq.rhs_dxx.bind_params(g0) == b3 * u ** 3 / (6 * a1)
    # the raw nonlocal field
    bf = pre.chain.left_status.blocked_field
    assert bf.local.bind_params(g0) == b3 * u ** 2 * u1 / (2 * a1)
    total_kernel = sum((t.prefactor.bind_params(g0) * t.kernel for t in bf.terms),
                      ctx.zero())
    assert total_kernel == b2 * u / a1


def test_left_liouville_iv_short_pulse_scaling():
    # binding b2 = a1 and b3 = 6 a1 gives u_tx = u + (u^3)_xx on the nose
    pre = load_liouville("iv")
    ctx = pre.ctx
    u, u1 = ctx.u(0), ctx.u(1)
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    extend_left(pre.chain, sp, sp, steps=2, left_P=[u1])
    eq = pre.chain.left_status.equation
    bind = {"gamma%d" % i: 0 for i in range(1, 9)}
    bind.update({"a1": 1, "b2": 1, "b3": 6})
    assert eq.rhs_kernel.bind_params(bind) == u
    assert eq.rhs_dxx.bind_params(bind) == u ** 3


def test_left_liouville_iii_exponential():
    # blocked case 2: u_tx = a13 b2 e^(a13 u) + (b3/a13)(e^(a13 u))_xx
    pre = load_liouville("iii")
    ctx = pre.ctx
    a1, a3 = ctx.param("a1"), ctx.param("a3")
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    ctx.add_derived_parameter("a13", -a3 / a1)
    c = ctx.param("a13")
    E = ctx.adjoin_exp_u(c)
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    extend_left(pre.chain, sp, sp, steps=2, left_P=[ctx.zero()], left_F=[E])
    assert pre.chain.left_status.kind == "blocked"
    eq = pre.chain.left_status.equation
    g0 = {"gamma%d" % i: 0 for i in range(1, 9)}
    assert eq.rhs_kernel.bind_params(g0) == c * b2 * E
    assert eq.rhs_dxx.bind_params(g0) == b3 * E / c


def test_left_liouville_vii_liouville_equation():
    # blocked case 4: u_tx = a13 b2 e^(a13 u)
    pre = load_liouville("vii")
    ctx = pre.ctx
    a1, a3, b2 = ctx.param("a1"), ctx.param("a3"), ctx.param("b2")
    ctx.add_derived_parameter("a13", -a3 / a1)
    c = ctx.param("a13")
    E = ctx.adjoin_exp_u(c)
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    extend_left(pre.chain, sp, sp, steps=2, left_P=[ctx.zero()], left_F=[E])
    eq = pre.chain.left_status.equation
    g0 = {"gamma%d" % i: 0 for i in range(1, 9)}
    assert eq.rhs_kernel.bind_params(g0) == c * b2 * E
    assert eq.rhs_dxx is None or eq.rhs_dxx.bind_params(g0).is_zero()


def test_left_kn0_blocked_equation():
    # a = 0, constant kernel choice: (u_tx/u')_x = 1/(2u') + gamma u'
    pre = load_kn0()
    ctx = pre.ctx
    u1 = ctx.u(1)
    sp = AnsatzSpace(ctx, 0, 2)
    extend_left(pre.chain, sp, sp, steps=2, left_P=[ctx.one()])
    assert pre.chain.left_status.kind == "blocked"
    eq = pre.chain.left_status.equation
    gname = sorted(n for n in ctx.params if n.startswith("gamma"))[0]
    gamma = ctx.param(gname)
    assert eq.rhs == 1 / (2 * u1) + gamma * u1
    assert [k for k, _ in eq.lhs_atoms] == ["d", "mult", "d"]
    assert "u_tx" in eq.text()


def test_left_kn_nonzero_a_finite_type():
    # a != 0: the dual scheme is finite (the new gradient vanishes)
    pre = load_kn(a_value=1)
    ctx = pre.ctx
    u, u1 = ctx.u(0), ctx.u(1)
    spG = AnsatzSpace(ctx, 0, 2)
    spF = AnsatzSpace(ctx, max_dord=3, max_degree=5,
                      denominators=[(u1, 3)], weight_max=3)
    extend_left(pre.chain, spG, spF, steps=1, left_P=[ctx.one() + u + u * u])
    assert pre.chain.left_status.kind == "finite-type"
    assert all(g.is_zero() for g in pre.chain.left_steps[-1].grad)


def test_every_stored_witness_has_one_component_per_generator():
    """The left K-link solves the stacked [C; D] G = [P; 0] for an l-vector
    G, not a 2l-vector; right steps store l-vectors as well."""
    runs = []
    for case in ("i", "iv"):
        pre = load_liouville(case)
        sp = AnsatzSpace(pre.ctx, 1, 2, x_power=1)
        extend_left(pre.chain, sp, sp, steps=2, left_P=[pre.ctx.u(1)])
        runs.append(pre)
    pre = load_kn0()
    sp = AnsatzSpace(pre.ctx, 0, 2)
    extend_left(pre.chain, sp, sp, steps=2, left_P=[pre.ctx.one()])
    runs.append(pre)
    pre = load_kn(a_value=1)
    u = pre.ctx.u(0)
    spF = AnsatzSpace(pre.ctx, 3, 5, denominators=[(pre.ctx.u(1), 3)], weight_max=3)
    extend_left(pre.chain, AnsatzSpace(pre.ctx, 0, 2), spF, steps=1,
                left_P=[pre.ctx.one() + u + u * u])
    runs.append(pre)
    pre = load_nls()
    spF, spG = nls_spaces(pre.ctx)
    extend_right(pre.chain, spF, spG, steps=2, k_solver=nls_k_solver(pre),
                 h_solver=nls_h_solver(pre))
    runs.append(pre)
    stored = 0
    for pre in runs:
        assert pre.chain.left_steps or pre.id == "nls"
        for step in pre.chain.steps + pre.chain.left_steps:
            for w in (step.witness_H or []) + (step.witness_K or []):
                assert len(w) == pre.ctx.ell, (pre.id, step.index)
                stored += 1
    assert stored


def test_left_finite_when_kernel_trivial():
    # H = a1 d alone: the dual K-side kernel is zero -> finite immediately
    pre = load_liouville("vi")
    ctx = pre.ctx
    sp = AnsatzSpace(ctx, 1, 2, x_power=1)
    extend_left(pre.chain, sp, sp, steps=1)
    assert pre.chain.left_status.kind in ("finite-type", "extendable", "blocked")


def test_predict_dord_degenerate_equal_orders():
    # |H| = |K|: the prediction is constant
    from lenard.chains import StructurePair, Chain, ChainStep, predict_dord
    ctx = Context(("u",))
    u1, u2 = ctx.u(1), ctx.u(2)
    H = StructurePair("H", AtomChain(ctx, [("d", 2)]), AtomChain(ctx, [("d", 1)]))
    K = StructurePair("K", AtomChain(ctx, [("d", 2)]), AtomChain(ctx, [("d", 1)]))
    step = ChainStep(0, [u2], [u1], None)
    chain = Chain(H, K, [step])
    pred = predict_dord(chain)
    assert not pred["independent"]
    assert all(dp == 2 for _, dp, _ in pred["predictions"])


def test_higher_structures_insufficient_chain():
    from lenard.errors import InsufficientChain
    pre = load_kn(a_value=1)
    with pytest.raises(InsufficientChain):
        verify_higher_structures(pre.chain, 5)


def _formal_apply_oracle(chain, nv):
    """A chain applied to a formal field by its own recursive walk: a sum of
    chains summand by summand, each merged, the sum merged again; a d atom
    adds each term's p r to the local part and keeps p' W."""
    if isinstance(chain, SumChain):
        total = None
        for ch in chain.summands:
            part = _formal_apply_oracle(ch, nv)
            total = part if total is None else NonlocalVectorField(
                total.local + part.local, total.terms + part.terms)
        return _merge_terms(total)
    cur = nv
    for kind, data in reversed(chain.atoms):
        if kind == "d":
            for _ in range(data):
                local = cur.local.total_derivative()
                terms = []
                for t in cur.terms:
                    local = local + t.prefactor * t.kernel
                    dp = t.prefactor.total_derivative()
                    if not dp.is_zero():
                        terms.append(NonlocalTerm(dp, t.kernel))
                cur = NonlocalVectorField(local, terms)
        else:
            g = data[0][0]
            cur = NonlocalVectorField(cur.local * g, [NonlocalTerm(t.prefactor * g, t.kernel)
                                                      for t in cur.terms])
    return _merge_terms(cur)


def _formal_keys(nv):
    return (str(nv), nv.local.key(),
            [(t.prefactor.key(), t.kernel.key()) for t in nv.terms])


def _blocked_left(case):
    """A chain whose left extension is blocked, and the formal field its
    K-link solve reached: for kn0, whose solve meets a second-level
    obstruction, d^-1 of the gradient."""
    if case == "kn0":
        pre = load_kn0()
        ctx = pre.ctx
        sp = AnsatzSpace(ctx, 0, 2)
        left = dict(left_P=[ctx.one()])
    else:
        pre = load_liouville(case.split("-")[0])
        ctx = pre.ctx
        sp = AnsatzSpace(ctx, 1, 2, x_power=1)
        left = dict(left_P=[ctx.u(1)])
        if case != "iv":
            a1, a3 = ctx.param("a1"), ctx.param("a3")
            ctx.add_derived_parameter("a13", -a3 / a1)
            E = ctx.adjoin_exp_u(ctx.param("a13"))
            F = E + ctx.param("al") / E if case.endswith("two") else E
            left = dict(left_P=[ctx.zero()], left_F=[F])
    extend_left(pre.chain, sp, sp, steps=2, **left)
    assert pre.chain.left_status.kind == "blocked"
    grad = pre.chain.left_steps[-1].grad[0]
    G, _ = peel_denominator(pre.chain.K.den, [grad], strict=False)
    if G is None:
        G = [NonlocalVectorField(ctx.zero(), [NonlocalTerm(ctx.one(), grad)])]
    return pre, G[0]


@pytest.mark.parametrize("case", ["iv", "iii", "iii-two", "vii", "kn0"])
def test_chain_walk_of_formal_fields_matches_the_recursive_oracle(case):
    # K's numerator is a sum of chains for iv and iii; K's denominator has
    # several d and mult atoms for kn0
    pre, G = _blocked_left(case)
    K = pre.chain.K
    for chain in (K.num, K.den):
        got = _merge_terms(chain.apply([G])[0])
        assert _formal_keys(got) == _formal_keys(_formal_apply_oracle(chain, G))
    if case != "kn0":
        field = pre.chain.left_status.blocked_field
        assert field.terms and str(field) == str(_merge_terms(K.num.apply([G])[0]))


# ---------------------------------------------------------------------------
# the one denominator peeler, strict


def test_strict_peel_solves_a_composition_denominator(ctx):
    u1, u2 = ctx.u(1), ctx.u(2)
    den = AtomChain(ctx, [("d", 1), ("mult", [[1 / u2]]), ("d", 1)])
    b2, b3 = ctx.param("b2"), ctx.param("b3")
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    xi = variational_derivative(s)
    F, blocked_info = peel_denominator(den, xi, strict=True)
    assert F is not None and blocked_info is None
    assert den.apply(F)[0] == xi[0]


def test_strict_peel_blocks_on_the_exponential_gradient():
    # the blocked-b pattern: d (1/u'') d F = 2 exp(2x) has no local F, since
    # u'' exp(2x) is not a total derivative
    ctx = Context(("u",))
    H = liouville_fraction(ctx, ctx.const(7), ctx.const(2), ctx.const(3))
    E = ctx.adjoin_exp_x(ctx.const(2))
    F, (atoms, rhs) = peel_denominator(H.den, [2 * E], strict=True)
    assert F is None
    assert atoms == H.den.atoms[2:] and rhs == ctx.u(2) * E


def test_strict_peel_reads_undecidable_as_none():
    ctx = Context(("u",))
    xi = [1 / ctx.x()]
    with pytest.raises(Undecidable):
        antiderivative(xi[0])
    F, _ = peel_denominator(AtomChain(ctx, [("d", 1)]), xi, strict=True)
    assert F is None


def _chain_linear_solver_oracle(den: AtomChain):
    """The separate strict solver the peeler replaced, kept as an oracle:
    solver(xi) -> F or None, or None when den is not peelable."""
    if not isinstance(den, AtomChain) or den.ell != 1:
        return None
    for kind, data in den.atoms:
        if kind == "d" and data < 0:
            return None

    def solver(xi):
        z = xi[0]
        for kind, data in den.atoms:
            if kind == "mult":
                z = z / data[0][0]
            else:
                for _ in range(data):
                    try:
                        z = antiderivative(z)
                    except Undecidable:
                        return None
                    if z is None:
                        return None
        return [z]
    return solver


@pytest.mark.parametrize("pid", [p for p in preset_ids() if p != "nls"])
def test_strict_peel_matches_the_separate_solver_on_seeded_gradients(pid):
    pre = load_preset(pid)
    for den in (pre.H.den, pre.K.den):
        solver = _chain_linear_solver_oracle(den)
        for step in pre.chain.steps:
            want = solver(step.grad)
            got, _ = peel_denominator(den, step.grad, strict=True)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0].key() == want[0].key()
