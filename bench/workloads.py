"""The three benchmark workloads: op lists, seeded operands, known answers.

Every op builds its own Context and structures, so no op reuses another
op's cached total derivatives, expansions or kernels: a command-line user
pays those cold caches on every run, and so does the benchmark.  Layers
are called through their modules (``brackets.check_jacobi``) so that the
traced run sees every call.

The expected results below are transcribed by hand from the assertions in
tests/test_acceptance.py, tests/test_brackets.py, tests/test_solve.py and
the README; none is taken from the engine's own output.  Field elements
are compared by exact field equality (``(a - b).is_zero()``), never by
their printed form, so a change of canonical form does not read as a
failure.
"""

import contextlib
import io
import json
import random
from collections import namedtuple
from fractions import Fraction as Q

from lenard import (brackets, chains, cli, functional, grammar, jacobi,
                    liouville, operators, presets, solve)
from lenard.field import Context


class Mismatch(Exception):
    """An op's result differs from its known answer."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def same(a, b):
    """Exact field equality of two elements of one context."""
    return (a - b).is_zero()


Op = namedtuple("Op", "name run check")
CliRun = namedtuple("CliRun", "argv code out")


def group(name, cases):
    """One op made of (run, check) cases; its answer lists one per case.

    Checks that take well under 50 ms are grouped, as the acceptance
    criteria group them, so that timer and cache noise on a tiny op does
    not dominate the per-op times."""
    def run():
        return [case_run() for case_run, _ in cases]

    def check(results, answers):
        expect(len(results) == len(answers), "%d answers" % len(answers))
        for (_, case_check), result, answer in zip(cases, results, answers):
            case_check(result, answer)
    return Op(name, run, check)


def run_cli(argv):
    """lenard's command line, in process; stdout is captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return CliRun(tuple(argv), code, buf.getvalue())


def _chain(ctx, *atoms, ell=None):
    return jacobi.AtomStructure(jacobi.AtomChain(ctx, list(atoms), ell))


def _sokolov(ctx, f):
    """f d^-1 f."""
    return _chain(ctx, ("mult", [[f]]), ("d", -1), ("mult", [[f]]))


def _dorfman(ctx):
    u1 = ctx.u(1)
    return _chain(ctx, ("d", -1), ("mult", [[u1]]), ("d", -1),
                  ("mult", [[u1]]), ("d", -1))


def _m3():
    ctx = Context(("u", "v"))
    u, v = ctx.gen(0, 0), ctx.gen(1, 0)
    return _chain(ctx, ("mult", [[v], [-u]]), ("d", -1), ("mult", [[v, -u]]),
                  ell=2)


# ---------------------------------------------------------------------------
# checks shared by several ops


def check_verdict(v, exp):
    expect(v.holds == exp["holds"], "verdict holds=%s" % v.holds)
    expect(tuple(v.floors) == tuple(exp["floors"]), "floors %s" % (v.floors,))
    wit = exp.get("witness")
    if wit is None:
        return
    expect(v.witness is not None, "no witness")
    for key, want in wit.items():
        got = v.witness[key]
        if key == "coefficient":
            expect(same(got, want(got.ctx)), "witness coefficient %s" % got)
        else:
            expect(got == want, "witness %s = %s" % (key, got))


def check_cli(run, exp):
    expect(run.code == exp["exit"], "exit code %s" % run.code)
    return json.loads(run.out)


# ---------------------------------------------------------------------------
# poisson: non-local Poisson verdicts


def poisson_ops(operands):
    def skew_L3():
        ctx = Context(("u",))
        return brackets.check_skewadjoint(_sokolov(ctx, ctx.u(1)), -8)

    def jacobi_L3():
        ctx = Context(("u",))
        return brackets.check_jacobi(_sokolov(ctx, ctx.u(1)), (-5, -5))

    def skew_dorfman():
        return brackets.check_skewadjoint(_dorfman(Context(("u",))), -8)

    def jacobi_dorfman():
        return brackets.check_jacobi(_dorfman(Context(("u",))), (-5, -5))

    def compat_L3_dorfman():
        ctx = Context(("u",))
        return brackets.check_compatible(_sokolov(ctx, ctx.u(1)),
                                         _dorfman(ctx), (-4, -4))

    def skew_M3():
        return brackets.check_skewadjoint(_m3(), -8)

    def jacobi_M3():
        return brackets.check_jacobi(_m3(), (-4, -4))

    def jacobi_combination():
        a, b, c = operands["combination"]
        ctx = Context(("u",))
        S = operators.OperatorSum([
            (ctx.const(a), _chain(ctx, ("d", 1))),
            (ctx.const(b), _chain(ctx, ("d", -1))),
            (ctx.const(c), _sokolov(ctx, ctx.u(1))),
        ])
        return brackets.check_jacobi(S, (-5, -5))

    def jacobi_negative_control():
        ctx = Context(("u",))
        return brackets.check_jacobi(_sokolov(ctx, ctx.u(2)), (-5, -5))

    def skew_negative_control():
        ctx = Context(("u",))
        return brackets.check_skewadjoint(_chain(ctx, ("d", 2)), -8)

    def cli_check_jacobi():
        return run_cli(["check", "--op", "u' D^-1 u'", "--what", "jacobi",
                        "--floor", "-5"])

    def check_cli_jacobi(run, exp):
        out = check_cli(run, exp)
        got = [(r["property"], r["floor"], r["verdict"]) for r in out["results"]]
        expect(got == exp["results"], "records %s" % got)

    return [
        group("skew_checks", [(skew_L3, check_verdict),
                              (skew_dorfman, check_verdict),
                              (skew_M3, check_verdict),
                              (skew_negative_control, check_verdict)]),
        Op("jacobi_L3", jacobi_L3, check_verdict),
        Op("jacobi_dorfman", jacobi_dorfman, check_verdict),
        Op("compat_L3_dorfman", compat_L3_dorfman, check_verdict),
        Op("jacobi_M3", jacobi_M3, check_verdict),
        Op("jacobi_combination", jacobi_combination, check_verdict),
        Op("jacobi_negative_control", jacobi_negative_control, check_verdict),
        Op("cli_check_jacobi", cli_check_jacobi, check_cli_jacobi),
    ]


def _holds(*floors):
    return {"holds": True, "floors": floors}


POISSON_ANSWERS = {
    # criterion 3 and test_brackets: the Liouville, Sokolov/Dorfman and
    # two-component structures are Poisson and pairwise compatible; a
    # verdict that holds to (-8,-8) holds to every shallower floor
    # (d^2 is the skew negative control: d^2 + (d^2)* = 2 d^2, as in
    # test_skewadjoint_verdicts)
    "skew_checks": [_holds(-8), _holds(-8), _holds(-8), {
        "holds": False, "floors": (-8,),
        "witness": {"entry": (0, 0), "degree": 2,
                    "coefficient": lambda ctx: ctx.const(2)}}],
    "jacobi_L3": _holds(-5, -5),
    "jacobi_dorfman": _holds(-5, -5),
    "compat_L3_dorfman": _holds(-4, -4),
    "jacobi_M3": _holds(-4, -4),
    # a d + b d^-1 + c L3 with pairwise compatible Poisson terms is Poisson
    "jacobi_combination": _holds(-5, -5),
    # u'' d^-1 u'' is skew but not Poisson: the first failing term
    "jacobi_negative_control": {
        "holds": False, "floors": (-5, -5),
        "witness": {"triple": (0, 0, 0), "lambda_power": 1, "mu_power": -1,
                    "coefficient": lambda ctx: 2 * ctx.u(2) ** 3}},
    # README: `lenard check --op "u' D^-1 u'" --what jacobi` exits 0
    "cli_check_jacobi": {
        "exit": 0,
        "results": [("skewadjoint", [-5], "holds-to-floor"),
                    ("jacobi", [-5, -5], "holds-to-floor")]},
}


# ---------------------------------------------------------------------------
# ansatz: undetermined-coefficient solving


def _scalar_kernel_space():
    ctx = Context(("u",), ("x1", "x2", "x3"))
    return ctx, solve.AnsatzSpace(ctx, 1, 2, x_power=1)


def ansatz_ops(operands):
    D = operators.ScalarPsdOp.d
    of_fun = operators.ScalarPsdOp.of_fun
    scalar = operators.MatrixPsdOp.scalar

    def kernel_d_inv_u2_d():
        ctx, sp = _scalar_kernel_space()
        op = D(ctx).compose(of_fun(1 / ctx.u(2))).compose(D(ctx))
        return ctx, solve.kernel_of(scalar(op), sp)

    def kernel_d():
        ctx, sp = _scalar_kernel_space()
        return ctx, solve.kernel_of(scalar(D(ctx)), sp)

    def kernel_inv_u1_d():
        ctx, sp = _scalar_kernel_space()
        op = operators.ScalarPsdOp(ctx, {1: 1 / ctx.u(1)})
        return ctx, solve.kernel_of(scalar(op), sp)

    def kernel_identity():
        ctx, sp = _scalar_kernel_space()
        return ctx, solve.kernel_of(operators.MatrixPsdOp.identity(ctx, 1), sp)

    def kernel_kn_B():
        ctx = Context(("u",))
        u1 = ctx.u(1)
        Du1 = presets.kn_Du1(ctx)
        B = jacobi.AtomChain(ctx, [("d", 1), ("mult", [[1 / u1]]), ("d", 1),
                                   ("mult", [[1 / u1]]), ("d", 1),
                                   ("mult", [[1 / Du1]]), ("d", 1)])
        space = solve.AnsatzSpace(ctx, 3, 3, denominators=[(u1, 3)])
        return ctx, solve.kernel_of(B.apply, space, ell=1)

    def kernel_sqrt_symbol():
        ctx = Context(("u",), ("x2", "x3"))
        x2, x3 = ctx.param("x2"), ctx.param("x3")
        u1, u2 = ctx.u(1), ctx.u(2)
        s = ctx.adjoin_sqrt(x2 + x3 * u1 ** 2)
        Y = operators.ScalarPsdOp(ctx, {1: (x2 + x3 * u1 ** 2) / u2,
                                        0: -x3 * u1})
        space = solve.AnsatzSpace(ctx, 1, 2, multipliers=[s],
                                  denominators=[(s, 1)])
        return ctx, solve.kernel_of(scalar(Y), space)

    def kernel_exp_u():
        ctx = Context(("u",), ("x1", "x3"))
        x1, x3 = ctx.param("x1"), ctx.param("x3")
        u1 = ctx.u(1)
        ctx.add_derived_parameter("c13", -x3 / x1)
        E = ctx.adjoin_exp_u(ctx.param("c13"))
        Y = D(ctx).compose(of_fun(1 / u1)).compose(D(ctx)).scale(x1) \
            + of_fun(x3 * u1)
        space = solve.AnsatzSpace(ctx, -1, 0, multipliers=[E, 1 / E])
        return ctx, solve.kernel_of(scalar(Y), space)

    def solve_sqrt_seed():
        ctx = Context(("u",), ("b2", "b3"))
        u1, u2 = ctx.u(1), ctx.u(2)
        s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
        B = scalar(D(ctx).compose(of_fun(1 / u2)).compose(D(ctx)))
        space = solve.AnsatzSpace(ctx, 1, 2, multipliers=[s],
                                  denominators=[(s, 1)])
        sol = solve.solve_operator_equation(
            B, functional.variational_derivative(s), space)
        return ctx, sol.particular

    def extend_liouville(case):
        def run():
            pre = presets.load_liouville(case)
            b = pre.extras["b"]
            spF, spG = presets.liouville_spaces(pre.ctx, b[1], b[2])
            chains.extend_right(pre.chain, spF, spG, steps=1)
            return pre
        return run

    def empirical(a, b):
        return lambda: liouville.empirical_class(a, b)

    def check_kernel(result, exp):
        ctx, ker = result
        expect(len(ker) == exp["dim"], "kernel dimension %d" % len(ker))
        for f in exp["contains"](ctx):
            expect(solve.in_span(ctx, ker, [f]), "kernel misses %s" % f)

    def check_particular(result, exp):
        ctx, F = result
        expect(same(F[0], exp(ctx)), "particular %s" % F[0])

    def check_first_equation(pre, exp):
        P0 = pre.chain.steps[-1].P[0]
        expect(same(P0, exp(pre)), "P = %s" % P0)

    def check_class(got, exp):
        expect(got == exp, "class %s" % got)

    return [
        group("kernels_small", [(kernel_d_inv_u2_d, check_kernel),
                                (kernel_d, check_kernel),
                                (kernel_inv_u1_d, check_kernel),
                                (kernel_identity, check_kernel),
                                (kernel_sqrt_symbol, check_kernel),
                                (kernel_exp_u, check_kernel)]),
        Op("kernel_kn_B", kernel_kn_B, check_kernel),
        Op("solve_sqrt_seed", solve_sqrt_seed, check_particular),
        Op("extend_liouville_v", extend_liouville("v"), check_first_equation),
        Op("extend_liouville_ix", extend_liouville("ix"), check_first_equation),
        Op("empirical_c1_vii", empirical((0, 0, 1), (0, 1, 0)), check_class),
        Op("empirical_c2_exp_x", empirical((1, 1, 0), (1, 1, 0)), check_class),
        Op("empirical_c2_exp_u", empirical((1, 0, 1), (1, 0, 1)), check_class),
        group("empirical_finite",
              [(empirical((0, 1, 1), (1, 1, 1)), check_class),
               (empirical((1, 0, 0), (0, 1, 0)), check_class)]),
    ]


def _kn_kernel_elements(ctx):
    u, u1, u2 = ctx.u(0), ctx.u(1), ctx.u(2)
    w = (u2 / u1).total_derivative()
    return [ctx.one(), (1 / u1) * w, (u / u1) * w - u2 / u1]


def _eq_liouville_v(pre):
    ctx = pre.ctx
    a1, a2, a3 = pre.extras["a"]
    b2 = pre.extras["b"][1]
    u1, u3 = ctx.u(1), ctx.u(3)
    return a1 / b2 * u3 + a2 / b2 * u1 + a3 / (2 * b2) * u1 ** 3


def _eq_liouville_ix(pre):
    ctx = pre.ctx
    a1, a2, a3 = pre.extras["a"]
    b3 = pre.extras["b"][2]
    u1, u2, u3 = ctx.u(1), ctx.u(2), ctx.u(3)
    return -(a1 / b3) * u3 / u1 ** 3 + 3 * (a1 / b3) * u2 ** 2 / u1 ** 4 \
        + a2 / (2 * b3) / u1 ** 2 + a3 / b3


def _sqrt_of(ctx):
    return ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * ctx.u(1) ** 2)


ANSATZ_ANSWERS = {
    # criterion 2's four scalar cases, then test_kernel_with_sqrt_symbol
    # and test_kernel_exp_u
    "kernels_small": [
        {"dim": 2, "contains": lambda c: [c.one(), c.u(1)]},
        {"dim": 1, "contains": lambda c: [c.one()]},
        {"dim": 1, "contains": lambda c: [c.one()]},
        {"dim": 0, "contains": lambda c: []},
        {"dim": 1,
         "contains": lambda c: [c.adjoin_sqrt(c.param("x2")
                                              + c.param("x3") * c.u(1) ** 2)]},
        {"dim": 2,
         "contains": lambda c: [c.adjoin_exp_u(c.param("c13")),
                                1 / c.adjoin_exp_u(c.param("c13"))]}],
    # criterion 2's KN kernel span{1, f2, f3, f4}, restricted to numerator
    # degree 3: f4 needs degree 4, so the kernel there is span{1, f2, f3}
    "kernel_kn_B": {"dim": 3, "contains": _kn_kernel_elements},
    # test_sqrt_seed_solve: F = -sqrt(b2 + b3 u'^2)
    "solve_sqrt_seed": lambda c: -_sqrt_of(c),
    # criterion 4, cases (v) and (ix)
    "extend_liouville_v": _eq_liouville_v,
    "extend_liouville_ix": _eq_liouville_ix,
    # criterion 6, the documented representative patterns
    "empirical_c1_vii": "C1-type",
    "empirical_c2_exp_x": "C2-type",
    "empirical_c2_exp_u": "C2-type",
    "empirical_finite": ["finite", "finite"],
}


# ---------------------------------------------------------------------------
# hierarchy: the Lenard-Magri recursion from the presets


def _densities_null(ctx, Ps, grads):
    """is_null_functional of P . grad for every pair, in order."""
    out = []
    for P in Ps:
        for grad in grads:
            density = sum((p * g for p, g in zip(P, grad)), ctx.zero())
            out.append(functional.is_null_functional(density))
    return out


def _random_fun(ctx, rng, max_dord=2, symbols=()):
    """Seed-drawn nonzero coefficients on three fixed quadratic monomials.

    Only the coefficients come from the seed, so that every seed asks for
    the same work."""
    u, u1, x = ctx.u(0), ctx.u(1), ctx.x()
    top = ctx.u(max_dord)
    out = ctx.zero()
    for mono in (u * u1, top * x, u1 * top if max_dord > 1 else u * u):
        out = out + ctx.const(rng.choice((-3, -2, -1, 1, 2, 3))) * mono
    for sym in symbols:
        out = out + ctx.const(rng.choice((-2, -1, 1, 2))) * sym
    return out


def hierarchy_ops(operands):
    def nls_right():
        pre = presets.load_nls()
        spF, spG = presets.nls_spaces(pre.ctx)
        chains.extend_right(pre.chain, spF, spG, steps=3,
                            k_solver=presets.nls_k_solver(pre),
                            h_solver=presets.nls_h_solver(pre))
        steps = {s.index: s for s in pre.chain.steps}
        Ps = [steps[m].P for m in range(4)]
        grads = [steps[n].grad for n in range(3)]
        return {"ctx": pre.ctx, "P2": steps[2].P,
                "dords": {s.index: s.dords() for s in pre.chain.steps},
                "prediction": chains.predict_dord(pre.chain),
                "involution": _densities_null(pre.ctx, Ps, grads)}

    def fractions():
        out = []
        for flags in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0)):
            names = [n for n, f in zip(("x1", "x2", "x3"), flags) if f]
            ctx = Context(("u",), tuple(names))
            vals = [ctx.param(n) if f else ctx.zero()
                    for n, f in zip(("x1", "x2", "x3"), flags)]
            pair = presets.liouville_fraction(ctx, *vals)
            terms = []
            for val, atoms in zip(vals, ([("d", 1)], [("d", -1)],
                                         [("mult", [[ctx.u(1)]]), ("d", -1),
                                          ("mult", [[ctx.u(1)]])])):
                if not val.is_zero():
                    terms.append((val, _chain(ctx, *atoms)))
            frac = operators.RationalOpPair.fraction(pair.num_op(),
                                                     pair.den_op())
            out.append(operators.verify_fraction(operators.OperatorSum(terms),
                                                 frac, -8))
        pre = presets.load_kn0()
        frac = operators.RationalOpPair.fraction(pre.H.num_op(),
                                                 pre.H.den_op())
        out.append(operators.verify_fraction(pre.extras["H_sum"], frac, -8))
        return out

    def left_liouville_iv():
        pre = presets.load_liouville("iv")
        sp = solve.AnsatzSpace(pre.ctx, 1, 2, x_power=1)
        chains.extend_left(pre.chain, sp, sp, steps=2, left_P=[pre.ctx.u(1)])
        return pre

    def left_liouville_exp(case, two_branch):
        def run():
            pre = presets.load_liouville(case)
            ctx = pre.ctx
            ctx.add_derived_parameter("a13", -ctx.param("a3") / ctx.param("a1"))
            E = ctx.adjoin_exp_u(ctx.param("a13"))
            left_F = [E + ctx.param("al") / E] if two_branch else [E]
            sp = solve.AnsatzSpace(ctx, 1, 2, x_power=1)
            chains.extend_left(pre.chain, sp, sp, steps=2,
                               left_P=[ctx.zero()], left_F=left_F)
            return pre
        return run

    def left_kn0():
        pre = presets.load_kn0()
        sp = solve.AnsatzSpace(pre.ctx, 0, 2)
        chains.extend_left(pre.chain, sp, sp, steps=2, left_P=[pre.ctx.one()])
        return pre

    def families():
        sqrt = liouville.closed_form_family(
            "sqrt", {"a2": None, "a3": None, "b2": None, "b3": None}, 3)
        odd = liouville.closed_form_family(
            "odd-powers", {"a2": None, "a3": None, "b2": None}, 5)
        return [len(sqrt[1]), len(odd[1])]

    def hodograph():
        ctxh, seqh = liouville.closed_form_family(
            "odd-powers", {"a2": None, "a3": None, "b2": None}, 4, verify=False)
        ctxi, seqi = liouville.closed_form_family(
            "inverse-powers", {"a2": None, "a3": None, "b3": None}, 4,
            verify=False)
        pairs = []
        for k in range(5):
            Ph = seqh[k][0].bind_params({"a2": 3, "a3": 5, "b2": 7})
            Pi = seqi[k][0].bind_params({"a3": 3, "a2": 5, "b3": 7})
            pairs.append((grammar.fun_text(liouville.hodograph_dual(ctxh, Ph)),
                          grammar.fun_text(Pi)))
        return pairs

    def identities():
        rng = random.Random(operands["identities"])
        ctx = Context(("u",), ("b2", "b3"))
        u1 = ctx.u(1)
        s = ctx.adjoin_sqrt(ctx.param("b2") + ctx.param("b3") * u1 ** 2)
        E = ctx.adjoin_exp_u(ctx.const(2))
        out = []
        for i in range(20):
            f = _random_fun(ctx, rng)
            n = i % 3 + 1
            lhs = f.total_derivative().partial(0, n) \
                - f.partial(0, n).total_derivative()
            out.append(same(lhs, f.partial(0, n - 1)))
        for _ in range(4):
            f = _random_fun(ctx, rng, max_dord=1, symbols=(s, E)) / u1
            td = f.total_derivative()
            out.append(all(v.is_zero()
                           for v in functional.variational_derivative(td)))
        Psdo = operators.ScalarPsdOp
        for _ in range(4):
            A, B, C = (Psdo(ctx, {k: _random_fun(ctx, rng)}) for k in (1, -1, 0))
            lhs = A.compose(B, -8).compose(C, -5)
            out.append(lhs.eq_to_floor(A.compose(B.compose(C, -8), -5), -4))
        for _ in range(4):
            A = Psdo(ctx, {1: _random_fun(ctx, rng), -1: _random_fun(ctx, rng)})
            out.append(A.adjoint(-8).adjoint(-6).eq_to_floor(A, -6))
        ev = brackets.evolutionary_bracket
        for _ in range(3):
            P, Qv, R = ([_random_fun(ctx, rng)] for _ in range(3))
            out.append(all((x + y).is_zero()
                           for x, y in zip(ev(P, Qv), ev(Qv, P))))
            jac = [a + b + c for a, b, c in zip(ev(P, ev(Qv, R)),
                                                ev(Qv, ev(R, P)),
                                                ev(R, ev(P, Qv)))]
            out.append(all(x.is_zero() for x in jac))
        return out

    def cli_chain(*argv):
        return lambda: run_cli(["chain"] + list(argv))

    # -- checks

    parse = grammar.parse_function

    def check_nls_right(r, exp):
        for idx, want in exp["dords"].items():
            expect(r["dords"][idx] == want,
                   "dords[%d] = %s" % (idx, r["dords"][idx]))
        pred = r["prediction"]
        for idx, dp, dg in pred["predictions"]:
            expect(r["dords"][idx] == (dp, dg), "prediction at %d" % idx)
        expect(pred["independent"], "predictions not independent")
        expect(all(r["involution"]), "a density is not a total derivative")
        want = exp["P2"](r["ctx"])
        expect(all(same(a, b) for a, b in zip(r["P2"], want)), "P2")

    def check_all_true(r, exp):
        expect(r == [True] * exp, "results %s" % (r,))

    def check_left_iv(pre, exp):
        ctx = pre.ctx
        st = pre.chain.left_status
        expect(st.kind == "blocked", "left status %s" % st.kind)
        u = ctx.u(0)
        a1, b2, b3 = ctx.param("a1"), ctx.param("b2"), ctx.param("b3")
        g0 = {"gamma%d" % i: 0 for i in range(1, 9)}
        eq = st.equation
        expect(same(eq.rhs_kernel.bind_params(g0), b2 * u / a1), "kernel part")
        expect(same(eq.rhs_dxx.bind_params(g0), b3 * u ** 3 / (6 * a1)),
               "d_xx part")

    def check_left_exp(pre, exp):
        ctx = pre.ctx
        st = pre.chain.left_status
        expect(st.kind == "blocked", "left status %s" % st.kind)
        c = ctx.param("a13")
        E = ctx.adjoin_exp_u(c)
        b2, b3 = ctx.param("b2"), ctx.param("b3")
        g0 = {"gamma%d" % i: 0 for i in range(1, 9)}
        eq = st.equation
        branch = E - ctx.param("al") / E if exp == "two-branch" else E
        expect(same(eq.rhs_kernel.bind_params(g0), c * b2 * branch),
               "kernel part")
        if exp == "two-branch":
            expect(same(eq.rhs_dxx.bind_params(g0), b3 * branch / c),
                   "d_xx part")
        else:
            expect(eq.rhs_dxx is None or eq.rhs_dxx.bind_params(g0).is_zero(),
                   "d_xx part")

    def check_left_kn0(pre, exp):
        ctx = pre.ctx
        st = pre.chain.left_status
        expect(st.kind == "blocked", "left status %s" % st.kind)
        eq = st.equation
        gamma = ctx.param(sorted(n for n in ctx.params
                                 if n.startswith("gamma"))[0])
        u1 = ctx.u(1)
        expect(same(eq.rhs, 1 / (2 * u1) + gamma * u1), "rhs %s" % eq.rhs)
        expect([k for k, _ in eq.lhs_atoms] == exp, "lhs atoms")

    def check_closed_forms(r, exp):
        expect(r == exp, "family lengths %s" % (r,))

    def check_hodograph(pairs, exp):
        ctx = Context(("u",))
        expect(len(pairs) == exp, "members %d" % len(pairs))
        for dual, inverse in pairs:
            expect(same(parse(ctx, dual), parse(ctx, inverse)),
                   "hodograph dual %s" % dual)

    def check_cli_kn(run, exp):
        steps = {st["n"]: st for st in check_cli(run, exp)["chain"]["steps"]}
        for n, want in exp["dords"].items():
            got = tuple(int(d) for d in steps[n]["dords"])
            expect(got == want, "dords[%d] = %s" % (n, got))
        ctx = Context(("u",), ("a",))
        u, u1, u2, u3 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
        P4 = steps[4]["P"][0]
        core = u3 - Q(3, 2) * u2 ** 2 / u1
        expect(solve.in_span(ctx, [[ctx.one()], [u], [u * u], [u1]],
                             [parse(ctx, P4) - core]), "P4 = %s" % P4)

    def check_cli_left(run, exp):
        out = check_cli(run, exp)
        st = out["chain"]["left_status"]
        expect(st["kind"] == "blocked", "left status %s" % st["kind"])
        lhs, rhs = st["equation"].split(" = ", 1)
        expect(lhs == "u_tx", "equation %s" % st["equation"])
        kernel, dxx = rhs.split(" + ", 1)
        expect(dxx.endswith("_xx"), "equation %s" % st["equation"])
        ctx = Context(("u",), ("a1", "b2", "b3"))
        g0 = {"gamma%d" % i: 0 for i in range(1, 9)}
        u = ctx.u(0)
        a1, b2, b3 = ctx.param("a1"), ctx.param("b2"), ctx.param("b3")
        expect(same(parse(ctx, kernel).bind_params(g0), b2 * u / a1),
               "kernel part %s" % kernel)
        expect(same(parse(ctx, dxx[:-3]).bind_params(g0),
                    b3 * u ** 3 / (6 * a1)), "d_xx part %s" % dxx)

    def check_cli_verify(run, exp):
        out = check_cli(run, exp)
        expect(out["verified"] is True, "verified %s" % out["verified"])

    return [
        Op("nls_right", nls_right, check_nls_right),
        Op("fractions", fractions, check_all_true),
        group("left_blocked",
              [(left_liouville_iv, check_left_iv),
               (left_liouville_exp("iii", True), check_left_exp),
               (left_liouville_exp("vii", False), check_left_exp),
               (left_kn0, check_left_kn0)]),
        group("closed_forms", [(families, check_closed_forms),
                               (hodograph, check_hodograph)]),
        Op("identities", identities, check_all_true),
        Op("cli_chain_kn", cli_chain("--preset", "kn", "--steps", "3"),
           check_cli_kn),
        Op("cli_chain_liouville_iv_left",
           cli_chain("--preset", "liouville-iv", "--direction", "left",
                     "--steps", "2"), check_cli_left),
        Op("cli_chain_nls_verify",
           cli_chain("--preset", "nls", "--steps", "0", "--verify-only"),
           check_cli_verify),
    ]


def _nls_P2(ctx):
    a2, a3, b3 = ctx.param("a2"), ctx.param("a3"), ctx.param("b3")
    u, v = ctx.gen(0, 0), ctx.gen(1, 0)
    u1, v1 = ctx.gen(0, 1), ctx.gen(1, 1)
    r2 = u ** 2 + v ** 2
    return [ctx.gen(1, 2) + 2 * a2 * u1 - a2 ** 2 * v
            + b3 * (u * r2).total_derivative() / 2 + (a3 - a2 * b3) * v * r2 / 2,
            -ctx.gen(0, 2) + 2 * a2 * v1 + a2 ** 2 * u
            + b3 * (v * r2).total_derivative() / 2 - (a3 - a2 * b3) * u * r2 / 2]


HIERARCHY_ANSWERS = {
    # criteria 4, 8 and 9: NLS steps have dords (n, n) and P2 in closed form
    "nls_right": {"dords": {n: (n, n) for n in range(5)}, "P2": _nls_P2},
    # criterion 1: the four Liouville sub-cases and the a = 0 KN fraction
    "fractions": 5,
    # criterion 7: blocked left extensions of liouville-iv, -iii (two
    # branches), -vii (one branch) and kn0
    "left_blocked": [None, "two-branch", "single-branch", ["d", "mult", "d"]],
    # criterion 5: both families verify, members 0..n; the hodograph dual
    # of each odd-power member is the inverse-power member
    "closed_forms": [[4, 6], 5],
    # criterion 10: 20 + 4 + 4 + 4 + 6 identities, all holding
    "identities": 38,
    # README command lines; KN runs three steps: criterion 8 gives the
    # dords (2n-5, 2n-2) of steps 4..6, criterion 4 the first equation
    # P4 = u''' - 3/2 u''^2/u' modulo span{1, u, u^2, u'}
    "cli_chain_kn": {"exit": 0,
                     "dords": {n: (2 * n - 5, 2 * n - 2) for n in (4, 5, 6)}},
    "cli_chain_liouville_iv_left": {"exit": 0},
    "cli_chain_nls_verify": {"exit": 0},
}


# ---------------------------------------------------------------------------
# the registry


def make_operands(workload, seed):
    """The seeded inputs; fixtures stay fixed."""
    rng = random.Random(seed)
    if workload == "poisson":
        def coefficient():
            return Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
        return {"combination": (coefficient(), coefficient(), coefficient())}
    if workload == "hierarchy":
        return {"identities": rng.getrandbits(64)}
    return {}


WORKLOADS = {
    "poisson": (poisson_ops, POISSON_ANSWERS),
    "ansatz": (ansatz_ops, ANSATZ_ANSWERS),
    "hierarchy": (hierarchy_ops, HIERARCHY_ANSWERS),
}


def build(workload, seed):
    """(ops, answers, operands) for one workload and seed."""
    make_ops, answers = WORKLOADS[workload]
    operands = make_operands(workload, seed)
    return make_ops(operands), dict(answers), operands
