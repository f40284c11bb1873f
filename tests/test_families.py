"""Closed-form families, hodograph duality and the classification."""

import pytest

from lenard.errors import ParamDegenerate, Proportional
from lenard.field import Context
from lenard.liouville import (EMPIRICAL_PATTERNS, classification_table,
                              classify, closed_form_family,
                              double_factorial, empirical_class, family_exp,
                              family_sqrt, hodograph_dual, pq_recursion)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48


SYM = {"a2": None, "a3": None, "b2": None, "b3": None}


def test_sqrt_family_matches_first_equation():
    # n = 0 member equals the S-type closed form at a1 = 0
    ctx, seq = closed_form_family("sqrt", SYM, 0)
    a2, a3, b2, b3 = [ctx.param(t) for t in ("a2", "a3", "b2", "b3")]
    u1 = ctx.u(1)
    s = ctx.adjoin_sqrt(b2 + b3 * u1 ** 2)
    assert seq[0][0] == (a3 * b2 - a2 * b3) * u1 / s


def test_sqrt_family_verifies_to_five():
    closed_form_family("sqrt", SYM, 5)   # raises on any failed link


def test_odd_powers_family():
    ctx, seq = closed_form_family(
        "odd-powers", {"a2": None, "a3": None, "b2": None}, 5)
    a2, a3, b2 = [ctx.param(t) for t in ("a2", "a3", "b2")]
    u1 = ctx.u(1)
    # index 1 is the first hierarchy member: a2/b2 u' + a3/(2 b2) u'^3
    assert seq[1][0] == a2 / b2 * u1 + a3 / (2 * b2) * u1 ** 3


def test_inverse_powers_family():
    closed_form_family("inverse-powers", {"a2": None, "a3": None, "b3": None}, 5)


def test_exp_families():
    closed_form_family("exp-x", {"a1": None, "a2": None, "b1": None,
                                 "b2": None}, 4)
    closed_form_family("exp-u", {"a1": None, "a3": None, "b1": None,
                                 "b3": None}, 4)


def _exp_x_reference(ctx, a1, a2, b1, b2, n):
    """The t = x builder written out on its own, the reference for family_exp."""
    pairs, c = pq_recursion(ctx, a1, a2, b1, b2, n)
    E = ctx.adjoin_exp_x(c)
    u = ctx.gen(0, 0)
    x = ctx.x()
    out = []
    for p, q in pairs:
        pm = p.subs_var(ctx.x_id, -x)
        qm = q.subs_var(ctx.x_id, -x)
        qp = q._formal_partial(ctx.x_id)
        qpm = qp.subs_var(ctx.x_id, -x)
        P = p * E + pm / E
        h = ((qp + c * q) * E - (qpm + c * qm) / E) * u / b1
        F = (q * E + qm / E) / b1
        out.append((P, h, F))
    return out


def _exp_u_reference(ctx, a1, a3, b1, b3, n):
    """The t = u builder written out on its own, the reference for family_exp."""
    pairs, c = pq_recursion(ctx, a1, a3, b1, b3, n, in_u=True)
    E = ctx.adjoin_exp_u(c)
    uid = ctx.gen_var(0, 0)
    u = ctx.gen(0, 0)
    u1 = ctx.u(1)
    out = []
    for p, q in pairs:
        pm = p.subs_var(uid, -u)
        qm = q.subs_var(uid, -u)
        qp = q._formal_partial(uid)
        qpm = qp.subs_var(uid, -u)
        P = (p * E + pm / E) * u1
        grad = ((qp + c * q) * E - (qpm + c * qm) / E) / b1
        F = (q * E + qm / E) / b1
        out.append((P, grad, F))
    return out


@pytest.mark.parametrize("in_u", [False, True], ids=["x", "u"])
@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
def test_family_exp_matches_the_x_and_u_builders(in_u, numeric):
    names = ("a1", "a3", "b1", "b3") if in_u else ("a1", "a2", "b1", "b2")
    values = (-1, 16, -1, 4)   # sqrt(-bx/b1) = 2 is rational

    def rows(build):
        ctx = Context(("u",), () if numeric else tuple(sorted(names)))
        args = [ctx.const(v) if numeric else ctx.param(t) for t, v in zip(names, values)]
        ctx.u(1)
        return [[(f.key(), str(f)) for f in row] for row in build(ctx, *args)]

    for n in range(4):
        want = rows(lambda *a: (_exp_u_reference if in_u else _exp_x_reference)(*a, n))
        assert rows(lambda *a: family_exp(*a, n, in_u=in_u)) == want


def test_case6_families():
    ctx, seq = closed_form_family("case6a", {"a1": None, "a2": None,
                                             "b1": None}, 4)
    assert seq[0][0].is_one()
    ctx2, seq2 = closed_form_family("case6b", {"a1": None, "a3": None,
                                               "b1": None}, 4)
    assert seq2[0][0] == ctx2.u(1)


def test_family_rejects_degenerate_params():
    with pytest.raises(ParamDegenerate):
        closed_form_family("sqrt", {"a2": 1, "a3": 2, "b2": 2, "b3": 4}, 1)
    with pytest.raises(ParamDegenerate):
        closed_form_family("exp-x", {"a1": None, "a2": None, "b1": None,
                                     "b2": 0}, 1)


def test_hodograph_duality():
    # family (ix),(x) at n equals family (v),(vii) at n under u <-> x with
    # (a2,b2) <-> (a3,b3), for n <= 4
    ctxh, seqh = closed_form_family(
        "odd-powers", {"a2": None, "a3": None, "b2": None}, 4, verify=False)
    ctxi, seqi = closed_form_family(
        "inverse-powers", {"a2": None, "a3": None, "b3": None}, 4, verify=False)
    for k in range(5):
        Ph = seqh[k][0].bind_params({"a2": 3, "a3": 5, "b2": 7})
        Pi = seqi[k][0].bind_params({"a3": 3, "a2": 5, "b3": 7})
        assert str(hodograph_dual(ctxh, Ph)) == str(Pi)


def test_classification_spec_examples():
    assert classify((True, True, True), (False, True, True)) == "S-type"
    assert classify((False, False, True), (False, True, False)) == "C1-type"
    assert classify((False, True, True), (True, True, True)) == "finite"
    assert classify((True, False, False), (False, True, True)) == "S-type"


def test_classification_proportional():
    with pytest.raises(Proportional):
        classify((True, False, False), (True, False, False))


def test_classification_table_complete():
    table = classification_table()
    assert len(table) == 64
    classes = {cls for _, _, cls in table}
    assert classes == {"S-type", "C1-type", "C2-type", "finite", "blocked",
                       "proportional"}
    # every paper case appears
    counts = {}
    for _, _, cls in table:
        counts[cls] = counts.get(cls, 0) + 1
    assert counts["S-type"] == 8
    assert counts["C1-type"] == 7
    assert counts["C2-type"] == 10
    assert counts["blocked"] == 10


@pytest.mark.parametrize("pattern", sorted(EMPIRICAL_PATTERNS),
                         ids=[EMPIRICAL_PATTERNS[k][1]
                              for k in sorted(EMPIRICAL_PATTERNS)])
def test_empirical_agrees_with_table(pattern):
    a, b = pattern
    expected, _ = EMPIRICAL_PATTERNS[pattern]
    assert classify(tuple(map(bool, a)), tuple(map(bool, b))) == expected
    assert empirical_class(a, b) == expected
