import random
from fractions import Fraction as Q

import pytest

from lenard.field import Context, DFun


@pytest.fixture
def ctx():
    return Context(("u",), ("b2", "b3"))


@pytest.fixture
def ctx2():
    return Context(("u", "v"), ("a2", "a3", "b3"))


def random_dfun(ctx, rng, max_dord=2, max_degree=2, terms=3,
                denominator=False, symbols=()):
    """A small random differential function with integer coefficients."""
    jets = [ctx.gen(i, n) for i in range(ctx.ell) for n in range(max_dord + 1)]
    jets.append(ctx.x())
    out = ctx.zero()
    for _ in range(rng.randint(1, terms)):
        term = ctx.const(rng.randint(-4, 4))
        for _ in range(rng.randint(0, max_degree)):
            term = term * rng.choice(jets)
        out = out + term
    for s in symbols:
        if rng.random() < 0.5:
            out = out + ctx.const(rng.randint(-3, 3)) * s
    if denominator and rng.random() < 0.5:
        out = out / ctx.u(1)
    if out.is_zero():
        out = ctx.u(0) + ctx.const(1)
    return out


@pytest.fixture
def rng():
    return random.Random(20260808)


def series_agree_to(a, b, floor):
    """a and b (series or operators in one variable: `coeffs` and `floor`)
    are both accurate at the floor and agree at every power from it up."""
    if any(s.floor is not None and s.floor > floor for s in (a, b)):
        return False
    zero = a.ctx.zero()
    return all((a.coeffs.get(p, zero) - b.coeffs.get(p, zero)).is_zero()
               for p in set(a.coeffs) | set(b.coeffs) if p >= floor)
