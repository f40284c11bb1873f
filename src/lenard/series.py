"""Series in the bracket variables, and the printed form of a bracket.

A series in one bracket variable is a ScalarPsdOp read as a symbol, and
its arithmetic is composition.  LambdaSeries adds only the printed form of
a lambda-bracket, (c) l^p + ... [floor f].  BiSeries: a series in two
variables, used as the common comparison domain for the Jacobi identity.
"""

from __future__ import annotations

from .operators import ScalarPsdOp, _accumulate, _jf


class LambdaSeries(ScalarPsdOp):
    """A lambda-bracket {f_l g} as brackets.lambda_bracket returns it."""

    __slots__ = ()

    def __str__(self):
        if not self.coeffs:
            return "0"
        s = " + ".join("(%s) l^%d" % (self.coeffs[p], p)
                       for p in sorted(self.coeffs, reverse=True))
        return s if self.floor is None else s + "  [floor %d]" % self.floor

    __repr__ = __str__


class BiSeries:
    """Series in two bracket variables, floors (lambda, mu)."""

    __slots__ = ("ctx", "coeffs", "floors")

    def __init__(self, ctx, coeffs, floors):
        self.ctx = ctx
        fl, fm = floors
        self.coeffs = {pq: c for pq, c in coeffs.items() if not c.is_zero()
                       and (fl is None or pq[0] >= fl) and (fm is None or pq[1] >= fm)}
        self.floors = floors

    @classmethod
    def zero(cls, ctx, floors):
        return cls(ctx, {}, floors)

    def join_floors(self, other):
        a, b = self.floors, other.floors
        return (_jf(a[0], b[0]), _jf(a[1], b[1]))

    def __add__(self, other):
        out = dict(self.coeffs)
        for pq, c in other.coeffs.items():
            _accumulate(out, pq, c)
        return BiSeries(self.ctx, out, self.join_floors(other))

    def __neg__(self):
        return BiSeries(self.ctx, {pq: -c for pq, c in self.coeffs.items()}, self.floors)

    def __sub__(self, other):
        return self + (-other)

    def nonzero_witness(self, floors):
        """A ((lpow, mpow), coefficient) surviving above the floors, or None."""
        fl, fm = floors
        for (p, q), c in sorted(self.coeffs.items(), reverse=True):
            if p >= fl and q >= fm and not c.is_zero():
                return (p, q), c
        return None

    def accurate_at(self, floors):
        fl, fm = floors
        ok_l = self.floors[0] is None or self.floors[0] <= fl
        ok_m = self.floors[1] is None or self.floors[1] <= fm
        return ok_l and ok_m

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (p, q) in sorted(self.coeffs, reverse=True):
            parts.append("(%s) l^%d m^%d" % (self.coeffs[(p, q)], p, q))
        return " + ".join(parts)

    __repr__ = __str__
