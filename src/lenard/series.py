"""Laurent series in the bracket variables.

LambdaSeries: a map power -> coefficient with an accuracy floor (None =
every stored coefficient list is complete).  BiSeries: the same in two
variables, used as the common comparison domain for the Jacobi identity.
"""

from __future__ import annotations

from typing import Dict, Optional

from .errors import InsufficientTruncation
from .field import DFun, NEG_INF
from .operators import _accumulate, _binomial_shift, _jf


class LambdaSeries:
    __slots__ = ("ctx", "coeffs", "floor")

    def __init__(self, ctx, coeffs: Dict[int, DFun], floor: Optional[int]):
        self.ctx = ctx
        self.coeffs = {p: c for p, c in coeffs.items()
                       if not c.is_zero() and (floor is None or p >= floor)}
        self.floor = floor

    @classmethod
    def zero(cls, ctx, floor=None):
        return cls(ctx, {}, floor)

    @classmethod
    def of_fun(cls, f: DFun):
        return cls(f.ctx, {0: f}, None)

    def is_zero(self):
        """No stored coefficient (the floor is not consulted)."""
        return not self.coeffs

    def top(self):
        return max(self.coeffs) if self.coeffs else NEG_INF

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            _accumulate(out, p, c)
        return LambdaSeries(self.ctx, out, _jf(self.floor, other.floor))

    def __mul__(self, q):
        """Product with a rational or a function, each coefficient times q
        (a mult atom's function times a suffix value)."""
        return LambdaSeries(self.ctx, {p: c * q for p, c in self.coeffs.items()},
                            self.floor)

    def shift_power(self, k):
        """Multiply by lambda^k."""
        fl = None if self.floor is None else self.floor + k
        return LambdaSeries(self.ctx, {p + k: c for p, c in self.coeffs.items()}, fl)

    def apply_shift(self, n, floor=None):
        """Apply (lambda + d)^n: binomial expansion with total derivatives
        acting on the coefficients.  Exact for n >= 0 without a floor; a
        negative n has an infinite tail and needs one."""
        if n < 0 and floor is None:
            raise InsufficientTruncation("negative shift needs a floor")
        out = _binomial_shift({n: self.ctx.one()}, self.coeffs, floor)
        fl = _jf(floor, None if self.floor is None else self.floor + max(n, 0))
        return LambdaSeries(self.ctx, out, fl)

    def truncate(self, floor):
        fl = _jf(self.floor, floor)
        return LambdaSeries(self.ctx, {p: c for p, c in self.coeffs.items() if p >= fl},
                            fl)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for p in sorted(self.coeffs, reverse=True):
            parts.append("(%s) l^%d" % (self.coeffs[p], p))
        s = " + ".join(parts)
        if self.floor is not None:
            s += "  [floor %d]" % self.floor
        return s

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
