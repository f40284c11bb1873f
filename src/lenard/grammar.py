"""Shared expression grammar: parsing and printing.

One tokenizer feeds two recursive-descent parsers:

* function expressions -- identifiers (generators, x, named constants),
  derivative marks u', u'', u^(n), exp(...), sqrt(...), rationals,
  + - * / and integer ^ powers;
* operator expressions -- D = d/dx, D^k (k possibly negative), composition
  by juxtaposition or *, + and -, scalar function literals (a parenthesized
  one with an integer ^ power), matrix literals [[...],[...]], frac(A, B)
  and chain((A1,B1),(A2,B2),...).

Printing is canonical: fixed monomial order, deterministic parenthesation,
so printed forms are stable golden-test keys.  parse(print(e)) == e.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction as Q
from functools import lru_cache

from .errors import ExponentOverflow, ParseError
from .field import DFun, EXP_LIMIT, ONE_MONO, mono_items
from .jacobi import AtomChain, AtomStructure, entry_chain
from .operators import OperatorSum, RationalOpPair

# ---------------------------------------------------------------------------
# printing


def _var_text(ctx, vid, latex=False):
    key = ctx.var_key(vid)
    if key[0] == "u":
        _, i, n = key
        name = ctx.gen_names[i]
        if n == 0:
            return name
        if n <= 3:
            return name + "'" * n
        return "%s^(%d)" % (name, n) if not latex else "%s^{(%d)}" % (name, n)
    if key[0] == "s":
        kind, arg = ctx.sym_expr[vid]
        inner = fun_latex(arg) if latex else fun_text(arg)
        if kind == "exp":
            return ("e^{%s}" % inner) if latex else "exp(%s)" % inner
        return ("\\sqrt{%s}" % inner) if latex else "sqrt(%s)" % inner
    return ctx.var_name(vid)


def _mono_text(ctx, mono, latex=False):
    parts = []
    for v, e in sorted(mono_items(mono), key=lambda ve: ctx._rank[ve[0]]):
        base = _var_text(ctx, v, latex)
        need_paren = not latex and ("(" in base or "'" in base) and e != 1
        if e == 1:
            parts.append(base)
        elif latex:
            parts.append("%s^{%d}" % ("{%s}" % base if "^" in base else base, e))
        else:
            parts.append("%s^%d" % ("(%s)" % base if need_paren else base, e))
    return "*".join(parts) if not latex else " ".join(parts)


def _coeff_text(q: Q, latex=False):
    if q.denominator == 1:
        return str(q.numerator)
    if latex:
        sign = "-" if q < 0 else ""
        return "%s\\frac{%d}{%d}" % (sign, abs(q.numerator), q.denominator)
    return "%d/%d" % (q.numerator, q.denominator)


def _poly_text(ctx, poly, latex=False):
    if not poly:
        return "0"
    terms = sorted(poly.items(), key=lambda t: ctx.mono_sortkey(t[0]))
    out = []
    for mono, c in terms:
        mt = _mono_text(ctx, mono, latex)
        if mono == ONE_MONO:
            piece = _coeff_text(c, latex)
        elif c == 1:
            piece = mt
        elif c == -1:
            piece = "-" + mt
        else:
            piece = _coeff_text(c, latex) + ("*" if not latex else " ") + mt
        if out and not piece.startswith("-"):
            out.append("+")
        out.append(piece)
    return (" ".join(out)) if latex else "".join(out)


def fun_text(f: DFun) -> str:
    num = _poly_text(f.ctx, f.num)
    if not f.den:
        return num
    dparts = []
    for fac, e in f.den:
        base = _poly_text(f.ctx, fac)
        if len(fac) > 1 or e != 1:
            if len(fac) > 1:
                base = "(%s)" % base
            elif "*" in base or "+" in base or "/" in base:
                base = "(%s)" % base
        if len(fac) == 1 and ("'" in base or "(" in base) and e != 1:
            base = "(%s)" % base
        dparts.append(base if e == 1 else "%s^%d" % (base, e))
    den = "*".join(dparts)
    if len(f.num) > 1:
        num = "(%s)" % num
    if len(dparts) > 1 or len(f.den[0][0]) > 1 or f.den[0][1] != 1:
        den = "(%s)" % den if len(dparts) > 1 else den
    return "%s/%s" % (num, den)


def fun_latex(f: DFun) -> str:
    num = _poly_text(f.ctx, f.num, latex=True)
    if not f.den:
        return num
    dparts = []
    for fac, e in f.den:
        base = _poly_text(f.ctx, fac, latex=True)
        if len(fac) > 1:
            base = "\\left(%s\\right)" % base
        dparts.append(base if e == 1 else "%s^{%d}" % (base, e))
    return "\\frac{%s}{%s}" % (num, " ".join(dparts))


def vec_text(F):
    return "(" + ", ".join(fun_text(f) for f in F) + ")"


def vec_latex(F):
    return "\\begin{pmatrix}" + " \\\\ ".join(fun_latex(f) for f in F) + "\\end{pmatrix}"


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<primes>'+)
  | (?P<op>\^|\*|/|\+|-|\(|\)|\[|\]|,)
  | (?P<ws>\s+)
""", re.VERBOSE)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.text)


def tokenize(src):
    toks = []
    line, col = 1, 0
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError("unexpected character %r" % src[pos], line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n") - 1
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _ScalarStop(Exception):
    """Internal: a scalar literal ran into an operator keyword."""


def _digit_limit():
    """Python's int-to-str digit limit, or its default where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@lru_cache(maxsize=4)
def _digit_bound(limit):
    """The least integer with more than `limit` digits."""
    return 10 ** limit


class _Parser:
    def __init__(self, ctx, toks):
        self.ctx = ctx
        self.toks = toks
        self.i = 0
        self._opmode = False

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise ParseError("expected %r, got %r" % (text, t.text), t.line, t.col)
        return t

    def error(self, msg):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- function expressions ------------------------------------------------

    def parse_fun(self):
        f = self.fun_sum()
        return f

    def fun_sum(self):
        t = self.peek()
        neg = False
        if t.text in ("+", "-"):
            self.next()
            neg = t.text == "-"
        f = self.fun_term()
        if neg:
            f = -f
        while self.peek().text in ("+", "-"):
            op = self.next().text
            g = self.fun_term()
            f = f - g if op == "-" else f + g
        return f

    def fun_term(self):
        f = self.fun_power()
        while True:
            t = self.peek()
            if t.text in ("*", "/"):
                save = self.i
                self.next()
                try:
                    g = self.fun_power()
                except _ScalarStop:
                    self.i = save
                    return f
                f = f * g if t.text == "*" else f / g
                self.printable(f, "product", t)
            elif t.kind in ("name", "num") or t.text == "(":
                # juxtaposition; in operator mode "(" starts a composition instead
                if self._opmode and (t.text == "(" or
                                     (t.kind == "name" and t.text in ("D", "frac", "chain"))):
                    return f
                save = self.i
                try:
                    g = self.fun_power()
                except _ScalarStop:
                    self.i = save
                    return f
                f = f * g
                self.printable(f, "product", t)
            else:
                return f

    def exponent(self):
        """The signed integer after a '^', with its number token; its size
        must lie inside the exponent field."""
        self.expect("^")
        neg = self.peek().text == "-"
        if neg:
            self.next()
        t = self.next()
        if t.kind != "num":
            raise ParseError("integer exponent expected", t.line, t.col)
        # the length test keeps int() off digit strings Python will not read
        short = len(t.text.lstrip("0")) <= len(str(EXP_LIMIT))
        k = int(t.text) if short else EXP_LIMIT
        if k >= EXP_LIMIT:
            raise ParseError("exponent %s leaves the exponent field" % t.text,
                             t.line, t.col)
        return (-k if neg else k), t

    def power(self, base: DFun):
        """base ** k for the exponent that follows.  A base of one term, with
        no relation variable, whose coefficient's power would have more
        digits than Python prints is refused before the integer is built;
        any other power, once made."""
        k, t = self.exponent()
        limit = _digit_limit()
        if len(base.num) == 1 and not base.has_relation_vars():
            (c,) = base.num.values()
            top = max(abs(c.numerator), c.denominator)
            if top > 1 and abs(k) * math.log10(top) >= limit:
                constant = not base.den and set(base.num) == {ONE_MONO}
                raise ParseError("power %s %s more than %d digits"
                                 % (t.text, "of a constant has" if constant
                                    else "has a coefficient of", limit), t.line, t.col)
        try:
            out = base ** k
        except ExponentOverflow as e:
            raise ParseError(str(e), t.line, t.col) from None
        self.printable(out, "power %s" % t.text, t)
        return out

    @staticmethod
    def printable(f: DFun, what, t):
        """Refuse f, made by `what` at token t, when a coefficient of it has
        more digits than Python prints."""
        limit = _digit_limit()
        bound = _digit_bound(limit)
        for poly in [f.num] + [g for g, _ in f.den]:
            for c in poly.values():
                if abs(c.numerator) >= bound or c.denominator >= bound:
                    raise ParseError("%s has a coefficient of more than %d digits"
                                     % (what, limit), t.line, t.col)

    def fun_power(self):
        base = self.fun_atom()
        return self.power(base) if self.peek().text == "^" else base

    def fun_atom(self):
        ctx = self.ctx
        t = self.next()
        if t.text == "(":
            f = self.fun_sum()
            self.expect(")")
            return f
        if t.kind == "num":
            return ctx.const(int(t.text))
        if t.kind == "name":
            name = t.text
            if self._opmode and name in ("D", "frac", "chain"):
                raise _ScalarStop()
            if name == "exp" and self.peek().text == "(":
                self.next()
                arg = self.fun_sum()
                self.expect(")")
                return _resolve_exp(ctx, arg, t)
            if name == "sqrt" and self.peek().text == "(":
                self.next()
                arg = self.fun_sum()
                self.expect(")")
                return ctx.adjoin_sqrt(arg)
            if name == "x":
                return ctx.x()
            if name in ctx.gen_names:
                i = ctx.gen_names.index(name)
                n = 0
                if self.peek().kind == "primes":
                    n = len(self.next().text)
                elif self.peek().text == "^" and self.toks[self.i + 1].text == "(":
                    self.next(); self.next()
                    tn = self.next()
                    if tn.kind != "num":
                        raise ParseError("derivative order expected", tn.line, tn.col)
                    n = int(tn.text)
                    self.expect(")")
                return ctx.gen(i, n)
            # named constant (parameter)
            return ctx.param(name)
        raise ParseError("unexpected token %r" % t.text, t.line, t.col)

    # -- operator expressions -------------------------------------------------
    # parsed lazily into atom chains: no nonlocal composition is expanded

    def parse_op(self):
        """A structure on the context's l generators: a matrix operator must
        come out l x l, and a frac or chain must fit together to one."""
        ell = self.ctx.ell
        t = self.peek()
        if not (t.kind == "name" and t.text in ("frac", "chain")):
            terms, shape = self.op_sum()
            if shape not in (None, (ell, ell)):
                self.error(_SIZE_ERROR % (_shape_text(shape), ell, ell))
            return OperatorSum([(c, AtomStructure(ch))
                                for c, ch in (terms if shape else _diagonal(terms, ell))])
        self.next()
        if t.text == "frac":
            pairs = [self._op_pair()]
        else:
            self.expect("(")
            pairs = [self._op_pair()]
            while self.peek().text == ",":
                self.next()
                pairs.append(self._op_pair())
            self.expect(")")
        cols = ell
        for a, b in pairs:
            if b.rows != b.cols:
                self.error("denominator %s is %dx%d, not square" % (b, b.rows, b.cols))
            if (a.rows, a.cols) != (cols, b.rows):
                self.error("numerator %s is %dx%d, but %dx%d is needed"
                           % (a, a.rows, a.cols, cols, b.rows))
            cols = b.cols
        if cols != ell:
            self.error(_SIZE_ERROR % ("%dx%d" % (ell, cols), ell, ell))
        return RationalOpPair(pairs)

    def _op_pair(self):
        """(A, B) of exact matrix differential operators."""
        self.expect("(")
        pair = []
        for sep in (",", ")"):
            t = self.peek()
            terms, shape = self.op_sum()
            if any(kind == "d" and data < 0 for _, ch in terms for kind, data in ch.atoms):
                raise ParseError("frac and chain take differential operators, "
                                 "without D^-k", t.line, t.col)
            if shape is None:
                terms = _diagonal(terms, self.ctx.ell)
            ops = [ch.scaled(c).to_operator() for c, ch in terms]
            pair.append(sum(ops[1:], ops[0]))
            self.expect(sep)
        return tuple(pair)

    def op_sum(self):
        """(summands, shape): a list of (constant coefficient, AtomChain) and
        the operator's (rows, cols), or None for a scalar expression, which
        acts diagonally in whatever dimension it meets."""
        t = self.peek()
        sign = 1
        if t.text in ("+", "-"):
            self.next()
            sign = -1 if t.text == "-" else 1
        a, shape = self.op_compose()
        if sign < 0:
            a = [(-c, ch) for c, ch in a]
        while self.peek().text in ("+", "-"):
            tok = self.next()
            b, bshape = self.op_compose()
            if tok.text == "-":
                b = [(-c, ch) for c, ch in b]
            if shape != bshape:
                square = shape or bshape
                if shape and bshape or square[0] != square[1]:
                    raise ParseError("cannot add %s and %s operators"
                                     % (_shape_text(shape), _shape_text(bshape)),
                                     tok.line, tok.col)
                a, b, shape = _diagonal(a, square[0]), _diagonal(b, square[0]), square
            a = a + b
        return a, shape

    def op_compose(self):
        a = self.op_atom()
        while True:
            t = self.peek()
            if t.text == "*":
                self.next()
            elif not (t.kind in ("name", "num") or t.text in ("(", "[")):
                return a
            a = self._compose(a, self.op_atom())

    def _compose(self, a, b):
        """a o b; a scalar factor takes the dimension of the matrix it meets."""
        (ta, sa), (tb, sb) = a, b
        if sa and sb and sa[1] != sb[0]:
            self.error("cannot compose %s and %s operators"
                       % (_shape_text(sa), _shape_text(sb)))
        if sa is None and sb:
            ta = _diagonal(ta, sb[0])
        if sb is None and sa:
            tb = _diagonal(tb, sa[1])
        out = [(c1 * c2, AtomChain(self.ctx, ch1.atoms + ch2.atoms, ch1.ell))
               for c1, ch1 in ta for c2, ch2 in tb]
        return out, sb if sa is None else sa if sb is None else (sa[0], sb[1])

    def op_atom(self):
        ctx = self.ctx
        t = self.peek()
        if t.text == "[":
            return self.op_matrix()
        if t.text == "(":
            self.next()
            a = self.op_sum()
            self.expect(")")
            if self.peek().text != "^":
                return a
            terms, shape = a
            if shape or any(kind != "mult" for _, ch in terms for kind, _ in ch.atoms):
                self.error("only a scalar function may take a power")
            f = ctx.zero()
            for c, ch in terms:
                for _, data in ch.atoms:
                    c = c * data[0][0]
                f = f + c
            return [(ctx.one(), AtomChain(ctx, [("mult", [[self.power(f)]])], 1))], None
        if t.kind == "name" and t.text in ("frac", "chain"):
            raise ParseError("%s(...) must be the whole operator" % t.text,
                             t.line, t.col)
        if t.kind == "name" and t.text == "D":
            self.next()
            k = self.exponent()[0] if self.peek().text == "^" else 1
            return [(ctx.one(), AtomChain(ctx, [("d", k)], 1))], None
        # a scalar function literal (multiplication operator)
        self._opmode = True
        try:
            f = self.fun_term()
        finally:
            self._opmode = False
        return [(ctx.one(), AtomChain(ctx, [("mult", [[f]])], 1))], None

    def op_matrix(self):
        ctx = self.ctx
        self.expect("[")
        rows = []
        while True:
            self.expect("[")
            row = [self.op_sum()]
            while self.peek().text == ",":
                self.next()
                row.append(self.op_sum())
            self.expect("]")
            rows.append(row)
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect("]")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            self.error("ragged matrix literal")
        if any(shape for r in rows for _, shape in r):
            self.error("a matrix literal's entries must be scalar operators")
        ell = len(rows)
        out = [(coeff, entry_chain(ctx, ell, width, i, j, chain.atoms))
               for i in range(ell) for j in range(width)
               for coeff, chain in rows[i][j][0]]
        return out, (ell, width)


_SIZE_ERROR = "the operator is %s, not %dx%d (a row and a column per generator)"


def _shape_text(shape):
    return "%dx%d" % shape if shape else "scalar"


def _diagonal(terms, n):
    """Scalar summands acting diagonally on n components."""
    return [(c, ch.diagonalized(n)) for c, ch in terms]


def _resolve_exp(ctx, arg: DFun, tok):
    """Recognize exp arguments of catalog shape c*x or c*u_i."""
    x = ctx.x()
    dx = arg._formal_partial(ctx.x_id)
    if not dx.is_zero():
        if dx.is_constant() and (arg - dx * x).is_zero():
            return ctx.adjoin_exp_x(dx)
        raise ParseError("exp argument must be c*x or c*u_i", tok.line, tok.col)
    for i in range(ctx.ell):
        du = arg.partial(i, 0)
        if not du.is_zero():
            if du.is_constant() and (arg - du * ctx.gen(i, 0)).is_zero():
                return ctx.adjoin_exp_u(du, i)
            raise ParseError("exp argument must be c*x or c*u_i", tok.line, tok.col)
    raise ParseError("exp argument must be c*x or c*u_i", tok.line, tok.col)


def parse_function(ctx, src) -> DFun:
    p = _Parser(ctx, tokenize(src))
    f = p.parse_fun()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError("trailing input %r" % t.text, t.line, t.col)
    return f


def parse_operator(ctx, src):
    p = _Parser(ctx, tokenize(src))
    a = p.parse_op()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError("trailing input %r" % t.text, t.line, t.col)
    return a
