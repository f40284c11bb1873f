"""Traced passes: per-layer spans recorded from outside the program.

The tracer wraps the public functions of each lenard layer, including the
aliases other modules bound at import, for the duration of one traced pass
and restores the originals afterwards, so untraced passes run the program
untouched.  Spans are kept in memory; a layer's self time is its span's
duration minus the time of the spans it opened.  Each op is a root span
whose self time is the part no layer accounts for (the benchmark's own
code), so the self times of all spans add up to the traced pass time.
"""

import functools
import json
import os
import statistics
import sys
import time
from array import array

from lenard import (brackets, chains, cli, field, functional, grammar, jacobi,
                    liouville, operators, presets, report, series, solve)
from lenard.errors import Undecidable

perf = time.perf_counter

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")
_SERIES_DUNDERS = ("__add__", "__sub__", "__neg__")


def _public_methods(cls):
    return [a for a in vars(cls)
            if (not a.startswith("_") or a in _SERIES_DUNDERS)
            and callable(getattr(cls, a))]


# span name -> [(owner, attribute)], with owner a class or a module
TARGETS = {
    "field.arith": [(field.DFun, a) for a in _ARITH],
    "field.total_derivative": [(field.DFun, "total_derivative")],
    "operators.compose": [(operators.ScalarPsdOp, "compose"),
                          (operators.MatrixPsdOp, "compose")],
    "operators.inverse": [(operators.ScalarPsdOp, "inverse"),
                          (operators.MatrixPsdOp, "inverse")],
    "operators.expand": [(operators.RationalOpPair, "expand"),
                         (operators._AdjointChain, "expand")],
    "operators.verify_fraction": [(operators, "verify_fraction")],
    "series": [(cls, a) for cls in (series.LambdaSeries, series.BiSeries)
               for a in _public_methods(cls)],
    "jacobi.t1": [(jacobi.JacobiEngine, "t1_matrix")],
    "jacobi.t2": [(jacobi.JacobiEngine, "t2_grid")],
    "jacobi.t3": [(jacobi.JacobiEngine, "t3_grid")],
    "jacobi.jacobiator": [(jacobi.JacobiEngine, "jacobiator")],
    "jacobi.chain_apply": [(jacobi.AtomChain, "apply"),
                           (jacobi.SumChain, "apply")],
    "solve": [(solve, "solve_operator_equation")],
    "solve.linear_solve": [(solve, "linear_solve")],
    "brackets.lambda_bracket": [(brackets, "lambda_bracket"),
                                (brackets, "master_bracket")],
    "brackets.check": [(brackets, "check_skewadjoint"),
                       (brackets, "check_jacobi"),
                       (brackets, "check_compatible")],
    "chains.extend": [(chains, "extend_right"), (chains, "extend_left")],
    "chains.verify": [(chains.Chain, "verify"), (chains, "verify_association")],
    "functional.antiderivative": [(functional, "antiderivative")],
    "liouville.closed_form": [(liouville, "closed_form_family")],
    "liouville.empirical": [(liouville, "empirical_class")],
    "presets.load": [(presets, n) for n in ("load_preset", "load_kn",
                                            "load_kn0", "load_nls",
                                            "load_liouville")],
    "grammar.parse": [(grammar, "parse_function"),
                      (grammar, "parse_operator")],
    "grammar.print": [(grammar, n) for n in ("fun_text", "fun_latex",
                                             "vec_text", "vec_latex")],
    "report": [(report, n) for n in ("verdict_record", "step_record",
                                     "chain_record", "status_record",
                                     "classification_record", "to_json")],
    "cli": [(cli, "main")],
}

# spans not recorded while a span of the same name is innermost
OUTERMOST = {"field.arith", "presets.load", "brackets.check", "chains.verify",
             "report"}

OP = "op"


def _terms(f):
    return len(f.num) + sum(len(p) for p, _ in f.den)


class Tracer:
    def __init__(self):
        self.names = [OP] + sorted(TARGETS)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.saved = []          # (owner, attribute, original) while installed
        self.active = False
        self.pass_metrics = []   # one dict per traced pass
        self.problems = []

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every target and every alias of it inside lenard."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "lenard" or n.startswith("lenard."))]
        for name, targets in TARGETS.items():
            for owner, attr in targets:
                raw = vars(owner)[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, fn)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self.saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                if isinstance(owner, type):
                    continue
                for mod in mods:
                    for alias, value in list(vars(mod).items()):
                        if value is fn and mod is not owner:
                            self.saved.append((mod, alias, value))
                            setattr(mod, alias, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved = []

    def _wrap(self, name, fn):
        tracer = self
        nid = self.ids[name]
        outermost = name in OUTERMOST
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (outermost and tracer.stack[-1][0] == nid):
                return fn(*args, **kwargs)
            info = before(args) if before else None
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close()
                tracer._raised(nid, e)
                raise
            tracer._close()
            if after:
                after(args, result, info)
            return result
        return wrapper

    # -- spans --------------------------------------------------------------

    def start_pass(self):
        self.install()
        n = len(self.names)
        self.count = [0] * n
        self.self_s = [0.0] * n
        self.outer_s = [0.0] * n     # inclusive time of outermost spans
        self.open_count = [0] * n
        self.extra = dict.fromkeys((
            "td_hits", "result_terms", "expand_misses", "inverse_in_expand",
            "linear_solve_in_solve_s", "basis", "rank", "solutions",
            "steps", "solves_in_extend", "solve_fallbacks", "undecidable"), 0)
        self.spans = {"name": array("i"), "parent": array("i"),
                      "start": array("d"), "end": array("d")}
        self.stack = []              # [name id, start, child time, span index, flag]
        self.op_names = []

    def begin_op(self, name):
        self.op_names.append(name)
        self.stack = [[self.ids[OP], 0.0, 0.0, self._reserve(self.ids[OP], -1),
                       False]]
        self.active = True

    def end_op(self, t0, t1):
        self.active = False
        if len(self.stack) != 1:
            self.problems.append("unbalanced spans inside an op")
        nid, _, child, idx, _ = self.stack.pop()
        self.spans["start"][idx], self.spans["end"][idx] = t0, t1
        self.count[nid] += 1
        self.self_s[nid] += (t1 - t0) - child
        self.outer_s[nid] += t1 - t0

    def _reserve(self, nid, parent):
        sp = self.spans
        sp["name"].append(nid)
        sp["parent"].append(parent)
        sp["start"].append(0.0)
        sp["end"].append(0.0)
        return len(sp["name"]) - 1

    def _open(self, nid):
        idx = self._reserve(nid, self.stack[-1][3])
        self.open_count[nid] += 1
        if nid == self.ids["solve"]:
            self._note_solve()
        elif (nid == self.ids["operators.inverse"]
              and self.stack[-1][0] == self.ids["operators.expand"]):
            self.extra["inverse_in_expand"] += 1
        self.stack.append([nid, perf(), 0.0, idx, False])

    def _close(self):
        end = perf()
        nid, start, child, idx, flag = self.stack.pop()
        dur = end - start
        self.spans["start"][idx], self.spans["end"][idx] = start, end
        self.stack[-1][2] += dur
        self.count[nid] += 1
        self.self_s[nid] += dur - child
        self.open_count[nid] -= 1
        if self.open_count[nid] == 0:
            self.outer_s[nid] += dur
        if nid == self.ids["solve.linear_solve"] and self.open_count[self.ids["solve"]]:
            self.extra["linear_solve_in_solve_s"] += dur
        elif nid == self.ids["functional.antiderivative"] and flag:
            self.extra["solve_fallbacks"] += 1

    def _note_solve(self):
        if self.open_count[self.ids["chains.extend"]]:
            self.extra["solves_in_extend"] += 1
        anti = self.ids["functional.antiderivative"]
        for entry in reversed(self.stack):
            if entry[0] == anti:
                entry[4] = True
                break

    def _raised(self, nid, exc):
        if (nid == self.ids["functional.antiderivative"]
                and isinstance(exc, Undecidable)):
            self.extra["undecidable"] += 1

    # -- hooks reading what a call did, from outside ---------------------------

    def _before_field_total_derivative(self, args):
        if args[0]._td is not None:
            self.extra["td_hits"] += 1

    def _after_field_arith(self, args, result, info):
        if isinstance(result, field.DFun):
            self.extra["result_terms"] += _terms(result)

    def _before_operators_expand(self, args):
        cache = getattr(args[0], "_cache", None)
        if cache is None or args[1] not in cache:
            self.extra["expand_misses"] += 1

    def _after_solve(self, args, result, info):
        self.extra["solutions"] += 1
        self.extra["basis"] += len(result.basis)
        self.extra["rank"] += len(result.basis) - len(result.kernel)

    def _before_chains_extend(self, args):
        return len(args[0].steps) + len(args[0].left_steps)

    def _after_chains_extend(self, args, result, before):
        self.extra["steps"] += len(args[0].steps) + len(args[0].left_steps) - before

    # -- per-pass metrics -------------------------------------------------------

    def finish_pass(self, pass_s):
        self.uninstall()
        total_self = sum(self.self_s)
        if abs(total_self - pass_s) > 1e-6 * max(1.0, pass_s):
            self.problems.append("span self times add up to %.6f s, traced "
                                 "pass took %.6f s" % (total_self, pass_s))
        ids, c, s, x = self.ids, self.count, self.self_s, self.extra

        def ratio(a, b):
            return a / b if b else 0.0

        def calls(name):
            return c[ids[name]]

        def secs(name):
            return s[ids[name]]

        m = {
            "field.arith.calls": calls("field.arith"),
            "field.arith.s": secs("field.arith"),
            "field.total_derivative.calls": calls("field.total_derivative"),
            "field.total_derivative.hit_ratio": ratio(
                x["td_hits"], calls("field.total_derivative")),
            "field.total_derivative.s": secs("field.total_derivative"),
            "field.result_terms.mean": ratio(x["result_terms"],
                                             calls("field.arith")),
            "operators.compose.calls": calls("operators.compose"),
            "operators.compose.s": secs("operators.compose"),
            "operators.inverse.calls": calls("operators.inverse"),
            "operators.inverse.s": secs("operators.inverse"),
            "operators.expand.calls": calls("operators.expand"),
            "operators.expand.s": secs("operators.expand"),
            "operators.inverse_per_expand": ratio(x["inverse_in_expand"],
                                                  x["expand_misses"]),
            "operators.verify_fraction.s": secs("operators.verify_fraction"),
            "series.calls": calls("series"),
            "series.s": secs("series"),
            "jacobi.t1.s": secs("jacobi.t1"),
            "jacobi.t2.s": secs("jacobi.t2"),
            "jacobi.t3.s": secs("jacobi.t3"),
            "jacobi.triples": calls("jacobi.jacobiator"),
            "jacobi.chain_apply.calls": calls("jacobi.chain_apply"),
            "jacobi.chain_apply.s": secs("jacobi.chain_apply"),
            "solve.calls": calls("solve"),
            "solve.basis.size": ratio(x["basis"], x["solutions"]),
            "solve.apply.s": self.outer_s[ids["solve"]]
            - x["linear_solve_in_solve_s"],
            "solve.linear_solve.s": self.outer_s[ids["solve.linear_solve"]],
            "solve.rank_ratio": ratio(x["rank"], x["basis"]),
            "brackets.lambda_bracket.calls": calls("brackets.lambda_bracket"),
            "brackets.lambda_bracket.s": secs("brackets.lambda_bracket"),
            "brackets.checks": calls("brackets.check"),
            "chains.steps": x["steps"],
            "chains.extend.s": secs("chains.extend"),
            "chains.verify.s": secs("chains.verify"),
            "chains.solves_per_step": ratio(x["solves_in_extend"], x["steps"]),
            "functional.antiderivative.calls": calls("functional.antiderivative"),
            "functional.antiderivative.s": secs("functional.antiderivative"),
            "functional.antiderivative.solve_fallbacks": x["solve_fallbacks"],
            "functional.undecidable": x["undecidable"],
            "liouville.closed_form.s": secs("liouville.closed_form"),
            "liouville.empirical.s": secs("liouville.empirical"),
            "presets.load.calls": calls("presets.load"),
            "presets.load.s": secs("presets.load"),
            "grammar.parse.s": secs("grammar.parse"),
            "grammar.print.s": secs("grammar.print"),
            "report.s": secs("report"),
            "cli.s": secs("cli"),
            "trace.remainder.s": secs(OP),
            "pass_s": pass_s,
        }
        self.pass_metrics.append(m)

    def metrics(self, untraced_pass_s):
        """(per-layer metrics as medians over traced passes, problems)."""
        out = {}
        for name in self.pass_metrics[0]:
            value = statistics.median(m[name] for m in self.pass_metrics)
            if name == "pass_s":
                out["trace.overhead_ratio"] = (value / untraced_pass_s, "1")
            else:
                out[name] = (value, unit_of(name))
        return out, list(self.problems)

    def write_spans(self, directory, workload, seed):
        """Write the last traced pass's spans; returns the header's path.

        The header (JSON) names the span kinds and the ops, in the order of
        their root spans; the .bin file beside it holds four arrays of
        `count` items each: name index and parent span index (int32), then
        start and end times in seconds (float64)."""
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, "spans-%s-seed%d" % (workload, seed))
        sp = self.spans
        with open(base + ".bin", "wb") as fh:
            for key in ("name", "parent", "start", "end"):
                sp[key].tofile(fh)
        with open(base + ".json", "w") as fh:
            json.dump({"names": self.names, "ops": self.op_names,
                       "count": len(sp["name"]),
                       "arrays": [["name", "i"], ["parent", "i"],
                                  ["start", "d"], ["end", "d"]]}, fh)
        return base + ".json"


def unit_of(name):
    if name.endswith(".s"):
        return "s"
    if name.endswith(("ratio", "_per_expand", "_per_step")):
        return "1"
    return "count"
