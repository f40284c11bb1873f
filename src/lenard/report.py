"""Machine-readable reports and deterministic serialization.

Verdicts, chains and classification sweeps serialize to JSON with fixed
key order; every expression is printed in its canonical text form, so
identical configs produce byte-identical output (golden-file friendly).
"""

from __future__ import annotations

import json

from .chains import Chain
from .field import DFun
from .functional import LocalFunctional
from .grammar import fun_latex, fun_text


def _fmt(v, latex=False):
    if isinstance(v, DFun):
        return fun_latex(v) if latex else fun_text(v)
    if isinstance(v, LocalFunctional):
        inner = fun_latex(v.density) if latex else fun_text(v.density)
        return ("\\int " + inner) if latex else ("int(" + inner + ")")
    if isinstance(v, list):
        return [_fmt(x, latex) for x in v]
    return str(v)


def verdict_record(verdict, structure_id=""):
    rec = verdict.as_record()
    if structure_id:
        rec["structure"] = structure_id
    return rec


def step_record(step, latex=False):
    rec = {
        "n": step.index,
        "P": _fmt(step.P),
        "grad_h": _fmt(step.grad),
        "dords": [str(d) for d in step.dords()],
    }
    if latex:
        rec["P_latex"] = [fun_latex(c) for c in step.P]
        rec["grad_h_latex"] = [fun_latex(c) for c in step.grad]
    if step.h is not None:
        rec["h"] = _fmt(step.h)
        if latex:
            rec["h_latex"] = _fmt(step.h, latex=True)
    if step.witness_H is not None:
        rec["witness_H"] = [_fmt(w) for w in step.witness_H]
    if step.witness_K is not None:
        rec["witness_K"] = [_fmt(w) for w in step.witness_K]
    if step.free_constants:
        rec["free_constants"] = list(step.free_constants)
    return rec


def chain_record(chain: Chain, latex=False):
    rec = {
        "H": chain.H.name,
        "K": chain.K.name,
        "steps": [step_record(s, latex) for s in chain.steps],
        "status": status_record(chain.status),
    }
    if chain.left_steps or chain.left_status.kind != "extendable":
        rec["left_steps"] = [step_record(s, latex) for s in chain.left_steps]
        rec["left_status"] = status_record(chain.left_status)
    return rec


def status_record(status):
    rec = {"kind": status.kind}
    if status.direction:
        rec["direction"] = status.direction
    if status.index is not None:
        rec["index"] = status.index
    if status.reason:
        rec["reason"] = status.reason
    if status.blocked_field is not None:
        rec["nonlocal_field"] = str(status.blocked_field)
    if status.equation is not None:
        rec["equation"] = status.equation.text()
    return rec


def classification_record(table):
    return [{"a": list(a), "b": list(b), "class": cls} for a, b, cls in table]


def to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
