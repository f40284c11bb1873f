"""Command-line interface.

Subcommands: check, chain, classify, export, presets.  Exit codes follow a
fixed contract: 0 = holds / expected outcome, 1 = mathematically negative
result (a witness is printed), 2 = inconclusive (truncation too shallow)
or unusable input, reported on stderr in one line.
Blocked or finite chain outcomes are data, not failures: exit 0.

A run is reproducible from its config: the same --config file (or flags)
produces byte-identical machine output.  The config format is a flat
key = value file, one per line, # comments; its keys are the flags of the
chosen command and any other key is rejected (grammar in
docs/config_grammar.ebnf).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .brackets import check_compatible, check_jacobi, check_skewadjoint
from .chains import extend_left, extend_right
from .errors import (InsufficientTruncation, LenardError, NothingToExport,
                     ParseError, Proportional, UnknownPreset)
from .field import Context
from .grammar import parse_operator
from .liouville import (EMPIRICAL_PATTERNS, classification_table, classify,
                        empirical_class)
from .operators import RationalOpPair, is_nondegenerate
from .presets import (expected_equations, liouville_spaces, load_preset, nls_k_solver,
                      nls_h_solver, nls_spaces, preset_ids)
from .report import (chain_record, classification_record, to_json,
                     verdict_record)
from .solve import AnsatzSpace

def read_config(path, default_command, commands):
    """The argv a config file stands for: its command, then one flag per key.

    A key is accepted exactly when the command has the flag --<key> (with _
    for -); "true"/"yes" switch a flag on."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as e:  # missing, a directory, not text
        raise LenardError("--config: cannot read %r: %s" % (path, e))
    entries = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key = value", lineno, 0)
        key, val = [s.strip() for s in line.split("=", 1)]
        entries.append((lineno, key, val))
    command = default_command
    for _, key, val in entries:
        if key == "command":
            command = val
    argv = [command]
    if command not in commands:
        return argv  # argparse names the unknown command
    for lineno, key, val in entries:
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        piece = [flag] if val in ("true", "yes") else [flag, val]
        action = commands[command]._option_string_actions.get(flag)
        if action is None or action.dest == "help":
            raise ParseError("unknown config key %r for %s: unrecognized "
                             "arguments: %s" % (key, command, " ".join(piece)),
                             lineno, 0)
        argv.extend(piece)
    return argv


# a name token of the expression grammar
_GENERATOR = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_PATTERN = re.compile(r"([ab])=\(([01]),([01]),([01])\),([ab])=\(([01]),([01]),([01])\)")


def _parse_pattern(text):
    # "b=(0,1,1),a=(1,0,0)"
    m = _PATTERN.fullmatch(text.replace(" ", ""))
    if m is None or m.group(1) == m.group(5):
        raise LenardError("--pattern: expected a=(x,x,x),b=(x,x,x) with 0/1 "
                          "entries, got %r" % text)
    g = m.groups()
    parts = {g[0]: tuple(int(t) for t in g[1:4]), g[4]: tuple(int(t) for t in g[5:8])}
    return parts["a"], parts["b"]


def _structure_from_args(args):
    if args.preset:
        pre = load_preset(args.preset)
        return pre, pre.extras.get("H_sum"), pre.extras.get("K_sum")
    if args.op:
        names = (args.generators or "u").split(",")
        if (len(set(names)) != len(names) or not all(
                _GENERATOR.fullmatch(n) and n not in ("x", "D", "frac", "chain")
                for n in names)):
            raise LenardError("--generators: expected distinct names of letters, "
                              "digits and _ (not x, D, frac or chain), got %r"
                              % args.generators)
        try:
            op = parse_operator(Context(tuple(names)), args.op)
        except ParseError as e:
            raise LenardError("--op: %s" % e)
        if isinstance(op, RationalOpPair):
            for _, b in op.pairs:
                if not is_nondegenerate(b):
                    raise LenardError("--op: denominator %s is not invertible" % b)
            if args.what == "jacobi":
                raise LenardError("--op: the Jacobi check needs an atom-chain "
                                  "operator, not the fraction %s" % op)
        return None, op, None
    raise LenardError("need --preset or --op")


def cmd_check(args):
    floor = args.floor if args.floor is not None else -8
    pre, H, K = _structure_from_args(args)
    what = args.what or "skew"
    out = []
    code = 0
    structures = []
    if what == "compat":
        if pre is not None and K is not None:
            structures = [("H", H), ("K", K)]
        else:
            raise LenardError("compat needs a preset with two structures")
    else:
        structures = [("H", H)] + ([("K", K)] if K is not None and pre else [])
    try:
        if what == "skew":
            for name, S in structures:
                v = check_skewadjoint(S, floor)
                out.append(verdict_record(v, name))
                code = max(code, 0 if v.holds else 1)
        elif what == "jacobi":
            for name, S in structures:
                v = check_skewadjoint(S, floor)
                out.append(verdict_record(v, name))
                if not v.holds:
                    code = 1
                    continue
                v = check_jacobi(S, (floor, floor))
                out.append(verdict_record(v, name))
                code = max(code, 0 if v.holds else 1)
        elif what == "compat":
            for name, S in structures:
                v = check_jacobi(S, (floor, floor))
                out.append(verdict_record(v, name))
                code = max(code, 0 if v.holds else 1)
            v = check_compatible(H, K, (floor, floor))
            out.append(verdict_record(v, "H+K"))
            code = max(code, 0 if v.holds else 1)
        else:
            raise LenardError("unknown check %r" % what)
    except InsufficientTruncation as e:
        out.append({"error": "inconclusive", "detail": str(e)})
        code = 2
    _emit(args, {"check": what, "floor": floor, "results": out})
    return code


def _preset_tooling(pre):
    """(spaceF, spaceG, k_solver, h_solver, den_kernel)."""
    pid = pre.id
    ctx = pre.ctx
    if pid.startswith("liouville"):
        b = pre.extras["b"]
        spF, spG = liouville_spaces(ctx, b[1], b[2])
        return spF, spG, None, None, None
    if pid == "kn":
        ker = [[f] for f in pre.extras["kernel_B"]]
        return None, None, None, None, ker
    if pid == "nls":
        spF, spG = nls_spaces(ctx)
        return spF, spG, nls_k_solver(pre), nls_h_solver(pre), None
    return None, None, None, None, None


# the parameters each preset binds from --params, as load_preset keywords
_PRESET_PARAMS = {"kn": {"a": "a_value"}}


def _parse_params(text, preset):
    """name=rational pieces, each a parameter the preset binds."""
    bound = _PRESET_PARAMS.get(preset, {})
    out = {}
    for piece in text.split(",") if text else ():
        if "=" not in piece:
            raise LenardError("--params: expected name=value, got %r" % piece)
        k, v = (t.strip() for t in piece.split("=", 1))
        if k not in bound:
            raise LenardError("--params: preset %r binds no parameter %r"
                              % (preset, k))
        try:
            out[bound[k]] = Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise LenardError("--params: %s=%s is not a rational number" % (k, v))
        if preset == "kn" and out[bound[k]] == 0:
            raise LenardError("--params: a = 0 is its own preset, use --preset kn0")
    return out


def _parse_ansatz(text):
    """The N,d,p solver bounds; missing trailing bounds are 0."""
    try:
        parts = [int(t) for t in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 3:
        raise LenardError("--ansatz: expected 1 to 3 comma-separated integers "
                          "N,d,p, got %r" % text)
    if min(parts) < 0:
        raise LenardError("--ansatz: bounds must not be negative, got %r" % text)
    return parts + [0] * (3 - len(parts))


def cmd_chain(args):
    if not args.preset:
        raise LenardError("chain needs --preset")
    kwargs = _parse_params(args.params, args.preset)
    bounds = _parse_ansatz(args.ansatz) if args.ansatz else None
    steps = args.steps if args.steps is not None else 1
    if steps < 0:
        raise LenardError("--steps: must not be negative, got %d" % steps)
    pre = load_preset(args.preset, **kwargs)
    spF, spG, ks, hs, ker = _preset_tooling(pre)
    if bounds is not None:
        spF = spG = AnsatzSpace(pre.ctx, *bounds)
    if args.verify_only:
        ok = pre.chain.verify()
        _emit(args, {"preset": pre.id, "verified": ok,
                     "chain": chain_record(pre.chain, latex=args.format == "latex")})
        return 0 if ok else 1
    if args.direction == "left":
        ctx = pre.ctx
        left_P = None
        if pre.id.startswith("liouville"):
            left_P = [ctx.u(1)]
        elif pre.id == "kn0":
            left_P = [ctx.one()]
        elif pre.id == "kn":
            u = ctx.u(0)
            left_P = [ctx.one() + u + u * u]
        spG_l = spG or AnsatzSpace(ctx, 1, 2, x_power=1)
        u1 = ctx.u(1)
        spF_l = spF or AnsatzSpace(ctx, max_dord=3, max_degree=5,
                                   denominators=[(u1, 3)], weight_max=3)
        extend_left(pre.chain, spG_l, spF_l, steps=steps, left_P=left_P)
    else:
        extend_right(pre.chain, spF, spG, steps=steps, k_solver=ks,
                     h_solver=hs, den_kernel=ker,
                     keep_constants=args.keep_constants)
    rec = chain_record(pre.chain, latex=args.format == "latex")
    _emit(args, {"preset": pre.id, "chain": rec})
    return 0


def cmd_classify(args):
    if args.pattern:
        a, b = _parse_pattern(args.pattern)
        try:
            cls = classify(tuple(bool(x) for x in a), tuple(bool(x) for x in b))
        except Proportional as e:
            _emit(args, {"error": "Proportional", "detail": str(e)})
            return 1
        rec = {"a": list(a), "b": list(b), "class": cls}
        if args.empirical:
            rec["empirical"] = empirical_class(a, b)
            if rec["empirical"] != cls:
                _emit(args, rec)
                return 1
        _emit(args, rec)
        return 0
    table = classification_record(classification_table())
    out = {"table": table}
    code = 0
    if args.empirical:
        emp = []
        for (a, b), (expected, strategy) in EMPIRICAL_PATTERNS.items():
            got = empirical_class(a, b)
            emp.append({"a": list(a), "b": list(b), "strategy": strategy,
                        "expected": expected, "empirical": got,
                        "agrees": got == expected})
            if got != expected:
                code = 1
        out["empirical"] = emp
    _emit(args, out)
    return code


def cmd_export(args):
    try:
        with open(args.session) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise NothingToExport("no session file %r" % args.session)
    except (OSError, ValueError) as e:  # a directory, unreadable, not JSON
        raise LenardError("--session: cannot read %r as JSON: %s" % (args.session, e))
    if data is not None and not isinstance(data, dict):
        raise LenardError("--session: %r does not hold a JSON object" % args.session)
    if not data:
        raise NothingToExport("session is empty")
    if args.target == "json":
        text = to_json(data)
    else:
        text = _latex_of(data)
    if args.out:
        _write("--out", args.out, text)
    else:
        print(text)
    return 0


def _write(flag, path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as e:
        raise LenardError("%s: cannot write %r: %s" % (flag, path, e))


def _latex_of(data):
    lines = ["% generated report"]

    def walk(obj, indent=0):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk_entry(k, obj[k], indent)
        elif isinstance(obj, list):
            for item in obj:
                walk(item, indent)
        else:
            lines.append("  " * indent + str(obj))

    def walk_entry(k, v, indent):
        if k.endswith("_latex"):
            if isinstance(v, list):
                for piece in v:
                    lines.append("$" + piece + "$")
            else:
                lines.append("$" + str(v) + "$")
        elif isinstance(v, (dict, list)):
            lines.append("  " * indent + "%% " + k)
            walk(v, indent + 1)
        else:
            lines.append("  " * indent + "%% %s: %s" % (k, v))

    walk(data)
    return "\n".join(lines)


def _emit(args, payload):
    text = to_json(payload)
    if args.session:
        _write("--session", args.session, text)
    if args.format == "text":
        _print_text(payload)
    else:
        print(text)


def _print_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(pad + k + ":")
                _print_text(v, indent + 1)
            else:
                print(pad + "%s: %s" % (k, v))
    elif isinstance(payload, list):
        for item in payload:
            _print_text(item, indent)
            if isinstance(item, dict):
                print(pad + "-")
    else:
        print(pad + str(payload))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lenard",
        description="Exact checks and Lenard-Magri recursion for non-local "
                    "Poisson structures.")
    ap.add_argument("--config", help="key = value config file")
    sub = ap.add_subparsers(dest="command")

    # each subcommand takes only the flags, and the values, it reads
    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--session", help="write the machine result here")

    pc = sub.add_parser("check", help="skewadjointness / Jacobi / compatibility")
    common(pc)
    pc.add_argument("--preset")
    pc.add_argument("--floor", type=int)
    pc.add_argument("--what", choices=("skew", "jacobi", "compat"))
    pc.add_argument("--op", help="operator expression to check")
    pc.add_argument("--generators", help="comma-separated generator names")

    pch = sub.add_parser("chain", help="run the Lenard-Magri recursion")
    common(pch, ("text", "latex", "json"))
    pch.add_argument("--preset")
    pch.add_argument("--ansatz", help="N,d,p bounds for the solver")
    pch.add_argument("--params", help="comma-separated k=v bindings")
    pch.add_argument("--direction", choices=("right", "left"), default="right")
    pch.add_argument("--steps", type=int)
    pch.add_argument("--verify-only", dest="verify_only", action="store_true")
    pch.add_argument("--keep-constants", dest="keep_constants",
                     action="store_true")

    pcl = sub.add_parser("classify", help="zero-pattern classification sweep")
    common(pcl)
    pcl.add_argument("--empirical", action="store_true")
    pcl.add_argument("--pattern", help='e.g. "b=(0,1,1),a=(1,0,0)"')

    pe = sub.add_parser("export", help="export a saved session")
    pe.add_argument("--session", required=True)
    pe.add_argument("--target", choices=("latex", "json"), default="json")
    pe.add_argument("--out")

    pp = sub.add_parser("presets", help="list presets / show expected equations")
    pp.add_argument("action", nargs="?", default="list",
                    choices=("list", "equations"))
    pp.add_argument("target", nargs="?", help="preset id for `equations`")
    ap.commands = sub.choices
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            args = ap.parse_args(read_config(args.config, args.command or "check",
                                             ap.commands))
        if args.command == "check":
            return cmd_check(args)
        if args.command == "chain":
            return cmd_chain(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "export":
            return cmd_export(args)
        if args.command == "presets":
            if args.action == "equations":
                if args.target is None:
                    raise LenardError("presets: equations needs a preset id")
                for line in expected_equations(args.target):
                    print(line)
                return 0
            if args.target is not None:
                raise LenardError("presets: list takes no preset id, got %r"
                                  % args.target)
            for pid in preset_ids():
                print(pid)
            return 0
        ap.print_help()
        return 0
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except InsufficientTruncation as e:
        print("inconclusive: %s" % e, file=sys.stderr)
        return 2
    except NothingToExport as e:
        print("nothing to export: %s" % e, file=sys.stderr)
        return 1
    except UnknownPreset as e:
        print("unknown preset: %s" % e, file=sys.stderr)
        return 2
    except LenardError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
