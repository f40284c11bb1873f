"""Command-line interface: exit codes, determinism, exports, configs."""

import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenard.cli import main


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_check_skew_fails_on_d2():
    code, out = run_cli("check", "--op", "D^2", "--what", "skew")
    assert code == 1
    data = json.loads(out)
    assert data["results"][0]["verdict"] == "fails"
    assert "witness" in data["results"][0]


def test_check_skew_holds_on_d():
    code, out = run_cli("check", "--op", "D", "--what", "skew")
    assert code == 0


def test_check_jacobi_sokolov():
    code, out = run_cli("check", "--op", "u' D^-1 u'", "--what", "jacobi",
                        "--floor", "-6")
    assert code == 0
    data = json.loads(out)
    assert all(r["verdict"] == "holds-to-floor" for r in data["results"])


def test_check_jacobi_failure_witness():
    code, out = run_cli("check", "--op", "u' D + 1/2 u''", "--what", "jacobi",
                        "--floor", "-6")
    assert code == 1
    data = json.loads(out)
    assert any(r["verdict"] == "fails" and "witness" in r
               for r in data["results"])


def test_check_skew_d_inverse_u_d():
    # (D^-1 u D)* = D u D^-1, and with D^-1 a = a D^-1 - a' D^-2 + a'' D^-3 - ...
    #   D^-1 u D = u - D^-1 u' = u - u' D^-1 + u'' D^-2 - ...
    #   D u D^-1 = u + u' D^-1,
    # so H + H* = 2u + 0 D^-1 + u'' D^-2 + ...: the first witness is 2u at degree 0
    code, out = run_cli("check", "--op", "D^-1 u D", "--what", "skew",
                        "--floor", "-6")
    assert code == 1
    wit = json.loads(out)["results"][0]["witness"]
    assert wit == {"entry": "(0, 0)", "degree": "0", "coefficient": "2*u"}


def test_check_matrix_literals_around_a_scalar_inverse():
    # [[v],[-u]] D^-1 [[v,-u]]: D^-1 acts on the 1-dimensional middle
    code, out = run_cli("check", "--op", "[[v],[-u]] D^-1 [[v,-u]]",
                        "--generators", "u,v", "--what", "jacobi", "--floor", "-3")
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["verdict"] for r in results] == ["holds-to-floor"] * 2


def test_check_compat_kn0_checks_both_structures():
    code, out = run_cli("check", "--preset", "kn0", "--what", "compat",
                        "--floor", "-4")
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["structure"] for r in results] == ["H", "K", "H+K"]
    assert all(r["verdict"] == "holds-to-floor" for r in results)


def test_chain_verify_only():
    code, out = run_cli("chain", "--preset", "nls", "--steps", "0",
                        "--verify-only")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_chain_kn_one_step():
    code, out = run_cli("chain", "--preset", "kn", "--steps", "1")
    assert code == 0
    data = json.loads(out)
    steps = data["chain"]["steps"]
    assert steps[-1]["n"] == 4
    # P4 = u''' - 3/2 u''^2/u' modulo the documented free constants
    from fractions import Fraction as Q
    from lenard.presets import load_kn
    from lenard.grammar import parse_function
    from lenard.solve import in_span
    pre = load_kn()
    ctx = pre.ctx
    u, u1, u2, u3 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
    P4 = parse_function(ctx, steps[-1]["P"][0])
    core = u3 - Q(3, 2) * u2 ** 2 / u1
    assert in_span(ctx, [[ctx.one()], [u], [u * u], [u1]], [P4 - core])


def test_chain_left_blocked():
    code, out = run_cli("chain", "--preset", "liouville-iv",
                        "--direction", "left", "--steps", "2")
    assert code == 0
    data = json.loads(out)
    assert data["chain"]["left_status"]["kind"] == "blocked"
    assert "u_tx" in data["chain"]["left_status"]["equation"]


@pytest.mark.parametrize("case", ["v", "vi", "vii", "viii"])
def test_chain_left_without_k_link_witness_is_blocked(case):
    # the first K-link (C G = P, D G = 0) has no solution in the ansatz
    proc = subprocess.run([sys.executable, "-m", "lenard.cli", "chain", "--preset",
                           "liouville-" + case, "--direction", "left", "--steps", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "error:" not in proc.stderr
    status = json.loads(proc.stdout)["chain"]["left_status"]
    assert status["kind"] == "blocked" and status["index"] == -1
    assert status["reason"].startswith("no K-link witness: ")


def test_classify_pattern():
    code, out = run_cli("classify", "--pattern", "b=(0,1,1),a=(1,0,0)")
    assert code == 0
    assert json.loads(out)["class"] == "S-type"


def test_classify_proportional_error():
    code, out = run_cli("classify", "--pattern", "b=(1,0,0),a=(1,0,0)")
    assert code == 1
    assert json.loads(out)["error"] == "Proportional"


def test_classify_table():
    code, out = run_cli("classify")
    assert code == 0
    table = json.loads(out)["table"]
    assert len(table) == 64


def test_determinism():
    _, out1 = run_cli("classify")
    _, out2 = run_cli("classify")
    assert out1 == out2
    _, c1 = run_cli("chain", "--preset", "liouville-vii", "--steps", "1")
    _, c2 = run_cli("chain", "--preset", "liouville-vii", "--steps", "1")
    assert c1 == c2


def test_export_roundtrip(tmp_path):
    session = tmp_path / "session.json"
    code, _ = run_cli("chain", "--preset", "kn", "--steps", "1",
                      "--session", str(session))
    assert code == 0
    out_json = tmp_path / "out.json"
    code, _ = run_cli("export", "--session", str(session), "--target", "json",
                      "--out", str(out_json))
    assert code == 0
    data = json.loads(out_json.read_text())
    # re-import: parse every printed P back and compare canonical forms
    from lenard.field import Context
    from lenard.grammar import fun_text, parse_function
    from lenard.presets import load_kn
    pre = load_kn()
    ctx = pre.ctx
    for step in data["chain"]["steps"]:
        for text in step["P"]:
            f = parse_function(ctx, text)
            assert fun_text(f) == text


def test_export_latex(tmp_path):
    session = tmp_path / "session.json"
    run_cli("chain", "--preset", "kn", "--steps", "1", "--format", "latex",
            "--session", str(session))
    out_tex = tmp_path / "out.tex"
    code, _ = run_cli("export", "--session", str(session), "--target", "latex",
                      "--out", str(out_tex))
    assert code == 0
    text = out_tex.read_text()
    assert "u'''" in text and "\\frac" in text


def test_export_empty_session(tmp_path):
    session = tmp_path / "empty.json"
    session.write_text("{}")
    code, _ = run_cli("export", "--session", str(session))
    assert code == 1


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = classify\npattern = b=(0,1,1),a=(1,0,0)\n")
    code, out = run_cli("--config", str(cfg))
    assert code == 0
    assert json.loads(out)["class"] == "S-type"


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _ = run_cli("--config", str(cfg))
    assert code == 2


def test_config_keys_are_the_command_flags(tmp_path, capsys):
    # a prefix of a flag is not a key
    cfg = tmp_path / "prefix.cfg"
    cfg.write_text("command = chain\npreset = nls\nverify = true\n")
    assert run_cli("--config", str(cfg)) == (2, "")
    assert "unknown config key 'verify'" in capsys.readouterr().err


def test_config_export(tmp_path):
    session = tmp_path / "s.json"
    session.write_text(json.dumps({"check": "skew", "floor": -8}))
    out_tex = tmp_path / "out.tex"
    cfg = tmp_path / "export.cfg"
    cfg.write_text("command = export\nsession = %s\ntarget = latex\nout = %s\n"
                   % (session, out_tex))
    assert run_cli("--config", str(cfg)) == (0, "")
    assert out_tex.read_text().startswith("% generated report\n")


def test_config_keep_constants(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("command = chain\npreset = liouville-v\nsteps = 1\n"
                   "keep_constants = true\n")
    code, out = run_cli("--config", str(cfg))
    assert code == 0
    assert out == run_cli("chain", "--preset", "liouville-v", "--steps", "1",
                          "--keep-constants")[1]


def test_presets_list():
    code, out = run_cli("presets")
    assert code == 0
    assert "kn" in out.split() and "liouville-i" in out.split()


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "lenard.cli", "presets"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("argv", [
    ["classify", "--pattern", "b=(0,1)"],
    ["chain", "--preset", "liouville-v", "--ansatz", "x", "--steps", "1"],
    ["check", "--op", "frac(D,D^2)", "--what", "jacobi"],
])
def test_unexpected_errors_exit_2_without_traceback(argv):
    proc = subprocess.run([sys.executable, "-m", "lenard.cli"] + argv,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_an_exponent_beyond_the_exponent_field_is_a_parse_error():
    # it used to multiply u' into the power ~10^11 times; now the exponent
    # token is refused at once, while u'^40000 keeps its verdict
    proc = subprocess.run([sys.executable, "-m", "lenard.cli", "check", "--op",
                           "u'^99999999999 D^-1 u'", "--what", "skew"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: --op: exponent 99999999999 leaves the exponent "
                           "field (line 1, col 3)\n")
    # a power inside the field is taken by repeated squaring, so the product
    # that leaves the field is reached, and refused, at once
    proc = subprocess.run([sys.executable, "-m", "lenard.cli", "check", "--op",
                           "u'^1073741824*u'^1073741824 D^-1 u'", "--what", "skew"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: exponent 2147483648 leaves the 32-bit exponent field\n"
    code, out = run_cli("check", "--op", "u'^40000 D^-1 u'", "--what", "skew")
    assert code == 1
    assert json.loads(out)["results"][0]["verdict"] == "fails"


def _check_skew(op):
    return subprocess.run([sys.executable, "-m", "lenard.cli", "check", "--op", op,
                           "--what", "skew"], capture_output=True, text=True, timeout=10)


def test_a_parenthesized_function_takes_a_power_in_operator_mode():
    squared = _check_skew("(u'+1)^2 D^-1 (u'+1)^2")
    expanded = _check_skew("(u'^2+2*u'+1) D^-1 (u'^2+2*u'+1)")
    assert squared.returncode == expanded.returncode == 0
    assert squared.stdout == expanded.stdout
    assert json.loads(squared.stdout)["results"][0]["verdict"] == "holds-to-floor"
    # a group composed of multiplications is a scalar function too
    assert (_check_skew("(u' (u'+1))^2 D^-1 u'").stdout
            == _check_skew("(u'^2+u')^2 D^-1 u'").stdout)
    # only a scalar function may take the power
    proc = _check_skew("(D+u)^2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: --op: only a scalar function may take a power "
                           "(line 1, col 5)\n")


@pytest.mark.parametrize("op, message", [
    # 2^30000000 has more digits than Python prints; 2^1073741823 is refused
    # without building a 2^30-bit integer
    ("2^30000000 D^-1 u'", "power 30000000 of a constant has more than {limit} digits "
                           "(line 1, col 2)"),
    ("2^1073741823 D^-1 u'", "power 1073741823 of a constant has more than {limit} "
                             "digits (line 1, col 2)"),
    # D^k reads its exponent as a function power does
    ("D^99999999999 u'", "exponent 99999999999 leaves the exponent field (line 1, col 2)"),
    # a product of two printable powers, written with * or side by side
    ("2^14000*2^14000 D^-1 u'", "product has a coefficient of more than {limit} digits "
                                "(line 1, col 7)"),
    ("2^8000 2^8000 D^-1 u'", "product has a coefficient of more than {limit} digits "
                              "(line 1, col 7)"),
    # the power of a one-term base is refused before it is built, any other
    # once made
    ("(2*u')^1073741823 D^-1 u'", "power 1073741823 has a coefficient of more than "
                                  "{limit} digits (line 1, col 7)"),
    ("(u+10^3000)^2 D^-1 u'", "power 2 has a coefficient of more than {limit} digits "
                              "(line 1, col 12)"),
])
def test_an_exponent_too_large_to_use_is_a_parse_error(op, message):
    proc = _check_skew(op)
    assert (proc.returncode, proc.stdout) == (2, "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert proc.stderr == "error: --op: %s\n" % message.format(limit=limit)


def test_chain_kn_rational_param():
    code, out = run_cli("chain", "--preset", "kn", "--params", "a=3/2",
                        "--steps", "0", "--verify-only")
    assert code == 0
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize("argv, flag", [
    (["chain", "--preset", "kn", "--params", "a", "--steps", "0"], "--params"),
    (["chain", "--preset", "kn", "--params", "b=1", "--steps", "0"], "--params"),
    (["chain", "--preset", "nls", "--params", "a=1", "--steps", "0"], "--params"),
    (["chain", "--preset", "kn", "--params", "a=x", "--steps", "0"], "--params"),
    (["chain", "--preset", "kn", "--params", "a=1/0", "--steps", "0"], "--params"),
    (["chain", "--preset", "liouville-v", "--ansatz", "x", "--steps", "1"],
     "--ansatz"),
    (["chain", "--preset", "liouville-v", "--ansatz", "1,2,3,4", "--steps", "1"],
     "--ansatz"),
    (["classify", "--pattern", "b=(0,1)"], "--pattern"),
    (["classify", "--pattern", "b=(0,1,1)"], "--pattern"),
    (["classify", "--pattern", "a=(1,0),b=(0,1,1)"], "--pattern"),
    (["classify", "--pattern", "a=(1,0,0),a=(0,1,1)"], "--pattern"),
    (["classify", "--pattern", "a=(1,0,2),b=(0,1,1)"], "--pattern"),
    (["check", "--op", "frac(D,D^2)", "--what", "jacobi"], "--op"),
    (["check", "--op", "frac(D,0)", "--what", "skew"], "--op"),
    (["check", "--op", "[[D]]", "--generators", "u,v", "--what", "jacobi"], "--op"),
    (["check", "--op", "[[D],[D]]", "--what", "skew"], "--op"),
    (["check", "--op", "[[D],[D]]", "--what", "jacobi"], "--op"),
    (["check", "--op", "D", "--generators", ",", "--what", "skew"], "--generators"),
    (["check", "--op", "D", "--generators", "u,", "--what", "skew"], "--generators"),
    (["check", "--op", "D", "--generators", "u,u", "--what", "skew"], "--generators"),
    (["check", "--op", "x D x", "--generators", "x", "--what", "skew"], "--generators"),
    (["check", "--op", "D", "--generators", "u v", "--what", "skew"], "--generators"),
    (["--config", os.path.join(os.path.dirname(__file__), "no-such.cfg")], "--config"),
    (["--config", os.path.dirname(__file__)], "--config"),
    (["chain", "--preset", "kn", "--ansatz", "0,-5", "--steps", "0"], "--ansatz"),
    (["chain", "--preset", "kn", "--steps", "-1"], "--steps"),
    (["chain", "--preset", "kn", "--steps", "-1", "--verify-only"], "--steps"),
    (["presets", "list", "kn"], "presets"),
    (["presets", "equations"], "presets"),
    (["chain", "--preset", "kn", "--params", "a=0", "--steps", "0"], "--params"),
])
def test_malformed_arguments_rejected_at_the_boundary(argv, flag, capsys):
    code, out = run_cli(*argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: " + flag + ": ") and err.count("\n") == 1


@pytest.mark.parametrize("op, message", [
    ("frac(D,[[1,0],[0,1]])", "numerator D is 1x1, but 1x2 is needed"),
    ("frac(D,[[D,0]])", "denominator [[D, 0]] is 1x2, not square"),
    ("chain((D,D),([[1],[0]],1))", "numerator [[1], [0]] is 2x1, but 1x1 is needed"),
    ("chain((D,D),([[1,0]],[[1,0],[0,1]]))", "the operator is 1x2, not 1x1"),
], ids=["numerator", "denominator", "second-numerator", "product"])
def test_fraction_shapes_checked_at_the_boundary(op, message):
    proc = subprocess.run([sys.executable, "-m", "lenard.cli", "check", "--op", op,
                           "--what", "skew"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --op: " + message)
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--op", "D", "--ansatz", "1"],
    ["check", "--op", "D", "--params", "a=1"],
    ["chain", "--preset", "nls", "--steps", "0", "--verify-only", "--floor", "-6"],
    ["classify", "--preset", "kn"],
    ["classify", "--floor", "3"],
    ["classify", "--ansatz", "1"],
    ["classify", "--params", "a=1"],
    ["export", "--session", "s.json", "--format", "json"],
    ["presets", "list", "--format", "text"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv):
    # the flag it does not read comes last, with its value
    proc = subprocess.run([sys.executable, "-m", "lenard.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments: " + argv[-2] in proc.stderr


@pytest.mark.parametrize("argv", [
    ["check", "--op", "D", "--what", "skew", "--format", "latex"],
    ["classify", "--pattern", "b=(0,1,1),a=(1,0,0)", "--format", "latex"],
])
def test_format_values_a_subcommand_does_not_read_are_usage_errors(argv):
    # only chain writes LaTeX; check and classify print text or JSON
    proc = subprocess.run([sys.executable, "-m", "lenard.cli"] + argv,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert "argument --format: invalid choice: 'latex'" in proc.stderr


def test_config_key_the_command_does_not_read_is_a_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = chain\npreset = nls\nfloor = -6\n")
    proc = subprocess.run([sys.executable, "-m", "lenard.cli", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments: --floor -6" in proc.stderr


_OP_PIECES = ["D", "D^2", "D^-1", "D^-2", "u", "u'", "u''", "v", "1/u'", "0", "2",
              "x", "[[D]]", "[[D,0],[0,D]]", "[[u],[v]]", "[[v,-u]]", "[[1,0]]",
              "[[0,1],[-1,0]]"]


def _op_forms(inner):
    return st.one_of(
        st.tuples(inner, inner).map(" ".join),
        st.tuples(inner, st.sampled_from(["+", "-"]), inner).map(" ".join),
        inner.map("({})".format),
        st.tuples(inner, inner).map(lambda ab: "frac(%s, %s)" % ab),
        st.tuples(inner, inner, inner, inner).map(
            lambda p: "chain((%s, %s), (%s, %s))" % p))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(op=st.recursive(st.sampled_from(_OP_PIECES), _op_forms, max_leaves=6),
       generators=st.none() | st.lists(st.sampled_from(["u", "v", "w", "", "x", "D"]),
                                       min_size=1, max_size=3).map(",".join),
       what=st.sampled_from([None, "skew", "jacobi", "compat"]),
       floor=st.integers(-3, -1), via_config=st.booleans())
def test_check_boundary_fuzz(op, generators, what, floor, via_config):
    """Any check input ends in exit 0, 1 or 2, never in the generic crash branch."""
    import tempfile
    flags = [("op", op), ("floor", str(floor)), ("generators", generators),
             ("what", what)]
    with tempfile.TemporaryDirectory() as tmp:
        _assert_handled_at_the_boundary(tmp, "check", flags, via_config)


def _assert_handled_at_the_boundary(tmp, command, flags, via_config):
    """Run main in-process on the flags (None values left out, True ones
    given as bare switches), as argv or as a config file in tmp: the exit is
    0, 1 or 2 and stderr never comes from the generic crash branch.  Returns
    the exit code."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    flags = [(k, v) for k, v in flags if v is not None]
    if via_config:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write("command = %s\n" % command
                     + "".join("%s = %s\n" % (k, "true" if v is True else v)
                               for k, v in flags))
        argv = ["--config", cfg]
    else:
        argv = [command] + [a for k, v in flags
                            for a in (("--" + k,) if v is True else ("--" + k, v))]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert code in (0, 1, 2)
    assert not re.match(r"error: [A-Za-z_]\w*: ", err.getvalue()), err.getvalue()
    return code


# session files for export: a report, empty and non-dict JSON, text and
# bytes that are not JSON, a directory, and no file at all
_SESSIONS = {"report": '{"steps": [{"n": 1, "P_latex": ["u_{x}"]}]}', "empty": "{}",
             "list": "[1, 2]", "null": "null", "text": "not json",
             "bytes": b"\xff\xfe{", "dir": None, "missing": None}


def _session_path(tmp, name):
    path = os.path.join(tmp, name)
    content = _SESSIONS.get(name)
    if name == "dir":
        os.mkdir(path)
    elif content is not None:
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode())
    return path


# --out / --session targets to write: a new file, a directory, a missing parent
_TARGETS = {None: None, "file": "new.out", "dir": ".", "orphan": "no/such/dir/f"}


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(session=st.sampled_from(sorted(_SESSIONS)),
       target=st.sampled_from([None, "latex", "json", "pdf"]),
       out=st.sampled_from(sorted(_TARGETS, key=str)), via_config=st.booleans())
def test_export_boundary_fuzz(session, target, out, via_config):
    """Any export input ends in exit 0, 1 or 2, never in the generic crash branch."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        out_path = None if out is None else os.path.join(tmp, _TARGETS[out])
        flags = [("session", _session_path(tmp, session)), ("target", target),
                 ("out", out_path)]
        _assert_handled_at_the_boundary(tmp, "export", flags, via_config)


@pytest.mark.parametrize("content, code, err", [
    ("[1, 2]", 2, "error: --session: "), ("5", 2, "error: --session: "),
    ('"s"', 2, "error: --session: "), ("{}", 1, "nothing to export: "),
    ("null", 1, "nothing to export: ")])
def test_export_needs_a_json_object_session(tmp_path, capsys, content, code, err):
    session = tmp_path / "session.json"
    session.write_text(content)
    assert main(["export", "--session", str(session)]) == code
    assert capsys.readouterr().err.startswith(err)


# chain runs that extend nothing (--steps 0 or --verify-only), so each is quick
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(preset=st.sampled_from([None, "kn", "kn0", "nls", "liouville-i", "liouville-v",
                               "zz"]),
       params=st.sampled_from([None, "a=1", "a=3/2", "a=x", "a=1/0", "b=1", "a", ""]),
       ansatz=st.sampled_from([None, "1,2", "2,2,2", "0", "0,-5", "-1", "1,-2,3", "x",
                               "1,2,3,4", "", ","]),
       steps=st.sampled_from(["0", "-1", "-7", "x", "1.5"]),
       direction=st.sampled_from([None, "left", "right", "up"]),
       verify_only=st.sampled_from([None, True]), via_config=st.booleans())
def test_chain_boundary_fuzz(preset, params, ansatz, steps, direction, verify_only,
                             via_config):
    """Any chain input ends in exit 0, 1 or 2, never in the generic crash
    branch; a negative --steps or --ansatz bound is an error."""
    import tempfile
    flags = [("preset", preset), ("params", params), ("ansatz", ansatz),
             ("steps", steps), ("direction", direction), ("verify-only", verify_only)]
    with tempfile.TemporaryDirectory() as tmp:
        code = _assert_handled_at_the_boundary(tmp, "chain", flags, via_config)
    if steps.startswith("-") or "-" in (ansatz or ""):
        assert code == 2


_PATTERN_PIECES = ["a=(1,0,0)", "b=(0,1,1)", "a=(1,1,1)", "b=(1,0,0)", "a=(0,0,0)",
                   "b=(0,1)", "a=(1,0,2)", "c=(0,1,1)", "a=(1,0,0", "b=", "", " "]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(pattern=st.lists(st.sampled_from(_PATTERN_PIECES), min_size=1,
                        max_size=3).map(",".join)
       | st.text(alphabet="ab=(),01 2-", min_size=1, max_size=14),
       fmt=st.sampled_from([None, "text", "latex", "json", "csv"]),
       session=st.sampled_from(sorted(_TARGETS, key=str)), via_config=st.booleans())
def test_classify_pattern_boundary_fuzz(pattern, fmt, session, via_config):
    """Any classify --pattern input ends in exit 0, 1 or 2, never in the
    generic crash branch."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        session_path = None if session is None else os.path.join(tmp, _TARGETS[session])
        flags = [("pattern", pattern), ("format", fmt), ("session", session_path)]
        _assert_handled_at_the_boundary(tmp, "classify", flags, via_config)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


# the fast commands of the README's command-line block: name, argv, exit code
README_COMMANDS = [
    ("check_skew_d2", ["check", "--op", "D^2", "--what", "skew"], 1),
    ("check_jacobi_sokolov",
     ["check", "--op", "u' D^-1 u'", "--what", "jacobi", "--floor", "-6"], 0),
    ("chain_kn", ["chain", "--preset", "kn", "--steps", "1"], 0),
    ("chain_liouville_iv_left", ["chain", "--preset", "liouville-iv",
                                 "--direction", "left", "--steps", "2"], 0),
    ("chain_nls_verify_only",
     ["chain", "--preset", "nls", "--steps", "0", "--verify-only"], 0),
    ("classify", ["classify"], 0),
    ("classify_pattern", ["classify", "--pattern", "b=(0,1,1),a=(1,0,0)"], 0),
    ("presets", ["presets"], 0),
]


@pytest.mark.parametrize("name, argv, code", README_COMMANDS,
                         ids=[c[0] for c in README_COMMANDS])
def test_readme_command_output_is_unchanged(name, argv, code):
    assert run_cli(*argv) == (code, _golden(name + ".out"))


# the rational Jacobi path: grids whose entries have denominators, which the
# README commands do not reach
RATIONAL_JACOBI = [
    ("check_jacobi_rational_u2",
     ["check", "--op", "(u''+1)^-1 D^-1 (u''+1)^-1", "--what", "jacobi",
      "--floor", "-3"], 1),
    ("check_jacobi_rational_u1",
     ["check", "--op", "(u'+1)^-1 D^-1 (u'+1)^-1", "--what", "jacobi",
      "--floor", "-3"], 0),
]


@pytest.mark.parametrize("name, argv, code", RATIONAL_JACOBI,
                         ids=[c[0] for c in RATIONAL_JACOBI])
def test_rational_jacobi_output_is_unchanged(name, argv, code):
    assert run_cli(*argv) == (code, _golden(name + ".out"))


# the `--format text` printer, one command per subcommand that offers it
TEXT_COMMANDS = [
    ("check_skew_d2_text", ["check", "--op", "D^2", "--what", "skew"], 1),
    ("classify_pattern_text", ["classify", "--pattern", "b=(0,1,1),a=(1,0,0)"], 0),
    ("chain_kn0_verify_only_text",
     ["chain", "--preset", "kn0", "--steps", "0", "--verify-only"], 0),
]


@pytest.mark.parametrize("name, argv, code", TEXT_COMMANDS,
                         ids=[c[0] for c in TEXT_COMMANDS])
def test_text_format_output_is_unchanged(name, argv, code):
    assert run_cli(*argv, "--format", "text") == (code, _golden(name + ".out"))


def test_readme_session_export_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("chain", "--preset", "kn", "--steps", "1",
                   "--session", "s.json") == (0, _golden("chain_kn.out"))
    assert run_cli("export", "--session", "s.json", "--target", "latex",
                   "--out", "out.tex") == (0, "")
    assert (tmp_path / "out.tex").read_text() == _golden("export_latex.tex")
