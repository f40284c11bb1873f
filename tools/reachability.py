"""Which functions of src/lenard the entry points reach.

    PYTHONPATH=src python tools/reachability.py

Runs, in this process and under a profile hook:

- every `lenard ...` line of the README's ``sh`` blocks, through
  `lenard.cli.main`, in a temporary directory (so `--session` and `--out`
  files land there);
- each script under demos/;
- one pass of each benchmark workload (bench/workloads.py), with every
  result checked against its answer;
- tests/test_cli.py under pytest, for the command-line inputs the README
  does not show (its subprocess cases need lenard importable, hence the
  PYTHONPATH).

Then prints each `def` of src/lenard that none of them called, with its
line count, and a summary line.  A function nested in an unreached one is
listed too, but its lines count once.  A run that fails raises.
"""

import ast
import contextlib
import io
import os
import pathlib
import runpy
import shlex
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lenard"


def readme_commands():
    """argv lists of the README's `lenard` lines inside ```sh blocks."""
    out, in_sh = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            continue
        words = shlex.split(line, comments=True) if in_sh else []
        if words[:1] == ["lenard"]:
            out.append(words[1:])
    return out


def definitions():
    """{(file, first line): (qualified name, def line, last line)} of every
    def in src/lenard; the first line is the first decorator's, as in the
    code object."""
    defs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qual = prefix + child.name
                defs[(os.path.realpath(path), first)] = (qual, child.lineno, child.end_lineno)
                walk(child, path, qual + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return defs


def run_readme(argv_list):
    from lenard.cli import main
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in argv_list:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(list(argv))
                if code not in (0, 1):
                    raise RuntimeError("lenard %s exited %d" % (" ".join(argv), code))
        finally:
            os.chdir(here)


def run_demos():
    for path in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def run_workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    for name in workloads.WORKLOADS:
        ops, answers, _ = workloads.build(name, 1)
        for op in ops:
            op.check(op.run(), answers[op.name])


def run_cli_tests():
    import pytest
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests" / "test_cli.py")])
    if code != 0:
        sys.stderr.write(buf.getvalue())
        raise RuntimeError("tests/test_cli.py failed (pytest exit %d)" % code)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        run_readme(readme_commands())
        run_demos()
        run_workloads()
        run_cli_tests()
    finally:
        sys.setprofile(None)

    seen = {(os.path.realpath(f), line) for f, line in seen}
    defs = definitions()
    unreached = sorted(key for key in defs if key not in seen)
    counted, lines = [], 0
    for path, first in unreached:
        qual, line, last = defs[(path, first)]
        if not any(p == path and f <= first and last <= defs[(p, f)][2]
                   for p, f in counted):
            lines += last - line + 1
            counted.append((path, first))
        print("%s:%d %s %d" % (pathlib.Path(path).name, line, qual, last - line + 1))
    print("reached %d of %d functions; %d unreached, %d lines"
          % (len(defs) - len(unreached), len(defs), len(unreached), lines))


if __name__ == "__main__":
    main()
