"""The demos print byte for byte what tests/golden/demo_<name>.out holds."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p)[:-3] for p in DEMOS])
def test_demo_output_is_unchanged(path):
    name = os.path.basename(path)[:-3]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                         capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    with open(os.path.join(ROOT, "tests", "golden", "demo_%s.out" % name), "rb") as fh:
        assert run.stdout == fh.read()
