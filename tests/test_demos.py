"""Every walkthrough under ``demos/``, and README's library sketch, runs to
completion."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    proc = _run([str(demo)], ROOT)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_sketch_runs(tmp_path):
    # the sketch reads c.rev and c.tests from the working directory
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S)
    shutil.copy(ROOT / "tests" / "data" / "bench7x3.rev", tmp_path / "c.rev")
    shutil.copy(ROOT / "tests" / "data" / "bench7x3_user.tests", tmp_path / "c.tests")
    proc = _run(["-c", sketch], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3
