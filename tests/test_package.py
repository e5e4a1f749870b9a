"""Checks over the package as a whole: its source files and its demos."""

import os
import pathlib
import subprocess
import sys

import pytest

import antiring as ar

PACKAGE_DIR = pathlib.Path(ar.__file__).parent
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_module_has_no_assert(module):
    """Invariants raise explicitly: python -O strips assert statements."""
    assert "assert " not in (PACKAGE_DIR / module).read_text()


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
