"""Smoke test: the quick demos run to completion.

Each of ``demos/01``-``04`` runs in its own interpreter and must exit 0
with no traceback.  ``05_factoring_precision.py`` takes tens of seconds
and runs in CI only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_all_quick_demos_found():
    assert len(QUICK_DEMOS) == 4


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
