"""The benchmark harness's own unit tests, run against this checkout.

``perfbench`` drives the package through its public API (scenario loading,
the CLI entry points, functions traced by name), so a change to that API
that breaks the harness fails here, in the test suite, and not first in a
benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_unit_tests_pass():
    # about 0.5 s; the timeout only keeps a hang from stalling the suite
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr
