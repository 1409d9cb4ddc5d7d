"""The benchmark harness's own unit tests, run against this checkout.

``perfbench`` drives the package through its public API (scenario loading,
the CLI entry points, functions traced by name), so a change to that API
that breaks the harness fails here, in the test suite, and not first in a
benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_in_checkout(args):
    # the timeout only keeps a hang from stalling the suite
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=False)


def test_perfbench_unit_tests_pass():
    # about 0.5 s
    result = _run_in_checkout(["-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"])
    assert result.returncode == 0, result.stdout + result.stderr


# A per-layer metric whose traced function no longer exists reads 0, like a
# layer that costs nothing.  These two functions were deleted on purpose:
# the Molien series comes from power traces, not determinants, and
# ObstructionProblem computes its own target.
GONE_TRACE_TARGETS = ["linalg.det_generic", "obstruction.target_poly"]

FIND_TRACE_TARGETS = """
import json, sys
sys.path.insert(0, "perfbench")
import run, tracing, workloads
tracer = tracing.Tracer()
tracer.plan(workloads.load_program())
print(json.dumps(sorted({fn for _, fn, _ in run.LAYER_METRICS} - set(tracer.stats))))
"""


def test_tracer_finds_every_layer_metric_target():
    result = _run_in_checkout(["-c", FIND_TRACE_TARGETS])
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout) == GONE_TRACE_TARGETS
