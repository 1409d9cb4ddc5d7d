"""A fresh import of the package lets the previous one be collected.

A benchmark harness or a long-lived process may drop every ``skewpoisson``
module and import the package again; any module-level object that a cache
outside the package keeps (such as typing's cache of ``Union`` aliases)
would hold the old modules, and all they reference, for good.  The command
line's parser, built once per process, must go with the import that built it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import gc
import importlib
import sys
import weakref

program = importlib.import_module("skewpoisson")
group = program.generate_group([[["0", "-1"], ["1", "0"]]])
refs = [weakref.ref(program.GroupElement), weakref.ref(program.Polynomial),
        weakref.ref(program.linalg.RowSpace), weakref.ref(program.cli.build_parser())]
del group, program
for name in [m for m in sys.modules if m == "skewpoisson" or m.startswith("skewpoisson.")]:
    del sys.modules[name]
importlib.import_module("skewpoisson")
gc.collect()
print([ref() is None for ref in refs])
"""


def test_reimport_releases_the_previous_import():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, check=False, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[True, True, True, True]"
