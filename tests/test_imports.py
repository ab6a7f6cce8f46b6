"""The theory commands and ``import distunlearn`` do not load scipy.special:
it costs every command that trains nothing about 70 ms of import and 7.5 MB
of memory.  Each check runs in a fresh interpreter, since this test process
has long since imported it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import distunlearn as du
steps = {"import": lambda: None,
         "bound_selective": lambda: du.bound_selective(1000, 1000, 100, 0.1, 0.5),
         "frontier_expfamily": lambda: du.frontier_expfamily(du.bernoulli_family(0.3, 0.7),
                                                             0.5)}
for name, step in steps.items():
    step()
    if "scipy.special" in sys.modules:
        print(name)
        break
"""


def test_theory_queries_leave_scipy_special_unloaded():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", f"scipy.special loaded by: {done.stdout.strip()}"
