"""The import graph stays lean: no scipy behind the library's entry points.

Every CLI call, pipeline benchmark set-up and pool worker pays for what
``import repro...`` drags in.  scipy alone used to cost ~1 s and ~60 MB
for one inverse normal CDF; the stdlib now serves that call.  The check
runs in a fresh interpreter, so modules this test session already
imported cannot mask a regression; it prints the import time instead
of bounding it (wall time on shared hosts is too noisy to gate).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys, time
start = time.perf_counter()
import repro.core.aegis, repro.fleet, repro.search
elapsed = time.perf_counter() - start
print(f"{elapsed:.3f}", " ".join(sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_entry_points_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout.split()
    print(f"\nimport repro.core.aegis, repro.fleet, repro.search: "
          f"{out[0]} s")
    assert out[1:] == []
