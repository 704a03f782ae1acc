"""The benches collect whatever else a pytest run names, in any order."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benches_collect_when_a_tests_path_follows():
    # Both directories hold a ``conftest.py``; whichever pytest imports
    # last owns the module name ``conftest``, here tests/conftest.py.
    benches = sorted(
        str(p.relative_to(ROOT))
        for pattern in ("test_fig*.py", "test_ablation*.py")
        for p in (ROOT / "benchmarks").glob(pattern)
    )
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *benches, "tests/net/test_isp.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
