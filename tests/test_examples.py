"""The quick scripts under ``examples/`` run to completion.

Each runs as its own process with ``PYTHONPATH=src``, the way the docs
tell a reader to run it.  ``isp_traffic_study.py`` (about 9 s) and
``vod_streaming.py`` (about 4 s) are left out to keep the suite fast.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "strategic_manipulation.py", "distributed_auction_trace.py"],
)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
