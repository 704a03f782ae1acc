"""The package metadata ``setup.py`` declares matches the package."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_setup_version_is_the_package_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out[-2:] == ["repro-p2p", repro.__version__]
