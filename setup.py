"""Package metadata for ``repro-p2p``.

A plain ``setup.py`` so ``pip install -e .`` works in offline
environments that lack the ``wheel`` package (pip falls back to the
legacy ``setup.py develop`` editable path when no PEP 517
``build-system`` table is declared).  The version is read from
``src/repro/__init__.py``, so it has one owner.
"""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-p2p",
    version=VERSION,
    description=(
        "Socially-optimal ISP-aware P2P content distribution via a "
        "primal-dual auction"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro-p2p = repro.cli:main"]},
)
