"""The public API surface: everything exported actually exists and works."""

from __future__ import annotations

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.sim",
    "repro.net",
    "repro.vod",
    "repro.p2p",
    "repro.metrics",
    "repro.experiments",
    "repro.scenarios",
    "repro.obs",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} needs a docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert major.isdigit() and minor.isdigit() and patch.isdigit()

    def test_module_docstring_example_runs(self):
        """The usage snippet in the package docstring must stay true."""
        from repro import AuctionSolver, ProblemBuilder, solve_hungarian

        builder = ProblemBuilder()
        builder.set_capacity(100, 2)
        builder.add_request(peer=1, chunk="c", valuation=5.0, candidates={100: 1.0})
        p = builder.build()
        result = AuctionSolver().solve(p)
        assert result.welfare(p) == solve_hungarian(p).welfare(p)


class TestDocstrings:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_classes_documented(self, module_name):
        import inspect

        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
