"""The public API surface: everything advertised must import and work."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_symbols_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.nn",
            "repro.nn.models",
            "repro.nn.optim",
            "repro.nn.schedulers",
            "repro.data",
            "repro.topology",
            "repro.core",
            "repro.algorithms",
            "repro.faults",
            "repro.simulation",
            "repro.theory",
            "repro.metrics",
            "repro.experiments",
            "repro.compression",
            "repro.utils",
            "repro.cli",
        ],
    )
    def test_submodule_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_registry_matches_exports(self):
        from repro import ALGORITHM_REGISTRY, THREE_TIER_ALGORITHMS, TWO_TIER_ALGORITHMS

        assert set(THREE_TIER_ALGORITHMS) | set(TWO_TIER_ALGORITHMS) == set(
            ALGORITHM_REGISTRY
        )
        assert len(ALGORITHM_REGISTRY) == 11  # HierAdMo + HierAdMo-R + 9?

    def test_registry_names_match_class_names(self):
        from repro import ALGORITHM_REGISTRY

        for name, cls in ALGORITHM_REGISTRY.items():
            assert cls.name == name

    def test_docstrings_everywhere(self):
        """Every public module and class carries a docstring."""
        for module_name in (
            "repro", "repro.core", "repro.algorithms", "repro.theory",
            "repro.simulation", "repro.data", "repro.nn",
        ):
            module = importlib.import_module(module_name)
            assert module.__doc__, module_name
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if isinstance(obj, type):
                    assert obj.__doc__, f"{module_name}.{name}"


class TestImportCost:
    def test_cli_import_pulls_no_heavy_dependency(self):
        """scipy and networkx serve no training path; the CLI must not
        load them (together they were ~0.75 s of every run's start-up).

        A fresh interpreter, because this test session may have imported
        them already.
        """
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import repro.cli, sys; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'networkx'})))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.split() == []
