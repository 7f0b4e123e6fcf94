"""The public API surface: everything advertised in __all__ resolves."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.solvers",
    "repro.topology",
    "repro.mobility",
    "repro.workload",
    "repro.pricing",
    "repro.baselines",
    "repro.simulation",
    "repro.experiments",
    "repro.io",
    "repro.cli",
]


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_import(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize(
        "module_name",
        [m for m in SUBPACKAGES if m not in ("repro.cli",)],
    )
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_algorithms_share_protocol(self):
        from repro.baselines.base import AllocationAlgorithm

        for algorithm in (
            repro.OfflineOptimal(),
            repro.OnlineGreedy(),
            repro.OnlineRegularizedAllocator(),
            repro.PerfOpt(),
            repro.OperOpt(),
            repro.StatOpt(),
        ):
            assert isinstance(algorithm, AllocationAlgorithm)
            assert isinstance(algorithm.name, str)
