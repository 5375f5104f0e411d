"""The package's public API surface stays importable and coherent."""

import importlib
import pkgutil

import pytest

import repro


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_path(self):
        # The README's first snippet, end to end.
        link = repro.Link.from_mbps(20, 42, 100)
        sim = repro.FluidSimulator(link, [repro.AIMD(1, 0.5)] * 2)
        trace = sim.run(steps=200)
        assert trace.utilization().mean() > 0


SUBMODULES = [
    "repro.model",
    "repro.model.units",
    "repro.model.link",
    "repro.model.sender",
    "repro.model.dynamics",
    "repro.model.trace",
    "repro.model.random_loss",
    "repro.model.events",
    "repro.protocols",
    "repro.protocols.base",
    "repro.protocols.aimd",
    "repro.protocols.mimd",
    "repro.protocols.binomial",
    "repro.protocols.cubic",
    "repro.protocols.robust_aimd",
    "repro.protocols.pcc",
    "repro.protocols.vegas",
    "repro.protocols.probe",
    "repro.protocols.slow_start",
    "repro.protocols.highspeed",
    "repro.protocols.ledbat",
    "repro.protocols.dctcp",
    "repro.protocols.registry",
    "repro.protocols.presets",
    "repro.core",
    "repro.core.metrics",
    "repro.core.metrics.extensions",
    "repro.core.theory",
    "repro.core.theory.table1",
    "repro.core.theory.theorems",
    "repro.core.theory.pareto",
    "repro.core.theory.equilibrium",
    "repro.core.characterization",
    "repro.packetsim",
    "repro.packetsim.workload",
    "repro.netmodel",
    "repro.analysis",
    "repro.analysis.timeseries",
    "repro.experiments",
    "repro.experiments.survey",
    "repro.experiments.fct",
    "repro.storage",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_submodule_imports_and_documents(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} is missing a module docstring"


#: Every module of the package, so a name deleted without its
#: ``__all__`` entry fails wherever it was exported.
ALL_MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_declared_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name}"
