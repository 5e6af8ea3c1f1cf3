"""Tests of the top-level public API surface (imports, __all__, docstrings)."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro


SUBPACKAGES = [
    "repro.core",
    "repro.markov",
    "repro.graphs",
    "repro.traversal",
    "repro.adversary",
    "repro.baselines",
    "repro.analysis",
    "repro.metrics",
    "repro.parallel",
    "repro.sweeps",
    "repro.store",
    "repro.experiments",
]

MODULES = [
    "repro.rng",
    "repro.types",
    "repro.errors",
    "repro.cli",
    "repro.core.config",
    "repro.core.process",
    "repro.core.tetris",
    "repro.core.coupling",
    "repro.core.queueing",
    "repro.core.token_process",
    "repro.core.metrics",
    "repro.markov.chain",
    "repro.markov.absorbing",
    "repro.markov.small_n",
    "repro.markov.spectral",
    "repro.graphs.topology",
    "repro.graphs.generators",
    "repro.graphs.walks",
    "repro.traversal.multi_token",
    "repro.traversal.single_token",
    "repro.traversal.progress",
    "repro.adversary.adversaries",
    "repro.adversary.faulty_process",
    "repro.baselines.one_shot",
    "repro.baselines.d_choices",
    "repro.baselines.birth_death",
    "repro.analysis.bounds",
    "repro.analysis.concentration",
    "repro.analysis.negative_association",
    "repro.analysis.occupancy",
    "repro.analysis.statistics",
    "repro.analysis.fitting",
    "repro.metrics.base",
    "repro.metrics.trackers",
    "repro.metrics.window",
    "repro.metrics.payload",
    "repro.metrics.registry",
    "repro.metrics.adapters",
    "repro.parallel.seeding",
    "repro.parallel.runner",
    "repro.parallel.aggregate",
    "repro.sweeps.spec",
    "repro.sweeps.plan",
    "repro.sweeps.scheduler",
    "repro.sweeps.catalog",
    "repro.store.store",
    "repro.store.streaming",
    "repro.experiments.spec",
    "repro.experiments.tables",
    "repro.experiments.io",
    "repro.experiments.harness",
    "repro.experiments.report",
    "repro.experiments.registry",
    "repro.experiments.definitions_core",
    "repro.experiments.definitions_extended",
]


class TestImports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("name", SUBPACKAGES + MODULES)
    def test_module_imports_and_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} is missing a module docstring"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, name):
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", []):
            assert hasattr(module, attr), f"{name}.__all__ lists missing attribute {attr}"


class TestDocumentation:
    @pytest.mark.parametrize(
        "obj",
        [
            repro.LoadConfiguration,
            repro.RepeatedBallsIntoBins,
            repro.TetrisProcess,
            repro.ProbabilisticTetris,
            repro.CoupledRun,
            repro.TokenRepeatedBallsIntoBins,
            repro.MultiTokenTraversal,
            repro.SingleTokenWalk,
            repro.FaultyProcess,
            repro.Topology,
            repro.ConstrainedParallelWalks,
            repro.FiniteMarkovChain,
            repro.BinLoadChain,
            repro.DChoicesProcess,
            repro.IndependentThrowsProcess,
        ],
    )
    def test_public_classes_have_docstrings(self, obj):
        assert inspect.getdoc(obj), f"{obj.__name__} is missing a class docstring"

    def test_public_class_methods_have_docstrings(self):
        """Every public method of the main simulators carries a docstring."""
        for cls in (repro.RepeatedBallsIntoBins, repro.TetrisProcess, repro.CoupledRun):
            for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name} is missing a docstring"

    def test_package_docstring_mentions_the_paper(self):
        assert "balls-into-bins" in repro.__doc__
        assert "Becchetti" in repro.__doc__


class TestQuickstartDocExample:
    def test_module_docstring_example_runs(self):
        """The example in the package docstring must actually work."""
        process = repro.RepeatedBallsIntoBins(
            1024, initial=repro.LoadConfiguration.all_in_one(1024), seed=0
        )
        hit = process.run_until_legitimate(max_rounds=20 * 1024)
        assert hit is not None and hit <= 20 * 1024
