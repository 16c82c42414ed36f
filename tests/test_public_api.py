"""Package-level API and error-hierarchy tests."""

import importlib.util
from pathlib import Path

import pytest

import repro
from repro import errors

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "AlignmentError",
            "NewickError",
            "TreeError",
            "ModelError",
            "LikelihoodError",
            "CommError",
            "DistributionError",
            "SearchError",
            "CheckpointError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)
            assert issubclass(cls, Exception)

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.NewickError("x")


class TestTopLevelExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_surface(self):
        """The objects the README quickstart uses are all importable."""
        from repro import Alignment, PartitionedLikelihood  # noqa: F401
        from repro.likelihood.backend import SequentialBackend  # noqa: F401
        from repro.search.search import SearchConfig, hill_climb  # noqa: F401
        from repro.tree.random_trees import random_topology  # noqa: F401

    def test_engine_surface(self):
        from repro.engines import ENGINES, EventLog, Region  # noqa: F401
        from repro.perf.price import (  # noqa: F401
            comm_totals,
            format_table1,
            simulate_runtime,
        )
        from repro.engines.launch import (  # noqa: F401
            RunConfig,
            launch,
        )

    def test_docstrings_on_public_modules(self):
        import importlib
        import pkgutil

        undocumented = []
        for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(mod.name)
            if not (module.__doc__ or "").strip():
                undocumented.append(mod.name)
        assert not undocumented, undocumented


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path):
    """Every example guards ``main``, so importing one runs nothing but
    its imports: a renamed API fails here, not in the example."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
