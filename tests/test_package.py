"""Package-level tests: exports, version, exception hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but not importable"

    def test_key_entry_points_present(self):
        for name in (
            "SSyncCompiler",
            "MuraliCompiler",
            "DaiCompiler",
            "paper_device",
            "qft_circuit",
            "evaluate_schedule",
            "verify_schedule",
            "build_benchmark",
        ):
            assert name in repro.__all__

    def test_subpackage_alls_resolve(self):
        import repro.analysis as analysis
        import repro.circuit as circuit
        import repro.core as core
        import repro.hardware as hardware
        import repro.noise as noise
        import repro.schedule as schedule

        for module in (analysis, circuit, core, hardware, noise, schedule):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in ("CircuitError", "DeviceError", "MappingError", "SchedulingError", "StateError", "NoiseModelError"):
            error_cls = getattr(exceptions, name)
            assert issubclass(error_cls, exceptions.ReproError)
            assert issubclass(error_cls, Exception)

    def test_verification_error_is_a_repro_error(self):
        from repro.schedule.verify import ScheduleVerificationError

        assert issubclass(ScheduleVerificationError, exceptions.ReproError)

    def test_catching_the_base_class_catches_subclasses(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.MappingError("boom")


def test_project_metadata_names_the_package():
    """``pyproject.toml`` carries the install metadata and no pytest settings."""
    import tomllib
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    pyproject = tomllib.loads(text)
    project = pyproject["project"]
    assert project["name"] == "repro"
    assert project["dependencies"] == ["networkx"]
    assert project["requires-python"] == ">=3.11"
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}
    assert "pytest" not in pyproject["tool"]
