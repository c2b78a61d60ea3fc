"""The package's public surface: exports and the error hierarchy."""

import importlib
import pkgutil

import repro


def _module_names():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        # Importing ``repro.__main__`` runs the CLI.
        if not info.name.endswith(".__main__"):
            yield info.name


def test_every_exported_name_resolves():
    """Every name a ``repro`` module lists in ``__all__`` resolves."""
    checked = 0
    dangling = []
    for name in _module_names():
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, export):
                dangling.append(f"{name}.{export}")
    assert checked
    assert dangling == []


def test_error_hierarchy():
    """All library errors descend from ReproError (single catch point)."""
    from repro import errors

    for name in (
        "ConfigError", "SimulationError", "SchedulingError", "ChannelError",
        "DetectionError", "HardwareError",
    ):
        assert issubclass(getattr(errors, name), errors.ReproError)
    assert issubclass(errors.SchedulingError, errors.SimulationError)
