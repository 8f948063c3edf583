"""The package's export lists and declared dependencies."""

import importlib
import pathlib
import pkgutil

import pytest

import sigsurv

MODULES = sorted(m.name for m in pkgutil.iter_modules(sigsurv.__path__))


def test_the_submodules_are_found():
    # an empty list would silently parametrize nothing below
    assert "net" in MODULES and "cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sigsurv.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"sigsurv.{name}.__all__ names {missing}"


def test_declared_numpy_floor_has_trapezoid():
    # metrics.ipcw_ibs and selftest check 4 call np.trapezoid, which
    # NumPy added in 2.0
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    floors = [d.split(">=")[1] for d in deps if d.startswith("numpy>=")]
    assert len(floors) == 1, deps
    assert tuple(int(p) for p in floors[0].split(".")[:2]) >= (2, 0)
