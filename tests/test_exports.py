"""Every name a floqtess module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import floqtess

MODULES = [
    importlib.import_module(f"floqtess.{info.name}")
    for info in pkgutil.iter_modules(floqtess.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_exporting_modules():
    names = sorted(m.__name__ for m in EXPORTING)
    assert names == [f"floqtess.{m}" for m in ("coloring", "derive", "hypgeo", "surface")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing members: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
