"""Every name a floqtess module exports in ``__all__`` exists, and the
parameters that take a default are a pinned set."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


# Each entry is an input a caller may leave out, so a new one is a knob
# every test and benchmark configuration has to account for.
DEFAULTED = {
    "catalog.build_table.d_mode",
    "catalog.build_table.orientable",
    "catalog.encoding_rate.orientable",
    "catalog.enumerate_signatures.m_max",
    "catalog.enumerate_signatures.orientable",
    "catalog.estimator_report.orientable",
    "catalog.family_report.genera",
    "catalog.family_report.orientable",
    "cli.main.argv",
    "floquet.code_params.d_mode",
    "floquet.code_params.orientable",
}


def defaulted_parameters() -> list[str]:
    """``module.function.parameter`` for every parameter with a default in
    the package source, lambdas and nested functions included."""
    out = []
    for path in sorted(Path(floqtess.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                name = getattr(node, "name", "<lambda>")
                out += [f"{path.stem}.{name}.{arg.arg}" for arg in named]
    return out


def test_defaulted_parameters_are_pinned():
    found = defaulted_parameters()
    assert len(found) == len(set(found))
    assert set(found) == DEFAULTED
