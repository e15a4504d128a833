"""Every name a floqtess module exports in ``__all__`` exists, the
parameters that take a default are a pinned set, every parameter is read,
every module-level name and class member but a pinned few has a caller in
the package, the CLI loads only the pipeline modules and imports only
public names, and the functions the benchmark's tracer wraps exist with
the parameters its hooks read."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
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
    "catalog.enumerate_signatures.m_max",
    "cli.main.argv",
    "floquet.code_params.d_mode",
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


# Each entry is a parameter its function does not read yet, kept because
# callers already pass it.
UNREAD = {
    "floquet.exact_distance.schedule",  # a distance kernel that reads the colouring
}


def unread_parameters() -> list[str]:
    """``module.function.parameter`` for every parameter that its function's
    body (nested functions included) never reads.  A method's receiver is
    left out: the call fixes it, not the method."""
    out = []
    for path in sorted(Path(floqtess.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    x for x in (a.vararg, a.kwarg) if x is not None
                ]
                if id(node) in methods:
                    params = params[1:]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {
                    n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                name = getattr(node, "name", "<lambda>")
                out += [f"{path.stem}.{name}.{x.arg}" for x in params if x.arg not in read]
    return out


def test_every_parameter_is_read():
    assert set(unread_parameters()) == UNREAD


# Each entry is a module-level name that no ``src`` code reads, kept for
# the reason given; every other name the package defines has a caller in it.
UNCALLED = {
    "surface.isomorphic",  # will deduplicate the maps a quotient route builds
    "floquet.face_stabilizer",  # will span a steady phase for the systole distance
}


def uncalled_names() -> list[str]:
    """``module.name`` for every module-level def, class and assignment in
    the package source that no package module loads as a name or an
    attribute (dunder names such as ``__all__`` left out)."""
    defined, loaded = [], set()
    for path in sorted(Path(floqtess.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path.stem, name) for name in names if not name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    return [f"{module}.{name}" for module, name in defined if name not in loaded]


def test_every_public_name_has_a_src_caller():
    assert set(uncalled_names()) == UNCALLED


# Each entry is a ``module.Class.member`` that no ``src`` code reads, kept
# for the reason given (none is kept now); every other member has a reader.
UNCALLED_MEMBERS: set[str] = set()


def uncalled_members() -> list[str]:
    """``module.Class.member`` for every method, property and annotated
    field in a class body of the package source whose name no package
    module reads as an attribute (dunder names such as ``__post_init__``
    left out).  Reads are matched by name alone, so a member whose name
    another class's attribute also uses (``_FlagMap.id`` against
    ``Edge.id``, say) counts as read and is not caught."""
    defined, loaded = [], set()
    for path in sorted(Path(floqtess.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("__"):
                    defined.append(f"{path.stem}.{cls.name}.{name}")
        loaded |= {
            n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    return [member for member in defined if member.rsplit(".", 1)[1] not in loaded]


def test_every_class_member_has_a_src_reader():
    assert set(uncalled_members()) == UNCALLED_MEMBERS


def test_cli_imports_only_public_names():
    tree = ast.parse((Path(floqtess.__path__[0]) / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "floqtess")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


PACKAGE_ROOT = Path(floqtess.__file__).parents[1]


def test_cli_loads_only_the_pipeline():
    # A fresh interpreter, so modules other tests imported do not count.
    script = "\n".join([
        "import sys",
        "import floqtess.cli",
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'floqtess')))",
        "print('fractions' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=PACKAGE_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, fractions = proc.stdout.splitlines()
    pipeline = ("catalog", "cli", "coloring", "derive", "floquet", "geodist", "hypgeo", "surface")
    assert loaded.split() == ["floqtess"] + [f"floqtess.{m}" for m in pipeline]
    assert fractions == "False"


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Parameters each counting hook of the tracer reads from its bound call.
HOOK_PARAMETERS = {
    "catalog.enumerate_signatures": ("genus", "orientable", "m_max"),
    "floquet.run_schedule": ("schedule", "rounds"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    # The benchmark's --trace 1 run wraps each of these by name and fails
    # on the first that is renamed or removed.
    tracing = load_tracing()
    for layer in tracing.LAYERS:
        module_name, func_name = layer.split(".")
        func = getattr(importlib.import_module(f"floqtess.{module_name}"), func_name, None)
        assert inspect.isfunction(func), layer
    assert set(tracing._HOOKS) <= set(tracing.LAYERS)
    assert set(HOOK_PARAMETERS) <= set(tracing._HOOKS)


@pytest.mark.parametrize("layer", sorted(HOOK_PARAMETERS))
def test_hooked_layers_keep_their_parameters(layer):
    module_name, func_name = layer.split(".")
    func = getattr(importlib.import_module(f"floqtess.{module_name}"), func_name)
    assert set(HOOK_PARAMETERS[layer]) <= set(inspect.signature(func).parameters)


def bound_arguments_read(hook) -> set:
    """The keys a counting hook reads off ``bound.arguments`` (bound to the
    name ``args``), from its source."""
    tree = ast.parse(inspect.getsource(hook))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
    }


def test_hook_parameters_are_the_ones_the_hooks_read():
    # The pinned table above is what the tracer's hooks read, so a hook
    # that starts to read another argument is checked against src too.
    hooks = load_tracing()._HOOKS
    read = {layer: bound_arguments_read(hook) for layer, hook in hooks.items()}
    assert {layer: keys for layer, keys in read.items() if keys} == {
        layer: set(params) for layer, params in HOOK_PARAMETERS.items()
    }
