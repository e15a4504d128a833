"""Every name a floqtess module exports in ``__all__`` exists, the
parameters that take a default are a pinned set, every parameter is read,
every module-level name and class member has a caller in the package, the
member names that several classes share are a pinned set, the CLI loads
only the pipeline modules and imports only public names, and the functions
the benchmark's tracer wraps exist with the parameters its hooks read."""

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
# the reason given (none is kept now); every other name the package defines
# has a caller in it.
UNCALLED: set[str] = set()


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
# for the reason given; every other member has a reader.
UNCALLED_MEMBERS = {
    "derive.DerivedCounts.signature",  # read only by the tests' face census
}


def class_members() -> list[str]:
    """``module.Class.member`` for every method, property and annotated
    field in a class body of the package source (dunder names such as
    ``__post_init__`` left out)."""
    defined = []
    for path in sorted(Path(floqtess.__path__[0]).glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
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
    return defined


def unpacked_fields() -> set[str]:
    """``module.Class.field`` for every annotated field of a class one of
    whose own methods unpacks ``self`` into as many names as the class has
    fields (``a, b, c = self`` on a tuple record): each field is read there
    by position."""
    read = set()
    for path in sorted(Path(floqtess.__path__[0]).glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = [
                node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            ]
            if any(
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Tuple)
                and len(node.targets[0].elts) == len(fields)
                for method in cls.body if isinstance(method, ast.FunctionDef)
                for node in ast.walk(method)
            ):
                read |= {f"{path.stem}.{cls.name}.{name}" for name in fields}
    return read


def uncalled_members() -> list[str]:
    """The :func:`class_members` whose name no package module reads as an
    attribute and that are not :func:`unpacked_fields`.  Reads are matched
    by name alone, so a member whose name another class's attribute also
    uses (``_FlagMap.id`` against ``Edge.id``, say) counts as read and is
    not caught; the names that more than one class defines are pinned below
    for that reason."""
    loaded = {
        n.attr
        for path in Path(floqtess.__path__[0]).glob("*.py")
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unpacked = unpacked_fields()
    return [
        member for member in class_members()
        if member.rsplit(".", 1)[1] not in loaded and member not in unpacked
    ]


def test_every_class_member_has_a_src_reader():
    assert set(uncalled_members()) == UNCALLED_MEMBERS


# Each entry is a member name that more than one ``src`` class defines, so
# the reader check above cannot tell their members apart; a new shared name
# is reviewed by hand before it joins.  Each is read in ``src`` on every
# class that defines it, except where the reason says otherwise.
SHARED_MEMBERS = {
    "edge_color",  # EdgeSchedule's field, re-declared as ColorAssignment's derived one
    "_check_proper",  # ColorAssignment overrides EdgeSchedule's
    "signature",  # CodeParams; DerivedCounts' is read only by the tests' face census
    "n",  # ScheduleResult, CodeParams
    "genus",  # CodeParams, SurfaceComplex
    "orientable",  # CodeParams, SurfaceComplex
}


def test_shared_member_names_are_pinned():
    names = [member.rsplit(".", 1)[1] for member in class_members()]
    assert {name for name in names if names.count(name) > 1} == SHARED_MEMBERS


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


# Modules whose import the CLI's start-up does without: ``dataclasses``
# pulls in ``inspect``, and ``argparse`` (with ``gettext``) serves only
# help, usage errors and rejected values.
UNLOADED = ("argparse", "dataclasses", "gettext", "inspect")


def test_cli_loads_only_the_pipeline():
    # A fresh interpreter, so modules other tests imported do not count; the
    # modules it held before the import (the site's, say) do not count either.
    script = "\n".join([
        "import contextlib, io, sys",
        "before = set(sys.modules)",
        "import floqtess.cli",
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'floqtess')))",
        "print('fractions' in sys.modules)",
        f"print(' '.join(m for m in {UNLOADED!r} if m in set(sys.modules) - before))",
        "before = set(sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = floqtess.cli.main(['table', '--genus', '2', '--orientable', 'true'])",
        "print(code, 'argparse' in set(sys.modules) - before)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=PACKAGE_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, fractions, added, call = proc.stdout.split("\n")[:4]
    pipeline = ("catalog", "cli", "coloring", "derive", "floquet", "geodist", "hypgeo", "surface")
    assert loaded.split() == ["floqtess"] + [f"floqtess.{m}" for m in pipeline]
    assert fractions == "False"
    assert added == ""
    assert call == "0 False"


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
