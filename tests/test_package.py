import ast
from pathlib import Path

import pytest

import motionbands

_MODULES = sorted(Path(motionbands.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", motionbands.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(motionbands, name) is not None


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports bound to a name that nothing in the module
    reads. Names listed in ``__all__`` count as read (re-exports)."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import math\nfrom dataclasses import dataclass, field\n@dataclass\nclass A: pass\n")
    assert _unused_imports(tree) == ["math (line 1)", "field (line 2)"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions (assignments, functions and
    classes, dunders aside) that no module of ``sources`` reads, as a
    ``Name`` or as an ``Attribute``. ``sources`` maps module names to their
    code."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [
                (module, name, line) for name, line in names if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name} (line {line})" for module, name, line in defined if name not in read]


def test_every_private_helper_has_a_reader():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in _MODULES}
    assert _unread_private_names(sources) == []


def test_the_scan_finds_an_unread_helper():
    sources = {
        "a": "_USED = 1\n_ORPHAN = 2\ndef _helper(): pass\nclass _Kept: pass\n__all__ = []\n",
        "b": "from .a import _USED, _Kept\nx = _USED + 1\ny = mod._Kept\n",
    }
    assert _unread_private_names(sources) == ["a._ORPHAN (line 2)", "a._helper (line 3)"]


def _package_imports(tree: ast.Module) -> set[str]:
    """The ``motionbands`` modules that a module imports anywhere in it,
    relatively or by the package's name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module == "motionbands" or (node.module or "").startswith("motionbands."):
                base = node.module.partition(".")[2]
            else:
                continue
            found.update([base.split(".")[0]] if base else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("motionbands."))
    return found


def test_config_imports_no_package_module_but_errors():
    # Other modules read their defaults from config, so config importing
    # any of them back would make a cycle.
    tree = ast.parse((_MODULES[0].parent / "config.py").read_text(encoding="utf-8"))
    assert _package_imports(tree) <= {"errors"}


def test_the_scan_finds_package_imports():
    source = (
        "import numpy\nfrom .errors import E\nfrom . import motion\n"
        "def f():\n    from .filters import _ema\n    import motionbands.sim\n"
        "from motionbands.isochron import S\nfrom motionbands import planning\n"
    )
    assert _package_imports(ast.parse(source)) == {
        "errors", "motion", "filters", "sim", "isochron", "planning"
    }
