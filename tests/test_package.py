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
