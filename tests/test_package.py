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


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The benchmark's sources, its own tests aside: the one reader of the
# package's public names outside it.
_READERS = sorted(p for p in _PERFBENCH.glob("*.py") if p.name != "test_perfbench.py")

# Public names kept without a reader in src/ or perfbench/, each with the
# reason it stays.
_KEPT_WITHOUT_READER = {
    # Writes the PGM and YAML pair a ROS map server loads: the interface
    # through which the robot's navigation stack receives the cost map.
    "planning.write_costmap",
    # Loads a map server's PGM and YAML pair, the static map that
    # splat_activity overlays with activity.
    "planning.read_costmap",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, line) of each module-level function, class
    and assigned name, and of each public method and property of a public
    class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node.lineno
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id, node.lineno


def _reads(tree: ast.Module, *, strings: bool) -> set[str]:
    """Names that ``tree`` loads, as a ``Name`` or an ``Attribute``; with
    ``strings``, also its ``from ... import`` aliases and string constants."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif strings and isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _unread_names(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Definitions in the package ``modules`` that have no reader. Both
    arguments map a module or file name to its code.

    * A private module-level name (``_name``, dunders aside: an assignment,
      function or class) must be read by a module of ``modules``.
    * A public name (a module-level function, class or constant, or a
      method or property of a public class) may also be read by a file of
      ``readers``: the benchmark's sources, ``perfbench/*.py`` other than
      its tests.

    A read is a ``Name`` or ``Attribute`` load. In ``readers`` it is also
    a ``from ... import`` alias, or a string constant equal to the name:
    the benchmark's tracer probes methods by name. A package module's own
    imports do not count (the unused-import test has each one read there
    as a ``Name``, re-exports aside), and neither does a listing in
    ``__all__``. Dataclass fields and instance attributes are data, not
    code, and are out of scope.

    Reads are matched by name alone, like a word search: any attribute
    of the same name keeps a method alive (``np.zeros`` would keep a
    ``zeros`` method). So the result is a lower bound on what nothing reads.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    in_package = set().union(*(_reads(tree, strings=False) for tree in trees.values()))
    anywhere = in_package.union(*(_reads(ast.parse(code), strings=True) for code in readers.values()))
    unread = []
    for module, tree in trees.items():
        for qualified, name, line in _definitions(module, tree):
            if name.startswith("__"):
                continue
            if name not in (in_package if name.startswith("_") else anywhere):
                unread.append(f"{qualified} (line {line})")
    return unread


def test_every_name_has_a_reader():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in _MODULES}
    readers = {path.name: path.read_text(encoding="utf-8") for path in _READERS}
    unread = _unread_names(modules, readers)
    assert [entry for entry in unread if entry.split(" ")[0] not in _KEPT_WITHOUT_READER] == []


def test_every_kept_name_is_defined():
    defined = {
        qualified
        for path in _MODULES
        for qualified, _, _ in _definitions(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    }
    assert _KEPT_WITHOUT_READER <= defined


def test_the_scan_finds_an_unread_helper():
    modules = {
        "a": "_USED = 1\n_ORPHAN = 2\ndef _helper(): pass\nclass _Kept: pass\n__all__ = []\n",
        "b": "from .a import _USED, _Kept\nprint(_USED + 1, mod._Kept)\n",
    }
    assert _unread_names(modules, {}) == ["a._ORPHAN (line 2)", "a._helper (line 3)"]


def test_the_scan_finds_an_unread_public_function_and_method():
    modules = {
        "a": (
            "LIMIT = 3\ndef orphan(): pass\ndef used(): pass\n"
            "class Shape:\n    side: int = 1\n    def area(self): pass\n"
            "    @property\n    def size(self): pass\n    def _hidden(self): pass\n"
            "__all__ = ['orphan', 'Shape']\n"
        ),
        "b": "from .a import orphan, used\nused()\n",
    }
    readers = {"bench.py": "from motionbands.a import Shape\nprint(LIMIT, Shape().size)\n"}
    assert _unread_names(modules, readers) == ["a.orphan (line 2)", "a.Shape.area (line 6)"]


def test_the_scan_counts_a_benchmark_string_as_a_reader():
    modules = {"a": "class Store:\n    def query(self): pass\n", "b": "Store()\n"}
    assert _unread_names(modules, {}) == ["a.Store.query (line 2)"]
    assert _unread_names(modules, {"bench.py": 'for method in ("query",): pass\n'}) == []
    # A string in a package module is no reader.
    with_string = {**modules, "b": 'NAME = "query"\nprint(Store, NAME)\n'}
    assert _unread_names(with_string, {}) == ["a.Store.query (line 2)"]


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


def test_no_package_module_imports_sim():
    # sim generates test and benchmark inputs; nothing on the camera path
    # may depend on it, so it can move out of the package.
    importers = [
        path.name
        for path in _MODULES
        if path.stem != "sim" and "sim" in _package_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == []


def test_the_scan_finds_package_imports():
    source = (
        "import numpy\nfrom .errors import E\nfrom . import motion\n"
        "def f():\n    from .filters import _ema\n    import motionbands.sim\n"
        "from motionbands.isochron import S\nfrom motionbands import planning\n"
    )
    assert _package_imports(ast.parse(source)) == {
        "errors", "motion", "filters", "sim", "isochron", "planning"
    }
