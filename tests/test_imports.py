"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unread_imports(path: Path) -> list:
    """Names that `path` imports and never reads, bare or as the root of an
    attribute. `__future__` imports are exempt, and so is a package
    `__init__`, whose imports are its re-exports."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(f"{path.parent.name}/{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 20
    assert [hit for path in MODULES for hit in _unread_imports(path)] == []


def test_unread_import_check_finds_one(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from __future__ import annotations\nimport math, os.path\n"
                      "from json import dumps as d, loads\nprint(os.sep, loads)\n")
    assert [hit.split(" ")[1] for hit in _unread_imports(source.resolve())] == [
        "math", "d"]


def _package_imports(path: Path) -> set:
    """The corrstn modules that `path`, a module of the package, imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(f"corrstn.{node.module}")
            else:
                found.update(f"corrstn.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("corrstn"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name.startswith("corrstn"))
    return found


def test_layers_import_only_the_engine_and_errors():
    # the layers read the mixing matrix and degree stack that the model
    # builds, so they never take SCorr or anything above the engine
    neural = ROOT / "src" / "corrstn" / "neural.py"
    assert _package_imports(neural) == {"corrstn.autodiff", "corrstn.errors"}
    model = ROOT / "src" / "corrstn" / "model.py"
    assert {"corrstn.neural", "corrstn.scorr"} <= _package_imports(model)
