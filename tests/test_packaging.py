"""The runtime keeps no dependencies outside the standard library."""
import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_sources_import_only_the_standard_library():
    seen, outside = set(), []
    for path in sorted((ROOT / "src" / "reggio").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            for module in modules:
                top = module.split(".")[0]
                seen.add(top)
                if top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {module}")
    assert seen, "no absolute import found: the scan is vacuous"
    assert not outside


def _unused_imports(path: Path) -> list[str]:
    """The names path imports and neither reads nor lists in __all__."""
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["__all__"]):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [*sorted((ROOT / "src" / "reggio").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    assert len(paths) > 20, "the scan is vacuous"
    assert [u for p in paths for u in _unused_imports(p)] == []


def _module_level_names(tree: ast.Module) -> dict[str, int]:
    """The functions, classes and constants a module defines at its top
    level, dunders aside, by line."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names[node.target.id] = node.lineno
    return {n: line for n, line in names.items()
            if not (n.startswith("__") and n.endswith("__"))}


def _names_read(tree: ast.Module) -> set[str]:
    """The names a module reads, as a name or attribute, imports or lists
    in __all__."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["__all__"]):
            read.update(ast.literal_eval(node.value))
    return read


def test_no_dead_module_level_definitions():
    """Every module-level function, class and constant of the package is
    named somewhere in it besides its definition, or exported."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "reggio").glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    defined = [(f"{name}:{line}: {n}", n) for name, tree in trees.items()
               for n, line in _module_level_names(tree).items()]
    assert len(defined) > 100, "the scan is vacuous"
    assert [where for where, n in defined if n not in read] == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.M)
