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


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.M)
