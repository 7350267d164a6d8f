"""The package runs on what it declares: every module it imports is in the
standard library, numpy or the package itself, and ``pyproject.toml``
declares numpy alone.  Other packages may be installed where the tests
run, so an undeclared import would pass every other test."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cryptoherm"


def imports(path: Path) -> list[str]:
    """The top-level name of every module ``path`` imports, at any depth
    (a function's lazy import included); ``"."`` for a relative import."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." if node.level else node.module.partition(".")[0])
    return names


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "cryptoherm", "."}
    found = {path.name: imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    stray = {name: sorted(set(mods) - allowed) for name, mods in found.items()
             if set(mods) - allowed}
    assert stray == {}
    # kg_beta's lazy import is seen, so a function-level import is checked too
    assert "decimal" in found["metric.py"]


def test_pyproject_declares_numpy_alone():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]]
    assert names == ["numpy"]
