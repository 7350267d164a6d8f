"""The package runs on what it declares: every module it imports is in the
standard library, numpy or the package itself, and ``pyproject.toml``
declares numpy alone.  Other packages may be installed where the tests
run, so an undeclared import would pass every other test."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

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


# the attribute that holds a node's word: a name, an attribute, an imported
# name or module, or a string literal
WORD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.ImportFrom: "module",
        ast.Constant: "value"}


def test_only_spectra_names_the_lapack_gufuncs_or_their_signatures():
    # numpy's private LAPACK gufuncs, spectra's names for its calls of them,
    # and every gufunc type signature ("d->D", ...) stay in spectra alone,
    # so a numpy that renames them has one module to fall back in
    names = {"_umath_linalg", "_ROUTINES", "_Invalid", "_lapack_dispatch"}
    lapack = names | {sig for gufunc in vars(_umath_linalg).values()
                      if isinstance(gufunc, np.ufunc) for sig in gufunc.types}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = ast.walk(ast.parse(path.read_text(), str(path)))
        words = [getattr(node, WORD.get(type(node), ""), None) for node in nodes]
        # each word, and each part of a dotted one
        found[path.name] = lapack & {part for word in words if isinstance(word, str)
                                     for part in (word, *word.split("."))}
    assert {name: sorted(terms) for name, terms in found.items()
            if terms and name != "spectra.py"} == {}
    assert found["spectra.py"] >= names | {"d->D", "D->D", "dd->d"}
