"""The package's public names, and source-level invariants: no assert
statements and no imports outside the standard library."""

import ast
import pathlib
import sys

import freedist


def test_every_exported_name_resolves():
    missing = [name for name in freedist.__all__
               if not hasattr(freedist, name)]
    assert missing == []
    assert len(set(freedist.__all__)) == len(freedist.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from freedist import *", namespace)
    assert set(freedist.__all__) <= set(namespace)


def _package_trees():
    src = pathlib.Path(freedist.__file__).parent
    for path in sorted(src.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_package_has_no_assert_statements():
    """Invariants are explicit raises: ``python -O`` strips asserts."""
    found = [f"{name}:{node.lineno}" for name, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_itself_and_the_standard_library():
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno}: {m}" for m in modules
                      if m.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
