"""Every name a module of the package imports is used in that module, and
every private name a module defines is read by a module of the package,
so an import or a helper that a deletion leaves behind fails here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "medmission"
# `__init__.py` imports names to export them.
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import of `tree` binds, and the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:   # `import a.b` binds `a`
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_the_package_has_modules_to_check():
    assert {"cli.py", "experiment.py", "metrics.py", "policy.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, ", ".join(f"{path.name}:{line}: {name} is imported but never used"
                                 for name, line in sorted(unused.items(), key=lambda kv: kv[1]))


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private (`_`-led, not dunder) name a top-level statement of
    `tree` defines, and its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def test_every_private_module_name_is_read_in_the_package():
    # A helper that a deletion leaves behind is read by no module; one that
    # only tests read is not private.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):   # `module._name`
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [f"{name}:{line}: {private} is defined but never read"
              for name, tree in trees.items()
              for private, line in _private_definitions(tree).items() if private not in read]
    assert not unread, ", ".join(unread)
