"""Every module-level import in ``src/repro`` is named by its module.

A stdlib ``ast`` scan.  An import that its module never names is left
over from code that moved or went away.  Package ``__init__.py`` files
are skipped, because their imports are the package's re-exports.
Imports under ``if TYPE_CHECKING:`` are checked like any other, and a
name that appears only inside a string annotation counts as named.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_imports(tree):
    """``(line, bound name)`` of each import outside functions and
    classes, including those under ``if`` and ``try`` blocks."""
    todo = [tree]
    while todo:
        for node in ast.iter_child_nodes(todo.pop()):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    yield node.lineno, bound
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        yield node.lineno, alias.asname or alias.name
            elif not isinstance(node, _SCOPES):
                todo.append(node)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    """Every name the module's code uses, string annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
    return names


def unused_imports(root=SRC):
    """``file:line name`` for each unused module-level import under
    ``root``, in file order."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = _names(tree)
        found.extend(
            f"{path.relative_to(root.parent)}:{line} {name}"
            for line, name in _module_imports(tree)
            if name not in used
        )
    return found


def test_every_module_import_is_used():
    assert unused_imports() == []


def test_scan_sees_type_checking_and_string_annotations(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from os import path\n")
    (package / "mod.py").write_text(
        "from typing import TYPE_CHECKING, List, Optional\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict, deque\n"
        "def f(x: 'Optional[deque]') -> None:\n"
        "    import json\n"
        "    return os.sep\n"
    )
    assert unused_imports(package) == [
        "pkg/mod.py:1 List",
        "pkg/mod.py:4 OrderedDict",
    ]
