"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "misolab"


def unused_imports(path):
    """(line, name) for each name a module imports but never reads;
    `__future__` imports are not counted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


# __init__.py imports names only to re-export them
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def tol_arithmetic(path):
    """Lines on which a module applies arithmetic to a name `tol`."""
    def is_tol(node):
        return isinstance(node, ast.Name) and node.id == "tol"
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and (is_tol(node.left) or is_tol(node.right))
                  or isinstance(node, ast.UnaryOp) and is_tol(node.operand)
                  or isinstance(node, ast.AugAssign) and (is_tol(node.target)
                                                          or is_tol(node.value)))


# every float zero threshold is scalars.zero_threshold's tol * magnitude(),
# so that no call site grows a formula of its own
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "scalars.py"),
                         ids=lambda p: p.name)
def test_only_zero_threshold_scales_tol(path):
    assert tol_arithmetic(path) == []


def test_tol_arithmetic_is_seen_in_zero_threshold():
    assert tol_arithmetic(SRC / "scalars.py")
