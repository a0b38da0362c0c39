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


KERNELS = {"_complex", "_conj", "_dot", "_fbox", "_nonzeros", "_norms_sq", "_parts",
           "_scatter"}


def imported_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


# every form <B u, v> is read by matrices, so no layer above it re-implements
# the kernels' arithmetic
@pytest.mark.parametrize("name", ["isometry.py", "spectral.py"])
def test_forms_are_read_in_matrices(name):
    assert imported_names(SRC / name) & KERNELS == set()


def numpy_imports(path):
    """Lines on which a module imports numpy: an import statement, or the
    name "numpy" handed to the import system."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "numpy"
                  or isinstance(node, ast.Constant) and node.value == "numpy")


# matrices makes numpy load on first use; an import anywhere else would load
# it at start-up in every exact-mode process
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "matrices.py"),
                         ids=lambda p: p.name)
def test_only_matrices_imports_numpy(path):
    assert numpy_imports(path) == []


def test_numpy_import_is_seen_in_matrices():
    assert numpy_imports(SRC / "matrices.py")


def import_time_np_reads(source):
    """Lines on which a module reads an attribute of np while it is imported:
    anywhere but in a function body, whose decorators and default values do
    run at import."""
    lines = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            run_now = getattr(node, "decorator_list", []) + args.defaults + args.kw_defaults
            for child in filter(None, run_now):
                visit(child)
            return
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np"):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_np_attribute_is_read_at_import(path):
    assert import_time_np_reads(path.read_text()) == []


def test_import_time_np_reads_are_seen():
    source = ("_quiet = np.errstate(all='ignore')\n"
              "@np.errstate(all='ignore')\n"
              "def f(x=np.float64(0)):\n"
              "    return np.abs(x)\n"
              "class C:\n"
              "    eps = np.finfo(float).eps\n")
    assert import_time_np_reads(source) == [1, 2, 3, 6]


def unread_private_functions(sources):
    """(module, name) for each private function defined in the modules
    sources maps by name, that no code outside its own body reads by name, as
    a Name or as an attribute: a helper kept only for tests to call.  The
    cli's `_cmd_*` handlers are exempt, as main looks them up by name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(node, node.id if isinstance(node, ast.Name) else node.attr)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    unread = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_") and not fn.name.endswith("__")
                    and not fn.name.startswith("_cmd_")):
                inside = {id(node) for node in ast.walk(fn)}
                if not any(name == fn.name and id(node) not in inside for node, name in reads):
                    unread.append((module, fn.name))
    return sorted(unread)


def test_every_private_function_is_read():
    assert unread_private_functions({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_unread_private_functions_are_seen():
    sources = {"a.py": "def _used():\n    return _used()\n"
                       "def _read():\n    pass\n"
                       "class C:\n    def _method(self):\n        pass\n"
                       "def _cmd_x():\n    pass\n",
               "b.py": "from a import _read\nf = _read\n"}
    assert unread_private_functions(sources) == [("a.py", "_method"), ("a.py", "_used")]
