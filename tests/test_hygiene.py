"""Source hygiene checks that need no linter."""

import ast
import re
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


def tol_floors(sources):
    """(module, function, call) for each max(...) or min(...) call, in the
    modules sources maps by name, with an argument tol or x.tol: a floor or
    cap on the tolerance that no threshold shows.  A function around such a
    call holds it too."""
    def is_tol(node):
        return (isinstance(node, ast.Name) and node.id == "tol"
                or isinstance(node, ast.Attribute) and node.attr == "tol")

    found = set()
    for module, source in sources.items():
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, ast.FunctionDef):
                found.update((module, fn.name, ast.unparse(node)) for node in ast.walk(fn)
                             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                             and node.func.id in ("max", "min") and any(map(is_tol, node.args)))
    return sorted(found)


# the hidden floors ROADMAP item 1 lists: a new one fails here, and mending
# one shortens the list
def test_only_the_listed_tol_floors_remain():
    assert tol_floors({p.name: p.read_text() for p in SRC.glob("*.py")}) == [
        ("spectral.py", "_kernel_chain", "max(tol, 1e-10)"),
        ("spectral.py", "_pair_preconditions", "max(tol, 1e-08)")]


def test_tol_floors_are_seen():
    source = ("def f(x, tol, args):\n"
              "    a = max(tol, 1e-10) + min(1.0, args.tol)\n"
              "    return max(x, 1.0) + max(tol_scale, 2) + max(x.tol_like, 3)\n")
    assert tol_floors({"a.py": source}) == [("a.py", "f", "max(tol, 1e-10)"),
                                            ("a.py", "f", "min(1.0, args.tol)")]


def zero_decisions(source, exempt=()):
    """Lines on which a module decides a zero by itself: an is_zero call with
    an argument, a vec_is_zero call with a second one, or a comparison with a
    name tol or thr as an operand.  The bodies of the functions named in
    exempt are not read."""
    def named(node, *names):
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names)

    lines = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            return
        if isinstance(node, ast.Call):
            count = len(node.args) + len(node.keywords)
            if (named(node.func, "is_zero") and count
                    or named(node.func, "vec_is_zero") and count > 1):
                lines.append(node.lineno)
        if isinstance(node, ast.Compare) and any(named(x, "tol", "thr")
                                                 for x in (node.left, *node.comparators)):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


# every zero decision is scalars.negligible's, so that no call site compares
# against a tolerance of its own; the cli only validates the --tol it reads
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "scalars.py"),
                         ids=lambda p: p.name)
def test_only_negligible_decides_zeros(path):
    assert zero_decisions(path.read_text(), exempt={"_tolerance"}) == []


def test_zero_decisions_are_seen():
    source = ("def f(x, u, tol, thr):\n"
              "    a = x.is_zero(tol) or x.is_zero()\n"
              "    b = vec_is_zero(u, 0.0) or vec_is_zero(u)\n"
              "    c = abs(x) <= thr or 0 < tol < 1 or x.re > tol\n"
              "    return negligible(x, mode, tol, lambda: 1.0, 'x')\n"
              "def _tolerance(tol):\n"
              "    return 0 <= tol < 1\n")
    assert zero_decisions(source, exempt={"_tolerance"}) == [2, 3, 4, 4, 4]
    assert zero_decisions(source) == [2, 3, 4, 4, 4, 7]


def zero_threshold_readers(sources):
    """(module, function) for each function that reads the name
    zero_threshold, in the modules sources maps by name; a function around
    a reader reads it too."""
    return sorted({(module, fn.name) for module, source in sources.items()
                   for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)
                   and any(isinstance(n, ast.Name) and n.id == "zero_threshold"
                           for n in ast.walk(fn))})


# a threshold that is not one zero decision: the window scale, the binomial
# cross-check's slack, and beta_m's threshold for the witness search and the
# restricted order's forms
def test_zero_threshold_is_read_where_it_is_not_one_decision():
    assert zero_threshold_readers({p.name: p.read_text() for p in SRC.glob("*.py")}) == [
        ("diffcalc.py", "_check_binomial_form"), ("diffcalc.py", "_detect_degree"),
        ("isometry.py", "threshold"), ("scalars.py", "negligible")]


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


def module_imports(path, module):
    """Lines on which a module imports the named module: an import
    statement, or the name handed to the import system."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == module for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == module
                  or isinstance(node, ast.Constant) and node.value == module)


# matrices makes numpy load on first use; an import anywhere else would load
# it at start-up in every exact-mode process
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "matrices.py"),
                         ids=lambda p: p.name)
def test_only_matrices_imports_numpy(path):
    assert module_imports(path, "numpy") == []


def test_numpy_import_is_seen_in_matrices():
    assert module_imports(SRC / "matrices.py", "numpy")


# every verdict is decided on fixed candidates; only the seeded corpora of
# the verification suites draw random numbers
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "suites.py"),
                         ids=lambda p: p.name)
def test_only_suites_imports_random(path):
    assert module_imports(path, "random") == []


def test_random_import_is_seen_in_suites():
    assert module_imports(SRC / "suites.py", "random")


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


def unread_public_names(sources, readme):
    """(module, name) for each module-level public function or class that
    no code reads by name outside its own body, as a Name or as an
    attribute, and that readme does not name.  sources maps repository
    paths to source text; the names are those of src/misolab/*.py other
    than __init__.py, whose re-exports are imports, not reads."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    reads = [(node, node.id if isinstance(node, ast.Name) else node.attr)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    unread = []
    for path, tree in trees.items():
        if not path.startswith("src/misolab/") or path.endswith("/__init__.py"):
            continue
        for defn in tree.body:
            if (isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not defn.name.startswith("_")
                    and not re.search(rf"\b{defn.name}\b", readme)):
                inside = {id(node) for node in ast.walk(defn)}
                if not any(name == defn.name and id(node) not in inside for node, name in reads):
                    unread.append((Path(path).name, defn.name))
    return sorted(unread)


# a public name that no request, suite, script or README entry reaches is
# kept only for its tests
def test_every_public_name_is_read():
    root = SRC.parent.parent
    paths = [*SRC.glob("*.py"), *root.glob("scripts/*.py"), *root.glob("perfbench/*.py")]
    sources = {str(p.relative_to(root)): p.read_text() for p in paths}
    assert unread_public_names(sources, (root / "README.md").read_text()) == []


def test_unread_public_names_are_seen():
    sources = {"src/misolab/a.py": "def used():\n    return used()\n"
                                   "def named():\n    pass\n"
                                   "def read():\n    pass\n"
                                   "class Record:\n    def method(self):\n        pass\n"
                                   "def _private():\n    return Record()\n",
               "scripts/b.py": "from misolab import a\n"
                               "def main():\n    return a.read\n"}
    assert unread_public_names(sources, "`named()` is documented") == [("a.py", "used")]


def unread_slots(sources):
    """(module, class, name) for each __slots__ entry of a class in the
    modules sources maps by name, that no module reads as an attribute: a
    field that is only ever written."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((module, cls.name, name) for module, tree in trees.items()
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for stmt in cls.body if isinstance(stmt, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
                  for name in ast.literal_eval(stmt.value) if name not in reads)


def test_every_slot_is_read():
    assert unread_slots({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_unread_slots_are_seen():
    sources = {"a.py": "class C:\n    __slots__ = ('read', 'written', 'elsewhere')\n"
                       "    def __init__(self):\n"
                       "        self.read = self.written = self.elsewhere = 0\n"
                       "    def f(self):\n        return self.read\n",
               "b.py": "def g(c):\n    c.written = 1\n    return c.elsewhere\n"}
    assert unread_slots(sources) == [("a.py", "C", "written")]


def json_encoder_reads(source):
    """Lines on which a module reads json.dump or json.dumps, as an attribute
    of json or imported from it."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                  and isinstance(node.value, ast.Name) and node.value.id == "json"
                  or isinstance(node, ast.ImportFrom) and node.module == "json"
                  and any(alias.name in ("dump", "dumps") for alias in node.names))


# cli._ENCODER is the one report encoder, so every report keeps the one
# format it writes
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_json_dump(path):
    assert json_encoder_reads(path.read_text()) == []


def test_json_encoder_reads_are_seen():
    source = ("import json\n"
              "from json import dumps\n"
              "from json.encoder import encode_basestring_ascii\n"
              "json.dump({}, fh)\n"
              "text = json.dumps([], indent=2)\n"
              "doc = json.loads(text)\n")
    assert json_encoder_reads(source) == [2, 4, 5]


def json_encoder_builds(sources):
    """(module, scope) for each call that builds a JSONEncoder, as an
    attribute or by a name imported from json or json.encoder, in the modules
    sources maps by name; the scope is the innermost function or class
    around the call, or "<module>"."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder")
                 for alias in node.names if alias.name == "JSONEncoder"}

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = node.name
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "JSONEncoder"
                    or isinstance(node.func, ast.Name) and node.func.id in names):
                found.append((module, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "<module>")
    return sorted(found)


# one encoder, built once at import: a second one, or one built per call,
# is a second place where the report format could drift
def test_one_report_encoder():
    assert json_encoder_builds({p.name: p.read_text() for p in SRC.glob("*.py")}) == [
        ("cli.py", "<module>")]


def test_json_encoder_builds_are_seen():
    sources = {"a.py": "import json\n"
                       "from json.encoder import JSONEncoder as Enc\n"
                       "ONE = json.JSONEncoder(indent=2)\n"
                       "def f(x):\n    return json.JSONEncoder().encode(x)\n"
                       "class C:\n    enc = Enc()\n",
               "b.py": "import json\n"
                       "doc = json.JSONDecoder().decode('{}')\n"
                       "enc = json.encoder.JSONEncoder(indent=2)\n"}
    assert json_encoder_builds(sources) == [("a.py", "<module>"), ("a.py", "C"), ("a.py", "f"),
                                            ("b.py", "<module>")]


def nested_imports(source):
    """Lines of the import statements that are not in the module body: an
    import inside a function runs on every call and hides a module's
    dependencies from its top."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert nested_imports(path.read_text()) == []


def test_nested_imports_are_seen():
    source = ("import math\n"
              "def f(x):\n"
              "    import json\n"
              "    return json.dumps(math.floor(x))\n"
              "def g():\n"
              "    from .specio import format_rational\n"
              "    return format_rational\n")
    assert nested_imports(source) == [3, 6]
