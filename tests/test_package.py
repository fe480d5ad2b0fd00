"""The package holds only code that the program or the benchmark calls,
and each of its top-level names has one owner.

Every function, method and class defined in ``src/slra`` must be
referenced by code elsewhere in ``src/slra`` or in ``bench/*.py``: code
that only the tests call belongs in the tests.  A reference is a name, an
attribute or a string constant (``bench/tracing.py`` wraps functions by
their names as strings); docstrings, comments and the definition's own
body do not count.

No function, class or module-level constant may be defined in two modules
of ``src/slra``: a second module that needs it imports it.  Each name has
one import path, the module that defines it: ``src/slra/__init__.py``
imports nothing, so it re-exports nothing.

Every cross-reference in ``src/slra`` resolves: a ``:func:``, ``:meth:``,
``:class:`` or ``:mod:`` target, a private name in double backticks and a
``tests/<file>.py::<test>`` reference each name something defined, so no
text outlives what it describes.

No line of ``src/slra/*.py`` or ``tests/*.py`` is longer than 100
characters.

At most one module of ``src/slra`` imports a private numpy module (a
dotted name with a part that starts with ``_``), so one place owns what a
numpy upgrade may change.

``src/slra`` imports only itself, numpy and the standard library: numpy
is the one dependency (SciPy, for one, is not).
"""

import ast
import importlib
import re
import sys
import types
from collections import defaultdict
from pathlib import Path

import slra

ROOT = Path(__file__).resolve().parents[1]

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree):
    """The string constants that are docstrings of ``tree``'s module,
    classes and functions."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *DEFINITIONS))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _references(tree):
    """(name, line) of every name, attribute and non-docstring string
    constant in ``tree``."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield node.value, node.lineno


def test_every_definition_is_called_outside_the_tests():
    src = sorted((ROOT / "src" / "slra").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in src + sorted((ROOT / "bench").glob("*.py"))}
    references = defaultdict(list)  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in _references(tree):
            references[name].append((path, line))

    def referenced_outside(path, node):
        return any(p != path or not node.lineno <= line <= node.end_lineno
                   for p, line in references[node.name])

    unused = sorted(
        node.name
        for path in src
        for node in ast.walk(trees[path])
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not referenced_outside(path, node)
    )
    assert unused == [], f"defined in src/slra but referenced nowhere else: {unused}"


def _top_level_names(tree):
    """Names that a module's top-level statements define: its functions,
    classes and assigned constants, not what it imports."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_no_top_level_name_is_defined_in_two_modules():
    modules = defaultdict(list)  # name -> [module]
    for path in sorted((ROOT / "src" / "slra").glob("*.py")):
        for name in set(_top_level_names(ast.parse(path.read_text()))):
            modules[name].append(path.name)
    twice = sorted(name for name, paths in modules.items() if len(paths) > 1)
    assert twice == [], f"defined in more than one module of src/slra: {twice}"


def test_the_package_module_imports_nothing():
    tree = ast.parse((ROOT / "src" / "slra" / "__init__.py").read_text())
    imports = [f"line {node.lineno}" for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == [], f"src/slra/__init__.py imports, so names have two paths: {imports}"


#: a Sphinx role's target, and a private name (dotted or not) in double
#: backticks
_NAMED = re.compile(r":(?:func|meth|class|mod):`~?([\w.]+)`|``((?:\w+\.)*_[A-Za-z]\w*)``")
_TEST = re.compile(r"tests/(\w+\.py)::(\w+)")


def _resolves(scope, dotted):
    for part in dotted.split("."):
        if not hasattr(scope, part):
            return False
        scope = getattr(scope, part)
    return True


def _tests_defined(file):
    path = ROOT / "tests" / file
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)} if path.exists() else set()


def test_every_cross_reference_in_the_package_resolves():
    # importing __main__ would run the program
    paths = [p for p in sorted((ROOT / "src" / "slra").glob("*.py")) if p.stem != "__main__"]
    modules = {p: importlib.import_module("slra" if p.stem == "__init__" else f"slra.{p.stem}")
               for p in paths}
    package = types.SimpleNamespace(slra=slra)
    unresolved, seen = [], 0
    for path, module in modules.items():
        text = path.read_text()
        classes = [n for n in ast.parse(text).body if isinstance(n, ast.ClassDef)]
        for lineno, line in enumerate(text.splitlines(), 1):
            # a name resolves from its enclosing class, its module or the package
            scopes = [getattr(module, c.name) for c in classes
                      if c.lineno <= lineno <= c.end_lineno] + [module, package]
            for match in _NAMED.finditer(line):
                seen += 1
                name = match.group(1) or match.group(2)
                if not any(_resolves(scope, name) for scope in scopes):
                    unresolved.append(f"{path.name}:{lineno}: {name}")
            for file, test in _TEST.findall(line):
                seen += 1
                if test not in _tests_defined(file):
                    unresolved.append(f"{path.name}:{lineno}: tests/{file}::{test}")
    assert seen > 0
    assert unresolved == [], f"references to nothing in src/slra: {unresolved}"


def test_no_line_is_longer_than_100_characters():
    paths = sorted((ROOT / "src" / "slra").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    long = [f"{path.relative_to(ROOT)}:{lineno}: {len(line)}"
            for path in paths
            for lineno, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == [], f"lines over 100 characters: {long}"


def _imports(tree):
    """The dotted name of everything that ``tree`` imports absolutely
    (``from a import b`` gives ``a.b``); a relative import stays inside
    the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _private_numpy_imports(tree):
    """The private numpy modules that ``tree`` imports, by dotted name."""
    return (n for n in _imports(tree) if n.split(".")[0] == "numpy"
            and any(part.startswith("_") for part in n.split(".")))


def test_one_module_owns_the_private_numpy_api():
    owners = {path.name: sorted(set(_private_numpy_imports(ast.parse(path.read_text()))))
              for path in sorted((ROOT / "src" / "slra").glob("*.py"))}
    owners = {name: imports for name, imports in owners.items() if imports}
    assert len(owners) <= 1, f"private numpy modules imported in src/slra: {owners}"


def test_the_package_imports_only_numpy_and_the_standard_library():
    allowed = {"slra", "numpy", *sys.stdlib_module_names}
    foreign = sorted(f"{path.name}: {package}"
                     for path in sorted((ROOT / "src" / "slra").glob("*.py"))
                     for package in {n.split(".")[0] for n in _imports(ast.parse(path.read_text()))}
                     if package not in allowed)
    assert foreign == [], f"src/slra imports beyond numpy and the standard library: {foreign}"
