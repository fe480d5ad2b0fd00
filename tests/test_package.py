"""The package holds only code that the program or the benchmark calls.

Every function, method and class defined in ``src/slra`` (``__init__.py``
aside) must be named, as a word, somewhere else in ``src/slra`` or in
``bench/*.py``: code that only the tests call belongs in the tests.  The
few reference evaluators that the tests need from the library are listed
below with their reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: names that only the tests call, each kept for the reason given
ALLOWED = {
    "primal_value": "the paper's non-convex objective, the tests' reference",
    "save_model_json": "the writer of the solve model-JSON input",
}


def test_every_definition_is_called_outside_the_tests():
    files = [p for p in sorted((ROOT / "src" / "slra").glob("*.py")) if p.name != "__init__.py"]
    text = "\n".join(p.read_text() for p in files + sorted((ROOT / "bench").glob("*.py")))
    names = {
        node.name
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert ALLOWED.keys() <= names, "the allowlist names a definition that is gone"
    unused = sorted(
        name for name in names - ALLOWED.keys()
        if len(re.findall(rf"\b{name}\b", text))
        == len(re.findall(rf"\b(?:def|class)\s+{name}\b", text))
    )
    assert unused == [], f"defined in src/slra but named nowhere else: {unused}"
