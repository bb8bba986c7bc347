"""Every name a module imports is read somewhere in that module.

Each module under ``src/wavext``, ``tests`` and ``scripts`` is parsed with
``ast``.  A name counts as read when it is loaded anywhere in the module, or
when it is the parameter name of a function there: pytest passes an imported
fixture by the name of a test's parameter.  An import line marked
``# noqa: F401`` keeps a name bound on purpose and is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/wavext", "tests", "scripts")
                 for p in (ROOT / d).glob("*.py"))


def _imported(tree, lines):
    """(bound name, line number) of every imported name whose line is not
    marked noqa: F401."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            yield alias.asname or alias.name.split(".")[0], alias.lineno


def _read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def unused_imports(source):
    tree = ast.parse(source)
    read = _read(tree)
    return [(name, line) for name, line in
            _imported(tree, source.splitlines()) if name not in read]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_noqa():
    src = ("import os\nimport numpy as np\nfrom a import (b,\n    c, g)\n"
           "from d import (e,\n    h)  # noqa: F401\n"
           "def f(c):\n    return np.zeros(1)\n")
    assert sorted(unused_imports(src)) == [("b", 3), ("e", 5), ("g", 4),
                                           ("os", 1)]
