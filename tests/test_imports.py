"""Every name a module imports is read somewhere in that module, every name
the library defines is named somewhere, every keyword default of a library
function is passed by some call, and importing the CLI leaves the heavy
scipy subpackages it never needs unloaded.

Each module under ``src/wavext``, ``tests`` and ``scripts`` is parsed with
``ast``.  A name counts as read when it is loaded anywhere in the module, or
when it is the parameter name of a function there: pytest passes an imported
fixture by the name of a test's parameter.  An import line marked
``# noqa: F401`` keeps a name bound on purpose and is exempt.

A def, class or assignment at the top level of a ``src/wavext`` module must
be named by some module under ``src``, ``tests``, ``scripts`` or
``perfbench``: loaded, read as an attribute, imported, or spelled as a
string that is an identifier, as the benchmark's tracing looks names up.

A keyword default of a def in ``src/wavext`` must be passed, by keyword or
by position, by some call under ``src``, ``tests``, ``scripts`` or
``perfbench``.  Calls are matched by the name they spell, and a call that
unpacks ``*`` or ``**`` counts as passing everything.

No ``src/wavext`` module reads ``np.random`` or ``numpy.random``, or imports
``numpy.random``, but ``dwt.operator_norms``, whose fixed start vector
serves the ``dwt-norms`` command: every solve is deterministic.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/wavext", "tests", "scripts")
                 for p in (ROOT / d).glob("*.py"))
LIBRARY = sorted((ROOT / "src/wavext").glob("*.py"))
NAMING = MODULES + sorted(p for d in ("perfbench", "perfbench/tests")
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


def defined(tree):
    """(name, line number) of every def, class or assignment target at the
    top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def named(tree):
    """Every name a module loads, reads as an attribute, imports or spells as
    an identifier string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_library_definition_is_named():
    everywhere = set().union(*(named(ast.parse(p.read_text()))
                               for p in NAMING))
    unnamed = [(str(p.relative_to(ROOT)), name, line) for p in LIBRARY
               for name, line in defined(ast.parse(p.read_text()))
               if name not in everywhere]
    assert unnamed == []


def test_definition_checker_flags_unnamed():
    tree = ast.parse("X = 1\nY: int = 2\na, (b, c) = 3, (4, 5)\n"
                     "def f():\n    return g()\nclass C:\n    z = 1\n")
    assert sorted(defined(tree)) == [("C", 6), ("X", 1), ("Y", 2), ("a", 3),
                                     ("b", 3), ("c", 3), ("f", 4)]
    used = named(ast.parse("import m\nfrom p import X\nm.f(getattr(m, 'a'))\n"
                           "print(b)\nb = 'not an identifier'\n"))
    assert {"X", "f", "a", "b", "m"} <= used and "C" not in used


def keyword_defaults(tree):
    """(function, parameter, position, line) of every parameter with a
    default of every def in a module.  ``position`` is the index at which a
    call's positional arguments reach the parameter, a method's self or cls
    left out (None for a keyword-only one); an ``__init__`` is called by the
    name of its class."""
    owner = {item: node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        bound = node in owner and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        name = owner[node] if bound and node.name == "__init__" else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, arg.arg, i - bound, arg.lineno
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, arg.lineno


def calls(tree):
    """(called name, positional count, keyword names) of every call in a
    module, by the name a call spells (``f(...)`` or ``obj.f(...)``).  A
    call that unpacks ``*`` or ``**`` may pass anything: count and names
    None."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name is None:
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            yield name, None, None
        else:
            yield name, len(node.args), {k.arg for k in node.keywords}


def unpassed_defaults(tree, call_records):
    """(function, parameter, line) of each keyword default in tree that no
    call among call_records passes, by keyword or by position."""
    def passes(name, param, position):
        return any(n == name and (count is None or param in keywords
                                  or (position is not None
                                      and count > position))
                   for n, count, keywords in call_records)
    return [(name, param, line)
            for name, param, position, line in keyword_defaults(tree)
            if not passes(name, param, position)]


def test_every_keyword_default_is_passed():
    """A default no call overrides is a knob nobody turns: make it a
    constant of the function instead."""
    records = [c for p in NAMING for c in calls(ast.parse(p.read_text()))]
    unpassed = [(str(p.relative_to(ROOT)), *u) for p in LIBRARY
                for u in unpassed_defaults(ast.parse(p.read_text()), records)]
    assert unpassed == []


def test_default_checker_flags_unpassed():
    lib = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                    "class C:\n    def __init__(self, x=0, y=1):\n        pass\n"
                    "    def m(self, z=0):\n        pass\n"
                    "    @staticmethod\n    def s(u=0, v=1):\n        pass\n"
                    "def g(w=0):\n    pass\n"
                    "def h(k=0):\n    pass\n")
    records = list(calls(ast.parse(
        "f(1, 2)\nmod.f(1, e=5)\nC(1)\nobj.m()\nC.s(0, 1)\n"
        "g(*args)\nh(**kw)\n")))
    assert sorted(unpassed_defaults(lib, records)) == [
        ("C", "y", 4), ("f", "c", 1), ("f", "d", 1), ("m", "z", 6)]


def random_reads(tree):
    """(enclosing top-level def or class, or None, line number) of every
    read of ``np.random`` or ``numpy.random`` and every import of
    ``numpy.random`` in a module."""
    for top in tree.body:
        owner = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                hit = (node.attr == "random"
                       and isinstance(node.value, ast.Name)
                       and node.value.id in ("np", "numpy"))
            elif isinstance(node, ast.Import):
                hit = any(a.name.startswith("numpy.random")
                          for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy"
                    and any(a.name == "random" for a in node.names))
            else:
                continue
            if hit:
                yield owner, node.lineno


# The one library use of a random generator: a fixed power-iteration start.
RANDOM_ALLOWED = {("dwt.py", "operator_norms")}


def test_library_draws_no_random_numbers():
    found = [(p.name, owner, line) for p in LIBRARY
             for owner, line in random_reads(ast.parse(p.read_text()))
             if (p.name, owner) not in RANDOM_ALLOWED]
    assert found == []


def test_random_checker_flags_generators():
    tree = ast.parse("import numpy as np\nimport numpy.random\n"
                     "from numpy import random\n"
                     "from numpy.random import default_rng\n"
                     "def f(seed):\n    return np.random.Philox(seed)\n"
                     "class C:\n    g = numpy.random.default_rng(0)\n"
                     "def h(x):\n    return x.random + np.linalg.norm(x)\n")
    assert sorted(random_reads(tree), key=lambda r: r[1]) == [
        (None, 2), (None, 3), (None, 4), ("f", 6), ("C", 8)]


def test_cli_import_leaves_scipy_interpolate_unloaded():
    """``scipy.interpolate`` pulls in scipy.optimize, .special and .fft; only
    the non-dyadic-q CDF branch of ``dual.sample_primal`` loads it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wavext.cli; print('scipy.interpolate' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
