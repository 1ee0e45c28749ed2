"""The public API is what the README documents.

Six contracts, checked on the source text, and one on a fresh import:
- every name the package root exports appears in README.md;
- every name the README's code blocks or the demos import from
  ``barlineage`` is exported by the root;
- no module of the package imports a name it never uses;
- no module defines a module-level ``_private`` name it never reads;
- every method or property of the package's classes is read, as
  ``.name``, by the package, the README, the demos, the benchmark
  scripts or the acceptance tests, unless it overrides a base's;
- the README lists exactly the keys ``mc --config`` reads;
- importing the package and its CLI leaves ``numpy.random`` unloaded.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import barlineage
from barlineage import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(
    p for p in (ROOT / "src" / "barlineage").glob("*.py") if p.name != "__init__.py"
)


def root_imports(source: str) -> set[str]:
    """Names imported with ``from barlineage import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "barlineage"
        for alias in node.names
    }


def readme_code() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)


@pytest.mark.parametrize("name", sorted(barlineage.__all__))
def test_exported_name_is_documented(name):
    assert re.search(rf"\b{re.escape(name)}\b", README), f"{name} is not in README.md"


def test_readme_and_demos_import_only_exported_names():
    sources = readme_code() + [
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))
    ]
    assert len(sources) > 3
    imported = set().union(*(root_imports(s) for s in sources))
    assert imported, "no root import found"
    assert imported <= set(barlineage.__all__), imported - set(barlineage.__all__)


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound - used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_unused_import_is_found():
    assert unused_imports("import math\nimport numpy as np\nnp.zeros(1)\n") == {"math"}


def dead_private_names(source: str) -> set[str]:
    """Module-level ``_name`` functions, classes and assignments that the
    module never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return {name for name in defined - read if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name(path):
    assert dead_private_names(path.read_text(encoding="utf-8")) == set()


def test_dead_private_name_is_found():
    source = ("_USED, _SPARE = 1, 2\n_LIMIT: int = 3\n"
              "def _helper():\n    return _USED\n"
              "class _Kept:\n    pass\n"
              "def public(x=_Kept):\n    _local = 4\n    return _helper()\n")
    assert dead_private_names(source) == {"_SPARE", "_LIMIT"}


def class_methods(source: str) -> set[str]:
    """The non-dunder methods and properties of the classes in ``source``."""
    return {
        node.name
        for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def unread_methods(modules: list[str], readers: list[str], docs: str) -> set[str]:
    """Methods of ``modules`` that no Python source of ``readers`` reads as an
    attribute and that ``docs`` never writes as ``.name``."""
    read = {n.attr for s in readers for n in ast.walk(ast.parse(s)) if isinstance(n, ast.Attribute)}
    return set().union(*map(class_methods, modules)) - read - set(re.findall(r"\.(\w+)", docs))


def overridden_names() -> set[str]:
    """Names that a class of the package defines over one of its bases'
    (``cli._Parser.error``): the base's own code calls them."""
    modules = [importlib.import_module(f"barlineage.{p.stem}") for p in MODULES]
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    return {n for c in classes for n in vars(c) if any(n in vars(b) for b in c.__mro__[1:])}


def test_every_method_is_read():
    package = sorted((ROOT / "src" / "barlineage").glob("*.py"))
    readers = [*package, *sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

    def texts(paths):
        return [p.read_text(encoding="utf-8") for p in paths]

    assert unread_methods(texts(package), texts(readers), README) - overridden_names() == set()


def test_unread_method_is_found():
    module = ("class Tree:\n    def used(self):\n        return self._helper()\n"
              "    def _helper(self):\n        return 1\n"
              "    @property\n    def spare(self):\n        return 2\n"
              "    def documented(self):\n        return 3\n"
              "    def __eq__(self, other):\n        return True\n")
    reader = "tree = Tree()\nprint(tree.used(), spare)\n"
    assert unread_methods([module], [module, reader], "Call `tree.documented()`.") == {"spare"}


def test_readme_lists_the_config_keys():
    listed = re.search(r"An `mc --config` file .*?\swith the keys (.*?);", README, re.DOTALL)
    assert listed, "no mc --config key list in README.md"
    assert re.findall(r"`(\w+)`", listed.group(1)) == list(cli._CONFIG_KEYS)


def test_import_leaves_numpy_random_unloaded():
    # numpy loads np.random on first use; a generator built at import would
    # load it (about 6 MB) in every process that imports the package, such
    # as the parent of a worker pool, which never draws
    code = "import sys, barlineage, barlineage.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
