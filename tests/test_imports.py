"""Every name a module of the package imports is used in it.

No linter runs on this repository, and a change that deletes code can
leave an import behind.  The one binding kept on purpose is
`euler.piece_keys`: the benchmark's self-test checks that its tracer
restores it (see `test_benchmark_names.py`).  A name listed in a
module's `__all__` is used: the module re-exports it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "invforms"
KEPT = {("euler", "piece_keys")}


def unused_imports(source):
    """The names an import binds in `source` that nothing else reads."""
    tree = ast.parse(source)
    bound = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return bound - used


def test_the_check_finds_an_unused_import():
    source = "from math import comb, inf\nimport os.path\n__all__ = ['inf']\n"
    assert unused_imports(source) == {"comb", "os"}
    assert unused_imports("import os.path\nos.path.join('a')\n") == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = {(path.stem, name) for name in unused_imports(path.read_text())}
    assert unused - KEPT == set()
