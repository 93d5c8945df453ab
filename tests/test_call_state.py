"""No module of the package keeps results between calls.

The rule is the `pieces` docstring's: a Grading lives for one public
call, and "Nothing is kept between calls".  A module-level function
decorated with `functools.cache` or `lru_cache` keeps every result for
the life of the process and hands it to every caller, so it breaks the
rule; what one call computes once is held on its Grading instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "invforms"
RULE = "Nothing is kept between calls (see the `pieces` docstring)"
CACHES = {"cache", "lru_cache"}


def cached_functions(source):
    """The module-level functions in `source` decorated with
    `functools.cache` or `lru_cache`, under any name an import gives
    them, called or not."""
    tree = ast.parse(source)
    names = set()  # local names of the functools decorators
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(a.asname or a.name for a in node.names if a.name in CACHES)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            if (isinstance(dec, ast.Name) and dec.id in names) or (
                isinstance(dec, ast.Attribute) and dec.attr in CACHES
            ):
                found.append(node.name)
    return found


def test_the_check_finds_a_module_level_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache as memo, cached_property\n"
        "@cache\ndef a(): pass\n"
        "@memo(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache\ndef c(): pass\n"
        "def d():\n    @cache\n    def inner(): pass\n"
        "class E:\n    @cached_property\n    def f(self): pass\n"
    )
    assert cached_functions(source) == ["a", "b", "c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_level_function_is_cached(path):
    found = cached_functions(path.read_text())
    assert not found, f"{RULE}: {path.stem} caches {', '.join(found)} at module level"
