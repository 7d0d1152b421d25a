"""No library module reads or writes the process environment.

The library's inputs are its arguments: the CLI passes --mem-cap to the
sieve as its mem_cap argument, and every cap a module checks is a constant
or an argument.  A reference to os.environ, os.getenv or os.putenv (or to
their bytes and unset variants) anywhere in src/mspec, the CLI included, is
a second input channel.
"""

import ast
import pathlib

import pytest

import mspec

MODULES = sorted(pathlib.Path(mspec.__file__).parent.glob("*.py"))
NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_uses(source: str) -> list:
    """Line of every os.<name> attribute and every `from os import <name>`,
    name in NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [node.lineno for alias in node.names if alias.name in NAMES]
    return sorted(found)


def test_environment_uses_are_found():
    source = ("import os\n"
              "cap = os.environ.get('X')\n"
              "def f():\n    return os.getenv('X')\n"
              "os.putenv('X', '1')\n"
              "from os import environ\n"
              "size = os.fstat(0).st_size\n"
              "environ = {}\n")
    assert environment_uses(source) == [2, 4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_touches_the_environment(path):
    assert environment_uses(path.read_text()) == []
