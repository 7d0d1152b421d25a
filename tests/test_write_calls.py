"""Only the CLI writes output files.

The library computes and returns arrays and records; the formats they are
written in (the JSON record, the --plot-data CSV) belong to cli.py.  The one
other writer is arith.dump_table, whose binary format arith.load_table reads
back.  An `open` call with a write, append, create or update mode anywhere
else in src/mspec is a second output format.
"""

import ast
import pathlib

import pytest

import mspec

MODULES = sorted(p for p in pathlib.Path(mspec.__file__).parent.glob("*.py")
                 if p.name != "cli.py")
ALLOWED = {("arith.py", "dump_table")}


def write_opens(source: str) -> list:
    """(enclosing function, line) of every `open` call whose mode may write;
    a mode that is not a string literal counts as writing."""
    found = []

    def writes(call):
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "open" and writes(child)):
                found.append((owner, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(source), None)
    return found


def test_write_opens_are_found():
    source = ("def f(p):\n    return open(p, 'wb')\n"
              "class C:\n    def g(self, p, m):\n        open(p, mode=m)\n"
              "        open(p, 'a')\n"
              "open('x', 'r+')\n"
              "def h(p):\n    open(p)\n    open(p, 'rb')\n    open(p, mode='r')\n")
    assert write_opens(source) == [("f", 2), ("g", 5), ("g", 6), (None, 7)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_output_file_outside_the_cli(path):
    calls = write_opens(path.read_text())
    assert [c for c in calls if (path.name, c[0]) not in ALLOWED] == []
