"""Digits of many positions are computed in group.py only.

Every digit function of the package is a block table built by
GroupShape.block_table (whole, or as the digit halves of exponent_halves),
read at x mod b_i by a HalvesReader joined over blocks by a CrtReader, or
along the flat layout by GroupShape.layout_sum, so a `.digit(` call in
another src/mspec module is a second, per-digit path.  The one exception
is learning.embed_inputs: its output holds one cos/sin column pair per
digit.
"""

import ast
import pathlib

import pytest

import mspec

MODULES = sorted(p for p in pathlib.Path(mspec.__file__).parent.glob("*.py")
                 if p.name != "group.py")
ALLOWED = {("learning.py", "embed_inputs")}


def digit_calls(source: str) -> list:
    """(enclosing function, line) of every call of a `.digit` attribute."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "digit"):
                found.append((owner, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(source), None)
    return found


def test_digit_calls_are_found():
    source = ("def f(s, i):\n    return s.digit(0, i)\n"
              "class C:\n    def g(self, s):\n        return [s.digit(j, 1) for j in (0, 1)]\n"
              "digit(0, 1)\n")
    assert digit_calls(source) == [("f", 2), ("g", 5)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_digit_pass_outside_group(path):
    calls = digit_calls(path.read_text())
    assert [c for c in calls if (path.name, c[0]) not in ALLOWED] == []
