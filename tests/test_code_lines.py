"""What ``tools/code_lines.py`` counts as a code line."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# Each snippet, and the number of its lines that count.
SNIPPETS = {
    "module docstring": ('"""A module docstring,\nover two lines."""\nx = 1\n', 1),
    "class docstring": ('class A:\n    """A class docstring,\n    two lines."""\n', 1),
    "function docstring": (
        'def f():\n    """A function docstring,\n\n    with a blank line."""\n'
        "    return 1\n",
        2,
    ),
    "comments and blank lines": ("# a comment\n\nx = 1  # after code\n\n    \n", 1),
    "string that is not a docstring": ('x = """a string\nover\nthree lines"""\n', 3),
    "string after the first statement": (
        'def f():\n    x = 1\n    """not a docstring,\n    two lines"""\n',
        4,
    ),
    "backslash continuation": ("x = 1 + \\\n    2\n", 2),
    "bracket continuation": ("x = [\n    1,\n\n    2,  # c\n]\n", 4),
}


@pytest.mark.parametrize(
    ("source", "count"), SNIPPETS.values(), ids=list(SNIPPETS)
)
def test_code_lines(source, count):
    assert code_lines.code_lines(source) == count


def test_docstring_lines_are_the_lines_of_each_docstring():
    source = SNIPPETS["function docstring"][0] + SNIPPETS["class docstring"][0]
    assert code_lines.docstring_lines(source) == {2, 3, 4, 7, 8}
