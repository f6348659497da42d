"""``tools/size.py`` counts code lines: docstrings, comments and blank lines
do not count, every line of a multi-line statement does."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "size.py"

#: 9 code lines: the import, the two-line def, the two-line string
#: assignment, the two-line return, the class line and its assignment.
MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment


# a comment-only line
def f(a,
      b):
    """Function docstring."""
    text = """a string that is
not a docstring"""
    return (a +
            b)


class C:
    """Class docstring."""

    x = 1
'''


@pytest.fixture(scope="module")
def size():
    spec = importlib.util.spec_from_file_location("size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_code_lines(size):
    assert size.code_lines(MODULE) == 9


def test_prints_each_module_then_the_total(size, tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Package docstring."""\n')
    (pkg / "mod.py").write_text(MODULE)
    assert size.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0  pkg/__init__.py",
        "     9  pkg/mod.py",
        "     9  total",
    ]
