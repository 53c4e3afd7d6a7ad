"""tools/line_counts.py: code, docstring and total lines per module."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "line_counts.py"
_SPEC = importlib.util.spec_from_file_location("line_counts", _PATH)
line_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_counts)

# 21 lines: 2 module docstring lines, 1 class docstring line, 3 function
# docstring lines (its blank line too); 7 code lines, among them the two
# lines of a string that is not a docstring; 2 comment lines (one indented)
# and 5 blank lines
_MODULE = '''"""A small module.
"""
# a comment

import math


class Box:
    """One docstring line."""

    size = 2  # a trailing comment keeps the line code


def area(r):
    """Area of a disk.

    r is the radius."""
    # the formula
    text = """not a
docstring"""
    return math.pi * r * r
'''


def test_counts_separate_code_docstrings_and_comments(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(_MODULE)
    assert line_counts.line_counts(path) == (7, 6, 21)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "small.py").write_text(_MODULE)
    (tmp_path / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    line_counts.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == ["empty 0 0 0", "small 7 6 21",
                                                    "total 7 6 21"]
