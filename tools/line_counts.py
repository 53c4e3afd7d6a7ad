"""Code, docstring and total lines per module of src/jacksonlab, plus a total line.

    python3 tools/line_counts.py [SRC_DIR]

Run from anywhere; SRC_DIR defaults to the package directory of the
checkout this file sits in.  It prints one line per module, in name order,
then the sums:

    <module> <code> <docstring> <total>

A docstring line is a line of a module, class or function docstring, from
its first quote to its last.  A code line is a line outside those
docstrings that is neither blank nor a comment.  Total lines are all lines.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jacksonlab"


def docstring_lines(tree):
    """The line numbers spanned by the module, class and function docstrings of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(path):
    """(code, docstring, total) lines of the Python source file `path`."""
    text = Path(path).read_text()
    docs = docstring_lines(ast.parse(text))
    code = 0
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number not in docs and stripped and not stripped.startswith("#"):
            code += 1
    return code, len(docs), len(text.splitlines())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=SRC)
    args = parser.parse_args(argv)
    sums = [0, 0, 0]
    for path in sorted(args.src.glob("*.py")):
        counts = line_counts(path)
        sums = [a + b for a, b in zip(sums, counts)]
        print(path.stem, *counts)
    print("total", *sums)


if __name__ == "__main__":
    main()
