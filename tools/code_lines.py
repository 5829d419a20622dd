"""Count code lines per module: lines that hold a token, leaving out docstrings,
comments and blank lines.

Usage: python tools/code_lines.py [FILE ...]   (default: src/hlq/*.py)

Prints one "<lines>  <path>" row per file and a total. Docstrings are the
string literals ``ast.get_docstring`` reads (the first statement of a module,
class or function); the remaining lines are those on which ``tokenize`` finds
a token other than a comment, a newline or an indent change. Stdlib only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        if ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of lines of path on which a code token starts or continues."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text, str(path)))
    lines: set[int] = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(Path("src/hlq").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
