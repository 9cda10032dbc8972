"""Count the code lines of each module of src/lrvlab.

A line counts when a token other than a comment starts on it or spans it,
and it is not part of a docstring (the leading string of a module, class or
function).  Blank lines, comment lines and docstrings are thus excluded; a
multi-line string that is not a docstring counts every line it spans.

    python3 scripts/code_lines.py [PACKAGE_DIR]

prints one "lines  module" row per module and a total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(package_dir) -> dict:
    """{"modules": {file name: code lines}, "total": their sum} over the
    modules (*.py) of a package directory, in file name order."""
    modules = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(Path(package_dir).glob("*.py"))
    }
    return {"modules": modules, "total": sum(modules.values())}


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "lrvlab"
    counts = count(root)
    for name, lines in counts["modules"].items():
        print(f"{lines:6d}  {name}")
    print(f"{counts['total']:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
