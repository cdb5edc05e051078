"""Count the code lines of Python modules.

A line counts if it holds a token other than a comment, a NL, NEWLINE,
INDENT or DEDENT token, and lies outside the docstring of a module, class
or function.  A token that spans lines, such as a triple-quoted string,
covers every line it spans.

Usage: ``python tools/code_lines.py [paths]``; each path is a ``.py`` file
or a directory searched for them, ``src/qubocim`` by default.  Prints one
count per module, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    lines = set()
    for token in tokenize.generate_tokens(iter(text.splitlines(keepends=True)).__next__):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/qubocim"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
