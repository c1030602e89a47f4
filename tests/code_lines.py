"""Count the code lines of Python source files.

A code line holds at least one token that is not a comment, a newline or
an indentation change, and is not part of a docstring: the string that
opens a module, class or function body.  So docstrings, comments and
blank lines are excluded, and every line of a multi-line statement
counts.  The counts in CHANGES.md and ROADMAP.md come from this recipe.

Run it on a directory or on files:

    python tests/code_lines.py src/cdindex

prints one count per file and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings under `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text.

    >>> code_lines("'''Doc.'''\\n\\n# note\\nx = (1,\\n     2)  # two lines\\n")
    2
    """
    docs = docstring_lines(ast.parse(source))
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count_paths(paths: list[str]) -> dict[str, int]:
    """Code lines per file, for the .py files named or under the directories
    named, in sorted order."""
    files = []
    for name in paths:
        path = Path(name)
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return {str(f): code_lines(f.read_text(encoding="utf-8")) for f in files}


def main(argv: list[str]) -> int:
    counts = count_paths(argv or ["."])
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
