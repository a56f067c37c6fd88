#!/usr/bin/env python3
"""Count code lines in Python source trees.

A code line is a line that holds a Python token other than a comment. A
docstring (of a module, class or function) does not count, nor do blank
lines and comment-only lines. A token that spans lines, such as a
triple-quoted string that is not a docstring, counts on every line it spans.

    python scripts/count_lines.py              # src/ and tests/
    python scripts/count_lines.py src/ltbp     # any files or directories

Prints one ``<path> <lines>`` line per argument.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_file(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(source, str(path)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(path: Path) -> int:
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(count_file(file) for file in files)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories (default: src tests)")
    args = parser.parse_args()
    for name in args.paths:
        path = Path(name)
        if not path.exists():
            print(f"count_lines: no such file or directory: {name}", file=sys.stderr)
            return 2
        print(f"{name} {count(path):,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
