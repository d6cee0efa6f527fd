#!/usr/bin/env python3
"""Count the lines and the code lines of Python modules.

    python3 scripts/loc.py [PATH ...]

Each PATH is a module or a directory searched for ``*.py`` files
(default ``src``). Prints one line per module, then the total:

    <lines> <code lines> <path>

A code line holds at least one token that is not a comment and not part
of a docstring (the first statement of a module, class or function,
when it is a string literal); blank lines are no code either. A
statement continued over several lines counts each of them, and so does
a multi-line string that is no docstring. Lines removed by deleting
comments or docstrings thus change the first count only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that mark structure, not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str):
    """(lines, code lines) of the Python ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING
                                     and token.start[0] in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def modules(paths):
    """The ``*.py`` files named by ``paths``, directories searched in sorted order."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    total_lines = total_code = 0
    for path in modules(argv or ["src"]):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d} {path}")
    print(f"{total_lines:6d} {total_code:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
