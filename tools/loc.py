"""Code lines per Python file under src/ and tests/.

A code line holds at least one token that is not a comment. Blank lines,
comment-only lines and docstring lines (the string that opens a module,
class or function body) are not counted. Run from the root of a checkout:

    python tools/loc.py [directory ...]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one file's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    roots = [Path(a) for a in (argv if argv is not None else sys.argv[1:])] or [Path("src"), Path("tests")]
    for root in roots:
        total = 0
        for path in sorted(root.rglob("*.py")):
            n = code_lines(path.read_text())
            total += n
            print(f"{n:6d}  {path}")
        print(f"{total:6d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
