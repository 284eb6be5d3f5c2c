"""Count the physical and code lines of each src/exosir module, and their totals.

Code lines leave out blank lines, comment-only lines and docstrings (module,
class and function). A line that holds any other token counts once, and a
multi-line string that is not a docstring counts every line it spans.

Run from anywhere: python3 scripts/src_lines.py
"""

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "exosir")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> int:
    totals = [0, 0]
    print(f"{'module':<16}{'physical':>9}{'code':>7}")
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                physical, code = count(fh.read())
            totals[0] += physical
            totals[1] += code
            print(f"{name:<16}{physical:>9}{code:>7}")
    print(f"{'total':<16}{totals[0]:>9}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
