"""Count the code lines of a package's modules: lines that hold a token
other than a comment, leaving out blank lines, comment-only lines and
docstrings.

Tokens come from tokenize, so a line that only continues a multi-line
string or bracket still counts; docstrings are the string statements that
open a module, class or function body, found with ast.

    python tools/code_lines.py [PACKAGE_DIR]    # default src/lyapcert

prints one row per module and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    with path.open("rb") as src:
        tokens = list(tokenize.tokenize(src.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/lyapcert")
    counts = {path.name: code_lines(path)
              for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
