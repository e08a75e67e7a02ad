#!/usr/bin/env python3
"""Raw and code line counts of every module of src/subscan.

A code line is a line that holds a token other than a comment, a newline or
indentation, and that is not part of a module, class or function docstring.
Blank lines, comment-only lines and docstrings are left out; a line continued
inside brackets or a non-docstring string counts. Prints one CSV row per
module and a total row.
"""

import ast
import csv
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subscan"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def run() -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(["module", "raw_lines", "code_lines"])
    raw_total = code_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        raw, code = len(source.splitlines()), code_lines(source)
        writer.writerow([path.name, raw, code])
        raw_total, code_total = raw_total + raw, code_total + code
    writer.writerow(["total", raw_total, code_total])


if __name__ == "__main__":
    run()
