"""Count the code lines of src/, per module and in total, and of tests/ in total.

Usage: python3 tools/code_lines.py [REV]     (the working tree without REV)

A code line is a line that holds a token of the program: docstrings,
comments and blank lines are left out.  A docstring is the string that
opens a module, class or function body (ast.get_docstring's rule); every
other string counts on each line it spans.  With REV, the committed files of
that revision are counted instead (tools/revtree.py), so a change's before
and after come from one rule:

    python3 tools/code_lines.py 60027b5; python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

from revtree import repo_root, rev_tree

_NOT_CODE = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of the file at path that hold a token outside a docstring."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv) -> int:
    root = repo_root()
    if len(argv) > 1:
        print("usage: python3 tools/code_lines.py [REV]", file=sys.stderr)
        return 2

    def report(tree: Path) -> None:
        total = 0
        for path in sorted((tree / "src").rglob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path.relative_to(tree).as_posix()}")
        print(f"{total:6d}  total")
        tests = sum(code_lines(path) for path in (tree / "tests").rglob("*.py"))
        print(f"{tests:6d}  tests/ total")

    if argv:
        with rev_tree(root, argv[0], "code-lines-") as tree:
            report(tree)
    else:
        report(root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
