"""Code lines per module of ``src/pickseq`` at one or more git revisions.

A code line holds a token that is not a comment and lies in no docstring
(of the module, a class or a function).  Blank lines, comment-only lines
and docstrings are not counted, so the figure moves with the code, not
with its text.  With two revisions a last column gives the first minus
the second.  A revision that git cannot read exits 2 with one line naming
it.

    python tools/code_lines.py HEAD HEAD~1
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize

PACKAGE = "src/pickseq/"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def counts(revision: str) -> dict[str, int]:
    paths = [p for p in git("ls-tree", "--name-only", revision, PACKAGE).split() if p.endswith(".py")]
    return {p[len(PACKAGE):]: code_lines(git("show", f"{revision}:{p}")) for p in paths}


def main(revisions: list[str]) -> int:
    columns = []
    for revision in revisions:
        try:
            columns.append(counts(revision))
        except subprocess.CalledProcessError:
            print(f"code_lines.py: git cannot read revision {revision!r}", file=sys.stderr)
            return 2
    modules = sorted(set().union(*columns))
    table = [[c.get(m) for c in columns] for m in modules] + [[sum(c.values()) for c in columns]]
    rows = [["module", *revisions] + (["difference"] if len(columns) == 2 else [])]
    for name, values in zip(modules + ["total"], table):
        cells = ["-" if v is None else str(v) for v in values]
        if len(values) == 2:
            cells.append(f"{(values[0] or 0) - (values[1] or 0):+d}")
        rows.append([name, *cells])
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    for row in rows:
        print("  ".join([row[0].ljust(widths[0])] + [v.rjust(w) for v, w in zip(row[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["HEAD"]))
