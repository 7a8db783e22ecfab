"""Count the lines of the secthru package per module: code, docstring, comment, blank.

A line inside a module, class or function docstring counts as docstring.
Otherwise an empty line is blank, a line whose first non-space character is
'#' is a comment, and any other line is code.

Run from anywhere; the default package is the checkout's src/secthru:

    python3 tools/src_lines.py [PACKAGE_DIR]
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """Numbers of the source lines that hold a module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if number in docs:
            kind = "docstring"
        elif not text:
            kind = "blank"
        elif text.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "secthru"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'total':>10}")
    for path in sorted(package.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
