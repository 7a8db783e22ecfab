"""Every name that a module under src/ or tests/ imports is used in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module source never reads.

    A name counts as read when it appears as a bare name anywhere in the file
    (attribute roots such as np in np.log included) or as a string in
    __all__. Scopes are not told apart: a name imported in one function and
    read in another counts as used.
    """
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [(line, name) for name, line in imported.items() if name not in read]


def test_scan_finds_unused_names():
    source = ("import math\nimport numpy as np\nfrom os import path, sep\n"
              "__all__ = ['sep']\n\ndef f():\n    from json import dumps\n    return np.pi\n")
    assert unused_imports(source) == [(1, "math"), (3, "path"), (7, "dumps")]


def test_no_unused_imports():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert files
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in files for line, name in unused_imports(path.read_text())]
    assert unused == [], "imported but never used:\n" + "\n".join(unused)
