"""Every name that `src/irmap` defines has a reader outside the unit tests.

A top-level function or class, or a method that is not a dunder, counts as
read when an `ast.Name`, `ast.Attribute` or import alias in `src/irmap`,
`bench/` or `tests/test_acceptance.py` names it; its own definition does not
count, and neither does a string. A name that only unit tests read belongs
in `tests/` (`tests/oracles.py` holds such helpers), not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "irmap").glob("*.py"))
READERS = SRC + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def defined_names(tree: ast.Module):
    """(qualified name, name) of each top-level function and class, and of
    each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in (f for f in node.body if isinstance(f, ast.FunctionDef)):
                if not (method.name.startswith("__") and method.name.endswith("__")):
                    yield f"{node.name}.{method.name}", method.name


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_src_name_has_a_reader():
    read = set().union(*(read_names(_parse(p)) for p in READERS))
    unread = [
        f"{path.stem}.{qualified}"
        for path in SRC
        for qualified, name in defined_names(_parse(path))
        if name not in read
    ]
    assert not unread, f"no reader in src/irmap, bench/ or the acceptance tests: {unread}"
