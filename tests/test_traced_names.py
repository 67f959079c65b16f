"""Every function the benchmark traces still exists under its traced name.

`bench/measure.py` wraps each `(module, attr)` of its `SPANS` list; a renamed
or removed function breaks every traced run. The list is read from the
file's source, so the benchmark's own imports are not loaded here.
"""

import ast
from pathlib import Path

MEASURE = Path(__file__).resolve().parent.parent / "bench" / "measure.py"


def traced_names() -> list[tuple[object, str]]:
    """`SPANS` as `bench/measure.py` builds it: its `irmap` imports and its
    statements that assign or extend `SPANS`, run on their own."""
    namespace: dict = {}
    for node in ast.parse(MEASURE.read_text(encoding="utf-8")).body:
        imports_irmap = isinstance(node, ast.ImportFrom) and node.module == "irmap"
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        builds_spans = any(isinstance(t, ast.Name) and t.id == "SPANS" for t in targets)
        if imports_irmap or builds_spans:
            exec(compile(ast.Module([node], type_ignores=[]), str(MEASURE), "exec"), namespace)
    return namespace["SPANS"]


def test_every_traced_name_resolves():
    spans = traced_names()
    assert len(spans) > 20
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in spans
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
