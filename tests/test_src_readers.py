"""Every name, dataclass field and defaulted parameter that `src/irmap`
defines has a reader outside the unit tests.

The readers are `src/irmap`, `bench/` and `tests/test_acceptance.py`; a
definition never reads itself, and a string never counts. A name, field or
keyword that only unit tests read belongs in `tests/` (`tests/oracles.py`
holds such helpers), or as a module constant that tests monkeypatch, not in
the package.

- A top-level function or class, or a method that is not a dunder, counts as
  read when an `ast.Name`, `ast.Attribute` or import alias names it.
- A dataclass field counts as read when a load-context `ast.Attribute` names
  it, or when its class is passed to a `fields(...)` or `.params(...)` call,
  which reads every field by name.
- A defaulted parameter of a top-level function or method counts as read when
  a call whose callee name matches sets it, by keyword or by a positional
  argument at or past its index; an exception's `__init__` is matched to calls
  of its class. A call that passes `*args` or `**kwargs` sets every parameter.
- A parameter or dataclass field whose default is `None` is taken when some
  call whose callee name matches leaves it out; a call that passes `*args` or
  `**kwargs` leaves nothing out. A dataclass is matched to calls of its class,
  and a `cls(...)` call in a classmethod is a call of its class. A `None`
  fallback that no such call takes is a second code path for unit tests only.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "irmap").glob("*.py"))
READERS = SRC + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _trees():
    return [_parse(p) for p in READERS]


def _name(node) -> str | None:
    """The last name of a `Name` or `Attribute` node: `b` of `a.b`."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree: ast.Module):
    """(qualified name, name) of each top-level function and class, and of
    each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in (f for f in node.body if isinstance(f, ast.FunctionDef)):
                if not _is_dunder(method.name):
                    yield f"{node.name}.{method.name}", method.name


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.add(_name(node))
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_src_name_has_a_reader():
    read = set().union(*(read_names(t) for t in _trees()))
    unread = [
        f"{path.stem}.{qualified}"
        for path in SRC
        for qualified, name in defined_names(_parse(path))
        if name not in read
    ]
    assert not unread, f"no reader in src/irmap, bench/ or the acceptance tests: {unread}"


def _dataclasses(tree: ast.Module):
    """(class name, its field statements in order) of each top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
            for d in node.decorator_list
        ):
            yield node.name, [
                s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            ]


def dataclass_fields(tree: ast.Module):
    """(class name, field name) of each field of each top-level dataclass."""
    for cls, stmts in _dataclasses(tree):
        for stmt in stmts:
            yield cls, stmt.target.id


def read_fields(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(attribute names read, names of classes passed to `fields` or `.params`)."""
    attrs, whole = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.Call) and _name(node.func) in ("fields", "params"):
            whole.update(_name(a) for a in node.args)
    return attrs, whole


def test_every_dataclass_field_has_a_reader():
    attrs, whole = set(), set()
    for tree in _trees():
        a, w = read_fields(tree)
        attrs |= a
        whole |= w
    unread = [
        f"{path.stem}.{cls}.{name}"
        for path in SRC
        for cls, name in dataclass_fields(_parse(path))
        if cls not in whole and name not in attrs
    ]
    assert not unread, f"no reader in src/irmap, bench/ or the acceptance tests: {unread}"


def defaulted_parameters(tree: ast.Module):
    """(qualified name, callee name, parameter, positional index or None,
    default) of each defaulted parameter of each top-level function and
    method. A method's index counts from its first argument after `self`; a
    keyword-only parameter has no index."""
    exceptions = {"Exception"}  # and, in definition order, each class derived from one
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaults(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            is_exception = any(_name(b) in exceptions for b in node.bases)
            if is_exception:
                exceptions.add(node.name)
            for f in node.body:
                if not isinstance(f, ast.FunctionDef):
                    continue
                static = any(_name(d) == "staticmethod" for d in f.decorator_list)
                callee = node.name if (f.name == "__init__" and is_exception) else f.name
                yield from _defaults(f, f"{node.name}.{f.name}", callee, 0 if static else 1)


def _defaults(f: ast.FunctionDef, qualified: str, callee: str, skip: int):
    positional = f.args.posonlyargs + f.args.args
    first = len(positional) - len(f.args.defaults)
    for i, default in enumerate(f.args.defaults, start=first):
        yield qualified, callee, positional[i].arg, i - skip, default
    for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
        if default is not None:
            yield qualified, callee, arg.arg, None, default


def set_parameters(tree: ast.Module):
    """(callee name, keywords set, positional argument count, sets all) of
    each call; a `cls(...)` call in a classmethod is named after its class."""
    own_class = {
        id(call): node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, ast.FunctionDef) and any(_name(d) == "classmethod" for d in f.decorator_list)
        for call in ast.walk(f)
        if isinstance(call, ast.Call) and _name(call.func) == "cls"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func):
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            callee = own_class.get(id(node), _name(node.func))
            yield callee, {k.arg for k in node.keywords}, len(node.args), spread


def _calls() -> dict[str, list]:
    """{callee name: [(keywords set, positional argument count, sets all)]}
    over every reader."""
    calls: dict[str, list] = {}
    for tree in _trees():
        for callee, keywords, npos, spread in set_parameters(tree):
            calls.setdefault(callee, []).append((keywords, npos, spread))
    return calls


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = _calls()
    unset = [
        f"{path.stem}.{qualified}({param})"
        for path in SRC
        for qualified, callee, param, index, _ in defaulted_parameters(_parse(path))
        if not any(
            spread or param in keywords or (index is not None and npos > index)
            for keywords, npos, spread in calls.get(callee, [])
        )
    ]
    assert not unset, f"no call in src/irmap, bench/ or the acceptance tests sets: {unset}"


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def none_defaults(tree: ast.Module):
    """(qualified name, callee name, parameter, positional index or None) of
    each parameter of a top-level function or method, and each field of a
    top-level dataclass, whose default is `None`."""
    for qualified, callee, param, index, default in defaulted_parameters(tree):
        if _is_none(default):
            yield qualified, callee, param, index
    for cls, stmts in _dataclasses(tree):
        for index, stmt in enumerate(stmts):
            if _is_none(stmt.value):
                yield f"{cls}.{stmt.target.id}", cls, stmt.target.id, index


def test_every_none_default_is_taken():
    calls = _calls()
    untaken = [
        f"{path.stem}.{qualified}({param})"
        for path in SRC
        for qualified, callee, param, index in none_defaults(_parse(path))
        if not any(
            not spread and param not in keywords and (index is None or npos <= index)
            for keywords, npos, spread in calls.get(callee, [])
        )
    ]
    assert not untaken, f"no call in src/irmap, bench/ or the acceptance tests leaves out: {untaken}"
