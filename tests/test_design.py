"""Design guard: every function in the library has a caller in the library,
and every class field a reader.

A top-level or class-level function counts as called when its name appears
as a name or an attribute anywhere in src/cdquad outside its own
definition.  An annotated class field counts as read when it is loaded as an
attribute anywhere in src/cdquad.  Re-exports in __init__.py do not count,
and dunder methods are exempt.  The allowlists name the few functions and
fields kept for users and tests alone, each with its reason.
"""

import ast
from pathlib import Path

import cdquad

SRC = Path(cdquad.__file__).resolve().parent

ALLOWED_UNCALLED: dict[str, str] = {}

ALLOWED_UNREAD = {
    "quadrature.VarianceEstimate.replications": "a public result field: the R behind the estimate",
}

#: classes written out whole through dataclasses.asdict, so every field has a reader
SERIALIZED = {"harness.ExperimentConfig"}


def _definitions():
    """(module file, module.qualname, node) for every top-level and
    class-level function."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((path.name, f"{path.stem}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                out.extend((path.name, f"{path.stem}.{node.name}.{item.name}", item)
                           for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return out


def _references():
    """name -> [(module, line)] of every Name and Attribute outside __init__.py."""
    refs: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path.name, node.lineno))
    return refs


def _fields():
    """(module.Class.field) for every annotated field in a class body."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                out.extend(f"{path.stem}.{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
    return out


def _unread() -> list[str]:
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return [q for q in _fields()
            if q.rsplit(".", 1)[0] not in SERIALIZED and q.rsplit(".", 1)[1] not in read]


def _uncalled() -> list[str]:
    refs = _references()
    out = []
    for module, qualname, node in _definitions():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(m != module or line not in own for m, line in refs.get(name, [])):
            out.append(qualname)
    return out


def test_every_function_has_a_caller():
    uncalled = [q for q in _uncalled() if q not in ALLOWED_UNCALLED]
    assert not uncalled, f"functions without a caller in src/cdquad: {uncalled}"


def test_allowlist_is_current():
    # an allowlisted function that gained a caller, or a field that gained a
    # reader, or either that is gone, leaves its list
    uncalled = set(_uncalled())
    assert set(ALLOWED_UNCALLED) <= uncalled, sorted(set(ALLOWED_UNCALLED) - uncalled)
    unread = set(_unread())
    assert set(ALLOWED_UNREAD) <= unread, sorted(set(ALLOWED_UNREAD) - unread)


def test_every_field_is_read():
    unread = [q for q in _unread() if q not in ALLOWED_UNREAD]
    assert not unread, f"class fields that nothing in src/cdquad reads: {unread}"
