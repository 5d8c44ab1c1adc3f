"""Every module-level function, class and constant in ``src/lamsig`` is used
by some other top-level statement of the package: a name that nothing else
refers to is dead code.

The imports of ``lamsig/__init__.py`` declare the package's public surface.
An import there counts as a use, so a public name that no module uses has to
be re-exported to stay.  Imports in the other modules do not count: a name
they import must also be read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "lamsig"


def definitions(statement: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def references(statement: ast.stmt, count_imports: bool) -> set[str]:
    """Every name the statement reads, attribute names included, and the
    names it imports when `count_imports` is set."""
    found: set[str] = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif count_imports and isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unreferenced() -> list[tuple[str, str]]:
    """(where, name) of each module-level definition that no other top-level
    statement of the package refers to."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"__init__.py", "terms.py"} <= {path.name for path in paths}
    statements = [
        (f"{path.name}:{statement.lineno}", statement, references(statement, path.name == "__init__.py"))
        for path in paths
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    return [
        (where, name)
        for where, statement, _ in statements
        for name in definitions(statement)
        if not name.startswith("__")
        and not any(name in refs for _, other, refs in statements if other is not statement)
    ]


def test_no_private_name_is_unreferenced():
    assert [f"{where} {name}" for where, name in unreferenced() if name.startswith("_")] == []


def test_every_public_name_is_used_or_exported():
    assert [f"{where} {name}" for where, name in unreferenced() if not name.startswith("_")] == []
