"""Every private module-level function and constant in ``src/lamsig`` is
used somewhere in the package: a name that nothing refers to is dead code."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "lamsig"


def private_definitions(tree: ast.Module):
    """(name, line) of each `_`-prefixed module-level function or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def references(tree: ast.Module) -> set[str]:
    """Every name the module reads, attribute names and imported names included."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_no_private_name_is_unreferenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert "terms.py" in trees and "rewrite.py" in trees
    used = set().union(*map(references, trees.values()))
    dead = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree)
        if name not in used
    ]
    assert dead == []
