"""A frozen record's ``__init__`` sets its slots through the setters
``records.slot_setters`` binds once per class, never through
``object.__setattr__``, which looks the slot up by name on every call and
costs about half again as much per node built."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "lamsig"


def setattr_calls() -> list[str]:
    """file:line of each call to ``object.__setattr__`` in the package; a
    string, such as a docstring that names it, is not a call."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"records.py", "terms.py"} <= {path.name for path in paths}
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


def test_no_call_to_object_setattr():
    assert setattr_calls() == []
