"""Every lamsig name the benchmark uses exists, read from ``bench/`` without
importing or running it: a deletion in the package that the benchmark still
relies on fails here rather than only in a benchmark run."""

import ast
import importlib.util
from pathlib import Path

BENCH = Path(__file__).parent.parent / "bench"


def parse(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def traced_names() -> list[tuple[str, str]]:
    """(module, function) of each entry in tracing.py's TRACED table."""
    for node in parse("tracing.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            table = ast.literal_eval(node.value)
            return [(module, fn) for module, functions in table.items() for fn in functions]
    raise AssertionError("bench/tracing.py has no TRACED table")


def used_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) of each name imported from a lamsig module, and of each
    attribute read from a lamsig module imported by name."""
    modules: dict[str, str] = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "lamsig":
            for alias in node.names:
                if node.module == "lamsig" and importlib.util.find_spec(f"lamsig.{alias.name}"):
                    modules[alias.asname or alias.name] = f"lamsig.{alias.name}"
                else:
                    found.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append((modules[node.value.id], node.attr))
    return found


def test_every_lamsig_name_the_benchmark_uses_exists():
    traced = traced_names()
    used = [pair for path in sorted(BENCH.glob("*.py")) for pair in used_names(parse(path.name))]
    workload_modules = {module for module, _ in used_names(parse("workloads.py"))}
    assert ("lamsig.solver", "solve_sigma") in traced
    assert {"lamsig.cli", "lamsig.rewrite", "lamsig.solver", "lamsig.transform"} <= workload_modules
    missing = [
        f"{module}.{name}"
        for module, name in sorted(set(traced + used))
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
