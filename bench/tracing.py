"""Spans around calls into lamsig's public functions, recorded from the
benchmark's side.

``Tracer.patch`` swaps each traced function, wherever a lamsig module
holds a reference to it, for a wrapper that records a span; ``restore``
puts the originals back.  The program's source is not touched.  Spans are
kept in memory as (name, start, end, parent, operation id) and written out
once the run is over; per-layer self time is derived from them.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# Public functions whose calls become spans, by module.  Functions left out
# (check_solution, precook, graft, ...) count towards their caller's self
# time.
TRACED = {
    "lamsig.sexpr": ("parse_sexprs",),
    "lamsig.surface": ("parse_problem", "render_problem"),
    "lamsig.sorts": ("validate_problem", "sort_check_term"),
    "lamsig.rewrite": ("normalize_sigma", "normalize_lambda_sigma", "normalize_traced"),
    "lamsig.transform": ("reduce_problem", "validate_reduced_problem"),
    "lamsig.solver": ("solve_sigma", "decide_small_lambda"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(idx)

    def _wrap(self, span: str, fn):
        return lambda *args, **kwargs: self.call(span, fn, *args, **kwargs)

    def patch(self) -> None:
        """Route every lamsig reference to a traced function through a
        span-recording wrapper."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lamsig" or n.startswith("lamsig.")]
        for module_name, functions in TRACED.items():
            layer = module_name.split(".", 1)[1]
            for fn_name in functions:
                original = getattr(sys.modules[module_name], fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> array:
        """Each span's duration minus the durations of its child spans."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self, op_filter) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self time and total inclusive time
        (ns), over the spans whose operation id passes `op_filter`."""
        own = self.self_times()
        acc = defaultdict(lambda: {"calls": 0, "self_ns": 0, "incl_ns": 0})
        for i in range(len(self)):
            if not op_filter(self.op[i]):
                continue
            entry = acc[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["self_ns"] += own[i]
            entry["incl_ns"] += self.end[i] - self.start[i]
        return dict(acc)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self)):
                out.write(json.dumps({
                    "name": self.names[self.name_id[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }, separators=(",", ":")))
                out.write("\n")
