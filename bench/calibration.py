"""The machine's speed, measured with a fixed piece of interpreter work.

Times are scaled to a reference speed because the machine's own speed
drifts by up to 2x within minutes.  The work builds and walks small trees
of tuples and shares no code with lamsig.  The module imports nothing but
the built-in ``time``, so a fresh interpreter can load it before timing a
cold import of lamsig without loading any module lamsig needs.
"""

import time

CAL_REF_NS = 1_500_000  # the work's time at the reference speed


def _tree(depth, seed):
    if depth == 0:
        return seed % 7
    return (_tree(depth - 1, seed * 3 + 1), _tree(depth - 1, seed * 5 + 2))


def _walk(t):
    if isinstance(t, tuple):
        return _walk(t[0]) + _walk(t[1])
    return t


def work_ns():
    """Nanoseconds the fixed work takes right now."""
    start = time.perf_counter_ns()
    sum(_walk(_tree(8, i)) for i in range(16))
    return time.perf_counter_ns() - start


def machine_scale():
    """How much faster the machine is right now than at the reference
    speed.  A time multiplied by it is that time at the reference speed."""
    return CAL_REF_NS / work_ns()
