"""A fixed pure-Python kernel that measures how fast the host is right now.

On a shared virtual machine the speed of a fixed computation can drift by 2x
within a second (README.md, "Host noise"), far beyond any bound a wall-clock
metric could keep.  The kernel is
the benchmark's own code: a dense Fraction product and a Gauss-Jordan
elimination, the same kind of work as the program's, and independent of
``entwine`` so that no change to the program moves it.  The runner times it
between every two checks and reports each check's time scaled by
``NOMINAL_S`` over the kernel's time around that check (``Runner.run_pass``):
the time the check would take with the host at nominal speed.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The kernel's time on an unloaded 2-vCPU virtual machine with CPython 3.11;
# a fixed constant, so normalised times keep their units.
NOMINAL_S = 0.020

_N = 12


def _kernel():
    n = _N
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    product = [[sum((a[i][k] * a[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    rows = [a[i] + product[i] for i in range(n)]
    r = 0
    for c in range(2 * n):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == n:
            break
    return rows


def kernel_seconds() -> float:
    """One timed run of the kernel.  The collector is off meanwhile, so the
    size of the program's heap cannot change the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
