"""The host-speed calibration kernel.

A fixed amount of pure-Python work, of the same kind the solver does
(dict and set building, tuple hashing, sorting, small method calls),
timed just before and just after each timed unit.  A unit's wall time
is scaled by ``KERNEL_NOMINAL_MS / kernel_ms``, so a timing reads as it
would on a host where the kernel takes exactly its nominal duration:
when the whole host runs slower, the unit and the kernel slow together
and the ratio stays put.

This module imports nothing from the program under test, so a change
to the program cannot change the yardstick.
"""

from __future__ import annotations

import time

#: The kernel's duration on the reference host (a 2-core x86-64 VM,
#: CPython 3.11), in milliseconds.  Calibrated timings are expressed at
#: this host speed.  Changing it rescales every calibrated metric, so
#: it is fixed for the life of the benchmark.
KERNEL_NOMINAL_MS = 6.0

#: vertices of the kernel's pseudo-random graph
_N = 1000


class _Cell:
    __slots__ = ("key", "links")

    def __init__(self, key):
        self.key = key
        self.links = set()

    def degree(self):
        return len(self.links)


def kernel() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    state = 0x2545F491
    cells = {}
    for i in range(_N):
        cells[i] = _Cell(i)
    for i in range(3 * _N):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        u = i % _N
        v = state % _N
        if u != v:
            cells[u].links.add(v)
            cells[v].links.add(u)
    # breadth-first layers over the graph
    seen = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in cells[u].links:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    nxt.append(v)
        frontier = nxt
    # hashed tuples and frozensets, the shape of bags and ground atoms
    bags = {}
    for u, cell in cells.items():
        bag = frozenset(cell.links) | {u}
        bags[(seen.get(u, -1), cell.degree(), u)] = bag
    order = sorted(bags, key=lambda k: (k[1], -k[0], k[2]))
    checksum = 0
    for key in order:
        checksum = (checksum * 31 + len(bags[key]) + key[0]) & 0xFFFFFFFF
    return checksum


#: the checksum :func:`kernel` must return; a mismatch means the kernel
#: did not do its fixed work
KERNEL_CHECKSUM = 27032867


def kernel_ms() -> float:
    """Wall time of one kernel run, in milliseconds."""
    start = time.perf_counter()
    checksum = kernel()
    elapsed = (time.perf_counter() - start) * 1000.0
    if checksum != KERNEL_CHECKSUM:
        raise RuntimeError(f"calibration kernel checksum {checksum}")
    return elapsed
