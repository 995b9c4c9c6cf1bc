"""A fixed reference computation that gauges how fast the host runs Python.

The runner times `kernel` between the workload's ops and reports op times
in seconds at reference speed: the speed at which `kernel` takes
REFERENCE_S of CPU time (see run.py). The kernel is the benchmark's own
code and reads nothing from discdimer, so a change to the program cannot
change it. It does the kinds of work the library does, so that it slows
down with the host as the library does: exact-cover enumeration over sets
and frozensets (perfect matchings), dictionary grouping, and Fraction
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

REFERENCE_S = 1e-3  # the kernel's CPU time at reference speed

Cell = Tuple[int, int]


def _grid(rows: int, cols: int) -> Tuple[List[Cell], Dict[Cell, List[FrozenSet[Cell]]]]:
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    dominoes = ([frozenset({(r, c), (r, c + 1)}) for r in range(rows) for c in range(cols - 1)]
                + [frozenset({(r, c), (r + 1, c)}) for r in range(rows - 1) for c in range(cols)])
    return cells, {cell: [d for d in dominoes if cell in d] for cell in cells}


CELLS, DOMINOES_AT = _grid(4, 4)
EDGE = frozenset(cell for cell in CELLS if 0 in cell or 3 in cell)
MATRIX = [[Fraction((3 * r + 5 * c) % 11 - 5, 1 + (r + c) % 4) for c in range(6)] for r in range(6)]


def kernel() -> Tuple[int, int]:
    """Domino tilings of a 4x4 grid grouped by their edge pattern, and the
    rank of a fixed 6x6 rational matrix: (number of groups, rank)."""
    covered: set = set()
    chosen: List[FrozenSet[Cell]] = []
    groups: Dict[FrozenSet[FrozenSet[Cell]], int] = {}

    def extend(pos: int) -> None:
        while pos < len(CELLS) and CELLS[pos] in covered:
            pos += 1
        if pos == len(CELLS):
            key = frozenset(d for d in chosen if d <= EDGE)
            groups[key] = groups.get(key, 0) + 1
            return
        for d in DOMINOES_AT[CELLS[pos]]:
            if d & covered:
                continue
            covered.update(d)
            chosen.append(d)
            extend(pos + 1)
            chosen.pop()
            covered.difference_update(d)

    extend(0)
    m = [row[:] for row in MATRIX]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return len(groups), rank
