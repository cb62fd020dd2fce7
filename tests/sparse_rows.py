"""The delay family's reduction table, held to the induction exactly.

From the first reduced row of the table of ``lambda^(tau+1) - lambda^tau +
r`` on, every entry but those at positions 0, m-1 and m is zero, and each
next row is three products of the row before, times the power of two the
table applied to it:

    nxt[0]  = -prev[m-1] * prev[0]
    nxt[-2] =  prev[m] * prev[m-1]
    nxt[-1] =  prev[m] * prev[m] - prev[0] * prev[0]

The dense reduction forms exactly these products; each other product it
pairs them with has a zero factor, and subtracting a zero is exact. So
the equalities hold with ``==``, not within a tolerance.
"""

import math

from delaylogistic.delay_map import NONTRIVIAL, DelayParams, char_poly
from delaylogistic.jury import JuryTable, jury_table


def delay_table(tau: int, r: float) -> JuryTable:
    return jury_table(char_poly(DelayParams(r=r, K=1.0, tau=tau), NONTRIVIAL))


def induction_mismatches(table: JuryTable) -> list[str]:
    """Every place the reduced rows of ``table`` break the induction."""
    reduced = table.rows[1:]
    mismatches = []
    for i, row in enumerate(reduced, start=1):
        m = len(row) - 1
        mismatches += [f"row {i} [{k}] = {row[k]!r}"
                       for k in range(1, m - 1) if row[k] != 0.0]
    for i, (prev, nxt) in enumerate(zip(reduced, reduced[1:]), start=2):
        m = len(prev) - 1
        shift = table.shifts[i]
        expected = (math.ldexp(-prev[m - 1] * prev[0], shift),
                    math.ldexp(prev[m] * prev[m - 1], shift),
                    math.ldexp(prev[m] * prev[m] - prev[0] * prev[0], shift))
        got = (nxt[0], nxt[-2], nxt[-1])
        if got != expected:
            mismatches.append(f"row {i}: {got!r} != {expected!r}")
    return mismatches
