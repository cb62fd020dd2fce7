"""The delay family's reduction table, held to the induction and to a plain
dense reduction exactly.

From the first reduced row of the table of ``lambda^(tau+1) - lambda^tau +
r`` on, every entry but those at positions 0, m-1 and m is zero, and each
next row is three products of the row before, times the power of two the
table applied to it:

    nxt[0]  = -prev[m-1] * prev[0]
    nxt[-2] =  prev[m] * prev[m-1]
    nxt[-1] =  prev[m] * prev[m] - prev[0] * prev[0]

The dense reduction forms exactly these products; each other product it
pairs them with has a zero factor, and subtracting a zero is exact. So
the equalities hold with ``==``, not within a tolerance. ``jury_table``
forms only these products once a row's interior is zeros of one sign;
:func:`dense_tables` is the reduction that forms every product, written
here with numpy and sharing no code with the package, so the two can be
compared bit for bit, signed zeros included.
"""

import math
import struct

import numpy as np

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


def bits(row) -> bytes:
    """The IEEE bits of a row of floats, so that 0.0 and -0.0 differ."""
    return struct.pack(f"<{len(row)}d", *row)


def _rescaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a row whose largest magnitude leaves [2**-256, 2**256] is brought
    # into [1, 2) by a power of two
    peak = np.abs(rows).max(axis=1)
    outside = (peak != 0.0) & ((peak < 2.0 ** -256) | (peak > 2.0 ** 256))
    shift = np.where(outside, 1 - np.frexp(peak)[1], 0)
    return (np.ldexp(rows, shift[:, None]) if outside.any() else rows), shift


def dense_tables(inputs) -> list:
    """Reduce each coefficient row of ``inputs`` (all of one length) in full.

    Every entry of every row is ``last * row[k + 1] - row[m - 1 - k] *
    first``, computed for all inputs at once. Each result is either the
    rows the table should hold, as their :func:`bits`, and its shifts, or
    the message of the ``SingularTableError`` the table should raise.
    """
    top = np.array(inputs, dtype=float)
    top[top[:, 0] < 0.0] *= -1.0
    row, shift = _rescaled(top)
    bound = np.abs(row).max(axis=1)
    live = list(range(len(top)))
    results: list = [([], []) for _ in live]
    while True:
        for i, entries, s in zip(live, row.astype("<f8"), shift.tolist()):
            results[i][0].append(entries.tobytes())
            results[i][1].append(s)
        if row.shape[1] <= 3:
            return results
        first, last = row[:, :1], row[:, -1:]
        singular = np.abs(last[:, 0]) <= 1e-12 * bound
        if singular.any():
            for i, value in zip(np.compress(singular, live).tolist(),
                                last[singular, 0].tolist()):
                # quoted in the input's units: the input row by its own
                # coefficient, a rescaled reduced row with its power of two
                depth = len(results[i][0]) - 1
                row_shift = results[i][1][-1]
                if not depth:
                    message = f"input row ends in {top[i, -1]:.3e}"
                elif row_shift:
                    message = (f"reduced row {depth} ends in {value:.3e} "
                               f"(row scaled by 2**{row_shift})")
                else:
                    message = f"reduced row {depth} ends in {value:.3e}"
                results[i] = f"singular table: {message}"
            keep = ~singular
            live = np.compress(keep, live).tolist()
            row, first, last = row[keep], first[keep], last[keep]
            if not live:
                return results
        row, shift = _rescaled(last * row[:, 1:] - row[:, -2::-1] * first)
        bound = np.ldexp(last[:, 0] * last[:, 0] + first[:, 0] * first[:, 0], shift)
