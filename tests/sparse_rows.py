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

from delaylogistic.delay_map import NONTRIVIAL, char_poly
from delaylogistic.jury import JuryTable, jury_table


def delay_table(tau: int, r: float) -> JuryTable:
    return jury_table(char_poly(tau, r, NONTRIVIAL))


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


def without_trailing_zeros(coeffs) -> tuple:
    """``coeffs`` without their trailing zeros (roots at 0), down to degree 1."""
    m = len(coeffs) - 1
    while m > 1 and coeffs[m] == 0:
        m -= 1
    return tuple(coeffs[:m + 1])


def dense_tables(inputs) -> list:
    """Reduce each coefficient row of ``inputs`` in full, after dropping its
    trailing zeros down to degree 1, as the table does.

    Every entry of every row is ``last * row[k + 1] - row[m - 1 - k] *
    first``, computed for all inputs of one length at once. Each result is
    the rows the table should hold, as their :func:`bits`, and its shifts.
    """
    results: list = [None] * len(inputs)
    by_length: dict[int, list[int]] = {}
    stripped = [without_trailing_zeros(coeffs) for coeffs in inputs]
    for i, coeffs in enumerate(stripped):
        by_length.setdefault(len(coeffs), []).append(i)
    for indices in by_length.values():
        for i, result in zip(indices, _dense([stripped[i] for i in indices])):
            results[i] = result
    return results


def _dense(inputs) -> list:
    """The full reduction of coefficient rows of one length, each as its
    rows' :func:`bits` and its shifts."""
    top = np.array(inputs, dtype=float)
    top[top[:, 0] < 0.0] *= -1.0
    row, shift = _rescaled(top)
    results: list = [([], []) for _ in inputs]
    while True:
        for result, entries, s in zip(results, row.astype("<f8"), shift.tolist()):
            result[0].append(entries.tobytes())
            result[1].append(s)
        if row.shape[1] <= 3:
            return results
        first, last = row[:, :1], row[:, -1:]
        row, shift = _rescaled(last * row[:, 1:] - row[:, -2::-1] * first)
