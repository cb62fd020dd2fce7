"""The Schur-Cohn signs of a polynomial in exact integer arithmetic, the
reference for the conditions of the reduction table.

Each row ``(a_0, ..., a_m)`` is followed by ``a_m * a_(k+1) - a_(m-1-k) *
a_0`` for ``k = 0 .. m-1``, one entry shorter, down to a single entry, and
``delta_k`` is the last entry of the ``k``-th row after the input row.
Every root lies inside the unit circle exactly when ``delta_1 < 0`` and
``delta_k > 0`` for every later ``k`` (Marden, *Geometry of Polynomials*,
1966; Henrici, *Applied and Computational Complex Analysis* I, 1974,
section 6.8).

Only signs matter, so the rational input row is multiplied by the common
denominator, and a row may be divided by any positive integer that
divides every entry. Dividing each new row by ``|delta|`` of two rows
before, wherever that division is exact, as a fraction-free elimination
divides by an earlier pivot, keeps the integers' size linear in the
degree, where plain products double it at every row. Shares no code with
the package.
"""

import math
from fractions import Fraction


def deltas(coeffs) -> list[int]:
    """``delta_1 .. delta_m`` of the polynomial with rational ``coeffs``,
    in descending powers, each exact up to a positive factor."""
    scale = math.lcm(*(Fraction(c).denominator for c in coeffs))
    row = [int(Fraction(c) * scale) for c in coeffs]
    found: list[int] = []
    while len(row) > 1:
        first, last, m = row[0], row[-1], len(row) - 1
        row = [last * row[k + 1] - row[m - 1 - k] * first for k in range(m)]
        divisor = abs(found[-2]) if len(found) > 1 else 0
        if divisor and not any(x % divisor for x in row):
            row = [x // divisor for x in row]
        found.append(row[-1])
    return found
