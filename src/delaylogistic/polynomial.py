"""Real-coefficient polynomials plus the roots the tests check against.

Coefficients are stored in descending powers: ``coeffs[0]`` multiplies the
highest power and the degree is ``len(coeffs) - 1``. The roots are the
eigenvalues of the companion matrix, so the root oracle built on them
(:func:`jury.oracle_verdict`) shares no code with the coefficient table
that the tests check against it. Only :func:`roots` needs numpy, and it
imports it on its first call; no command calls it, so numpy is needed
only to test. No command uses :func:`evaluate` either: the tests' residual
of the roots does.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence


class DegeneratePolynomialError(ValueError):
    """Zero leading coefficient: degree and root count are ill-defined."""


@classmethod
def validating_make(cls, iterable):
    """A named tuple's ``_make``, and so its ``_replace``, through ``__new__``."""
    return cls(*iterable)


class _PolynomialFields(NamedTuple):
    coeffs: tuple[float, ...]


class Polynomial(_PolynomialFields):
    """Dense real polynomial in descending powers.

    Construction keeps the coefficients exactly as given (no stripping of
    leading zeros), as floats; use :func:`normalize_leading` to enforce a
    positive leading coefficient.
    """

    __slots__ = ()
    _make = validating_make

    def __new__(cls, coeffs: Sequence[float]) -> Polynomial:
        coeffs = tuple(map(float, coeffs))
        if len(coeffs) < 1:
            raise ValueError("a polynomial needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"non-finite coefficient in {coeffs!r}")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def evaluate(coeffs: Sequence[float], z: complex) -> complex:
    """Evaluate the polynomial with coefficients ``coeffs`` (descending
    powers) at ``z`` by Horner's rule, in the arithmetic of its operands."""
    acc = 0
    for c in coeffs:
        acc = acc * z + c
    return acc


def normalize_leading(p: Polynomial) -> Polynomial:
    """Flip all signs if the leading coefficient is negative.

    The root set is unchanged. Raises :class:`DegeneratePolynomialError`
    when the leading coefficient is zero.
    """
    if p.coeffs[0] == 0.0:
        raise DegeneratePolynomialError(
            f"degenerate polynomial: leading coefficient is zero in {p.coeffs!r}")
    if p.coeffs[0] > 0.0:
        return p
    return Polynomial(tuple(-c for c in p.coeffs))


def roots(p: Polynomial) -> tuple[complex, ...]:
    """All complex roots, as the eigenvalues of the companion matrix.

    A direct solve with ``numpy.roots``: trailing zero coefficients come
    out as exact zero roots. A zero leading coefficient raises
    :class:`DegeneratePolynomialError`; one so small that the companion
    matrix overflows makes numpy warn, then raise ``LinAlgError``, a
    ``ValueError``.
    """
    import numpy as np

    p = normalize_leading(p)
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    return tuple(complex(z) for z in np.roots(p.coeffs).tolist())
