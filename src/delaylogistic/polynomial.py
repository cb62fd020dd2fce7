"""Real-coefficient polynomials plus a root-modulus oracle.

Coefficients are stored in descending powers: ``coeffs[0]`` multiplies the
highest power and the degree is ``len(coeffs) - 1``. The roots are the
eigenvalues of the companion matrix, so the oracle shares no code with
the coefficient-based stability tests that it cross-checks. Only
:func:`roots` needs numpy, and it imports it on its first call, so a
verdict that the coefficient table decides never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


class DegeneratePolynomialError(ValueError):
    """Zero leading coefficient: degree and root count are ill-defined."""


@dataclass(frozen=True)
class Polynomial:
    """Dense real polynomial in descending powers.

    Construction keeps the coefficients exactly as given (no stripping of
    leading zeros); use :func:`normalize_leading` to enforce a positive
    leading coefficient.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) < 1:
            raise ValueError("a polynomial needs at least one coefficient")
        if any(not math.isfinite(c) for c in coeffs):
            raise ValueError(f"non-finite coefficient in {coeffs!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RootSet:
    """All complex roots of a polynomial with an accuracy diagnostic.

    ``residual`` is max |P(root)| over the reported roots, evaluated on the
    original coefficients, or ``math.inf`` when a modulus overflows a
    double. ``iterations`` is always 0, since the eigenvalue solve is
    direct; it stays only while the benchmark's traced runs
    (``bench/spans.py``) read it, and goes with the benchmark's next
    change.
    """

    roots: tuple[complex, ...]
    residual: float
    iterations: int


def evaluate(coeffs: Sequence[float], z: complex) -> complex:
    """Evaluate the polynomial with coefficients ``coeffs`` (descending
    powers) at ``z`` by Horner's rule.

    Returns a float when ``z`` is real, complex otherwise.
    """
    acc = 0.0
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


def roots(p: Polynomial) -> RootSet:
    """Find all complex roots as the eigenvalues of the companion matrix.

    A direct solve with ``numpy.roots``: trailing zero coefficients come
    out as exact zero roots. A leading coefficient so small that the
    monic coefficients overflow raises ``ValueError``, a zero one
    :class:`DegeneratePolynomialError`.
    """
    import numpy as np

    p = normalize_leading(p)
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    if not math.isfinite(max(map(abs, p.coeffs[1:])) / p.coeffs[0]):
        raise ValueError(f"cannot root-find {p.coeffs!r}: dividing by the leading "
                         f"coefficient {p.coeffs[0]!r} overflows the monic form")
    found = tuple(complex(z) for z in np.roots(p.coeffs).tolist())
    residual = max(_modulus(evaluate(p.coeffs, z)) for z in found)
    return RootSet(found, residual=residual, iterations=0)


def _modulus(z: complex) -> float:
    """``abs(z)``, or ``math.inf`` where ``abs`` raises ``OverflowError``
    because the modulus of finite parts overflows a double."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf
