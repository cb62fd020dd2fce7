"""The residual the tests hold the root reference, ``polynomial.roots``, to."""

import math

from delaylogistic import polynomial


def residual(p: polynomial.Polynomial, found) -> float:
    """max |P(z)| over the roots ``found``, by ``polynomial.evaluate`` on
    ``p``'s coefficients, or ``math.inf`` where a modulus overflows a
    double. Each distinct root is evaluated once: ``numpy.roots`` repeats
    a k-fold zero root k times, and the trivial point's k = tau would cost
    O(tau**2)."""
    return max(_modulus(polynomial.evaluate(p.coeffs, z)) for z in dict.fromkeys(found))


def _modulus(z: complex) -> float:
    """``abs(z)``, or ``math.inf`` where ``abs`` raises ``OverflowError``
    because the modulus of finite parts overflows a double."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf
