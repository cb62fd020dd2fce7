import math
import random
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaylogistic import polynomial
from delaylogistic.delay_map import TRIVIAL, char_poly
from delaylogistic.polynomial import (
    DegeneratePolynomialError,
    Polynomial,
    evaluate,
    normalize_leading,
    roots,
)
from root_reference import _modulus, residual


def _largest_modulus(p):
    return max(abs(z) for z in roots(p))


def test_construction_keeps_coefficients_verbatim():
    p = Polynomial((0.0, 1.0, 1.0))
    assert p.coeffs == (0.0, 1.0, 1.0)
    assert p.degree == 2


def test_construction_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        Polynomial(())
    with pytest.raises(ValueError):
        Polynomial((1.0, float("nan")))
    with pytest.raises(ValueError):
        Polynomial((float("inf"),))


@pytest.mark.parametrize("coeffs, z, expected", [
    ((1.0, -1.0, 0.5), 0.0, 0.5),
    ((1.0, -1.0, 0.5), 1.0, 0.5),
    ((1.0, -1.0, 0.0, 0.5), -1.0, -1.5),
    # decimals stay decimals: in doubles 0.1 + 0.2 + 0.3 is not 0.6
    ((Decimal("0.1"), Decimal("-0.2"), Decimal("0.3")), -1, Decimal("0.6")),
])
def test_evaluate_by_direct_substitution(coeffs, z, expected):
    assert evaluate(coeffs, z) == expected


def test_evaluate_complex_argument():
    assert evaluate((1.0, 0.0, 1.0), 1j) == 0  # z^2 + 1


def test_normalize_leading_keeps_positive():
    p = Polynomial((1.0, -1.0, 0.5))
    assert normalize_leading(p) is p


def test_normalize_leading_flips_all_signs():
    assert normalize_leading(Polynomial((-2.0, 0.0, 1.0))).coeffs == (2.0, -0.0, -1.0)


def test_normalize_leading_rejects_zero_leading():
    with pytest.raises(DegeneratePolynomialError):
        normalize_leading(Polynomial((0.0, 1.0, 1.0)))


def test_roots_linear_is_exact():
    p = Polynomial((1.0, 0.5))
    assert roots(p) == (complex(-0.5),)
    assert residual(p, roots(p)) == 0.0


def test_roots_quadratic_matches_quadratic_formula():
    p = Polynomial((1.0, -1.0, 0.5))
    got = sorted(roots(p), key=lambda z: z.imag)
    assert got[0] == pytest.approx(0.5 - 0.5j, abs=1e-12)
    assert got[1] == pytest.approx(0.5 + 0.5j, abs=1e-12)
    assert residual(p, roots(p)) <= 1e-12


def test_roots_repeated_zero_root_degraded_but_small():
    found = roots(Polynomial((1.0, 0.0, 0.0)))
    assert len(found) == 2
    assert all(abs(z) <= 1e-9 for z in found)


def test_roots_zero_leading_rejected():
    with pytest.raises(DegeneratePolynomialError):
        roots(Polynomial((0.0, 1.0)))


def test_roots_constant_rejected():
    with pytest.raises(ValueError):
        roots(Polynomial((3.0,)))


@pytest.mark.parametrize("coeffs, expected", [
    ((1.0, 0.0, 0.0), 0.0),
    ((1.0, -1.0, 0.5), math.sqrt(0.5)),
])
def test_spectral_radius_known_values(coeffs, expected):
    assert _largest_modulus(Polynomial(coeffs)) == pytest.approx(expected, abs=1e-9)


def test_spectral_radius_exceeds_one_past_the_threshold():
    # rate 1 is beyond the delay-2 stable range, so some root leaves the disk
    assert _largest_modulus(Polynomial((1.0, -1.0, 0.0, 1.0))) > 1.0


def _random_coeffs(rng, degree):
    coeffs = [rng.uniform(-2.0, 2.0) for _ in range(degree + 1)]
    # keep the leading coefficient away from zero: a near-degenerate leading
    # term inflates the roots and the attainable absolute residual with them
    while abs(coeffs[0]) < 0.5:
        coeffs[0] = rng.uniform(-2.0, 2.0)
    return coeffs


def test_residual_small_across_random_polynomials():
    rng = random.Random(1203)
    for _ in range(300):
        p = Polynomial(_random_coeffs(rng, rng.randint(2, 8)))
        assert residual(p, roots(p)) <= 1e-9


def test_residual_whose_modulus_overflows_is_inf():
    # |P(root)| has finite parts whose modulus overflows a double, where
    # abs() of the complex value raises OverflowError
    p = Polynomial((-3.577118588599464e+199, 1.0789394941118804e-200, 0.0,
                    1.267842439400661e-300, 1.2167013899152557, 0.0, 0.0, 0.0, 0.0,
                    -1.465630494362098e+300, 8.530112605216762e+199, 0.0))
    assert residual(p, roots(p)) == math.inf
    # finite parts alone, so only the OverflowError path can give inf
    assert _modulus(complex(1.5e308, 1.5e308)) == math.inf


def test_residual_evaluates_each_distinct_root_once(monkeypatch):
    # the trivial point's polynomial at delay 5000 has 5000 exact zero
    # roots and one at 1 + r: two Horner passes, not 5001 of degree 5001
    p = char_poly(5000, 0.1, TRIVIAL)
    points = []

    def counted(coeffs, z):
        points.append(z)
        return evaluate(coeffs, z)

    monkeypatch.setattr(polynomial, "evaluate", counted)
    found = roots(p)
    assert len(found) == 5001
    value = residual(p, found)
    assert sorted(points, key=abs) == [0j, 1.1 + 0j]
    assert value == max(abs(evaluate(p.coeffs, z)) for z in points)


def _assert_root_sets_match(ours, theirs, tol):
    remaining = list(theirs)
    for a in ours:
        distances = [abs(a - b) for b in remaining]
        best = distances.index(min(distances))
        assert distances[best] <= tol, (a, remaining)
        remaining.pop(best)


def test_roots_agree_with_companion_eigenvalues():
    # the companion eigenvalues against an independent reference: mpmath's
    # Durand-Kerner iteration at 40 digits
    rng = random.Random(994)
    with mpmath.workdps(40):
        for _ in range(100):
            coeffs = _random_coeffs(rng, rng.randint(2, 8))
            ours = roots(Polynomial(coeffs))
            ref = [complex(z) for z in mpmath.polyroots(coeffs, extraprec=60)]
            scale = max(1.0, max(abs(z) for z in ref))
            _assert_root_sets_match(ours, ref, 1e-8 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=9),
       st.floats(0.5, 2.0))
def test_normalize_preserves_spectral_radius(tail, lead):
    p = Polynomial([-lead] + tail)
    assert _largest_modulus(normalize_leading(p)) == pytest.approx(
        _largest_modulus(p), abs=1e-12)


def test_companion_family_loses_stability_once_and_for_all():
    # the delay family's largest root modulus is not monotone in the rate
    # below the threshold (it dips before climbing back), but it crosses 1
    # exactly once and keeps growing from there
    for tau in range(0, 11):
        grid = np.linspace(0.02, 2.2, 56)
        rho = [_largest_modulus(Polynomial((1.0, -1.0) + (0.0,) * (tau - 1) + (r,)
                                           if tau >= 1 else (1.0, r - 1.0)))
               for r in grid]
        outside = [value > 1.0 + 1e-9 for value in rho]
        first = outside.index(True)
        assert all(outside[first:]), f"stability regained at tau={tau}"
        for i in range(first, len(rho) - 1):
            assert rho[i + 1] >= rho[i] - 1e-9, f"radius dipped past the flip at tau={tau}"
