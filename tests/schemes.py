"""One step of each scheme of ``discretization``: the maps whose fixed
points and derivatives ``fixed_point_derivatives`` gives in closed form,
held here to those fixed points and, for the forward scheme, to the delay
map."""

from delaylogistic.delay_map import _advance
from delaylogistic.discretization import FORWARD, PoleError, SchemeParams

# The ratio map's denominator counts as zero within this band.
_TOL = 1e-12


def scheme_step(p: SchemeParams, x: float) -> float:
    """One step of the scheme that ``p.scheme`` names.

    Forward: the explicit update (rh+1)x - (rh/K)x^2. This is the delay
    map's update at zero delay with rate rh, so h = 1 reproduces the
    zero-delay step bitwise.

    Ratio: (1+rh)x / (1 + (rh/K)x), factored as x * (1+rh)/(1 + rh*(x/K))
    so that both fixed points are exact in floating point: x = K makes the
    quotient exactly 1.
    """
    rh = p.r * p.h
    if p.scheme == FORWARD:
        return _advance(x, x, rh, p.K)
    denominator = 1.0 + rh * (x / p.K)
    if abs(denominator) <= _TOL:
        raise PoleError(f"ratio map pole: denominator {denominator:.3e} at x={x!r}")
    return x * ((1.0 + rh) / denominator)
