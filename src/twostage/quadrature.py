"""The normal numerics and the Gauss-Legendre rule that the exact computations share, on ``math`` alone.

The rules' ``reach`` probabilities are built from the tails and bands of one
standardized coordinate, and from integrals along a circle or a hyperbola.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Past this many sd from its mean a normal tail is below 2e-33; the quadrature stops there.
_REACH = 12.0
# The offsets j where a tail crosses the other coordinate's bulk: panel cuts.
_OFFSETS = (12.0, 8.0, 6.0, 4.0, 3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0, -4.0, -6.0, -8.0, -12.0)


class _Coordinate(NamedTuple):
    """A coordinate estimate ``sd (Z + mean)``: ``mean`` >= 0 in sd units, ``rho`` = (sigma/sqrt(n)) / sd.

    A threshold on ``|z|`` is ``rho`` times itself in sd units, so nothing is
    squared or exponentiated out of the float range.
    """

    mean: float
    rho: float
    sd: float


@functools.cache
def _gauss_legendre(order: int = 16) -> tuple[tuple[float, float], ...]:
    """The (node, weight) pairs of the ``order``-point Gauss-Legendre rule on [-1, 1].

    Each node is a root of the Legendre polynomial P_order, found by Newton's
    method from the usual cosine guess.
    """
    rule = []
    for i in range(1, order + 1):
        x = math.cos(math.pi * (i - 0.25) / (order + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, order + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            slope = order * (x * p - p_prev) / (x * x - 1.0)
            x -= p / slope
            if abs(p / slope) < 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    return tuple(rule)


def _panels(cuts, lo: float, hi: float):
    """Gauss-Legendre (node, weight) pairs over [lo, hi], cut at each of ``cuts`` inside it."""
    edges = sorted({lo, hi, *(x for x in cuts if lo < x < hi)})
    for a, z in zip(edges, edges[1:]):
        mid, half = 0.5 * (a + z), 0.5 * (z - a)
        for node, weight in _gauss_legendre():
            yield mid + half * node, half * weight


def _mass(lo: float, hi: float) -> float:
    """P(lo < Z < hi) for a standard normal Z, with each bound's tail formed directly."""
    if lo >= 0.0:
        return 0.5 * (math.erfc(lo * _SQRT_HALF) - math.erfc(hi * _SQRT_HALF))
    if hi <= 0.0:
        return 0.5 * (math.erfc(-hi * _SQRT_HALF) - math.erfc(-lo * _SQRT_HALF))
    return 0.5 * (math.erf(hi * _SQRT_HALF) - math.erf(lo * _SQRT_HALF))


def _tail(mean: float, x: float) -> float:
    """P(|Z + mean| >= x) for x >= 0; 1 at x = 0 and 0 at x = inf."""
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    return min(1.0, 0.5 * (math.erfc((x - mean) * _SQRT_HALF) + math.erfc((x + mean) * _SQRT_HALF)))


def _band(mean: float, lo: float, hi: float) -> float:
    """P(lo <= |Z + mean| < hi) for 0 <= lo <= hi < inf."""
    return _mass(lo - mean, hi - mean) + _mass(-hi - mean, -lo - mean)


def _arc(g: _Coordinate, b: _Coordinate, radius: float, lo: float, hi: float) -> float:
    """The part of P(u^2 + v^2 >= radius^2) over ``u = radius sin(t)``, t in [lo, hi], in z units.

    The integral over t of ``phi(rho_g radius sin t - mean_g) rho_g radius
    cos t P(|Z + mean_b| >= rho_b radius cos t)``.  Each panel spans at most
    two sd of either coordinate along the arc.
    """
    steps = max(8, math.ceil((hi - lo) * radius * max(g.rho, b.rho) / 2.0))
    grid = [lo + (hi - lo) * i / steps for i in range(1, steps)]
    total = 0.0
    for t, w in _panels(grid, lo, hi):
        d, chord = g.rho * radius * math.sin(t) - g.mean, radius * math.cos(t)
        total += w * math.exp(-0.5 * d * d) * chord * _tail(b.mean, b.rho * chord)
    return total * _INV_SQRT_2PI * g.rho


def _hyperbola(g: _Coordinate, b: _Coordinate, kappa: float, lo: float, hi: float) -> float:
    """P(lo <= |Y| < hi and |X Y| >= kappa), with X = Z + mean_g and Y = Z' + mean_b.

    The integral over y in [lo, hi] of ``(phi(y - mean_b) + phi(y + mean_b))
    P(|X| >= kappa / y)``.  Panels are cut on a grid of 1.5 sd about
    mean_b, and where ``kappa / y`` crosses ``mean_g + j`` for each offset
    j, so each of the two factors moves by at most a few sd on a panel.
    ``kappa / y`` is singular at y = 0, so the panels also halve towards it:
    none spans more than its distance from 0.
    """
    if kappa == 0.0 or g.mean == math.inf:
        return _band(b.mean, lo, hi) if hi < math.inf else _tail(b.mean, lo)
    if b.mean == math.inf:
        return 1.0 if hi == math.inf and kappa < math.inf else 0.0
    lo = max(lo, b.mean - _REACH, kappa / (g.mean + _REACH))
    hi = min(hi, b.mean + _REACH)
    if not lo < hi:
        return 0.0
    grid = [b.mean + 1.5 * i for i in range(-8, 9)]
    crossings = [kappa / (g.mean + j) for j in _OFFSETS if g.mean + j > 0.0]
    halvings = [hi]
    while halvings[-1] > max(2.0 * lo, 1e-30):
        halvings.append(0.5 * halvings[-1])
    total = 0.0
    for y, w in _panels([*grid, *crossings, *halvings], lo, hi):
        d, e = y - b.mean, y + b.mean
        edge = kappa / y if y > 0.0 else math.inf
        total += w * (math.exp(-0.5 * d * d) + math.exp(-0.5 * e * e)) * _tail(g.mean, edge)
    return total * _INV_SQRT_2PI
