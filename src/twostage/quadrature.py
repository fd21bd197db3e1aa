"""The normal numerics and the Gauss-Legendre rule that the exact computations share, on ``math`` alone."""

from __future__ import annotations

import functools
import math

_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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
