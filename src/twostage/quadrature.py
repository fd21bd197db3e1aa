"""The Gauss-Legendre rule that the exact computations share, on ``math`` alone."""

from __future__ import annotations

import functools
import math


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
