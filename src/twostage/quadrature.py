"""The normal numerics and the Gauss-Legendre rule that the exact computations share, on ``math`` alone.

The rules' ``reach`` probabilities are built from the tails and bands of one
standardized coordinate, and from integrals along a circle or a hyperbola.
``_fold`` places the nodes across the product rule's hyperbola for its ``reach`` and the MSE-ratio alike;
it alone finds where the mass lies, and its callers pass only their own limits.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Past this many sd from where its mass lies a normal tail is below 2e-33; the quadrature stops there.
_REACH = 12.0
# A standard normal tail or density at |z| >= 40 is 0.0 in double precision.
_EDGE = 40.0
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
    """Gauss-Legendre (node, weight) pairs over [lo, hi], cut at each of ``cuts`` inside it; none when hi <= lo."""
    if not lo < hi:
        return
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


def _fold(mean: float, other: float, kappa: float, lo: float, hi: float):
    """Gauss-Legendre nodes ``(r, d, w)`` over r in [lo, hi], for ``r = |Z + mean|``, mean >= 0, and ``d = r - mean``.

    The fold's sides are ``Z = d`` and ``Z = -(d + 2 mean)``.  The band
    ``|Z' + other| < kappa / r`` holds the other mean while d < ``cross``.
    On the side of the band that holds the lesser mass the integrand's log
    is about ``-h/2``, with ``h(d) = d^2 + e(d)^2`` and e the distance from
    the other mean to the band's edge (``gap`` at d = 0).  Beyond the band
    (cross > 0) h is convex with curvature at least 2 and least in [0,
    min(cross, gap, sqrt(kappa))]; within it (cross < 0) h >= d^2, with
    equality below cross.  Either way h exceeds its least value by
    ``_REACH^2`` once d is ``_REACH`` sd past ``span``, and exceeds 1600,
    where the integrand is 0, once |d| passes ``_EDGE``.  So the range runs
    ``_REACH`` sd past both the mean (the bulk) and ``span`` (the lesser
    mass), and each side of the band is integrated to relative accuracy.
    Panels are cut on a grid of d at most 2.5 apart, where ``kappa / r``
    crosses ``other + j`` for each of ``_OFFSETS``, and at r falling by 4
    down to where the band holds all the other coordinate's mass, or to the
    smallest normal float, so that no node is 0.
    Nodes are placed by r while the range comes within ``_REACH`` of 0, so r
    keeps its digits near the singular r = 0, and by d beyond, so d keeps
    its digits at a mean whose ulp is a sizeable part of an sd.
    """
    cross = kappa / other - mean if other > 0.0 else math.inf
    gap = abs(kappa / mean - other) if mean > 0.0 else math.inf
    span = min(cross, gap, math.sqrt(kappa), _EDGE) if cross > 0.0 else -min(-cross, gap, _EDGE)
    bottom, top = min(span, 0.0) - _REACH, max(span, 0.0) + _REACH
    steps = math.ceil((top - bottom) / 2.5)
    grid = [bottom + (top - bottom) * i / steps for i in range(steps + 1)]
    cuts = [kappa / (other + j) for j in _OFFSETS if other + j > 0.0]
    if mean + bottom >= _REACH:
        lo, hi = max(lo - mean, bottom), min(hi - mean, top)
        for d, w in _panels([*grid, *(r - mean for r in cuts)], lo, hi):
            yield mean + d, d, w
        return
    lo, hi = max(lo, mean + bottom), min(hi, mean + top)
    r, least = hi, max(lo, kappa / (other + _REACH), sys.float_info.min)
    while r > least:
        r /= 4.0
        cuts.append(r)
    cuts += (mean + d for d in grid)
    for r, w in _panels(cuts, lo, hi):
        yield r, r - mean, w


def _hyperbola(g: _Coordinate, b: _Coordinate, kappa: float, lo: float, hi: float) -> float:
    """P(lo <= |Y| < hi and |X Y| >= kappa), with X = Z + mean_g and Y = Z' + mean_b.

    The integral over r = |Y| in [lo, hi] of ``(phi(d) + phi(d + 2 mean_b))
    P(|X| >= kappa / r)``, with d = r - mean_b, on the nodes of :func:`_fold`.
    """
    if kappa == 0.0 or g.mean == math.inf:
        return _band(b.mean, lo, hi) if hi < math.inf else _tail(b.mean, lo)
    if b.mean == math.inf:
        return 1.0 if hi == math.inf and kappa < math.inf else 0.0
    total = 0.0
    for r, d, w in _fold(b.mean, g.mean, kappa, lo, hi):
        e = d + 2.0 * b.mean
        total += w * (math.exp(-0.5 * d * d) + math.exp(-0.5 * e * e)) * _tail(g.mean, kappa / r)
    return total * _INV_SQRT_2PI
