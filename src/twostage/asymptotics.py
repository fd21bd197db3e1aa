"""Local-asymptotic analysis of the product shrinkage estimator.

A :class:`ParamSequence` describes how the true coordinate pair drifts with
the sample size, e.g. ``gamma_n = 1 + 3*n**-0.5``.  Two limit quantities
govern the shrinkage estimator ``T * 1{|T| >= c * n**-delta}`` along such a
sequence:

* ``L``, the limiting probability of the filtration event, classified here
  into the regions {1, interior, 0} from the auxiliary limit ``A``;
* ``K``, the limiting standardized distance between the drifting functional
  value and its value at the double null.

When L = 1 the MSE-ratio of the shrinkage estimator to the plain product
tends to K^2, when L = 0 the two estimators are equivalent, and in between
the ratio is not determined by (L, K) alone.  Each limit is exact: it
follows from the leading term ``a n**-p`` of each coordinate, and exponents
are compared as fractions, so a boundary such as ``delta = p + q`` is met
exactly.

The module also computes that MSE-ratio at finite n, at unit
per-observation scales (general scales reduce to this case by rescaling),
by one-dimensional quadrature of closed-form normal moments on the nodes of
``quadrature._fold``, which chooses the range; this module knows no cutoff of its own.

Everything here needs only the standard library: ``math`` and, for the
exponents, ``fractions``.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple, Sequence

from .quadrature import _EDGE, _INV_SQRT_2PI, _SQRT_HALF, _fold, _mass
from .sequence import PowerSequence, _product_bound

__all__ = [
    "ParamPoint",
    "PowerSequence",
    "ParamSequence",
    "LRegion",
    "EfficiencyClass",
    "RegimeClassification",
    "classify_product_regime",
    "mse_product_closed",
    "MseRatioPoint",
    "mse_ratio_exact",
    "MseRatioPreset",
    "MSE_RATIO_PRESETS",
]


class _Point(NamedTuple):
    gamma: float
    beta: float


class ParamPoint(_Point):
    """A fixed coordinate pair (gamma, beta)."""

    __slots__ = ()

    def __new__(cls, gamma: float, beta: float):
        if not (math.isfinite(gamma) and math.isfinite(beta)):
            raise ValueError("coordinates must be finite")
        return super().__new__(cls, gamma, beta)


class ParamSequence(NamedTuple):
    """A drifting parameter pair (gamma_n, beta_n)."""

    gamma: PowerSequence
    beta: PowerSequence

    def at(self, n: int | float) -> ParamPoint:
        return ParamPoint(self.gamma.at(n), self.beta.at(n))

    @classmethod
    def parse(cls, gamma: str, beta: str) -> "ParamSequence":
        return cls(PowerSequence.parse(gamma), PowerSequence.parse(beta))


def _check_grid(n_grid: Sequence[int]) -> list[float]:
    grid = [float(n) for n in n_grid]
    if len(grid) < 3:
        raise ValueError("n_grid needs at least 3 points")
    if not all(1.0 <= a < b for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be increasing and positive")
    return grid


class LRegion(Enum):
    ONE = "one"
    INTERIOR = "interior"
    ZERO = "zero"


class EfficiencyClass(Enum):
    MUCH_MORE = "much_more"
    MORE = "more"
    EQUIVALENT = "equivalent"
    LESS = "less"
    MUCH_LESS = "much_less"
    INDETERMINATE = "indeterminate"


class RegimeClassification(NamedTuple):
    """(L-region, K) regime of the shrinkage estimator along a sequence.

    ``a_value`` and the two term limits are diagnostics: A is the larger of
    the scaled-mean and scaled-sd limits that drive the L classification.
    """

    L_region: LRegion
    K_value: float
    efficiency_class: EfficiencyClass
    a_value: float
    a_mean_term: float
    a_sd_term: float


def _efficiency(region: LRegion, k: float, k_is_zero: bool) -> EfficiencyClass:
    """The class of ``(region, K)``.  ``k_is_zero`` comes from the exponents: a finite K can underflow to 0.0."""
    if region is LRegion.ZERO:
        return EfficiencyClass.EQUIVALENT
    mag = abs(k)
    if math.isinf(mag):
        return EfficiencyClass.MUCH_LESS
    if region is LRegion.INTERIOR:
        return EfficiencyClass.MORE if k_is_zero else EfficiencyClass.INDETERMINATE
    if k_is_zero:
        return EfficiencyClass.MUCH_MORE
    if math.isclose(mag, 1.0, rel_tol=1e-9):
        return EfficiencyClass.EQUIVALENT
    return EfficiencyClass.MORE if mag < 1.0 else EfficiencyClass.LESS


def _check_rule(c: float, delta: float) -> None:
    """The rule ``|T| < c * n**-delta`` needs a finite, positive c and delta, as ``ProductThreshold`` does."""
    if not (math.isfinite(c) and math.isfinite(delta)):
        raise ValueError(f"c and delta must be finite, got c={c}, delta={delta}")
    if c <= 0.0 or delta <= 0.0:
        raise ValueError("c and delta must be positive")


def _exact(x: float):
    """The exponent ``x`` as a Fraction: the simplest one with a denominator up
    to 1e6 that rounds to ``x``, else the value of ``x``'s shortest text.

    So ``n^-1/3`` times ``n^-2/3`` is exactly ``n^-1``, 0.1 + 0.2 is exactly
    0.3, and 5e-324 stays above 0.
    """
    from fractions import Fraction

    q = Fraction(x).limit_denominator(10**6)
    return q if float(q) == x else Fraction(repr(x))


def _leading(s: PowerSequence, name: str):
    """``(a, p)`` with ``s_n = a n^-p + o(n^-p)`` and ``a != 0``, or None when s is identically 0.

    The offset is the ``n^-0`` term, and coefficients that share an exponent
    add exactly.
    """
    from fractions import Fraction

    sums: dict = {}
    for coef, exp in ((s.offset, 0.0), *s.terms):
        p = _exact(exp)
        sums[p] = sums.get(p, 0) + Fraction(coef)
    for p in sorted(sums):
        if sums[p]:
            try:
                return float(sums[p]), p
            except OverflowError:
                raise ValueError(f"{name}: the coefficients of n^-{float(p):g} add up past the float range") from None
    return None


def _root(parts) -> tuple:
    """``(r, t, u)`` with ``sqrt(sum of m^2 n^e) ~ t u n^(r/2)`` over the parts ``(e, m)``.

    r is the largest e, and t the largest m that has it.  u, in [1, sqrt 3],
    is the root of the summed squares of those m over t, so no square leaves
    the float range.
    """
    r = max(e for e, _ in parts)
    top = [m for e, m in parts if e == r]
    t = max(top)
    return r, t, math.hypot(*(m / t for m in top))


def _limit(coef: float, e) -> float:
    """The limit of ``coef * n^e``: inf with coef's sign, coef, or 0 as e is above, at or below 0."""
    return math.copysign(math.inf, coef) if e > 0 else coef if e == 0 else 0.0


def classify_product_regime(seq: ParamSequence, c: float, delta: float) -> RegimeClassification:
    """Classify the filtration rule |T| < c * n**-delta along the sequence.

    The region comes from ``A = max(lim n**delta |g b|, lim n**(delta - 1/2)
    sqrt(n^-1 + g^2 + b^2))``: A = 0 forces filtration probability 1 (only
    possible for delta < 1), finite nonzero A an interior probability, and
    A = inf probability 0.  K is ``lim n g b / sqrt(1 + n (g^2 + b^2))``.

    Each limit comes from the coordinates' leading terms ``a_g n^-p`` and
    ``a_b n^-q``: whether it is infinite, finite or 0 is decided on the exact
    exponents, and only then is its finite value formed.  Every part under
    the two roots is non-negative, so the fastest-growing part wins.  The sd
    term is at least ``n**(delta - 1)``, so delta > 1 gives A = inf.

    The constant c shifts finite-n filtration frequencies but not the limit,
    so it does not enter the region.
    """
    _check_rule(c, delta)
    g, b = _leading(seq.gamma, "gamma"), _leading(seq.beta, "beta")
    d = _exact(delta)
    # Only the sign of each exponent matters, so the sd and K ones are doubled to stay whole.
    # The sd term: n^(delta - 1/2) sqrt(n^-1 + g^2 + b^2).
    r, t, u = _root([(-1, 1.0), *((-2 * p, abs(a)) for a, p in filter(None, (g, b)))])
    sd_order = 2 * d - 1 + r
    sd_term = _limit(t * u, sd_order)
    if g is None or b is None:
        mean_order, mean_term, k_order, k_value = -math.inf, 0.0, -math.inf, 0.0
    else:
        (a_g, p), (a_b, q) = g, b
        # |g b| rather than g b: the filtration event is two-sided in T.
        mean_order = d - p - q
        mean_term = _limit(abs(a_g * a_b), mean_order)
        # K: n g b / sqrt(1 + n g^2 + n b^2).  Dividing the coordinate that t
        # measures by t keeps a_g a_b / (t u) in range.
        r, t, u = _root([(0, 1.0), (1 - 2 * p, abs(a_g)), (1 - 2 * q, abs(a_b))])
        x, y = (a_g, a_b) if abs(a_g) == t else (a_b, a_g)
        k_order = 2 - 2 * p - 2 * q - r
        k_value = _limit(x / t * y / u, k_order)

    order = max(mean_order, sd_order)
    region = LRegion.ZERO if order > 0 else LRegion.INTERIOR if order == 0 else LRegion.ONE
    return RegimeClassification(
        region, k_value, _efficiency(region, k_value, k_order < 0), max(mean_term, sd_term), mean_term, sd_term
    )


def mse_product_closed(gamma: float, beta: float, n: int) -> float:
    """Closed-form MSE of the product estimator at unit scales.

    With independent N(gamma, 1/n) and N(beta, 1/n) coordinates the product's
    mean squared error about gamma*beta is ``n^-1 (n^-1 + gamma^2 + beta^2)``
    exactly.  A square past the float range gives inf.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return (1.0 / n) * (1.0 / n + gamma * gamma + beta * beta)


class MseRatioPoint(NamedTuple):
    """One grid cell of the MSE-ratio: ``mc_se`` is 0, since the ratio is exact."""

    n: int
    ratio: float
    mc_se: float
    k_at_n: float
    filter_freq: float


def _tail_square(alpha: float, d: float, h: float) -> float:
    """``E[(alpha Z + d)^2 1{Z >= h}]`` for a standard normal Z and h >= 0.

    Written about the boundary as ``(alpha (Z - h) + e)^2`` with
    ``e = alpha h + d``, whose three terms share a sign whenever alpha and e
    do.
    """
    q = 0.5 * math.erfc(h * _SQRT_HALF)
    p = _INV_SQRT_2PI * math.exp(-0.5 * h * h)
    e = alpha * h + d
    return alpha * alpha * ((1.0 + h * h) * q - h * p) + 2.0 * alpha * e * (p - h * q) + e * e * q


def _given_x(alpha: float, d: float, lo: float, hi: float) -> tuple[float, float]:
    """``(P(lo < Z < hi), E[(alpha Z + d)^2 1{Z outside (lo, hi)}])`` for a standard normal Z.

    Each tail that holds less than half of Z's mass is formed directly, and
    one that holds more as the whole second moment less its complement, so no
    term is a small difference of large ones.
    """
    if lo <= 0.0 <= hi:
        outside = _tail_square(alpha, d, hi) + _tail_square(-alpha, d, -lo)
    elif lo > 0.0:
        outside = alpha * alpha + d * d - _tail_square(alpha, d, lo) + _tail_square(alpha, d, hi)
    else:
        outside = alpha * alpha + d * d - _tail_square(-alpha, d, -hi) + _tail_square(-alpha, d, -lo)
    return min(1.0, max(0.0, _mass(lo, hi))), max(0.0, outside)


def _ratio_at(g: float, b: float, n: float, c: float, delta: float) -> tuple[float, float, float]:
    """``(MSE(shrunk) / MSE(plain), P(filtered), psi)`` at one n, by quadrature over gamma_hat.

    Write gamma_hat = x = g + s t and beta_hat = Y = b + s Z, with s = n^-1/2
    and t, Z standard normal.  Given x, the product is filtered exactly when
    ``|Y| < tau / |x|``, with tau = c n^-delta, so the shrunk error is
    ``x Y - g b`` outside that band and ``-g b`` inside it.  In units of the
    plain MSE, ``s^2 H^2`` with ``H^2 = s^2 + g^2 + b^2``, the error outside
    is ``(x / H) Z + (b / H) t``, and the ratio is the integral over t of its
    truncated second moment plus ``psi^2`` times the filtration probability.
    Both parts are non-negative.  ``psi = g b / (s H)`` is the finite-n K
    ratio ``n g b / sqrt(1 + n (g^2 + b^2))``, formed so that no square
    leaves the float range; a ``psi`` past it gives an infinite ratio.  With
    r = |x| / s, the band is ``|Z + b/s| < kappa / r``, where
    ``kappa = c n^-delta n`` is the product rule's bound times n.

    The integral runs over r on the nodes of :func:`quadrature._fold`, with
    both signs of x at each r.  Both results are divided by the rule's total
    normal mass, so the probability is at most 1 in floating point too.
    """
    s = 1.0 / math.sqrt(n)
    h = math.hypot(s, g, b)
    bs = b / s
    psi = g / h * bs if g and b else 0.0
    if not math.isfinite(psi):
        return math.inf, math.nan, psi
    kappa = _product_bound(c, delta, n) * n
    near, side = abs(g) / s, math.copysign(1.0, g)
    mass = filtered = kept = outside = 0.0
    for r, d, w in _fold(near, abs(bs), kappa, 0.0, math.inf):
        u = kappa / r
        lo = min(_EDGE, max(-_EDGE, -u - bs))
        hi = min(_EDGE, max(-_EDGE, u - bs))
        # x = side s r on gamma_hat's side of 0, and -side s r on the far side.
        alpha = side * s * r / h
        for t, a in ((side * d, alpha), (-side * (r + near), -alpha)):
            wt = w * math.exp(-0.5 * t * t)
            inside, sq = _given_x(a, b / h * t, lo, hi)
            mass += wt
            filtered += wt * inside
            kept += wt * (1.0 - inside)
            outside += wt * sq
    # Near 1, the frequency is 1 less the summed complement, so the bulk's rounding does not reach its last digit.
    freq = filtered / mass if filtered < kept else 1.0 - kept / mass
    return outside / mass + psi * (psi * freq), freq, psi


def mse_ratio_exact(seq: ParamSequence, c: float, delta: float, n_grid: Sequence[int]) -> list[MseRatioPoint]:
    """Exact MSE of the shrinkage product estimator relative to the plain one.

    For each n, at unit scales, the shrunk estimator is the product of
    independent N(gamma_n, 1/n) and N(beta_n, 1/n) coordinates, set to 0
    whenever ``|T| < c * n**-delta``.  Each point holds MSE(shrunk)/MSE(plain)
    from :func:`_ratio_at`, ``mc_se`` 0, the finite-n K ratio and the
    filtration probability, and reports ``int`` of the requested n.  Raises
    FloatingPointError, naming n, when the plain MSE is not a normal float or
    the ratio leaves the float range.
    """
    _check_rule(c, delta)
    grid = _check_grid(n_grid)
    out = []
    for requested, n in zip(n_grid, grid):
        point = seq.at(n)
        plain = mse_product_closed(point.gamma, point.beta, n)
        if not sys.float_info.min <= plain <= sys.float_info.max:
            raise FloatingPointError(
                f"at n={int(requested)} the plain estimator's MSE ({plain:g}) is out of the "
                "range in which the ratio can be formed"
            )
        ratio, freq, k = _ratio_at(point.gamma, point.beta, n, c, delta)
        if not math.isfinite(ratio):
            raise FloatingPointError(f"at n={int(requested)} the shrunk estimator's MSE leaves the float range")
        out.append(MseRatioPoint(int(requested), ratio, 0.0, k, freq))
    return out


class MseRatioPreset(NamedTuple):
    """A named (sequence, filtration constants) bundle for the MSE-ratio."""

    gamma: PowerSequence
    beta: PowerSequence
    c: float
    delta: float
    note: str


def _ps(text: str) -> PowerSequence:
    return PowerSequence.parse(text)


# The k-* presets share (c, delta) = (4, 0.7) and realize the full range of
# limiting K at full filtration; the partial-* family (2.5, 1) sits at an
# interior filtration probability; vanishing-filter stops filtering in the
# limit; superefficient collapses to zero with probability -> 1.
MSE_RATIO_PRESETS: dict[str, MseRatioPreset] = {
    "k-inf": MseRatioPreset(_ps("2n^-0.4"), _ps("n^-0.4"), 4.0, 0.7, "L=1, K=inf"),
    "k-4over3": MseRatioPreset(_ps("2n^-0.5"), _ps("2n^-0.5"), 4.0, 0.7, "L=1, K=4/3"),
    "k-one": MseRatioPreset(
        PowerSequence(0.0, ((2.0, 0.5),)),
        PowerSequence(0.0, ((math.sqrt(5.0 / 3.0), 0.5),)),
        4.0,
        0.7,
        "L=1, K=1",
    ),
    "k-inv-sqrt3": MseRatioPreset(_ps("n^-0.5"), _ps("n^-0.5"), 4.0, 0.7, "L=1, K=1/sqrt(3)"),
    "k-zero": MseRatioPreset(_ps("n^-0.5"), _ps("n^-0.6"), 4.0, 0.7, "L=1, K=0"),
    "partial-small": MseRatioPreset(_ps("0.7n^-0.5"), _ps("0.7n^-0.5"), 2.5, 1.0, "0<L<1, smallest K"),
    "partial-mid": MseRatioPreset(_ps("1.075n^-0.5"), _ps("1.075n^-0.5"), 2.5, 1.0, "0<L<1, middle K"),
    "partial-large": MseRatioPreset(_ps("2n^-0.5"), _ps("2n^-0.5"), 2.5, 1.0, "0<L<1, largest K"),
    "vanishing-filter": MseRatioPreset(_ps("n^-1"), _ps("n^-1"), 2.5, 1.5, "L=0, ratio -> 1"),
    "superefficient": MseRatioPreset(_ps("n^-0.6"), _ps("n^-0.6"), 1.0, 0.8, "L=1, K=0, ratio -> 0"),
}
