"""Filtration rules, multiplicity adjustments and the methods that pair them.

Stage 1 applies a strict preliminary test to every hypothesis and sets aside
("filters") those that look like the double-null point (0, 0).  Stage 2 runs
the joint-significance base test on the F survivors at a threshold adjusted
for F, so heavy filtration buys a larger per-hypothesis threshold.

A hypothesis is *filtered* when its filtration event holds; filtered
hypotheses are retained as null and can never be rejected.  Each rule class
is the one place that knows its region.  It states the boundary once, in
``boundary(n)``, and reads it in three methods:

* ``survives(z_gamma, z_beta, product, bound)``, the kernel's decision
  (``procedure``) on the coordinates' ``|z|`` and ``|gamma_hat beta_hat|``;
* ``reach(g, b, bound, zeta)``, the exact probability (``exact``) that a
  hypothesis with the standardized coordinates ``g`` and ``b`` survives and
  both its ``|z|`` reach ``zeta``: at ``zeta = 0``, that it survives;
* ``p0(sigma_gamma, sigma_beta, n)``, the survival probability at the
  double null, in closed form.

The product rule's ``reach`` integrates across its hyperbola on the nodes of
``quadrature._fold``, so it is accurate in relative terms wherever it is a
normal float: at the double null it equals ``p0`` to about 1e-13.

``bound`` is ``boundary(n)``.  The decisions use only the arrays' operators,
so this module needs only the standard library.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Union

from .quadrature import _arc, _band, _hyperbola, _tail
from .sequence import _product_bound

__all__ = [
    "NoFilter",
    "MinPValue",
    "ChiSquarePValue",
    "ProductThreshold",
    "FiltrationRule",
    "BonferroniOverUnfiltered",
    "FiltrationAware",
    "Adjustment",
    "Method",
    "standard_methods",
]


class NoFilter:
    """Stage 1 disabled: every hypothesis proceeds to the base test."""

    label = "nofilter"

    def boundary(self, n: float) -> float:
        """0: nothing is filtered."""
        return 0.0

    def survives(self, z_gamma, z_beta, product, bound):
        return z_gamma >= 0.0  # as every |z| is: nothing is filtered

    def reach(self, g, b, bound: float, zeta: float) -> float:
        return _tail(g.mean, g.rho * zeta) * _tail(b.mean, b.rho * zeta)

    def p0(self, sigma_gamma: float, sigma_beta: float, n: float) -> float:
        return 1.0


class _Threshold(NamedTuple):
    threshold: float


class _ThresholdRule(_Threshold):
    """A rule on one p-value threshold in (0, 1)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        return self


class MinPValue(_ThresholdRule):
    """Filter when min(p_gamma, p_beta) >= threshold.

    A hypothesis survives only if at least one coordinate is individually
    significant at the (very strict) threshold.
    """

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"minp-{self.threshold:g}"

    def boundary(self, n: float) -> float:
        """The critical ``|z|``: filtered when both coordinates' ``|z|`` are at most it."""
        return _z_critical(self.threshold)

    def survives(self, z_gamma, z_beta, product, bound):
        return (z_gamma > bound) | (z_beta > bound)

    def reach(self, g, b, bound: float, zeta: float) -> float:
        xg, xb = g.rho * zeta, b.rho * zeta
        if zeta > bound:  # the rejection region lies inside the survival region
            return _tail(g.mean, xg) * _tail(b.mean, xb)
        # |u| > bound with |v| >= zeta, or zeta <= |u| <= bound with |v| > bound.
        cg, cb = g.rho * bound, b.rho * bound
        return min(1.0, _tail(g.mean, cg) * _tail(b.mean, xb) + _band(g.mean, xg, cg) * _tail(b.mean, cb))

    def p0(self, sigma_gamma: float, sigma_beta: float, n: float) -> float:
        """``1 - (1 - t)^2``, formed without cancellation."""
        return self.threshold * (2.0 - self.threshold)


class ChiSquarePValue(_ThresholdRule):
    """Filter when the chi-square(2df) p-value of W is >= threshold.

    W standardizes both coordinates, ``W = n * (g^2/sg^2 + b^2/sb^2)``, so it
    is exactly chi-square with 2 df at the double-null point and the rule is
    a bona fide level test of that point.
    """

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"chisq2-{self.threshold:g}"

    def boundary(self, n: float) -> float:
        """The radius ``sqrt(-2 ln t)``: filtered when ``|z_gamma|^2 + |z_beta|^2`` is at most its square."""
        return math.sqrt(-2.0 * math.log(self.threshold))

    def survives(self, z_gamma, z_beta, product, bound):
        return z_gamma * z_gamma + z_beta * z_beta > bound * bound

    def reach(self, g, b, bound: float, zeta: float) -> float:
        xg, xb = g.rho * zeta, b.rho * zeta
        if 2.0 * zeta * zeta >= bound * bound:  # the rejection region lies inside the survival region
            return _tail(g.mean, xg) * _tail(b.mean, xb)
        # |u| >= sqrt(bound^2 - zeta^2) with |v| >= zeta, or else (u, v) past the circle.
        inner, outer = math.asin(zeta / bound), math.acos(zeta / bound)
        corner = _tail(b.mean, xb) * _tail(g.mean, g.rho * math.sqrt(bound * bound - zeta * zeta))
        return min(1.0, corner + _arc(g, b, bound, inner, outer) + _arc(g, b, bound, -outer, -inner))

    def p0(self, sigma_gamma: float, sigma_beta: float, n: float) -> float:
        """``t``: W is chi-square with 2 df at the double null."""
        return self.threshold


class _Product(NamedTuple):
    c: float
    delta: float


class ProductThreshold(_Product):
    """Filter when |gamma_hat * beta_hat| < c * n**-delta.

    The absolute value makes the rule two-sided; a one-sided reading would
    filter every negative product regardless of magnitude.  The bound stays
    on the estimates: in z units it would be divided by both scales, which
    underflows at tiny sigma.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be positive, got {self.c}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        return self

    @property
    def label(self) -> str:
        return f"prod-{self.delta:g}"

    def boundary(self, n: float) -> float:
        """The bound ``c n^-delta`` on ``|gamma_hat beta_hat|``: filtered below it."""
        return _product_bound(self.c, self.delta, n)

    def survives(self, z_gamma, z_beta, product, bound):
        return product >= bound

    def reach(self, g, b, bound: float, zeta: float) -> float:
        kappa = bound / g.sd / b.sd  # the bound in the coordinates' sd units, which differ from row to row
        xg, xb = g.rho * zeta, b.rho * zeta
        if xg * xb >= kappa:  # the rejection region lies inside the survival region
            return _tail(g.mean, xg) * _tail(b.mean, xb)
        # |v| >= kappa / xg with |u| >= zeta, or else |u| >= kappa / |v|.
        far = kappa / xg if xg > 0.0 else math.inf
        return min(1.0, _tail(g.mean, xg) * _tail(b.mean, far) + _hyperbola(g, b, kappa, xb, far))

    def p0(self, sigma_gamma: float, sigma_beta: float, n: float) -> float:
        """``P(|Z1 Z2| >= s)``, with the bound in z units ``s = boundary(n) n / (sigma_gamma sigma_beta)``."""
        for name, value in (("sigma_gamma", sigma_gamma), ("sigma_beta", sigma_beta)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 1.0 <= n < math.inf:
            raise ValueError(f"n must be finite and at least 1, got {n}")
        return _product_tail(self.boundary(n) * n / sigma_gamma / sigma_beta)


FiltrationRule = Union[NoFilter, MinPValue, ChiSquarePValue, ProductThreshold]


class BonferroniOverUnfiltered:
    """Reject survivors at threshold alpha / F (plain Bonferroni over survivors)."""

    label = "bonferroni"
    p0 = 1.0  # the level is alpha * p0, as under FiltrationAware


class _Level(NamedTuple):
    p0: float


class FiltrationAware(_Level):
    """Reject survivors at threshold alpha * p0 / F.

    ``p0`` is the survival probability of the filtration rule at the
    double-null point, the minimizer of survival probability over the null.
    Scaling by p0 restores the finite-sample FWER guarantee at level alpha.
    """

    __slots__ = ()
    label = "filtration-aware"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.p0 <= 1.0):
            raise ValueError(f"p0 must lie in (0, 1], got {self.p0}")
        return self


Adjustment = Union[BonferroniOverUnfiltered, FiltrationAware]


class Method(NamedTuple):
    """A filtration rule and an adjustment: stage 2 rejects a survivor at ``level(alpha) / F``."""

    rule: FiltrationRule
    adjustment: Adjustment = BonferroniOverUnfiltered()
    id: str | None = None

    @property
    def method_id(self) -> str:
        if self.id is not None:
            return self.id
        suffix = "-aware" if isinstance(self.adjustment, FiltrationAware) else ""
        return self.rule.label + suffix

    def level(self, alpha: float) -> float:
        return alpha * self.adjustment.p0


def standard_methods() -> tuple[Method, ...]:
    """The comparison menu: no filtering plus the five filtration rules.

    Thresholds: min-p at 0.0004, the chi-square survivor p-value at 0.001,
    and the product rule at (c, delta) = (1.2, 0.8), (2, 0.9) and (3, 1).
    All use the plain Bonferroni-over-survivors adjustment.
    """
    return (
        Method(NoFilter(), id="nofilter"),
        Method(MinPValue(0.0004), id="minp"),
        Method(ChiSquarePValue(0.001), id="chisq2"),
        Method(ProductThreshold(1.2, 0.8), id="prod-0.8"),
        Method(ProductThreshold(2.0, 0.9), id="prod-0.9"),
        Method(ProductThreshold(3.0, 1.0), id="prod-1.0"),
    )


@functools.cache
def _z_critical(t: float) -> float:
    """The ``|z|`` at which a two-sided normal p-value equals ``t``.

    The p-value falls as ``|z|`` grows, so ``p <= t`` exactly when ``|z| >=
    _z_critical(t)``, up to floating-point rounding at the boundary.  That
    lets the two-stage decisions skip the p-value altogether.
    ``inf`` at ``t = 0``, where no finite ``|z|`` rejects.
    """
    if t == 0.0:
        return math.inf
    from statistics import NormalDist  # deferred: only the decision paths need it

    half = t / 2.0
    if half * 2.0 == t:
        return -NormalDist().inv_cdf(half)
    # t is an odd multiple of the smallest subnormal, so t / 2 rounds (to 0
    # for the smallest itself).  That far out, the tail is exp(-z^2/2) /
    # (z sqrt(2 pi)) to a relative 1/z^2, so halving the tail at the quantile
    # z of t solves y^2 + 2 log y = z^2 + 2 log z + 2 log 2; one fixed-point
    # step from y = z gives y within 3e-8.
    z = -NormalDist().inv_cdf(t)
    w = z * z + 2.0 * math.log(2.0)
    return math.sqrt(w - math.log(w / (z * z)))


def _product_tail(s: float) -> float:
    """P(|Z1 Z2| >= s) for independent standard normals Z1 and Z2."""
    # Z1 Z2 has density K0(|x|)/pi (Craig 1936), and K0(x) integrates exp(-x cosh t)
    # over t > 0, so P(|Z1 Z2| >= s) = (2/pi) * integral of exp(-s cosh t) / cosh t.
    # The trapezoid rule converges geometrically on that even, analytic integrand;
    # the step resolves the poles at t = +-i pi/2 and the peak at t = 0 (width
    # 1/sqrt(s)).  e^-s bounds the tail and is factored out: cosh t = 1 + 2 sinh(t/2)^2.
    scale = math.exp(-s)
    if scale == 0.0:
        return 0.0
    h = 0.5 / max(2.5, math.sqrt(s))
    terms = [0.5]  # the t = 0 node, at half weight
    while terms[-1] > 1e-18:
        t = len(terms) * h
        terms.append(math.exp(-2.0 * s * math.sinh(0.5 * t) ** 2) / math.cosh(t))
    return min(1.0, 2.0 * h / math.pi * math.fsum(terms) * scale)  # rounding can pass 1 at tiny s
