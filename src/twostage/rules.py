"""Filtration rules, multiplicity adjustments and the methods that pair them.

Stage 1 applies a strict preliminary test to every hypothesis and sets aside
("filters") those that look like the double-null point (0, 0).  Stage 2 runs
the joint-significance base test on the F survivors at a threshold adjusted
for F, so heavy filtration buys a larger per-hypothesis threshold.

A hypothesis is *filtered* when its filtration event holds; filtered
hypotheses are retained as null and can never be rejected.  This module
describes the rules and decides nothing on data, so it needs only the
standard library: ``procedure`` applies the rules to arrays, and ``exact``
computes their probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

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
    "survival_prob_at_theta0",
]


@dataclass(frozen=True)
class NoFilter:
    """Stage 1 disabled: every hypothesis proceeds to the base test."""

    label = "nofilter"


@dataclass(frozen=True)
class MinPValue:
    """Filter when min(p_gamma, p_beta) >= threshold.

    A hypothesis survives only if at least one coordinate is individually
    significant at the (very strict) threshold.
    """

    threshold: float

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")

    @property
    def label(self) -> str:
        return f"minp-{self.threshold:g}"


@dataclass(frozen=True)
class ChiSquarePValue:
    """Filter when the chi-square(2df) p-value of W is >= threshold.

    W standardizes both coordinates, ``W = n * (g^2/sg^2 + b^2/sb^2)``, so it
    is exactly chi-square with 2 df at the double-null point and the rule is
    a bona fide level test of that point.
    """

    threshold: float

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")

    @property
    def label(self) -> str:
        return f"chisq2-{self.threshold:g}"


@dataclass(frozen=True)
class ProductThreshold:
    """Filter when |gamma_hat * beta_hat| < c * n**-delta.

    The absolute value makes the rule two-sided; a one-sided reading would
    filter every negative product regardless of magnitude.
    """

    c: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be positive, got {self.c}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def label(self) -> str:
        return f"prod-{self.delta:g}"


FiltrationRule = Union[NoFilter, MinPValue, ChiSquarePValue, ProductThreshold]


@dataclass(frozen=True)
class BonferroniOverUnfiltered:
    """Reject survivors at threshold alpha / F (plain Bonferroni over survivors)."""

    label = "bonferroni"


@dataclass(frozen=True)
class FiltrationAware:
    """Reject survivors at threshold alpha * p0 / F.

    ``p0`` is the survival probability of the filtration rule at the
    double-null point, the minimizer of survival probability over the null.
    Scaling by p0 restores the finite-sample FWER guarantee at level alpha.
    """

    p0: float

    def __post_init__(self):
        if not (0.0 < self.p0 <= 1.0):
            raise ValueError(f"p0 must lie in (0, 1], got {self.p0}")

    label = "filtration-aware"


Adjustment = Union[BonferroniOverUnfiltered, FiltrationAware]


@dataclass(frozen=True)
class Method:
    """A filtration rule paired with a multiplicity adjustment."""

    rule: FiltrationRule
    adjustment: Adjustment = BonferroniOverUnfiltered()
    id: str | None = None

    @property
    def method_id(self) -> str:
        if self.id is not None:
            return self.id
        suffix = "-aware" if isinstance(self.adjustment, FiltrationAware) else ""
        return self.rule.label + suffix


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


def survival_prob_at_theta0(rule: FiltrationRule, sigma_gamma: float, sigma_beta: float, n: float) -> float:
    """The survival probability p0 of ``rule`` at the double null, exactly.

    Both z-statistics are standard normal there, whatever the scales and n,
    so p0 is 1 (NoFilter), ``1 - (1 - t)^2`` (MinPValue), ``t``
    (ChiSquarePValue) or ``P(|Z1 Z2| >= c n^(1-delta) / (sigma_gamma sigma_beta))``.
    """
    if isinstance(rule, NoFilter):
        return 1.0
    if isinstance(rule, MinPValue):
        return rule.threshold * (2.0 - rule.threshold)  # 1 - (1 - t)^2 without cancellation
    if isinstance(rule, ChiSquarePValue):
        return rule.threshold
    if not isinstance(rule, ProductThreshold):
        raise TypeError(f"unknown filtration rule: {rule!r}")
    # Z1 Z2 has density K0(|x|)/pi (Craig 1936), and K0(x) integrates exp(-x cosh t)
    # over t > 0, so P(|Z1 Z2| >= s) = (2/pi) * integral of exp(-s cosh t) / cosh t.
    # The trapezoid rule converges geometrically on that even, analytic integrand;
    # the step resolves the poles at t = +-i pi/2 and the peak at t = 0 (width
    # 1/sqrt(s)).  e^-s bounds the tail and is factored out: cosh t = 1 + 2 sinh(t/2)^2.
    s = rule.c * float(n) ** (1.0 - rule.delta) / sigma_gamma / sigma_beta
    scale = math.exp(-s)
    if scale == 0.0:
        return 0.0
    h = 0.5 / max(2.5, math.sqrt(s))
    terms = [0.5]  # the t = 0 node, at half weight
    while terms[-1] > 1e-18:
        t = len(terms) * h
        terms.append(math.exp(-2.0 * s * math.sinh(0.5 * t) ** 2) / math.cosh(t))
    return min(1.0, 2.0 * h / math.pi * math.fsum(terms) * scale)  # rounding can pass 1 at tiny s
