"""Two-stage testing procedure: filtration rules, multiplicity adjustments,
the exact survival probability p0 at the double null, and FWER bounds.

Stage 1 applies a strict preliminary test to every hypothesis and sets aside
("filters") those that look like the double-null point (0, 0).  Stage 2 runs
the joint-significance base test on the F survivors at a threshold adjusted
for F, so heavy filtration buys a larger per-hypothesis threshold.

A hypothesis is *filtered* when its filtration event holds; filtered
hypotheses are retained as null and can never be rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .estimators import EstimatePair, _abs_z, _joint_abs_z, _joint_pvalues, _z_critical

__all__ = [
    "NoFilter",
    "MinPValue",
    "ChiSquarePValue",
    "ProductThreshold",
    "FiltrationRule",
    "BonferroniOverUnfiltered",
    "FiltrationAware",
    "Adjustment",
    "TwoStageOutcome",
    "run_two_stage",
    "survival_prob_at_theta0",
    "fwer_bound_from_survivors",
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


def filter_mask(rule: FiltrationRule, gamma_hat, beta_hat, sigma_gamma, sigma_beta, n):
    """Vectorized filtration: boolean array, True where the hypothesis is filtered."""
    gamma_hat = np.asarray(gamma_hat, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    if isinstance(rule, NoFilter):
        return np.zeros(gamma_hat.shape, dtype=bool)
    with np.errstate(over="ignore"):  # a statistic beyond float range is inf, and survives
        if isinstance(rule, MinPValue):
            # min(p_gamma, p_beta) >= threshold, decided on |z| (see _z_critical).
            z_max = np.maximum(_abs_z(gamma_hat, sigma_gamma, n), _abs_z(beta_hat, sigma_beta, n))
            return z_max <= _z_critical(rule.threshold)
        if isinstance(rule, ChiSquarePValue):
            w = _abs_z(gamma_hat, sigma_gamma, n) ** 2 + _abs_z(beta_hat, sigma_beta, n) ** 2
            return np.exp(-w / 2.0) >= rule.threshold  # the chi-square(2df) survivor p-value of w
        if isinstance(rule, ProductThreshold):
            return np.abs(gamma_hat * beta_hat) < rule.c * np.asarray(n, dtype=float) ** (-rule.delta)
    raise TypeError(f"unknown filtration rule: {rule!r}")


def two_stage(methods, alpha: float, gamma_hat, beta_hat, sigma_gamma, sigma_beta, n) -> list[tuple]:
    """The two-stage procedure for each ``(rule, adjustment)`` pair in ``methods``.

    The hypotheses lie along the last axis of the estimate arrays (leading
    axes index independent batches, such as replications); the scales and n
    broadcast against them.  Returns one ``(survivors, threshold, rejected)``
    triple per method: the stage-1 survivor mask, the common stage-2
    threshold of each batch (``alpha/F``, or ``alpha*p0/F`` under
    :class:`FiltrationAware`, and 0 where F = 0), and the rejection mask.
    A survivor is rejected iff its joint p-value is <= the threshold, decided
    as ``joint |z| >= _z_critical(threshold)``, so no p-value is computed.
    """
    with np.errstate(over="ignore"):  # as in filter_mask: a |z| beyond float range is inf
        joint_z = _joint_abs_z(gamma_hat, beta_hat, sigma_gamma, sigma_beta, n)
    outcomes = []
    for rule, adjustment in methods:
        survivors = ~filter_mask(rule, gamma_hat, beta_hat, sigma_gamma, sigma_beta, n)
        level = alpha * adjustment.p0 if isinstance(adjustment, FiltrationAware) else alpha
        f = survivors.sum(axis=-1).astype(float)
        threshold = np.divide(level, f, out=np.zeros_like(f), where=f > 0)
        distinct, inverse = np.unique(threshold, return_inverse=True)  # one conversion per distinct F
        z_crit = np.array([_z_critical(t) for t in distinct])[inverse].reshape(threshold.shape)
        outcomes.append((survivors, threshold, survivors & (joint_z >= z_crit[..., None])))
    return outcomes


@dataclass(frozen=True, eq=False)
class TwoStageOutcome:
    """Result of one two-stage run over a list of hypotheses.

    ``filtered``, ``base_pvalue`` (the joint p-value) and ``rejected`` hold one
    entry per hypothesis, in input order; ``threshold`` is the common stage-2
    threshold, 0 when everything is filtered (F = 0).
    """

    filtered: np.ndarray
    base_pvalue: np.ndarray
    rejected: np.ndarray
    threshold: float
    F: int
    rejected_count: int


def run_two_stage(
    estimates: Sequence[EstimatePair],
    rule: FiltrationRule,
    alpha: float = 0.05,
    adjustment: Adjustment = BonferroniOverUnfiltered(),
) -> TwoStageOutcome:
    """Run filtration followed by the adjusted joint-significance base test.

    Each estimate pair keeps its own scales and n; the decisions are those of
    :func:`two_stage`, the kernel the simulation runs.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if len(estimates) == 0:
        raise ValueError("estimates must be nonempty")

    gamma = np.array([e.gamma_hat for e in estimates])
    beta = np.array([e.beta_hat for e in estimates])
    sig_g = np.array([e.sigma_gamma for e in estimates])
    sig_b = np.array([e.sigma_beta for e in estimates])
    ns = np.array([e.n for e in estimates])
    [(survivors, threshold, rejected)] = two_stage([(rule, adjustment)], alpha, gamma, beta, sig_g, sig_b, ns)
    return TwoStageOutcome(
        filtered=~survivors,
        base_pvalue=_joint_pvalues(gamma, beta, sig_g, sig_b, ns),
        rejected=rejected,
        threshold=float(threshold),
        F=int(survivors.sum()),
        rejected_count=int(rejected.sum()),
    )


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


def fwer_bound_from_survivors(max_conditional_reject: float, F_samples: Sequence[int]) -> float:
    """Finite-sample FWER bound from survivor counts.

    Evaluates ``mean((1 - (1 - q)^F) * 1{F > 0})`` over the supplied samples
    of F, where q bounds the per-hypothesis probability of rejection given
    survival.  :func:`~twostage.simulate.conditional_rejection_stats`
    supplies q as the largest simulated rate over the scenario's null rows,
    not as a maximum over every null parameter point.
    """
    q = float(max_conditional_reject)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"max_conditional_reject must lie in [0, 1], got {q}")
    f_arr = np.asarray(F_samples, dtype=float)
    if f_arr.size == 0:
        raise ValueError("F_samples must be nonempty")
    if np.any(f_arr < 0):
        raise ValueError("F_samples must be non-negative")
    terms = (1.0 - (1.0 - q) ** f_arr) * (f_arr > 0)
    return float(terms.mean())
