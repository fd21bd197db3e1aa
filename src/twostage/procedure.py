"""The two-stage testing procedure on arrays of estimates.

Stage 1 applies a filtration rule (see :mod:`twostage.rules`) to every
hypothesis; stage 2 runs the joint-significance base test on the F
survivors at a threshold adjusted for F.  Filtered hypotheses are retained
as null and can never be rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import EstimatePair, _abs_z, _joint_abs_z, _joint_pvalues
from .rules import (
    Adjustment,
    BonferroniOverUnfiltered,
    ChiSquarePValue,
    FiltrationAware,
    FiltrationRule,
    MinPValue,
    NoFilter,
    ProductThreshold,
    _z_critical,
)

__all__ = [
    "TwoStageOutcome",
    "run_two_stage",
]


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
