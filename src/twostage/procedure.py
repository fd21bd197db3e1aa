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

from .estimators import EstimatePair, _abs_z, coord_pvalue
from .rules import Adjustment, BonferroniOverUnfiltered, FiltrationRule, _z_critical

__all__ = [
    "TwoStageOutcome",
    "run_two_stage",
]


def _each(f, x):
    """``f`` of every entry of ``x``, an array or a scalar, called once per distinct value."""
    distinct, inverse = np.unique(x, return_inverse=True)
    return np.array([f(float(v)) for v in distinct])[inverse].reshape(np.shape(x))


def two_stage(methods, alpha: float, gamma_hat, beta_hat, sigma_gamma, sigma_beta, n) -> list[tuple]:
    """The two-stage procedure for each ``(rule, adjustment)`` pair in ``methods``.

    The hypotheses lie along the last axis of the estimate arrays (leading
    axes index independent batches, such as replications); the scales and n
    broadcast against them.  Returns one ``(survivors, threshold, rejected)``
    triple per method: the stage-1 survivor mask, the common stage-2
    threshold ``alpha * p0 / F`` of each batch (the adjustment's p0, 1 for
    plain Bonferroni; 0 where F = 0), and the rejection mask.  Stage 1 is the
    rule's ``survives`` on each coordinate's ``|z|`` and on ``|gamma_hat
    beta_hat|``, each formed once, against its ``boundary(n)``, formed once
    per distinct n.  A survivor is rejected iff its joint p-value is <= the
    threshold, decided as ``min |z| >= _z_critical(threshold)``.
    """
    with np.errstate(over="ignore"):  # a statistic beyond float range is inf, and survives
        z_gamma, z_beta = _abs_z(gamma_hat, sigma_gamma, n), _abs_z(beta_hat, sigma_beta, n)
        joint_z = np.minimum(z_gamma, z_beta)
        product = np.abs(np.multiply(gamma_hat, beta_hat, dtype=float))
        outcomes = []
        for rule, adjustment in methods:
            survivors = rule.survives(z_gamma, z_beta, product, _each(rule.boundary, n))
            level = alpha * adjustment.p0
            f = survivors.sum(axis=-1).astype(float)
            threshold = np.divide(level, f, out=np.zeros_like(f), where=f > 0)
            z_crit = _each(_z_critical, threshold)
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
        base_pvalue=np.maximum(coord_pvalue(gamma, sig_g, ns), coord_pvalue(beta, sig_b, ns)),
        rejected=rejected,
        threshold=float(threshold),
        F=int(survivors.sum()),
        rejected_count=int(rejected.sum()),
    )
