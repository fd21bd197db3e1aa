"""Monte-Carlo probes of the product statistic's local-asymptotic behaviour.

Acceptance criteria 06 and 08 and ``test_asymptotics.py`` share these
helpers; pytest collects only ``test_*.py``, so it does not collect this
module.  Every probe draws at unit per-observation scales, and cell i draws
gamma_hat, then beta_hat, from ``stream.offset(i).generator``.
"""

import math

import numpy as np


def _unit_draws(stream, gamma: float, beta: float, sd: float, reps: int):
    gen = stream.generator
    return gen.normal(gamma, sd, reps), gen.normal(beta, sd, reps)


def rate_exponent(stat_kind: str, theta, n_grid, reps: int, stream) -> float:
    """Estimated convergence-rate exponent of ``"product"`` or ``"norm2"`` at a fixed theta.

    Regresses the log of the error standard deviation on log n and returns the
    negated slope: 0.5 for a root-n statistic, 1.0 where the rate accelerates
    because the gradient of the functional vanishes.
    """
    sds = []
    for i, n in enumerate(n_grid):
        g, b = _unit_draws(stream.offset(i), theta.gamma, theta.beta, 1.0 / math.sqrt(n), reps)
        if stat_kind == "product":
            err = g * b - theta.gamma * theta.beta
        else:
            err = g**2 + b**2 - (theta.gamma**2 + theta.beta**2)
        sds.append(err.std(ddof=1))
    return float(-np.polyfit(np.log(n_grid), np.log(sds), 1)[0])


def sobel_samples(h_a, h_b, n: int, reps: int, stream) -> list:
    """Sorted draws of the Sobel statistic ``g b / sqrt(g^2 + b^2)`` under theta = h / sqrt(n), per direction h.

    A regular statistic has the same limit law for every h; a KS distance
    between the two samples above the critical value exposes direction
    dependence.
    """
    root_n = math.sqrt(n)
    samples = []
    for i, h in enumerate((h_a, h_b)):
        g, b = _unit_draws(stream.offset(i), h.gamma / root_n, h.beta / root_n, 1.0 / root_n, reps)
        samples.append(np.sort(g * b / np.sqrt(np.square(g) + np.square(b))))
    return samples


def ks_distance(a, b) -> float:
    """Two-sample KS statistic of two sorted samples of one size: the largest gap between their empirical CDFs."""
    pooled = np.concatenate((a, b))
    below_a, below_b = (np.searchsorted(x, pooled, side="right") for x in (a, b))
    return float(np.abs(below_a - below_b).max() / len(a))


def ks_critical_value(n_a: int, n_b: int, level: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at the given level."""
    c = math.sqrt(-math.log(level / 2.0) / 2.0)
    return c * math.sqrt((n_a + n_b) / (n_a * n_b))
