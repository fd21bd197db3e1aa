"""Monte-Carlo probes of the product statistic's local-asymptotic behaviour.

Acceptance criteria 05, 06 and 08 and ``test_asymptotics.py`` share these
helpers; pytest collects only ``test_*.py``, so it does not collect this
module.  Every probe draws at unit per-observation scales, and cell i draws
gamma_hat, then beta_hat, from ``stream.offset(i).generator``.
"""

import math
import sys

import numpy as np

from twostage.asymptotics import MseRatioPoint, _check_grid, _check_rule


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


def mse_ratio_experiment(seq, c: float, delta: float, n_grid, reps: int, stream) -> list:
    """Monte-Carlo estimate of the MSE of the shrinkage product estimator relative to the plain one.

    The oracle for ``asymptotics.mse_ratio_exact``.  For each n: simulate
    ``reps`` coordinate pairs at the drifting parameter, shrink the product to
    0 whenever |T| < c * n**-delta, and report MSE(shrunk)/MSE(plain) with a
    delta-method standard error, the finite-n K ratio, and the empirical
    filtration frequency.  Raises FloatingPointError, naming n, when the
    plain MSE is too small to divide by or too large (or not finite) to
    square.
    """
    _check_rule(c, delta)
    if reps < 100:
        raise ValueError(f"reps must be at least 100, got {reps}")
    grid = _check_grid(n_grid)
    out = []
    for i, (requested, n) in enumerate(zip(n_grid, grid)):
        point = seq.at(n)
        psi = point.gamma * point.beta
        gen = stream.offset(i).generator
        sd = 1.0 / math.sqrt(n)
        g = gen.normal(point.gamma, sd, reps)
        b = gen.normal(point.beta, sd, reps)
        with np.errstate(over="ignore", invalid="ignore"):
            t = g * b
            filtered = np.abs(t) < c * n ** (-delta)
            sq_shrunk = np.square(np.where(filtered, 0.0, t) - psi)
            sq_plain = np.square(t - psi)
            mse_shrunk = float(sq_shrunk.mean())
            mse_plain = float(sq_plain.mean())
        scale = mse_plain * mse_plain * reps
        if not sys.float_info.min <= scale <= sys.float_info.max:
            raise FloatingPointError(f"at n={int(requested)} the plain estimator's MSE ({mse_plain:g}) is out of range")
        ratio = mse_shrunk / mse_plain
        cov = np.cov(sq_shrunk, sq_plain, ddof=1)
        var_ratio = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / scale
        k_at_n = n * point.gamma * point.beta / math.sqrt(1.0 + n * (point.gamma**2 + point.beta**2))
        out.append(MseRatioPoint(int(requested), ratio, math.sqrt(max(var_ratio, 0.0)), k_at_n, float(filtered.mean())))
    return out
