"""Point statistics and p-values for a single mediation-style hypothesis.

Everything here consumes an :class:`EstimatePair`: two coordinate estimates
(gamma_hat, beta_hat) together with their per-observation scales and the
sample size, under the usual normal approximation where ``gamma_hat`` has
marginal standard deviation ``sigma_gamma / sqrt(n)``.

The tested functional is the product ``gamma * beta``; it vanishes exactly
when at least one coordinate is zero, which is what makes the null composite.
The statistics below differ in how they behave across the three null cases
(one coordinate zero, the other zero, or both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import _erfc
from .exceptions import DegenerateInputError

__all__ = [
    "EstimatePair",
    "product_stat",
    "sobel_stat",
    "coord_pvalue",
    "joint_pvalue",
]


@dataclass(frozen=True)
class EstimatePair:
    """Coordinate estimates for one hypothesis.

    Attributes:
        gamma_hat: estimate of the exposure->mediator coefficient.
        beta_hat: estimate of the mediator->outcome coefficient.
        sigma_gamma: per-observation scale of gamma_hat (marginal sd is
            ``sigma_gamma / sqrt(n)``).
        sigma_beta: per-observation scale of beta_hat.
        n: sample size behind the estimates.
    """

    gamma_hat: float
    beta_hat: float
    sigma_gamma: float = 1.0
    sigma_beta: float = 1.0
    n: int = 1

    def __post_init__(self):
        for name in ("gamma_hat", "beta_hat"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("sigma_gamma", "sigma_beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")


def product_stat(e: EstimatePair) -> float:
    """Product estimator gamma_hat * beta_hat of the tested functional."""
    return e.gamma_hat * e.beta_hat


def sobel_stat(e: EstimatePair) -> float:
    """Normalized product statistic gb / sqrt(sb^2 g^2 + sg^2 b^2).

    Undefined at ``gamma_hat = beta_hat = 0`` (a genuine 0/0: the statistic
    has no continuous extension there), so that point raises rather than
    silently returning a value.
    """
    if e.gamma_hat == 0.0 and e.beta_hat == 0.0:
        raise DegenerateInputError("sobel_stat is 0/0 at gamma_hat = beta_hat = 0")
    denom = np.sqrt(e.sigma_beta**2 * np.square(e.gamma_hat) + e.sigma_gamma**2 * np.square(e.beta_hat))
    return float(e.gamma_hat * e.beta_hat / denom)


def _abs_z(estimate, sigma, n):
    """The z-statistic ``sqrt(n) * |estimate| / sigma`` of one coordinate; broadcasts."""
    sigma_arr = np.asarray(sigma, dtype=float)
    if not np.all(sigma_arr > 0.0):
        raise ValueError("sigma must be positive")
    return np.sqrt(np.asarray(n, dtype=float)) * np.abs(np.asarray(estimate, dtype=float)) / sigma_arr


def coord_pvalue(estimate, sigma, n):
    """Two-sided z-test p-value for one coordinate being zero.

    Computes ``2 * (1 - Phi(sqrt(n) * |estimate| / sigma))``; uniform on
    (0, 1) when the true coordinate is zero.  Accepts arrays and broadcasts.
    """
    z = _abs_z(estimate, sigma, n)
    # erfc form of 2*(1 - Phi(z)), exact in the far tail.
    p = _erfc(z / np.sqrt(2.0))
    if np.isscalar(estimate) or np.ndim(estimate) == 0:
        return float(p)
    return p


def joint_pvalue(e: EstimatePair) -> float:
    """Joint-significance p-value max(p_gamma, p_beta).

    Level alpha when exactly one coordinate is truly zero, but only alpha^2
    when both are: the two coordinate p-values are independent, so both must
    fall below alpha at once.
    """
    p1 = coord_pvalue(e.gamma_hat, e.sigma_gamma, e.n)
    p2 = coord_pvalue(e.beta_hat, e.sigma_beta, e.n)
    return max(p1, p2)


def _joint_pvalues(gamma_hat, beta_hat, sigma_gamma, sigma_beta, n):
    """Vectorized max of the two coordinate p-values."""
    p1 = coord_pvalue(gamma_hat, sigma_gamma, n)
    p2 = coord_pvalue(beta_hat, sigma_beta, n)
    return np.maximum(p1, p2)


def _joint_abs_z(gamma_hat, beta_hat, sigma_gamma, sigma_beta, n):
    """Vectorized min of the two coordinate ``|z|``: the z-form of :func:`_joint_pvalues`.

    ``_joint_pvalues(...) <= t`` exactly when ``_joint_abs_z(...) >=
    rules._z_critical(t)``, up to rounding at the boundary.
    """
    return np.minimum(_abs_z(gamma_hat, sigma_gamma, n), _abs_z(beta_hat, sigma_beta, n))
