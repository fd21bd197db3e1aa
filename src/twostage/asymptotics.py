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
the ratio is not determined by (L, K) alone.  All limits are evaluated
numerically on a grid of sample sizes with a stabilization test; the grid is
capped at 1e8 and the stabilization window is 1% relative change.

The module also hosts empirical probes: an MSE-ratio experiment along a
sequence, a convergence-rate estimator, and a two-sample check that the
normalized (Sobel) statistic has direction-dependent limit laws at the
double null.  Probes fix unit per-observation scales; general scales reduce
to this case by rescaling.

The limits are plain ``math`` on Python floats, so classifying a sequence
needs only the standard library; numpy loads when a probe draws.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .exceptions import InconsistentRegimeError
from .sequence import PowerSequence, _pow

if TYPE_CHECKING:
    from .dist import RandomStream

__all__ = [
    "ParamPoint",
    "PowerSequence",
    "ParamSequence",
    "extrapolate_limit",
    "compute_K",
    "k_upper_bound",
    "LRegion",
    "EfficiencyClass",
    "RegimeClassification",
    "classify_product_regime",
    "mse_product_closed",
    "MseRatioPoint",
    "mse_ratio_experiment",
    "rate_probe",
    "irregularity_probe",
    "ks_critical_value",
    "MseRatioPreset",
    "MSE_RATIO_PRESETS",
    "DEFAULT_N_GRID",
]

# Grid cap and stabilization window for all numeric limits.
DEFAULT_N_GRID: tuple[int, ...] = (10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8)
_REL_STABLE = 0.01
_ZERO_TOL = 0.05
_ZERO_SOFT = 0.25
_DECAY_FRACTION = 0.6
_INF_TOL = 100.0


@dataclass(frozen=True)
class ParamPoint:
    """A fixed coordinate pair (gamma, beta)."""

    gamma: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class ParamSequence:
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


def extrapolate_limit(values: Sequence[float]) -> float | None:
    """Extended-real limit guess from values on an increasing grid.

    Returns the last value when the tail has stabilized (successive relative
    changes below 1%); 0 when the tail magnitudes decay to a small value, or
    keep losing a solid fraction while already modest; +-inf when the tail
    grows monotonically past a large cutoff; and None when the grid does not
    resolve the limit.  The zero and infinity rules are deliberately
    asymmetric: decaying magnitudes are bounded below by zero so projecting
    onward is safe, whereas divergence is only declared once the values have
    actually escaped -- extend the grid to resolve slow divergences.
    Sequences approaching a small nonzero constant slower than the
    stabilization window can be reported as 0; widen the grid in doubt.
    """
    v = [float(x) for x in values]
    if len(v) < 3:
        raise ValueError("need at least 3 grid values to extrapolate")
    mags = [abs(x) for x in v[-4:]]
    last = v[-1]

    if all(m < 1e-12 for m in mags):
        return 0.0
    if all(abs(b - a) / max(abs(b), 1e-300) < _REL_STABLE for a, b in zip(v[-3:], v[-2:])):
        return last
    diffs = [b - a for a, b in zip(mags, mags[1:])]
    if all(d <= 0 for d in diffs):
        if abs(last) <= _ZERO_TOL:
            return 0.0
        if abs(last) <= _ZERO_SOFT and mags[-1] <= _DECAY_FRACTION * mags[0]:
            return 0.0
    if all(d >= 0 for d in diffs) and abs(last) >= _INF_TOL:
        return math.copysign(math.inf, last)
    return None


def _k_ratio(seq: ParamSequence, n: float) -> float:
    """Finite-n standardized distance: g*b / sqrt(n^-1 (n^-1 + g^2 + b^2))."""
    g = seq.gamma.at(n)
    b = seq.beta.at(n)
    return n * g * b / math.sqrt(1.0 + n * (g * g + b * b))


def compute_K(seq: ParamSequence, n_grid: Sequence[int] = DEFAULT_N_GRID) -> float | None:
    """Limit of the standardized distance K along the sequence.

    Returns None when the grid does not resolve the limit; widen the grid for
    sequences that converge slower than about n**-0.05.
    """
    return extrapolate_limit([_k_ratio(seq, n) for n in _check_grid(n_grid)])


def k_upper_bound(seq: ParamSequence, n_grid: Sequence[int] = DEFAULT_N_GRID) -> float | None:
    """Upper bound for K from the coordinate magnitudes alone.

    Evaluates ``s / sqrt(1 + s)`` with ``s = n * (gamma_n^2 + beta_n^2)`` and
    extrapolates like :func:`compute_K`.  The bound follows from
    ``2ab <= a^2 + b^2``; it is below 1 exactly when s converges to less than
    the golden ratio.
    """
    values = []
    for n in _check_grid(n_grid):
        g, b = seq.gamma.at(n), seq.beta.at(n)
        s = n * (g * g + b * b)
        values.append(s / math.sqrt(1.0 + s))
    return extrapolate_limit(values)


class LRegion(Enum):
    ONE = "one"
    INTERIOR = "interior"
    ZERO = "zero"
    UNDETERMINED = "undetermined"


class EfficiencyClass(Enum):
    MUCH_MORE = "much_more"
    MORE = "more"
    EQUIVALENT = "equivalent"
    LESS = "less"
    MUCH_LESS = "much_less"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RegimeClassification:
    """(L-region, K) regime of the shrinkage estimator along a sequence.

    ``a_value`` and the two term limits are diagnostics: A is the larger of
    the scaled-mean and scaled-sd limits that drive the L classification.
    None encodes an unresolved limit.
    """

    L_region: LRegion
    K_value: float | None
    efficiency_class: EfficiencyClass
    a_value: float | None
    a_mean_term: float | None
    a_sd_term: float | None


def _efficiency(region: LRegion, k: float | None) -> EfficiencyClass:
    if region is LRegion.ZERO:
        return EfficiencyClass.EQUIVALENT
    if region is LRegion.ONE:
        if k is None:
            return EfficiencyClass.INDETERMINATE
        mag = abs(k)
        if mag == 0.0:
            return EfficiencyClass.MUCH_MORE
        if math.isinf(mag):
            return EfficiencyClass.MUCH_LESS
        if math.isclose(mag, 1.0, rel_tol=1e-9):
            return EfficiencyClass.EQUIVALENT
        return EfficiencyClass.MORE if mag < 1.0 else EfficiencyClass.LESS
    if region is LRegion.INTERIOR:
        if k is not None and k == 0.0:
            return EfficiencyClass.MORE
        if k is not None and math.isinf(k):
            return EfficiencyClass.MUCH_LESS
        return EfficiencyClass.INDETERMINATE
    return EfficiencyClass.INDETERMINATE


def _check_rule(c: float, delta: float) -> None:
    """The filtration rule ``|T| < c * n**-delta`` needs a positive c and delta."""
    if c <= 0.0 or delta <= 0.0:
        raise ValueError("c and delta must be positive")


def classify_product_regime(
    seq: ParamSequence,
    c: float,
    delta: float,
    n_grid: Sequence[int] = DEFAULT_N_GRID,
) -> RegimeClassification:
    """Classify the filtration rule |T| < c * n**-delta along the sequence.

    The region comes from ``A = max(lim n**delta |g b|, lim n**(delta - 1/2)
    sqrt(n^-1 + g^2 + b^2))``: A = 0 forces filtration probability 1 (only
    possible for delta < 1), finite nonzero A an interior probability, and
    A = inf probability 0.  Cells the classification table rules out raise
    :class:`InconsistentRegimeError`; so does a delta > 1 grid that fails to
    confirm the divergence the table requires (extend the grid to resolve).

    The constant c shifts finite-n filtration frequencies but not the limit,
    so it does not enter the region.
    """
    _check_rule(c, delta)
    means, sds = [], []
    for n in _check_grid(n_grid):
        g, b = seq.gamma.at(n), seq.beta.at(n)
        # |g b| rather than g b: the filtration event is two-sided in T.
        means.append(_pow(n, delta) * abs(g * b))
        sds.append(_pow(n, delta - 0.5) * math.sqrt(1.0 / n + g * g + b * b))
    mean_term = extrapolate_limit(means)
    sd_term = extrapolate_limit(sds)

    if mean_term is not None and math.isinf(mean_term):
        a_value: float | None = math.inf
    elif sd_term is not None and math.isinf(sd_term):
        a_value = math.inf
    elif mean_term is None or sd_term is None:
        a_value = None
    else:
        a_value = max(abs(mean_term), sd_term)

    if a_value is not None and math.isinf(a_value):
        region = LRegion.ZERO
    elif delta > 1.0:
        raise InconsistentRegimeError(
            f"delta = {delta:g} admits only a divergent A, but the grid gave "
            f"A = {a_value}; the (delta, A) cell is unreachable. A larger "
            "n_grid may resolve the divergence."
        )
    elif a_value is None:
        region = LRegion.UNDETERMINED
    elif a_value == 0.0:
        if delta >= 1.0:
            raise InconsistentRegimeError(
                f"A = 0 with delta = {delta:g} >= 1 is an unreachable cell of "
                "the regime classification."
            )
        region = LRegion.ONE
    else:
        region = LRegion.INTERIOR

    k_value = compute_K(seq, n_grid)
    return RegimeClassification(region, k_value, _efficiency(region, k_value), a_value, mean_term, sd_term)


def mse_product_closed(gamma: float, beta: float, n: int) -> float:
    """Closed-form MSE of the product estimator at unit scales.

    With independent N(gamma, 1/n) and N(beta, 1/n) coordinates the product's
    mean squared error about gamma*beta is ``n^-1 (n^-1 + gamma^2 + beta^2)``
    exactly.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return (1.0 / n) * (1.0 / n + gamma**2 + beta**2)


@dataclass(frozen=True)
class MseRatioPoint:
    """One grid cell of the MSE-ratio experiment."""

    n: int
    ratio: float
    mc_se: float
    k_at_n: float
    filter_freq: float


def _unit_draws(stream: RandomStream, theta: ParamPoint, sd: float, reps: int):
    """``reps`` draws of (gamma_hat, beta_hat) around ``theta`` with common sd, gamma first."""
    gen = stream.generator
    return gen.normal(theta.gamma, sd, reps), gen.normal(theta.beta, sd, reps)


def mse_ratio_experiment(
    seq: ParamSequence,
    c: float,
    delta: float,
    n_grid: Sequence[int],
    reps: int,
    stream: RandomStream,
) -> list[MseRatioPoint]:
    """Empirical MSE of the shrinkage product estimator relative to the plain one.

    For each n: simulate ``reps`` coordinate pairs at the drifting parameter
    (unit scales), shrink the product to 0 whenever |T| < c * n**-delta, and
    report MSE(shrunk)/MSE(plain) with a delta-method standard error, the
    finite-n K ratio, and the empirical filtration frequency.  Cell i draws
    from ``stream.offset(i)``, so cells are independent and order-free.
    Each point reports ``int`` of the requested n, not of its float.  Raises
    FloatingPointError, naming n, when the plain MSE is too small to divide by
    or too large (or not finite) to square.
    """
    import numpy as np

    _check_rule(c, delta)
    if reps < 100:
        raise ValueError(f"reps must be at least 100, got {reps}")
    grid = _check_grid(n_grid)
    out = []
    for i, (requested, n) in enumerate(zip(n_grid, grid)):
        point = seq.at(n)
        psi = point.gamma * point.beta
        g, b = _unit_draws(stream.offset(i), point, 1.0 / math.sqrt(n), reps)
        # A huge parameter overflows the squares; the range check below
        # reports it, so numpy need not warn on stderr first.
        with np.errstate(over="ignore", invalid="ignore"):
            t = g * b
            filtered = np.abs(t) < c * n ** (-delta)
            shrunk = np.where(filtered, 0.0, t)
            sq_shrunk = np.square(shrunk - psi)
            sq_plain = np.square(t - psi)
            mse_shrunk = float(sq_shrunk.mean())
            mse_plain = float(sq_plain.mean())
        # The standard error divides by mse_plain**2 * reps, which leaves the
        # normal float range once n is large (past about 1e77 at k-4over3), or
        # once the parameter is huge (an offset near 1e80 overflows it).
        scale = mse_plain * mse_plain * reps
        if not sys.float_info.min <= scale <= sys.float_info.max:
            raise FloatingPointError(
                f"at n={int(requested)} the plain estimator's MSE ({mse_plain:g}) is out of the "
                "range in which the ratio and its standard error can be formed"
            )
        ratio = mse_shrunk / mse_plain
        cov = np.cov(sq_shrunk, sq_plain, ddof=1)
        var_ratio = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / scale
        out.append(
            MseRatioPoint(
                n=int(requested),
                ratio=ratio,
                mc_se=math.sqrt(max(var_ratio, 0.0)),
                k_at_n=_k_ratio(seq, n),
                filter_freq=float(filtered.mean()),
            )
        )
    return out


def rate_probe(
    stat_kind: str,
    theta: ParamPoint,
    n_grid: Sequence[int],
    reps: int,
    stream: RandomStream,
) -> float:
    """Estimated convergence-rate exponent of a statistic at a fixed parameter.

    Simulates the statistic at each n (unit scales), regresses the log of the
    error standard deviation on log n, and returns the negated slope: 0.5 for
    a root-n statistic, 1.0 where the rate accelerates because the gradient
    of the functional vanishes.
    """
    import numpy as np

    if stat_kind not in ("product", "norm2"):
        raise ValueError(f"stat_kind must be 'product' or 'norm2', got {stat_kind!r}")
    grid = _check_grid(n_grid)
    if grid[-1] / grid[0] < 100.0:
        raise ValueError("n_grid must span at least two decades")
    if reps < 1000:
        raise ValueError(f"reps must be at least 1000 per grid point, got {reps}")

    sds = []
    for i, n_float in enumerate(grid):
        g, b = _unit_draws(stream.offset(i), theta, 1.0 / math.sqrt(int(n_float)), reps)
        if stat_kind == "product":
            err = g * b - theta.gamma * theta.beta
        else:
            err = g**2 + b**2 - (theta.gamma**2 + theta.beta**2)
        sds.append(err.std(ddof=1))
    slope = np.polyfit(np.log(grid), np.log(sds), 1)[0]
    return float(-slope)


def irregularity_probe(
    h_a: ParamPoint,
    h_b: ParamPoint,
    n: int,
    reps: int,
    stream: RandomStream,
) -> float:
    """Two-sample KS distance between Sobel-statistic laws along two directions.

    Simulates the normalized product statistic under theta = h / sqrt(n) for
    each of the two local directions (unit scales) and returns the
    Kolmogorov-Smirnov distance between the empirical laws.  A regular
    statistic would give the same limit law for every h; a distance above the
    two-sample critical value exposes direction dependence.
    """
    import numpy as np

    from .estimators import _sobel

    if reps < 10_000:
        raise ValueError(f"reps must be at least 10000, got {reps}")
    root_n = math.sqrt(n)
    samples = []
    for i, h in enumerate((h_a, h_b)):
        theta = ParamPoint(h.gamma / root_n, h.beta / root_n)
        g, b = _unit_draws(stream.offset(i), theta, 1.0 / root_n, reps)
        samples.append(np.sort(_sobel(g, b, 1.0, 1.0)))
    # KS statistic: the largest gap between the two empirical CDFs, exactly h/reps.
    pooled = np.concatenate(samples)
    below_a, below_b = (np.searchsorted(x, pooled, side="right") for x in samples)
    return float(np.abs(below_a - below_b).max() / reps)


def ks_critical_value(n_a: int, n_b: int, level: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at the given level."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    c = math.sqrt(-math.log(level / 2.0) / 2.0)
    return c * math.sqrt((n_a + n_b) / (n_a * n_b))


@dataclass(frozen=True)
class MseRatioPreset:
    """A named (sequence, filtration constants) bundle for the ratio experiment."""

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
