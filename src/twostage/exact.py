"""Exact operating characteristics of one filtration rule on a scenario, on the standard library.

Stage 2 rejects a survivor at the threshold alpha/F.  For each mixture row
the computation needs two probabilities of one of its hypotheses:

* ``s``, that it survives stage 1;
* ``r(k)``, that it survives and its joint ``|z|`` reaches
  ``_z_critical(alpha/k)``, so that it is rejected when F = k.

Both are the rule's ``reach`` (see :mod:`twostage.rules`), which knows the
rule's region: ``r(k)`` at ``zeta = _z_critical(alpha/k)`` and ``s`` at
``zeta = 0``.  Each coordinate estimate of a row is normal, with the row's
mean and sd ``hypot(prior_sd, sigma/sqrt(n))``, and ``reach`` takes it in
units of that sd (:class:`twostage.quadrature._Coordinate`).

The hypotheses are independent, so F, the number of survivors, is a sum of
independent Bernoulli(s) variables: Binomial(m, sum of pi_r s_r) when rows
are assigned multinomially, and a product of per-row binomials when each row
has a fixed count c_r.  No false rejection happens with F = k exactly when
every null survivor falls short of the threshold, so

    P(F = k, V = 0) = [x^k] prod_r ((1 - s_r) + (s_r - r_r(k)) x)^c_r,

with ``r_r = 0`` for an alternative row.  Each such coefficient is at most
``P(F = k)``, so a discrete Fourier transform over the window that holds F's
mass gives it, with an aliasing error below the mass outside the window.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

from .quadrature import _Coordinate
from .rules import FiltrationRule, _z_critical
from .scenario import Assignment, ScenarioMixture, _coordinate_params, _deterministic_counts, _row_is_null

__all__ = ["FwerBound", "exact_fwer_bound", "fwer_bound_from_survivors"]

_TINY = 5e-324  # the smallest subnormal: a scale that underflows to 0 is taken as this
# A pmf keeps the counts whose probability is at least this fraction of its largest.
_TRIM = 1e-20
# F's pmf is held over at most this many counts.
_MAX_SUPPORT = 1 << 20


def fwer_bound_from_survivors(q: float, survival: Sequence[float], counts: Sequence[int]) -> float:
    """The survivor-count FWER bound ``E[1 - (1 - q)^F]``, in closed form.

    F is the number of survivors among independent hypotheses, ``counts[i]``
    of which survive with probability ``survival[i]`` each, and q bounds
    the probability that a survivor is rejected.  The expectation is
    ``1 - prod_i (1 - survival[i] q)^counts[i]``.  Multinomial rows pass
    their mean survival probability and m.
    """
    q = float(q)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if len(survival) != len(counts) or not counts:
        raise ValueError("survival and counts must be nonempty and of one length")
    log_none = 0.0
    for s, c in zip(survival, counts):
        if not (0.0 <= s <= 1.0) or c < 0:
            raise ValueError(f"need a survival probability in [0, 1] and a count >= 0, got {s} and {c}")
        if c and s * q >= 1.0:
            return 1.0
        log_none += c * math.log1p(-s * q)
    return 0.0 - math.expm1(log_none)  # not -expm1: a bound of 0 would print as -0.0


class FwerBound(NamedTuple):
    """The exact values that ``fwer-bound`` prints besides p0."""

    q_max: float
    survivor_bound: float
    fwer: float
    mean_F: float


# ---------------------------------------------------------------- rows


class _Row(NamedTuple):
    """One mixture row: its two standardized coordinates and its null status."""

    gamma: _Coordinate
    beta: _Coordinate
    null: bool


def _coordinate(model, n: int, noise: float) -> _Coordinate:
    mean, sd = _coordinate_params(model, n, noise)
    return _Coordinate(abs(mean) / sd, noise / sd or _TINY, sd)


def _rows(scenario: ScenarioMixture) -> list[_Row]:
    n = scenario.n
    noise = scenario.sigma / math.sqrt(n) or _TINY
    return [_Row(_coordinate(row.gamma, n, noise), _coordinate(row.beta, n, noise), _row_is_null(row, n))
            for row in scenario.rows]


# ---------------------------------------------------------------- the distribution of F


def _trimmed(lo: int, pmf: list[float]) -> tuple[int, list[float]]:
    """``(lo, pmf)`` without the end counts below ``_TRIM`` times the largest probability."""
    floor = _TRIM * max(pmf)
    first = next(i for i, p in enumerate(pmf) if p >= floor)
    last = len(pmf) - next(i for i, p in enumerate(reversed(pmf)) if p >= floor)
    return lo + first, pmf[first:last]


def _binomial(count: int, p: float) -> tuple[int, list[float]]:
    """``(lo, pmf)`` of Binomial(count, p) over the counts from lo that hold all but a negligible mass.

    The pmf runs out from the mode by the ratio of neighbouring terms and is
    normalized by its sum.  Raises MemoryError when its support would span
    more than ``_MAX_SUPPORT`` counts (about 20 sd).
    """
    if p <= 0.0 or count == 0:
        return 0, [1.0]
    if p >= 1.0:
        return count, [1.0]
    if 20.0 * math.sqrt(count * p * (1.0 - p)) > _MAX_SUPPORT:
        raise MemoryError(f"the survivor count's distribution spans more than {_MAX_SUPPORT} counts")
    odds = p / (1.0 - p)
    mode = min(count, math.floor((count + 1) * p))
    up, value = [], 1.0
    for k in range(mode, count):
        value *= (count - k) / (k + 1) * odds
        if value < _TRIM:
            break
        up.append(value)
    down, value = [], 1.0
    for k in range(mode, 0, -1):
        value *= k / (count - k + 1) / odds
        if value < _TRIM:
            break
        down.append(value)
    pmf = [*reversed(down), 1.0, *up]
    total = math.fsum(pmf)
    return mode - len(down), [v / total for v in pmf]


def _convolve(a: tuple[int, list[float]], b: tuple[int, list[float]]) -> tuple[int, list[float]]:
    """The pmf of the sum of two independent counts, trimmed."""
    (lo_a, pa), (lo_b, pb) = a, b
    if len(pa) < len(pb):
        pa, pb = pb, pa
    out = [0.0] * (len(pa) + len(pb) - 1)
    for j, y in enumerate(pb):
        out[j:j + len(pa)] = [o + y * x for o, x in zip(out[j:j + len(pa)], pa)]
    if len(out) > _MAX_SUPPORT:
        raise MemoryError(f"the survivor count's distribution spans more than {_MAX_SUPPORT} counts")
    return _trimmed(lo_a + lo_b, out)


def _without_one(pmf: tuple[int, list[float]], s: float) -> tuple[int, list[float]]:
    """The pmf of F less one hypothesis that survives with probability s, by dividing out ``(1 - s) + s x``.

    ``P(F = j) = (1 - s) P(F_ = j) + s P(F_ = j - 1)``, solved upward when
    s <= 1/2 and downward otherwise, so that rounding errors shrink.
    """
    lo, values = pmf
    a = 1.0 - s
    out, prev = [], 0.0
    if s <= a:
        for p in values:
            prev = (p - s * prev) / a
            out.append(prev)
        return lo, out
    for p in reversed(values):
        prev = (p - a * prev) / s
        out.append(prev)
    return lo - 1, out[::-1]


def _deterministic_fwer(pmf: tuple[int, list[float]], alternatives, nulls) -> float:
    """P(V >= 1) for fixed row counts: the sum over k of P(F = k) - P(F = k, V = 0).

    ``alternatives`` holds ``(s, count)`` of each alternative row and
    ``nulls`` ``(s, count, r)`` of each null row, with ``r(k)`` its rejection
    probability.  The coefficient ``[x^k]`` comes from the polynomial's
    values at the N-th roots of unity, N the width of F's window; real
    coefficients let the sum run over half of them.  A row whose hypotheses
    always survive contributes ``w^count (1 - r)^count`` at the root w: the
    power of w is read off the table of roots and ``(1 - r)^count`` is
    formed from ``log1p``, so a large count costs no accuracy.
    """
    lo, values = pmf
    size = len(values)
    roots = [cmath.rect(1.0, 2.0 * math.pi * t / size) for t in range(size)]
    half = size // 2
    weights = [1.0] + [2.0] * half
    if size % 2 == 0:
        weights[half] = 1.0
    certain = sum(count for s, count in alternatives if s == 1.0) + sum(count for s, count, _ in nulls if s == 1.0)
    fixed = []
    for j, w in enumerate(roots[:half + 1]):
        value = roots[j * certain % size]
        for s, count in alternatives:
            if s < 1.0:
                value *= (1.0 - s + s * w) ** count
        fixed.append(value)
    terms = []
    for k in range(max(lo, 1), lo + size):
        level, kept = [], 1.0
        for s, count, r in nulls:
            rate = r(k)
            if s < 1.0:
                level.append((1.0 - s, s - rate, count))
            else:
                kept *= 0.0 if rate >= 1.0 else math.exp(count * math.log1p(-rate))
        total = 0.0
        for j in range(half + 1):
            w, value = roots[j], fixed[j]
            for a, b, count in level:
                value *= (a + b * w) ** count
            total += weights[j] * (value * roots[-j * k % size]).real
        terms.append(values[k - lo] - kept * total / size)
    return math.fsum(terms)


def exact_fwer_bound(scenario: ScenarioMixture, rule: FiltrationRule) -> FwerBound:
    """The exact FWER, ``q_max``, survivor bound and mean F of ``rule`` with threshold alpha/F.

    ``q_max`` is the largest, over the scenario's null rows that hold
    hypotheses that can survive, of the probability that a survivor of the
    row is rejected: ``sum_k P(F_-i = k - 1) r(k) / s``, where ``F_-i``
    counts the survivors among the other m - 1 hypotheses.  The survivor
    bound is :func:`fwer_bound_from_survivors` at ``q_max``.  Raises
    MemoryError when F's distribution is too wide to hold, and
    FloatingPointError when a value is not a finite number.
    """
    alpha, m = scenario.alpha, scenario.m
    edge = rule.boundary(scenario.n)
    rows = _rows(scenario)
    survival = [rule.reach(row.gamma, row.beta, edge, 0.0) for row in rows]
    zetas: dict[int, float] = {}

    def rejection(row: _Row):
        def r(k: int) -> float:
            if k not in zetas:
                zetas[k] = _z_critical(alpha / k)
            return rule.reach(row.gamma, row.beta, edge, zetas[k])
        return r

    if scenario.assignment is Assignment.MULTINOMIAL:
        weights = [row.proportion for row in scenario.rows]
        mean_s = min(1.0, math.fsum(p * s for p, s in zip(weights, survival)))
        nulls = [(p, rejection(row)) for p, row in zip(weights, rows) if row.null and p > 0.0]
        lo, values = _binomial(m, mean_s)
        terms = []
        for k, prob in enumerate(values, lo):
            ratio = min(1.0, math.fsum(p * r(k) for p, r in nulls) / mean_s) if k else 0.0
            terms.append(prob if ratio == 1.0 else -prob * math.expm1(k * math.log1p(-ratio)))
        fwer = math.fsum(terms)
        others = _binomial(m - 1, mean_s)
        removed = {i: others for i, (p, row) in enumerate(zip(weights, rows)) if p > 0.0 and row.null}
        bound_survival, bound_counts = [mean_s], [m]
    else:
        counts = _deterministic_counts([row.proportion for row in scenario.rows], m)
        pmf = (0, [1.0])
        for c, s in zip(counts, survival):
            if c:
                pmf = _convolve(pmf, _binomial(c, s))
        alternatives = [(s, c) for c, s, row in zip(counts, survival, rows) if c and not row.null]
        nulls = [(s, c, rejection(row)) for c, s, row in zip(counts, survival, rows) if c and row.null]
        fwer = _deterministic_fwer(pmf, alternatives, nulls)
        removed = {i: _without_one(pmf, s) for i, (c, s, row) in enumerate(zip(counts, survival, rows)) if c and row.null}
        bound_survival, bound_counts = survival, counts

    q_max = 0.0
    for i, (lo, values) in removed.items():
        row, s = rows[i], survival[i]
        if s > 0.0:
            r = rejection(row)
            hit = math.fsum(p * r(j + 1) for j, p in enumerate(values, lo) if j >= 0)
            q_max = max(q_max, min(1.0, hit / s))
    bound = fwer_bound_from_survivors(q_max, bound_survival, bound_counts)
    mean_f = math.fsum(c * s for c, s in zip(bound_counts, bound_survival))
    result = FwerBound(q_max, bound, min(1.0, max(0.0, fwer)), mean_f)
    if not all(map(math.isfinite, result)):
        raise FloatingPointError(f"the exact values of {rule.label} on {scenario.name} are not all finite numbers")
    return result
