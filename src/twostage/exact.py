"""Exact operating characteristics of one filtration rule on a scenario, on the standard library.

Stage 2 rejects a survivor at the threshold alpha/F.  For each mixture row
the computation needs two probabilities of one of its hypotheses:

* ``s``, that it survives stage 1;
* ``r(k)``, that it survives and its joint ``|z|`` reaches
  ``_z_critical(alpha/k)``, so that it is rejected when F = k.

Each coordinate estimate of a row is normal, with the row's mean and sd
``hypot(prior_sd, sigma/sqrt(n))``.  In units of that sd it is ``Z + mean``
for a standard normal Z, and a threshold on ``|estimate| / (sigma/sqrt(n))``
becomes ``rho`` times itself, with ``rho = (sigma/sqrt(n)) / sd``.  So
nothing is squared or exponentiated out of the float range.  ``nofilter``
and ``minp`` give products of normal tails; ``chisq2`` and the product rule
give one Gauss-Legendre integral of a normal density times a normal tail.
When the rejection region lies inside the survival region (``zeta^2 >=
c n^(1-delta)/sigma^2`` under the product rule), ``r(k)`` is the product of
the two coordinates' tails.

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

from .quadrature import _INV_SQRT_2PI, _SQRT_HALF, _mass, _panels
from .rules import ChiSquarePValue, FiltrationRule, MinPValue, ProductThreshold, _z_critical
from .scenario import Assignment, ScenarioMixture, _coordinate_params, _deterministic_counts, _row_is_null

__all__ = ["FwerBound", "exact_fwer_bound", "fwer_bound_from_survivors"]

_TINY = 5e-324  # the smallest subnormal: a scale that underflows to 0 is taken as this
# Past this many sd from its mean a normal tail is below 2e-33; the quadrature stops there.
_REACH = 12.0
# The offsets j where a tail crosses the other coordinate's bulk: panel cuts.
_OFFSETS = (12.0, 8.0, 6.0, 4.0, 3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0, -4.0, -6.0, -8.0, -12.0)
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


# ---------------------------------------------------------------- normal pieces


class _Coordinate(NamedTuple):
    """A coordinate estimate ``sd (Z + mean)``: ``mean`` >= 0 in sd units, ``rho`` = (sigma/sqrt(n)) / sd."""

    mean: float
    rho: float
    sd: float


def _coordinate(model, n: int, noise: float) -> _Coordinate:
    mean, sd = _coordinate_params(model, n, noise)
    return _Coordinate(abs(mean) / sd, noise / sd or _TINY, sd)


def _tail(mean: float, x: float) -> float:
    """P(|Z + mean| >= x) for x >= 0; 0 at x = inf."""
    if x == math.inf:
        return 0.0
    return min(1.0, 0.5 * (math.erfc((x - mean) * _SQRT_HALF) + math.erfc((x + mean) * _SQRT_HALF)))


def _band(mean: float, lo: float, hi: float) -> float:
    """P(lo <= |Z + mean| < hi) for 0 <= lo <= hi < inf."""
    return _mass(lo - mean, hi - mean) + _mass(-hi - mean, -lo - mean)


def _arc(g: _Coordinate, b: _Coordinate, radius: float, lo: float, hi: float) -> float:
    """The part of P(u^2 + v^2 >= radius^2) over ``u = radius sin(t)``, t in [lo, hi], in z units.

    The integral over t of ``phi(rho_g radius sin t - mean_g) rho_g radius
    cos t P(|Z + mean_b| >= rho_b radius cos t)``.  Each panel spans at most
    two sd of either coordinate along the arc.
    """
    steps = max(8, math.ceil((hi - lo) * radius * max(g.rho, b.rho) / 2.0))
    grid = [lo + (hi - lo) * i / steps for i in range(1, steps)]
    total = 0.0
    for t, w in _panels(grid, lo, hi):
        d, chord = g.rho * radius * math.sin(t) - g.mean, radius * math.cos(t)
        total += w * math.exp(-0.5 * d * d) * chord * _tail(b.mean, b.rho * chord)
    return total * _INV_SQRT_2PI * g.rho


def _hyperbola(g: _Coordinate, b: _Coordinate, kappa: float, lo: float, hi: float) -> float:
    """P(lo <= |Y| < hi and |X Y| >= kappa), with X = Z + mean_g and Y = Z' + mean_b.

    The integral over y in [lo, hi] of ``(phi(y - mean_b) + phi(y + mean_b))
    P(|X| >= kappa / y)``.  Panels are cut on a grid of 1.5 sd about
    mean_b, and where ``kappa / y`` crosses ``mean_g + j`` for each offset
    j, so each of the two factors moves by at most a few sd on a panel.
    ``kappa / y`` is singular at y = 0, so the panels also halve towards it:
    none spans more than its distance from 0.
    """
    if kappa == 0.0 or g.mean == math.inf:
        return _band(b.mean, lo, hi) if hi < math.inf else _tail(b.mean, lo)
    if b.mean == math.inf:
        return 1.0 if hi == math.inf and kappa < math.inf else 0.0
    lo = max(lo, b.mean - _REACH, kappa / (g.mean + _REACH))
    hi = min(hi, b.mean + _REACH)
    if not lo < hi:
        return 0.0
    grid = [b.mean + 1.5 * i for i in range(-8, 9)]
    crossings = [kappa / (g.mean + j) for j in _OFFSETS if g.mean + j > 0.0]
    halvings = [hi]
    while halvings[-1] > max(2.0 * lo, 1e-30):
        halvings.append(0.5 * halvings[-1])
    total = 0.0
    for y, w in _panels([*grid, *crossings, *halvings], lo, hi):
        d, e = y - b.mean, y + b.mean
        edge = kappa / y if y > 0.0 else math.inf
        total += w * (math.exp(-0.5 * d * d) + math.exp(-0.5 * e * e)) * _tail(g.mean, edge)
    return total * _INV_SQRT_2PI


# ---------------------------------------------------------------- row probabilities


class _Row(NamedTuple):
    """One mixture row: its two coordinates, its null status, and the rule's bound in z units.

    ``edge`` is the rule's ``boundary(n)``: the critical ``|z|`` of
    ``minp`` or the radius of ``chisq2``, and for the product rule its bound
    divided by ``sd_gamma sd_beta``, into the coordinates' sd units, which
    differ from row to row.
    """

    gamma: _Coordinate
    beta: _Coordinate
    null: bool
    edge: float


def _rows(scenario: ScenarioMixture, rule: FiltrationRule) -> list[_Row]:
    n = scenario.n
    noise = scenario.sigma / math.sqrt(n) or _TINY
    edge = rule.boundary(n)
    rows = []
    for row in scenario.rows:
        g, b = _coordinate(row.gamma, n, noise), _coordinate(row.beta, n, noise)
        scaled = edge / g.sd / b.sd if isinstance(rule, ProductThreshold) else edge
        rows.append(_Row(g, b, _row_is_null(row, n), scaled))
    return rows


def _survival(rule: FiltrationRule, row: _Row) -> float:
    """s: the probability that a hypothesis of ``row`` survives stage 1."""
    g, b, edge = row.gamma, row.beta, row.edge
    if isinstance(rule, MinPValue):
        inside = _mass(-g.rho * edge - g.mean, g.rho * edge - g.mean)
        return _tail(g.mean, g.rho * edge) + inside * _tail(b.mean, b.rho * edge)
    if isinstance(rule, ChiSquarePValue):
        return min(1.0, _tail(g.mean, g.rho * edge) + _arc(g, b, edge, -0.5 * math.pi, 0.5 * math.pi))
    if isinstance(rule, ProductThreshold):
        return min(1.0, _hyperbola(g, b, edge, 0.0, math.inf))  # rounding can pass 1 when nothing is filtered
    return 1.0


def _rejection(rule: FiltrationRule, row: _Row, zeta: float) -> float:
    """r: the probability that a hypothesis of ``row`` survives and both its ``|z|`` reach ``zeta``."""
    g, b, edge = row.gamma, row.beta, row.edge
    xg, xb = g.rho * zeta, b.rho * zeta
    both = _tail(g.mean, xg) * _tail(b.mean, xb)
    if isinstance(rule, MinPValue) and zeta <= edge:
        # |u| > edge with |v| >= zeta, or zeta <= |u| <= edge with |v| > edge.
        cg, cb = g.rho * edge, b.rho * edge
        return _tail(g.mean, cg) * _tail(b.mean, xb) + _band(g.mean, xg, cg) * _tail(b.mean, cb)
    if isinstance(rule, ChiSquarePValue) and 2.0 * zeta * zeta < edge * edge:
        # |u| >= sqrt(edge^2 - zeta^2) with |v| >= zeta, or else (u, v) past the circle.
        inner, outer = math.asin(zeta / edge), math.acos(zeta / edge)
        corner = _tail(b.mean, xb) * _tail(g.mean, g.rho * math.sqrt(edge * edge - zeta * zeta))
        return corner + _arc(g, b, edge, inner, outer) + _arc(g, b, edge, -outer, -inner)
    if isinstance(rule, ProductThreshold) and xg * xb < edge:
        # |v| >= edge / xg with |u| >= zeta, or else |u| >= edge / |v|.
        far = edge / xg if xg > 0.0 else math.inf
        return _tail(g.mean, xg) * _tail(b.mean, far) + _hyperbola(g, b, edge, xb, far)
    return both  # the rejection region lies inside the survival region


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
    rows = _rows(scenario, rule)
    survival = [_survival(rule, row) for row in rows]
    zetas: dict[int, float] = {}

    def rejection(row: _Row):
        def r(k: int) -> float:
            if k not in zetas:
                zetas[k] = _z_critical(alpha / k)
            return _rejection(rule, row, zetas[k])
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
