"""Scenario mixtures: the rows of parameter pairs that the hypotheses come from.

A :class:`ScenarioMixture` assigns each of m hypotheses to one row of a
mixture; a row carries the drifting coordinate pair (or a normal hyperprior
over it) and its mixture proportion.  A row is null when some coordinate is
zero at n, and that decides which rejections count as false.  The
description needs only the standard library: ``simulate`` draws from it, and
``exact`` computes its operating characteristics.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence, Union

from .sequence import PowerSequence

__all__ = [
    "Assignment",
    "NormalMeanPrior",
    "MixtureRow",
    "ScenarioMixture",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
]


class Assignment(Enum):
    DETERMINISTIC = "deterministic"
    MULTINOMIAL = "multinomial"


class NormalMeanPrior(NamedTuple):
    """A coordinate whose mean is itself drawn N(mean_at(n), variance_at(n)).

    It is drawn anew for each hypothesis in each replication, so the estimate is
    N(mean_at(n), variance_at(n) + sigma^2/n): ``simulate`` draws it, ``exact`` integrates it.
    """

    mean: PowerSequence
    variance: PowerSequence


CoordinateModel = Union[PowerSequence, NormalMeanPrior]


class _RowFields(NamedTuple):
    gamma: CoordinateModel
    beta: CoordinateModel
    proportion: float


class MixtureRow(_RowFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 <= self.proportion <= 1.0):
            raise ValueError(f"proportion must lie in [0, 1], got {self.proportion}")
        return self


class _ScenarioFields(NamedTuple):
    name: str
    rows: tuple[MixtureRow, ...]
    m: int = 200
    reps: int = 500
    n: int = 200
    sigma: float = 1.0
    alpha: float = 0.05
    assignment: Assignment = Assignment.DETERMINISTIC
    renormalized: bool = False


class ScenarioMixture(_ScenarioFields):
    """A mixture of parameter rows plus the experiment dimensions."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.rows:
            raise ValueError("scenario needs at least one row")
        total = sum(r.proportion for r in self.rows)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"row proportions must sum to 1, got {total}")
        if self.m < 1 or self.reps < 1 or self.n < 1:
            raise ValueError("m, reps and n must be positive")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        for i, row in enumerate(self.rows):
            for name, coord in (("gamma", row.gamma), ("beta", row.beta)):
                variance = coord.variance.at(self.n) if isinstance(coord, NormalMeanPrior) else 0.0
                if not 0.0 <= variance < math.inf:
                    raise ValueError(f"rows[{i}].{name}.normal.variance is {variance!r} at n = {self.n}; "
                                     "a variance must be finite and >= 0")
        return self


def _const(x: float) -> PowerSequence:
    return PowerSequence(offset=x)


def _seq(offset: float, coef: float, exp: float) -> PowerSequence:
    return PowerSequence(offset, ((coef, exp),))


# The eight mixture rows shared by the built-in configurations.
_ROW_POOL: tuple[tuple[PowerSequence, PowerSequence], ...] = (
    (_const(0.0), _const(0.0)),
    (_seq(0.0, 3.0, 0.75), _const(0.0)),
    (_seq(0.0, 3.0, 0.5), _const(0.0)),
    (_seq(0.0, 3.0, 1.0 / 3.0), _const(0.0)),
    (_seq(1.0, 3.0, 0.5), _const(0.0)),
    (_seq(0.0, 3.0, 0.5), _seq(0.0, 3.0, 0.5)),
    (_seq(0.0, 3.0, 1.0 / 3.0), _seq(0.0, 3.0, 0.5)),
    (_seq(1.0, 3.0, 0.5), _seq(0.0, 3.0, 0.5)),
)

# (row index into _ROW_POOL, raw proportion); config3's column sums to 0.85
# and is renormalized, with the raw column kept in the scenario record.
_CONFIG_COLUMNS: dict[str, tuple[tuple[int, float], ...]] = {
    "config1": ((0, 0.65), (2, 0.30), (5, 0.05)),
    "config2": (
        (0, 0.25),
        (1, 0.15),
        (2, 0.25),
        (3, 0.10),
        (4, 0.15),
        (5, 0.04),
        (6, 0.03),
        (7, 0.03),
    ),
    "config3": ((0, 0.25), (2, 0.35), (4, 0.15), (7, 0.10)),
}

BUILTIN_SCENARIOS = ("config1", "config2", "config3", "hierarchical")


def builtin_scenario(
    name: str,
    *,
    m: int = 200,
    reps: int = 500,
    n: int = 200,
    sigma: float = 1.0,
    alpha: float = 0.05,
    pi: tuple[float, float, float] = (0.65, 0.30, 0.05),
) -> ScenarioMixture:
    """One of the built-in scenario mixtures.

    ``config1``/``config2``/``config3`` draw deterministic row counts from
    the shared eight-row pool; ``hierarchical`` re-draws its nonzero means
    from normal hyperpriors every replication and assigns rows
    multinomially, with ``pi`` giving the (double-null, single-null,
    alternative) weights.
    """
    if name in _CONFIG_COLUMNS:
        column = _CONFIG_COLUMNS[name]
        total = sum(p for _, p in column)
        renormalized = abs(total - 1.0) > 1e-9
        rows = tuple(MixtureRow(*_ROW_POOL[idx], proportion=p / total) for idx, p in column)
        return ScenarioMixture(
            name=name,
            rows=rows,
            m=m,
            reps=reps,
            n=n,
            sigma=sigma,
            alpha=alpha,
            renormalized=renormalized,
        )
    if name == "hierarchical":
        if len(pi) != 3 or any(p < 0 for p in pi) or abs(sum(pi) - 1.0) > 1e-9:
            raise ValueError(f"pi must be three non-negative weights summing to 1, got {pi}")
        gamma_prior = NormalMeanPrior(mean=_seq(1.0, 1.0, 0.5), variance=_seq(0.0, 1.0, 0.5))
        beta_prior = NormalMeanPrior(mean=_seq(0.0, 1.0, 0.5), variance=_seq(0.0, 1.0, 0.5))
        rows = tuple(
            row
            for row in (
                MixtureRow(_const(0.0), _const(0.0), pi[0]),
                MixtureRow(gamma_prior, _const(0.0), pi[1]),
                MixtureRow(gamma_prior, beta_prior, pi[2]),
            )
            if row.proportion > 0.0
        )
        return ScenarioMixture(
            name=name,
            rows=rows,
            m=m,
            reps=reps,
            n=n,
            sigma=sigma,
            alpha=alpha,
            assignment=Assignment.MULTINOMIAL,
        )
    raise ValueError(f"unknown scenario {name!r}; expected one of {BUILTIN_SCENARIOS}")


def _deterministic_counts(proportions: Sequence[float], m: int) -> list[int]:
    """Fixed per-row hypothesis counts: floor(p*m) plus largest remainders.

    Ties in the remainder go to the earlier row.  Where proportions that sum
    to 1 only within rounding put the floors past m, or more than one per row
    short of it, the proportions are first scaled to sum to 1 exactly.
    """
    raw = [p * m for p in proportions]
    counts = [math.floor(x) for x in raw]
    if not 0 <= m - sum(counts) <= len(counts):
        from fractions import Fraction  # deferred: only this rare case needs it

        total = sum(map(Fraction, proportions))
        raw = [Fraction(p) * m / total for p in proportions]
        counts = [math.floor(x) for x in raw]
    # counts[i] - raw[i] is the negated remainder, as exactly as raw[i] - counts[i];
    # sorted is stable, so equal remainders keep row order.
    for i in sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])[: m - sum(counts)]:
        counts[i] += 1
    return counts


def _coordinate_params(coord: CoordinateModel, n: int, noise: float = 0.0) -> tuple[float, float]:
    """(mean, sd) at n of a coordinate's normal estimate: sd ``hypot(prior_sd, noise)``, prior sd 0 for a fixed mean."""
    if isinstance(coord, NormalMeanPrior):
        return coord.mean.at(n), math.hypot(math.sqrt(coord.variance.at(n)), noise)
    return coord.at(n), noise


def _row_is_null(row: MixtureRow, n: int) -> bool:
    """Whether gamma*beta = 0 in ``row`` at n: some coordinate has mean 0 and prior sd 0."""
    gamma, beta = _coordinate_params(row.gamma, n), _coordinate_params(row.beta, n)
    return not (any(gamma) and any(beta))
