"""Monte-Carlo multiple-testing experiments.

A :class:`ScenarioMixture` assigns each of m hypotheses to one row of a
mixture; a row carries the drifting coordinate pair (or a normal hyperprior
over it) and its mixture proportion.  A row is null when some coordinate is
zero at n, and that decides which rejections count as false.  Every
replication draws one estimate pair per hypothesis and then applies every
method (filtration rule + adjustment) to the *same* draws, so method
comparisons use common random numbers.

Randomness is allocated as one stream per replication: replication r draws
all m hypotheses from stream index ``r`` under the experiment's master seed.
A block of replications is drawn into one array, on one Philox re-keyed to
each replication's stream in turn.  One vectorized kernel,
``procedure.two_stage`` (the one ``run_two_stage`` runs), applies every
method to the block, and results are identical for any block size on one
numpy version (NEP 19 promises no stable ``Generator`` streams across
releases).  The kernel computes no p-value: both stages compare ``|z|``
with the critical value of each threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .sequence import PowerSequence
from .dist import RandomStream
from .procedure import (
    Adjustment,
    BonferroniOverUnfiltered,
    ChiSquarePValue,
    FiltrationAware,
    FiltrationRule,
    MinPValue,
    NoFilter,
    ProductThreshold,
    two_stage,
)

__all__ = [
    "Assignment",
    "NormalMeanPrior",
    "MixtureRow",
    "ScenarioMixture",
    "Method",
    "standard_methods",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
    "MethodResult",
    "ReportMeta",
    "SimulationReport",
    "run_experiment",
    "ConditionalRejectionStats",
    "conditional_rejection_stats",
]


class Assignment(Enum):
    DETERMINISTIC = "deterministic"
    MULTINOMIAL = "multinomial"


@dataclass(frozen=True)
class NormalMeanPrior:
    """A coordinate whose mean is itself drawn N(mean_at(n), variance_at(n)).

    The draw happens once per hypothesis per replication, before the estimate
    noise, so hierarchical rows re-randomize their means every replication.
    """

    mean: PowerSequence
    variance: PowerSequence


CoordinateModel = Union[PowerSequence, NormalMeanPrior]


@dataclass(frozen=True)
class MixtureRow:
    gamma: CoordinateModel
    beta: CoordinateModel
    proportion: float

    def __post_init__(self):
        if not (0.0 <= self.proportion <= 1.0):
            raise ValueError(f"proportion must lie in [0, 1], got {self.proportion}")


@dataclass(frozen=True)
class ScenarioMixture:
    """A mixture of parameter rows plus the experiment dimensions."""

    name: str
    rows: tuple[MixtureRow, ...]
    m: int = 200
    reps: int = 500
    n: int = 200
    sigma: float = 1.0
    alpha: float = 0.05
    assignment: Assignment = Assignment.DETERMINISTIC
    renormalized: bool = False

    def __post_init__(self):
        if not self.rows:
            raise ValueError("scenario needs at least one row")
        total = sum(r.proportion for r in self.rows)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"row proportions must sum to 1, got {total}")
        if self.m < 1 or self.reps < 1 or self.n < 1:
            raise ValueError("m, reps and n must be positive")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        for i, row in enumerate(self.rows):
            for name, coord in (("gamma", row.gamma), ("beta", row.beta)):
                variance = coord.variance.at(self.n) if isinstance(coord, NormalMeanPrior) else 0.0
                if not 0.0 <= variance < math.inf:
                    raise ValueError(f"rows[{i}].{name}.normal.variance is {variance!r} at n = {self.n}; "
                                     "a variance must be finite and >= 0")


@dataclass(frozen=True)
class Method:
    """A filtration rule paired with a multiplicity adjustment."""

    rule: FiltrationRule
    adjustment: Adjustment = BonferroniOverUnfiltered()
    id: str | None = None

    @property
    def method_id(self) -> str:
        if self.id is not None:
            return self.id
        suffix = "-aware" if isinstance(self.adjustment, FiltrationAware) else ""
        return self.rule.label + suffix


def standard_methods() -> tuple[Method, ...]:
    """The comparison menu: no filtering plus the five filtration rules.

    Thresholds: min-p at 0.0004, the chi-square survivor p-value at 0.001,
    and the product rule at (c, delta) = (1.2, 0.8), (2, 0.9) and (3, 1).
    All use the plain Bonferroni-over-survivors adjustment.
    """
    return (
        Method(NoFilter(), id="nofilter"),
        Method(MinPValue(0.0004), id="minp"),
        Method(ChiSquarePValue(0.001), id="chisq2"),
        Method(ProductThreshold(1.2, 0.8), id="prod-0.8"),
        Method(ProductThreshold(2.0, 0.9), id="prod-0.9"),
        Method(ProductThreshold(3.0, 1.0), id="prod-1.0"),
    )


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


def _deterministic_counts(proportions: Sequence[float], m: int) -> np.ndarray:
    """Fixed per-row hypothesis counts: floor(p*m) plus largest remainders."""
    raw = np.asarray(proportions, dtype=float) * m
    counts = np.floor(raw).astype(int)
    for idx in np.argsort(-(raw - counts), kind="stable")[: m - counts.sum()]:
        counts[idx] += 1
    return counts


def _coordinate_params(coord: CoordinateModel, n: int) -> tuple[float, float]:
    """(mean, prior sd) of one coordinate at sample size n; sd 0 for a fixed mean."""
    if isinstance(coord, NormalMeanPrior):
        return coord.mean.at(n), math.sqrt(coord.variance.at(n))
    return coord.at(n), 0.0


def _scenario_layout(scenario: ScenarioMixture):
    """The draw's constants, shared by all replications: ``(params, row_null, rows_of)``.

    ``params`` is the (rows, 4) table of gamma mean, gamma prior sd, beta mean
    and beta prior sd at n.  ``row_null`` marks each row where gamma*beta = 0:
    some coordinate has mean 0 and prior sd 0 at n.  ``rows_of`` is the fixed
    row of every hypothesis, or for multinomial scenarios the cumulative
    proportions that ``u`` is searched in.
    """
    m, n, rows = scenario.m, scenario.n, scenario.rows
    props = [row.proportion for row in rows]
    params = np.array([[*_coordinate_params(r.gamma, n), *_coordinate_params(r.beta, n)] for r in rows])
    row_null = ~(params[:, :2].any(1) & params[:, 2:].any(1))
    if scenario.assignment is Assignment.MULTINOMIAL:
        # Searching only the first len(rows)-1 cumulative proportions maps u
        # past a last one rounded below 1 to the last row, not past the end.
        return params, row_null, np.cumsum(props)[:-1]
    return params, row_null, np.repeat(np.arange(len(rows)), _deterministic_counts(props, m))


def _draw_hypotheses(scenario: ScenarioMixture, reps: range, stream: RandomStream, layout):
    """All m hypotheses of each replication r in ``reps``, from ``stream.offset(r)``.

    Fixed draw order on each replication's generator: for multinomial
    scenarios only, ``u = random(m)`` gives hypothesis i the first row whose
    cumulative proportion is >= ``u[i]``; then ``z = standard_normal((4, m))``
    gives ``gamma_hat = gamma_mean + gamma_prior_sd*z[0] + sigma/sqrt(n)*z[2]``
    and ``beta_hat`` likewise from ``z[1]`` and ``z[3]`` (prior sd 0 without
    a hyperprior).  Each r fills one row of a ``(len(reps), 4, m)`` array,
    where the estimates are then formed in place.  Returns ``(gamma_hat,
    beta_hat, row_idx, is_null)``, each ``(len(reps), m)``; ``layout`` is
    ``_scenario_layout(scenario)``.
    """
    params, row_null, rows_of = layout
    shape, multinomial = (len(reps), scenario.m), scenario.assignment is Assignment.MULTINOMIAL
    z = np.empty((shape[0], 4, shape[1]))
    u = np.empty(shape) if multinomial else None
    for i, gen in enumerate(stream.generators(reps)):
        if multinomial:
            gen.random(out=u[i])
        gen.standard_normal(out=z[i])
    row_idx = np.searchsorted(rows_of, u, side="left") if multinomial else np.broadcast_to(rows_of, shape)
    z[:, 2:] *= scenario.sigma / math.sqrt(scenario.n)
    for coord in (0, 1):  # gamma, beta: mean + prior_sd*z_prior + noise, in that order
        estimate = z[:, coord]
        estimate *= params[row_idx, 2 * coord + 1]
        estimate += params[row_idx, 2 * coord]
        estimate += z[:, coord + 2]
    return z[:, 0], z[:, 1], row_idx, row_null[row_idx]


# Replications per kernel pass and per draw array.  At the CLI defaults, one
# pass over all 500 replications raised peak RSS by about 6%; blocks of 64
# leave it flat.  No output depends on the block size.
_BLOCK_REPS = 64


def _replication_blocks(scenario, methods, stream, reps: range):
    """The two-stage kernel over the replications in ``reps``, block by block.

    Yields ``(row_idx, is_null, outcomes)`` per block of at most
    ``_BLOCK_REPS`` replications: ``(block, m)`` arrays, and one
    ``(survivors, rejected)`` pair of ``(block, m)`` masks per method.
    """
    sigma, n = scenario.sigma, scenario.n
    pairs = [(method.rule, method.adjustment) for method in methods]
    layout = _scenario_layout(scenario)
    for start in range(reps.start, reps.stop, _BLOCK_REPS):
        block = range(start, min(start + _BLOCK_REPS, reps.stop))
        gamma_hat, beta_hat, row_idx, is_null = _draw_hypotheses(scenario, block, stream, layout)
        outcomes = two_stage(pairs, scenario.alpha, gamma_hat, beta_hat, sigma, sigma, n)
        yield row_idx, is_null, [(survivors, rejected) for survivors, _, rejected in outcomes]


def _tallies(scenario: ScenarioMixture, methods: Sequence[Method], stream: RandomStream, reps: range):
    """Every method's tallies over the replications in ``reps``, in one pass.

    Per method, ``(V, S, n_alt, F, row_survived, row_rejected)``: one entry
    per replication of false and true rejections, alternatives drawn and
    survivors, then the survivors and rejections of each mixture row over
    the whole run.  Each block of kernel output is reduced before the next
    is drawn.
    """
    n_rows = len(scenario.rows)
    per_block = [[] for _ in methods]
    for row_idx, is_null, outcomes in _replication_blocks(scenario, methods, stream, reps):
        alt, rows = ~is_null, row_idx.ravel()
        for acc, (survivors, rejected) in zip(per_block, outcomes):
            # flatnonzero picks the rows of a mask's hypotheses about 2x faster than row_idx[mask] does.
            row_counts = [np.bincount(rows[np.flatnonzero(mask)], minlength=n_rows) for mask in (survivors, rejected)]
            acc.append(((rejected & is_null).sum(1), (rejected & alt).sum(1), alt.sum(1), survivors.sum(1),
                        *row_counts))
    tallies = []
    for acc in per_block:
        v, s, n_alt, f, survived, rejected = zip(*acc)
        tallies.append((*map(np.concatenate, (v, s, n_alt, f)), sum(survived), sum(rejected)))
    return tallies


@dataclass(frozen=True)
class MethodResult:
    method_id: str
    empirical_fwer: float
    fwer_se: float
    power: float
    power_se: float
    mean_F: float


def _method_result(method_id: str, v, s, n_alt, f, *_) -> MethodResult:
    """FWER, power and mean F from one method's :func:`_tallies`, as :func:`run_experiment` defines them."""
    fwer = float((v >= 1).mean())
    fwer_se = math.sqrt(fwer * (1.0 - fwer) / v.size)
    has_alt = n_alt > 0
    if has_alt.any():
        ratios = s[has_alt] / n_alt[has_alt]
        power = float(ratios.mean())
        power_se = float(ratios.std(ddof=1) / math.sqrt(ratios.size)) if ratios.size > 1 else 0.0
    else:
        power = math.nan
        power_se = math.nan
    return MethodResult(method_id, fwer, fwer_se, power, power_se, float(f.mean()))


@dataclass(frozen=True)
class ReportMeta:
    seed: int
    scenario: str
    m: int
    reps: int
    n: int
    sigma: float
    alpha: float
    assignment: str
    renormalized: bool


@dataclass(frozen=True)
class SimulationReport:
    meta: ReportMeta
    methods: tuple[MethodResult, ...]


def run_experiment(
    scenario: ScenarioMixture,
    methods: Sequence[Method],
    master_seed: int,
) -> SimulationReport:
    """Aggregate FWER and power over the scenario's replications.

    The empirical FWER is the fraction of replications with any false
    rejection; power averages (true rejections / alternatives) over the
    replications that drew at least one alternative.  The report is a pure
    function of ``master_seed``.
    """
    if not methods:
        raise ValueError("methods must be nonempty")
    ids = [mth.method_id for mth in methods]
    if len(set(ids)) != len(ids):
        raise ValueError(f"method ids must be unique, got {ids}")
    tallies = _tallies(scenario, methods, RandomStream(master_seed, 0), range(scenario.reps))
    meta = ReportMeta(
        seed=master_seed,
        scenario=scenario.name,
        m=scenario.m,
        reps=scenario.reps,
        n=scenario.n,
        sigma=scenario.sigma,
        alpha=scenario.alpha,
        assignment=scenario.assignment.value,
        renormalized=scenario.renormalized,
    )
    return SimulationReport(meta, tuple(_method_result(i, *t) for i, t in zip(ids, tallies)))


@dataclass(frozen=True, eq=False)
class ConditionalRejectionStats:
    """Inputs for the survivor-count FWER bound, estimated by simulation.

    ``F_samples`` holds the survivor count of every replication, and
    ``row_survived``/``row_rejected`` the survivors and rejections of each
    mixture row over all of them.  ``q_max`` is the largest of their ratios,
    the rejection rate given survival, among the null rows (some coordinate
    zero at n, as ``_scenario_layout`` derives them) that kept a survivor.
    ``fwer``, ``fwer_se`` and ``mean_F`` come from the same replications,
    for self-consistency checks against the bound.
    """

    F_samples: np.ndarray
    q_max: float
    row_survived: np.ndarray
    row_rejected: np.ndarray
    fwer: float
    fwer_se: float
    mean_F: float


def conditional_rejection_stats(
    scenario: ScenarioMixture,
    method: Method,
    master_seed: int,
) -> ConditionalRejectionStats:
    """Estimate the survivor-count bound's ingredients for one method."""
    [tallies] = _tallies(scenario, [method], RandomStream(master_seed, 0), range(scenario.reps))
    result = _method_result(method.method_id, *tallies)
    f, row_survived, row_rejected = tallies[3:]
    kept = _scenario_layout(scenario)[1] & (row_survived > 0)
    rates = row_rejected[kept] / row_survived[kept]
    q_max = float(rates.max()) if rates.size else 0.0
    return ConditionalRejectionStats(
        f, q_max, row_survived, row_rejected, result.empirical_fwer, result.fwer_se, result.mean_F
    )
