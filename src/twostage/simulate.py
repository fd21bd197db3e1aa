"""Monte-Carlo multiple-testing experiments.

Each replication draws one estimate pair for each of the m hypotheses of a
:class:`~twostage.scenario.ScenarioMixture`, and then applies every
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
from typing import NamedTuple, Sequence

import numpy as np

from .dist import RandomStream
from .procedure import two_stage
from .rules import Method
from .scenario import Assignment, ScenarioMixture, _coordinate_params, _deterministic_counts, _row_is_null

__all__ = [
    "MethodResult",
    "ReportMeta",
    "SimulationReport",
    "run_experiment",
]


def _scenario_layout(scenario: ScenarioMixture):
    """The draw's constants, shared by all replications: ``(params, row_null, rows_of)``.

    ``params`` is the (rows, 4) table of the estimates' gamma mean, gamma sd,
    beta mean and beta sd at n, with noise sd ``sigma/sqrt(n)``.  ``row_null``
    marks each row where gamma*beta = 0: some coordinate has mean 0 and prior
    sd 0 at n.  ``rows_of`` is the fixed row of every hypothesis, or for
    multinomial scenarios the cumulative proportions that ``u`` is searched in.
    """
    m, n, rows = scenario.m, scenario.n, scenario.rows
    noise = scenario.sigma / math.sqrt(n)
    props = [row.proportion for row in rows]
    params = np.array([[*_coordinate_params(r.gamma, n, noise), *_coordinate_params(r.beta, n, noise)] for r in rows])
    row_null = np.array([_row_is_null(r, n) for r in rows])
    if scenario.assignment is Assignment.MULTINOMIAL:
        # Searching only the first len(rows)-1 cumulative proportions maps u
        # past a last one rounded below 1 to the last row, not past the end.
        return params, row_null, np.cumsum(props)[:-1]
    return params, row_null, np.repeat(np.arange(len(rows)), _deterministic_counts(props, m))


def _draw_hypotheses(scenario: ScenarioMixture, reps: range, stream: RandomStream, layout):
    """All m hypotheses of each replication r in ``reps``, from ``stream.offset(r)``.

    Fixed draw order on each replication's generator: for multinomial
    scenarios only, ``u = random(m)`` gives hypothesis i the first row whose
    cumulative proportion is >= ``u[i]``; then ``z = standard_normal((2, m))``
    gives ``gamma_hat = gamma_mean + gamma_sd*z[0]`` and ``beta_hat`` likewise
    from ``z[1]``, each sd ``hypot(prior_sd, sigma/sqrt(n))``.  Each r fills
    one row of a ``(len(reps), 2, m)`` array, where the estimates are then
    formed in place.  Returns ``(gamma_hat, beta_hat, is_null)``, each
    ``(len(reps), m)``; ``layout`` is ``_scenario_layout(scenario)``.
    """
    params, row_null, rows_of = layout
    shape, multinomial = (len(reps), scenario.m), scenario.assignment is Assignment.MULTINOMIAL
    z = np.empty((shape[0], 2, shape[1]))
    u = np.empty(shape) if multinomial else None
    for i, gen in enumerate(stream.generators(reps)):
        if multinomial:
            gen.random(out=u[i])
        gen.standard_normal(out=z[i])
    # Fixed rows are gathered once, (m,), and broadcast over the block.
    row_idx = np.searchsorted(rows_of, u, side="left") if multinomial else rows_of
    row_params = params[row_idx]
    for coord in (0, 1):  # gamma, beta
        estimate = z[:, coord]
        estimate *= row_params[..., 2 * coord + 1]
        estimate += row_params[..., 2 * coord]
    return z[:, 0], z[:, 1], np.broadcast_to(row_null[row_idx], shape)


# Replications per kernel pass and per draw array.  At the CLI defaults, one
# pass over all 500 replications raised simulate's peak RSS from 38 to 44 MB
# (about 16%); blocks of 64 leave it flat.  No output depends on the block size.
_BLOCK_REPS = 64


def _replication_blocks(scenario, methods, stream, reps: range):
    """The two-stage kernel over the replications in ``reps``, block by block.

    Yields ``(is_null, outcomes)`` per block of at most ``_BLOCK_REPS``
    replications: a ``(block, m)`` array, and one ``(survivors, rejected)``
    pair of ``(block, m)`` masks per method.
    """
    sigma, n = scenario.sigma, scenario.n
    pairs = [(method.rule, method.adjustment) for method in methods]
    layout = _scenario_layout(scenario)
    for start in range(reps.start, reps.stop, _BLOCK_REPS):
        block = range(start, min(start + _BLOCK_REPS, reps.stop))
        gamma_hat, beta_hat, is_null = _draw_hypotheses(scenario, block, stream, layout)
        outcomes = two_stage(pairs, scenario.alpha, gamma_hat, beta_hat, sigma, sigma, n)
        yield is_null, [(survivors, rejected) for survivors, _, rejected in outcomes]


def _tallies(scenario: ScenarioMixture, methods: Sequence[Method], stream: RandomStream, reps: range):
    """Every method's tallies over the replications in ``reps``, in one pass.

    Per method, ``(V, S, n_alt, F)``: one entry per replication of false and
    true rejections, alternatives drawn and survivors.  Each block of kernel
    output is reduced before the next is drawn.
    """
    per_block = [[] for _ in methods]
    for is_null, outcomes in _replication_blocks(scenario, methods, stream, reps):
        alt = ~is_null
        for acc, (survivors, rejected) in zip(per_block, outcomes):
            acc.append(((rejected & is_null).sum(1), (rejected & alt).sum(1), alt.sum(1), survivors.sum(1)))
    return [tuple(map(np.concatenate, zip(*acc))) for acc in per_block]


class MethodResult(NamedTuple):
    method_id: str
    empirical_fwer: float
    fwer_se: float
    power: float
    power_se: float
    mean_F: float


def _method_result(method_id: str, v, s, n_alt, f) -> MethodResult:
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


class ReportMeta(NamedTuple):
    seed: int
    scenario: str
    m: int
    reps: int
    n: int
    sigma: float
    alpha: float
    assignment: str
    renormalized: bool


class SimulationReport(NamedTuple):
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
