"""The exact operating characteristics against independent oracles.

Row probabilities are checked against scipy quadrature over the *gamma*
estimate in its own units, with scipy's normal tails, while ``exact``
standardizes each coordinate and integrates over beta (product rule) or an
arc (chi-square rule).  The distribution of F is checked against direct
polynomial products, and every printed value against ``run_experiment``.
"""

import ast
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from twostage import (
    BonferroniOverUnfiltered,
    ChiSquarePValue,
    Method,
    MinPValue,
    MixtureRow,
    NoFilter,
    NormalMeanPrior,
    PowerSequence,
    ProductThreshold,
    ScenarioMixture,
    builtin_scenario,
    exact_fwer_bound,
    run_experiment,
)
from twostage import exact, rules
from twostage.procedure import two_stage
from twostage.quadrature import _Coordinate
from twostage.rules import _z_critical
from twostage.scenario import _coordinate_params, _deterministic_counts

_RULES = [NoFilter(), MinPValue(0.0004), ChiSquarePValue(0.001), ProductThreshold(2.0, 0.9)]
_IDS = ["nofilter", "minp", "chisq2", "prod-0.9"]


def _ps(text):
    return PowerSequence.parse(text)


def _prior(mean, variance):
    return NormalMeanPrior(_ps(mean), _ps(variance))


# Fixed-mean rows (config2's, among them gamma = 1 + 3 n^-1/2, 17 sd from 0)
# and hyperprior rows (the hierarchical scenario's, and one on beta).
_ROWS = {
    "double-null": (_ps("0"), _ps("0")),
    "gamma-3n^-0.75": (_ps("3n^-0.75"), _ps("0")),
    "gamma-3n^-0.5": (_ps("3n^-0.5"), _ps("0")),
    "gamma-1+3n^-0.5": (_ps("1+3n^-0.5"), _ps("0")),
    "both-fixed": (_ps("3n^-1/3"), _ps("3n^-0.5")),
    "gamma-prior": (_prior("1+n^-0.5", "n^-0.5"), _ps("0")),
    "both-prior": (_prior("1+n^-0.5", "n^-0.5"), _prior("n^-0.5", "n^-0.5")),
    "beta-prior": (_ps("0"), _prior("0.1", "0.02")),
}


def _scenario(gamma, beta, sigma=1.0, n=200):
    return ScenarioMixture("one-row", (MixtureRow(gamma, beta, 1.0),), n=n, sigma=sigma)


def _reach(rule, scenario, row, zeta=0.0):
    """The rule's exact probability for ``row`` of ``scenario``: s at zeta = 0, r at the joint threshold zeta."""
    return rule.reach(row.gamma, row.beta, rule.boundary(scenario.n), zeta)


def _oracle(rule, scenario, zeta=None):
    """s (zeta None) or r(zeta) by scipy quad over gamma_hat, in estimate units.

    Given gamma_hat = x, a hypothesis survives when |beta_hat| passes
    ``need(x)`` (0 when x alone decides survival, inf when nothing can),
    and is rejected when besides both estimates pass ``zeta`` noise sds.
    """
    [row] = scenario.rows
    n, noise = scenario.n, scenario.sigma / math.sqrt(scenario.n)
    g_mean, g_sd = _coordinate_params(row.gamma, n)
    b_mean, b_sd = _coordinate_params(row.beta, n)
    g_sd, b_sd = math.hypot(g_sd, noise), math.hypot(b_sd, noise)

    def tail_b(t):
        return norm.sf(t, b_mean, b_sd) + norm.cdf(-t, b_mean, b_sd)

    if isinstance(rule, NoFilter):
        def need(x):
            return 0.0
    elif isinstance(rule, MinPValue):
        crit = _z_critical(rule.threshold) * noise

        def need(x):
            return 0.0 if abs(x) > crit else crit
    elif isinstance(rule, ChiSquarePValue):
        radius = math.sqrt(-2.0 * math.log(rule.threshold)) * noise

        def need(x):
            return math.sqrt(max(0.0, radius * radius - x * x))
    else:
        tau = rule.c * n ** -rule.delta

        def need(x):
            return tau / abs(x) if x else math.inf

    floor = 0.0 if zeta is None else zeta * noise

    def integrand(x):
        if abs(x) < floor:
            return 0.0
        return norm.pdf(x, g_mean, g_sd) * tail_b(max(floor, need(x)))

    lo, hi = g_mean - 40 * g_sd, g_mean + 40 * g_sd
    points = [0.0, g_mean, floor, -floor]
    if isinstance(rule, MinPValue):
        points += [crit, -crit]
    if isinstance(rule, ChiSquarePValue):
        points += [radius, -radius]
    if isinstance(rule, ProductThreshold) and b_mean:
        points += [tau / b_mean, -tau / b_mean]
    edges = sorted({lo, hi, *(p for p in points if lo < p < hi)})
    return math.fsum(
        integrate.quad(integrand, a, z, epsabs=1e-17, epsrel=1e-13, limit=400)[0] for a, z in zip(edges, edges[1:])
    )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("rule", _RULES, ids=_IDS)
@pytest.mark.parametrize("row", sorted(_ROWS))
def test_row_probabilities_match_scipy(rule, row):
    scenario = _scenario(*_ROWS[row])
    [model] = exact._rows(scenario)
    s = _reach(rule, scenario, model)
    assert s == pytest.approx(_oracle(rule, scenario), rel=1e-12, abs=1e-15)
    for k in (1, 5, 30, 200):
        zeta = _z_critical(scenario.alpha / k)
        r = _reach(rule, scenario, model, zeta)
        assert r == pytest.approx(_oracle(rule, scenario, zeta), rel=1e-11, abs=1e-15), k
        assert 0.0 <= r <= s


# Wider filters put the rejection region across the filter's boundary for
# most thresholds, so r(k) comes from the integrals there, not the product of tails.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("rule", [ChiSquarePValue(1e-8), ProductThreshold(40.0, 0.9), MinPValue(1e-6)],
                         ids=["chisq2-1e-8", "prod-c40", "minp-1e-6"])
@pytest.mark.parametrize("row", ["double-null", "gamma-3n^-0.5", "gamma-prior", "beta-prior"])
def test_rejection_across_the_filter_boundary(rule, row):
    scenario = _scenario(*_ROWS[row], sigma=2.0, n=500)
    [model] = exact._rows(scenario)
    for k in (1, 3, 20, 100):
        zeta = _z_critical(scenario.alpha / k)
        r = _reach(rule, scenario, model, zeta)
        assert r == pytest.approx(_oracle(rule, scenario, zeta), rel=1e-11, abs=1e-16), k


# At n = 200 a product band c n^-0.9 is c 200^0.1 / sigma^2 in z units: about
# 68, 170 and 594 for c = 40, 100 and 350 at sigma 1, where the surviving mass
# lies near |z| = sqrt(band), far out in both tails.
_BANDS = [ProductThreshold(40.0, 0.9), ProductThreshold(100.0, 0.9), ProductThreshold(350.0, 0.9)]


@pytest.mark.parametrize("rule", _RULES + _BANDS, ids=_IDS + ["prod-c40", "prod-c100", "prod-c350"])
@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_double_null_survival_is_p0(rule, sigma):
    scenario = _scenario(*_ROWS["double-null"], sigma=sigma)
    [model] = exact._rows(scenario)
    p0 = rule.p0(sigma, sigma, scenario.n)
    assert _reach(rule, scenario, model) == pytest.approx(p0, rel=1e-13, abs=0)


def test_one_product_boundary_across_the_consumers():
    # At n = 400 numpy's array power gives 2 * 400**-0.9 one ulp below libm's
    # pow.  sigma = sqrt(n) sets the estimates' sd and n / sigma^2 to 1, so
    # the kernel, the exact engine and p0 all hold the bound in estimate units.
    n, sigma, rule = 400, 20.0, ProductThreshold(2.0, 0.9)
    bound = 2.0 * math.pow(400.0, -0.9)
    assert rule.boundary(n) == bound
    points = np.array([bound, math.nextafter(bound, 0.0)])  # on the bound, and one ulp inside it
    want = [True, False]  # survives on the bound, filtered below it
    [(survivors, _, _)] = two_stage([(rule, BonferroniOverUnfiltered())], 0.05, points, np.ones(2), sigma, sigma, n)
    assert survivors.tolist() == want
    scenario = _scenario(_ps("0"), _ps("0"), sigma=sigma, n=n)
    [row] = exact._rows(scenario)
    assert (row.gamma.sd, row.beta.sd) == (1.0, 1.0)
    with mock.patch.object(rules, "_hyperbola", wraps=rules._hyperbola) as hyperbola:
        exact_fwer_bound(scenario, rule)
    [kappa] = {call.args[2] for call in hyperbola.call_args_list}  # the bound in the rows' sd units
    assert (points >= kappa).tolist() == want
    with mock.patch.object(rules, "_product_tail", wraps=rules._product_tail) as tail:
        rule.p0(sigma, sigma, n)
    [s] = tail.call_args.args
    assert (points * n / sigma / sigma >= s).tolist() == want


def _polynomial_fwer(scenario, rule):
    """P(V >= 1) for fixed row counts from the polynomials themselves, one factor per hypothesis."""
    rows = exact._rows(scenario)
    survival = [_reach(rule, scenario, row) for row in rows]
    counts = _deterministic_counts([row.proportion for row in scenario.rows], scenario.m)

    def product(factors):
        poly = np.array([1.0])
        for a, b, count in factors:
            for _ in range(count):
                poly = np.convolve(poly, [a, b])
        return poly

    everyone = product([(1.0 - s, s, c) for s, c in zip(survival, counts)])
    fwer = 0.0
    for k in range(1, scenario.m + 1):
        zeta = _z_critical(scenario.alpha / k)
        level = [(1.0 - s, s - (_reach(rule, scenario, row, zeta) if row.null else 0.0), c)
                 for s, c, row in zip(survival, counts, rows)]
        fwer += everyone[k] - product(level)[k]
    return fwer


@pytest.mark.parametrize("rule", _RULES, ids=_IDS)
@pytest.mark.parametrize("m", [20, 40])
@pytest.mark.parametrize("name", ["config1", "config2"])
def test_deterministic_fwer_matches_polynomial_products(name, m, rule):
    scenario = builtin_scenario(name, m=m)
    assert exact_fwer_bound(scenario, rule).fwer == pytest.approx(_polynomial_fwer(scenario, rule), abs=2e-15)


@pytest.mark.parametrize("m", [10**6, 10**14])
def test_nofilter_fwer_keeps_its_digits_at_large_m(m):
    # Every hypothesis survives, so F = m and P(V = 0) = prod over null rows of (1 - r(m))^count.
    scenario = builtin_scenario("config1", m=m)
    rows = exact._rows(scenario)
    counts = _deterministic_counts([row.proportion for row in scenario.rows], m)
    zeta = _z_critical(scenario.alpha / m)
    log_none = math.fsum(c * math.log1p(-_reach(NoFilter(), scenario, row, zeta)) for c, row in zip(counts, rows) if row.null)
    assert exact_fwer_bound(scenario, NoFilter()).fwer == pytest.approx(-math.expm1(log_none), rel=1e-7)


@pytest.mark.parametrize("mean", ["0", "0.731", "0.777", "3"])
def test_nofilter_survives_with_probability_exactly_one(mean):
    # A tail at 0 is 1 exactly: its two erfc terms can sum to one ulp below 1
    # (at a mean of 0.731 sd, for one), and then F = m would not be certain.
    scenario = _scenario(_ps(mean), _ps("0"), n=1)
    [row] = exact._rows(scenario)
    assert _reach(NoFilter(), scenario, row) == 1.0
    assert exact_fwer_bound(scenario, NoFilter()).mean_F == scenario.m


@pytest.mark.parametrize("n", [10**20, 10**24], ids=["beta-1e10-sd", "beta-1e12-sd"])
@pytest.mark.parametrize("gamma", ["0", "2n^-0.5"])
def test_product_reach_keeps_its_digits_at_large_means(gamma, n):
    # beta_hat lies 1e10 or 1e12 sd from 0, and the bound filters
    # |gamma_hat| < about 0.5 sd, so the filtered mass is 0.38 or 0.061.  The
    # quadrature must place its nodes about beta's mean, not at |beta_hat|,
    # whose ulp there is 2e-6 or 1e-4 sd.
    rule = ProductThreshold(0.5, 0.5)
    scenario = _scenario(_ps(gamma), _ps("1"), n=n)
    [row] = exact._rows(scenario)
    with mpmath.workdps(30):
        g, b = mpmath.mpf(row.gamma.mean), mpmath.mpf(row.beta.mean)
        kappa = mpmath.mpf(rule.boundary(n) / row.gamma.sd / row.beta.sd)

        def filtered(d):  # P(|gamma_hat| sd < kappa / |beta_hat|) at beta_hat = b + d sd
            edge = kappa / (b + d)
            return mpmath.npdf(d) * (mpmath.ncdf(edge - g) - mpmath.ncdf(-edge - g))

        want = float(mpmath.quad(filtered, [-40, -10, -3, 0, 3, 10, 40]))
    assert 1.0 - _reach(rule, scenario, row) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("g, b, kappa", [(5.0, 0.0, 200.0), (10.0, 0.0, 400.0), (0.0, 10.0, 400.0), (4.0, 4.0, 300.0)])
def test_product_reach_keeps_its_digits_at_wide_bands(g, b, kappa):
    # P(|X Y| >= kappa) for X, Y normal with unit sds and means g, b: the
    # surviving mass lies on the hyperbola, up to sqrt(kappa) sd beyond both
    # means, and is 1e-62 to 1e-104 here.
    s = ProductThreshold(1.0, 1.0).reach(_Coordinate(g, 1.0, 1.0), _Coordinate(b, 1.0, 1.0), kappa, 0.0)
    with mpmath.workdps(30):

        def survives(y):  # the density of |Y| at y, times P(|X| >= kappa / y)
            edge = kappa / y
            return (mpmath.npdf(y - b) + mpmath.npdf(y + b)) * (mpmath.ncdf(g - edge) + mpmath.ncdf(-g - edge))

        top = b + math.sqrt(kappa) + 20
        cuts = mpmath.linspace(0, top, int(top) + 1)
        # mpmath.quad's tolerance is absolute, so the integrand is scaled to its peak.
        scale = max(survives(y) for y in cuts[1:])
        want = float(mpmath.quad(lambda y: survives(y) / scale, cuts) * scale)
    assert s == pytest.approx(want, rel=1e-13, abs=0)


def test_only_quadrature_names_panels():
    # One node generator, quadrature._fold, places the panels across the
    # hyperbola for every consumer, so no other module cuts panels itself.
    naming = []
    for path in sorted(Path(exact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        names.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
        if "_panels" in names and path.name != "quadrature.py":
            naming.append(path.name)
    assert naming == []


_REPS = 4000


@pytest.mark.parametrize("name", ["config2", "hierarchical"])
def test_simulation_agrees_within_3_se(name):
    # 4,000 replications at the seed of the old fwer-bound fixtures.
    scenario = builtin_scenario(name, reps=_REPS)
    methods = [Method(rule, id=label) for rule, label in zip(_RULES, _IDS)]
    report = run_experiment(scenario, methods, master_seed=30)
    for rule, res in zip(_RULES, report.methods):
        want = exact_fwer_bound(scenario, rule)
        rows = exact._rows(scenario)
        survival = [_reach(rule, scenario, row) for row in rows]
        if name == "hierarchical":
            mean_s = math.fsum(row.proportion * s for row, s in zip(scenario.rows, survival))
            var_f = scenario.m * mean_s * (1.0 - mean_s)
        else:
            counts = _deterministic_counts([row.proportion for row in scenario.rows], scenario.m)
            var_f = math.fsum(c * s * (1.0 - s) for c, s in zip(counts, survival))
        fwer_se = math.sqrt(want.fwer * (1.0 - want.fwer) / _REPS)
        assert abs(res.empirical_fwer - want.fwer) <= 3.0 * fwer_se, res.method_id
        assert abs(res.mean_F - want.mean_F) <= 3.0 * math.sqrt(var_f / _REPS), res.method_id


def test_hierarchical_defaults_match_an_earlier_computation():
    # q_max, survivor_bound, fwer and mean_F of prod-0.9, as an earlier
    # implementation gave them, to 6 significant digits.
    got = exact_fwer_bound(builtin_scenario("hierarchical"), ProductThreshold(2.0, 0.9))
    assert [float(f"{value:.6g}") for value in got] == [0.00103567, 0.0599196, 0.0490983, 59.6524]


@pytest.mark.parametrize("rule", _RULES, ids=_IDS)
@pytest.mark.parametrize("sigma", [1e155, 1e-320, 5e-324])
@pytest.mark.parametrize("name", ["config2", "hierarchical"])
def test_extreme_scales_give_probabilities(name, sigma, rule):
    got = exact_fwer_bound(builtin_scenario(name, sigma=sigma), rule)
    assert 0.0 <= got.q_max <= 1.0 and 0.0 <= got.fwer <= 1.0 and 0.0 <= got.survivor_bound <= 1.0
    assert 0.0 <= got.mean_F <= 200.0


def test_support_beyond_the_limit_is_a_memory_error():
    with pytest.raises(MemoryError):
        exact_fwer_bound(builtin_scenario("hierarchical", m=10**14), MinPValue(0.0004))
