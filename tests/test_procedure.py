import ast
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from twostage import (
    BonferroniOverUnfiltered,
    ChiSquarePValue,
    EstimatePair,
    FiltrationAware,
    Method,
    MinPValue,
    NoFilter,
    ProductThreshold,
    RandomStream,
    ScenarioMixture,
    MixtureRow,
    PowerSequence,
    exact_fwer_bound,
    fwer_bound_from_survivors,
    builtin_scenario,
    coord_pvalue,
    run_experiment,
    run_two_stage,
    standard_methods,
)
from twostage import procedure
from twostage.procedure import two_stage
from twostage.simulate import _BLOCK_REPS, _draw_hypotheses, _replication_blocks, _scenario_layout


def pair(g, b, sg=1.0, sb=1.0, n=100):
    return EstimatePair(g, b, sg, sb, n)


def kernel_filters(rule, gamma_hat, beta_hat, sigma_gamma, sigma_beta, n):
    """The kernel's stage-1 decision on the estimates: True where ``rule`` filters the hypothesis."""
    gamma_hat, beta_hat = np.atleast_1d(gamma_hat), np.atleast_1d(beta_hat)
    [(survivors, _, _)] = two_stage([(rule, BonferroniOverUnfiltered())], 0.05, gamma_hat, beta_hat,
                                    sigma_gamma, sigma_beta, n)
    return ~survivors


class TestRuleValidation:
    def test_thresholds_in_unit_interval(self):
        with pytest.raises(ValueError):
            MinPValue(0.0)
        with pytest.raises(ValueError):
            ChiSquarePValue(1.0)
        with pytest.raises(ValueError):
            ProductThreshold(-1.0, 0.8)
        with pytest.raises(ValueError):
            ProductThreshold(2.0, 0.0)


class TestFilterMask:
    def test_nofilter_never_filters(self):
        assert not kernel_filters(NoFilter(), 0.0, 0.0, 1.0, 1.0, 100)

    def test_product_threshold_arithmetic(self):
        # |0.01| < 2.5 * 100**-1 = 0.025 -> filtered
        assert kernel_filters(ProductThreshold(2.5, 1.0), 0.1, 0.1, 1.0, 1.0, 100)
        # product 0.04 >= 0.025
        assert not kernel_filters(ProductThreshold(2.5, 1.0), 0.2, 0.2, 1.0, 1.0, 100)

    def test_minp_filters_double_null_origin(self):
        assert kernel_filters(MinPValue(0.0004), 0.0, 0.0, 1.0, 1.0, 100)

    def test_chisq_filters_origin(self):
        assert kernel_filters(ChiSquarePValue(0.001), 0.0, 0.0, 1.0, 1.0, 100)

    # The chi-square statistic is formed from the standardized coordinates, so
    # a scale whose square is beyond float range changes nothing.  2**520 scales
    # exactly; its square would overflow.
    @pytest.mark.filterwarnings("error")
    def test_chisq_mask_is_scale_free(self):
        g, b = np.random.default_rng(5).normal(scale=0.3, size=(2, 500))
        rule, scale = ChiSquarePValue(0.001), 2.0**520
        want = kernel_filters(rule, g, b, 1.0, 1.0, 50)
        assert 0 < want.sum() < want.size
        np.testing.assert_array_equal(kernel_filters(rule, g * scale, b * scale, scale, scale, 50), want)

    # The chisq2 rule's survivor exp(-w/2) at two closed-form points: 1/2 at
    # w = 2 ln 2 (the median of chi-square(2)) and 0.05 at w = 2 ln 20.
    @pytest.mark.parametrize("survivor", [0.5, 0.05])
    def test_chisq_threshold_at_a_closed_form_point(self, survivor):
        g = math.sqrt(-2.0 * math.log(survivor))  # w = g^2 at unit scales, n = 1, beta_hat = 0
        assert kernel_filters(ChiSquarePValue(survivor - 1e-12), g, 0.0, 1.0, 1.0, 1)
        assert not kernel_filters(ChiSquarePValue(survivor + 1e-12), g, 0.0, 1.0, 1.0, 1)

    def test_minp_keeps_a_single_strong_coordinate(self):
        # |z| = 4 on one coordinate: its p-value 6.3e-5 is below 0.0004, so min p survives
        assert not kernel_filters(MinPValue(0.0004), 0.4, 0.0, 1.0, 1.0, 100)
        assert not kernel_filters(MinPValue(0.0004), 0.0, -0.4, 1.0, 1.0, 100)
        # |z| = 3 on both: p = 0.0027 each, so the hypothesis is filtered
        assert kernel_filters(MinPValue(0.0004), 0.3, -0.3, 1.0, 1.0, 100)

    def test_product_monotone_in_c(self):
        g, b = np.random.default_rng(3).normal(scale=0.3, size=(100, 2)).T
        small = kernel_filters(ProductThreshold(1.0, 0.9), g, b, 1.0, 1.0, 50)
        large = kernel_filters(ProductThreshold(2.0, 0.9), g, b, 1.0, 1.0, 50)
        assert not (small & ~large).any()


class TestRunTwoStage:
    def test_all_filtered_gives_empty_stage_two(self):
        es = [pair(0.0, 0.0) for _ in range(5)]
        out = run_two_stage(es, MinPValue(0.0004), alpha=0.05)
        assert out.F == 0
        assert out.rejected_count == 0
        assert out.threshold == 0.0
        assert out.filtered.all() and not out.rejected.any()

    def test_nofilter_threshold_is_plain_bonferroni(self):
        rng = np.random.default_rng(1)
        es = [pair(g, b, n=400) for g, b in rng.normal(scale=0.1, size=(200, 2))]
        out = run_two_stage(es, NoFilter(), alpha=0.05)
        assert out.F == 200
        assert out.threshold == pytest.approx(2.5e-4)

    def test_single_survivor_rejected(self):
        strong = pair(2.0, 2.0, n=100)  # joint p-value ~ 0, survives any filter
        weak = pair(0.0, 0.0, n=100)
        out = run_two_stage([strong, weak], MinPValue(0.0004), alpha=0.05)
        assert out.F == 1
        assert out.rejected_count == 1
        assert out.rejected.tolist() == [True, False]

    def test_rejected_implies_unfiltered(self):
        rng = np.random.default_rng(5)
        es = [pair(g, b, n=100) for g, b in rng.normal(scale=0.4, size=(300, 2))]
        out = run_two_stage(es, ProductThreshold(2.0, 0.9), alpha=0.05)
        assert not (out.rejected & out.filtered).any()
        assert out.F == (~out.filtered).sum()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        es = [pair(g, b, n=100) for g, b in rng.normal(scale=0.4, size=(64, 2))]
        perm = rng.permutation(64)
        out = run_two_stage(es, ProductThreshold(2.0, 0.9), alpha=0.05)
        out_perm = run_two_stage([es[i] for i in perm], ProductThreshold(2.0, 0.9), alpha=0.05)
        assert out.F == out_perm.F
        assert out.threshold == out_perm.threshold
        for name in ("filtered", "base_pvalue", "rejected"):
            np.testing.assert_array_equal(getattr(out, name)[perm], getattr(out_perm, name))

    def test_filtration_aware_threshold(self):
        strong = pair(2.0, 2.0, n=100)
        out = run_two_stage([strong], NoFilter(), alpha=0.05, adjustment=FiltrationAware(0.5))
        assert out.threshold == pytest.approx(0.025)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            run_two_stage([pair(0.0, 0.0)], NoFilter(), alpha=1.0)
        with pytest.raises(ValueError):
            run_two_stage([], NoFilter(), alpha=0.05)


def survival_prob_product_oracle(t: float) -> float:
    """P(|Z1 * Z2| >= t) for independent standard normals, by quadrature."""
    f = lambda z: math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi) * (1.0 - ndtr(t / z))
    val, _ = integrate.quad(f, 0.0, np.inf, limit=200)
    return 4.0 * val


def survival_prob_k0_oracle(s: float) -> float:
    """P(|Z1 * Z2| >= s) = (2/pi) * (integral of K0 from s to infinity), in mpmath.

    Z1 * Z2 has density K0(|x|)/pi.  The integral from 0 is
    (pi x / 2) (K0 L_-1 + K1 L0) at x = s (L: modified Struve functions), and
    the working precision grows with s by the digits that 1 minus it cancels.
    """
    with mpmath.workdps(30 + int(s / 2.3)):
        x = mpmath.mpf(s)
        head = x * (mpmath.besselk(0, x) * mpmath.struvel(-1, x) + mpmath.besselk(1, x) * mpmath.struvel(0, x))
        return float(1 - head)


def monte_carlo_survival_prob(rule, sigma_gamma, sigma_beta, n, reps, stream):
    """The fraction of ``reps`` double-null draws that the kernel keeps, with its binomial se."""
    gen = stream.generator
    gamma_hat = gen.normal(0.0, sigma_gamma / math.sqrt(n), reps)
    beta_hat = gen.normal(0.0, sigma_beta / math.sqrt(n), reps)
    p0 = float((~kernel_filters(rule, gamma_hat, beta_hat, sigma_gamma, sigma_beta, n)).mean())
    return p0, math.sqrt(p0 * (1.0 - p0) / reps)


class TestExactSurvivalProb:
    @pytest.mark.parametrize("sigma_gamma, sigma_beta, n", [(1.0, 1.0, 200), (0.3, 4.0, 17), (2.0, 2.0, 10**9)])
    def test_closed_forms(self, sigma_gamma, sigma_beta, n):
        exact = lambda rule: rule.p0(sigma_gamma, sigma_beta, n)
        assert exact(NoFilter()) == 1.0
        assert exact(MinPValue(0.0004)) == 0.00079984
        assert exact(MinPValue(1e-20)) == 2e-20  # 1 - (1 - t)^2 would round to 0
        for t in (1e-9, 0.001, 0.3, 0.999):
            assert exact(MinPValue(t)) == t * (2.0 - t)
            assert exact(ChiSquarePValue(t)) == t

    @pytest.mark.parametrize("s", [1e-12, 1e-6, 1e-3, 0.1, 1.0, 2.5, 3.397, 10.0, 40.0, 200.0, 700.0])
    def test_product_matches_oracles(self, s):
        want = survival_prob_k0_oracle(s)
        if s <= 10.0:  # past that the scipy oracle's 1 - ndtr cancels
            assert want == pytest.approx(survival_prob_product_oracle(s), rel=1e-9, abs=0.0)
        # c n^(1 - delta) / (sigma_gamma sigma_beta) = s in three spellings, each exact in floats
        for rule, sigma_gamma, sigma_beta, n in [
            (ProductThreshold(s, 1.0), 1.0, 1.0, 100),
            (ProductThreshold(s / 16.0, 0.5), 0.25, 1.0, 16),
            (ProductThreshold(s, 2.0), 1.0, 0.5, 2),
        ]:
            assert rule.p0(sigma_gamma, sigma_beta, n) == pytest.approx(want, rel=3e-15, abs=0.0)

    def test_product_at_the_standard_rule(self):
        # prod-0.9 at n = 200: s = 2 * 200**0.1 = 3.397
        assert ProductThreshold(2.0, 0.9).p0(1.0, 1.0, 200) == pytest.approx(
            0.0125856470396, rel=1e-11
        )

    def test_product_non_increasing_in_s(self):
        p0 = lambda rule, n=100: rule.p0(1.0, 1.0, n)
        values = [p0(ProductThreshold(s, 1.0)) for s in np.logspace(-12, np.log10(2000.0), 300)]
        assert all(0.0 <= b <= a <= 1.0 for a, b in zip(values, values[1:]))
        assert values[0] > 1.0 - 1e-10 and values[-1] == 0.0  # the tail underflows past s = 745
        assert p0(ProductThreshold(1.0, 0.5), 1e300) == 0.0  # s = 1e150
        assert p0(ProductThreshold(1.0, 3.0), 1e300) == pytest.approx(1.0, rel=3e-15)  # s underflows to 0

    @pytest.mark.parametrize(
        "rule, sigma_gamma, sigma_beta, n, reps, seed",
        [
            # the TestFiltrationProb estimates below, at their seeds and sizes
            (ProductThreshold(2.5, 1.0), 1.0, 1.0, 100, 200_000, 3),
            (ChiSquarePValue(0.001), 1.0, 1.0, 100, 400_000, 4),
            # unequal scales, where p0 must not depend on them
            (ProductThreshold(2.0, 0.9), 0.3, 4.0, 17, 200_000, 5),
            (MinPValue(0.0004), 0.3, 4.0, 17, 400_000, 6),
        ],
    )
    def test_monte_carlo_estimates_within_3_se(self, rule, sigma_gamma, sigma_beta, n, reps, seed):
        p0, se = monte_carlo_survival_prob(rule, sigma_gamma, sigma_beta, n, reps, RandomStream(seed, 0))
        assert abs(p0 - rule.p0(sigma_gamma, sigma_beta, n)) < 3.0 * se

    @pytest.mark.parametrize(
        "sigma_gamma, sigma_beta, n, name",
        [
            (math.nan, 1.0, 200, "sigma_gamma"),
            (-1.0, 1.0, 200, "sigma_gamma"),
            (1.0, math.inf, 200, "sigma_beta"),
            (1.0, 0.0, 200, "sigma_beta"),
            (1.0, 1.0, 0.5, "n"),
            (1.0, 1.0, math.nan, "n"),
            (1.0, 1.0, math.inf, "n"),
        ],
    )
    def test_product_refuses_bad_scales_and_n(self, sigma_gamma, sigma_beta, n, name):
        # nan once gave p0 = 1 and a negative scale a bare "math domain error"
        with pytest.raises(ValueError, match=rf"^{name} must be finite and "):
            ProductThreshold(2.0, 0.9).p0(sigma_gamma, sigma_beta, n)


class TestFiltrationProb:
    def test_nofilter_is_one(self):
        p0, se = monte_carlo_survival_prob(NoFilter(), 1.0, 1.0, 100, 1000, RandomStream(1, 0))
        assert p0 == 1.0 and se == 0.0

    def test_loose_minp_approaches_one(self):
        p0, _ = monte_carlo_survival_prob(
            MinPValue(1.0 - 1e-9), 1.0, 1.0, 100, 5000, RandomStream(2, 0)
        )
        assert p0 > 0.999

    def test_product_threshold_matches_quadrature(self):
        # |g*b| >= 2.5/n at theta0 is |Z1*Z2| >= 2.5 on the z scale
        rule = ProductThreshold(2.5, 1.0)
        p0, se = monte_carlo_survival_prob(rule, 1.0, 1.0, 100, 200_000, RandomStream(3, 0))
        oracle = survival_prob_product_oracle(2.5)
        assert abs(p0 - oracle) < 3.0 * max(se, 1e-12)

    def test_chisq_survival_matches_threshold(self):
        # survive iff exp(-W/2) < tau, i.e. with probability tau at theta0
        rule = ChiSquarePValue(0.001)
        p0, se = monte_carlo_survival_prob(rule, 1.0, 1.0, 100, 400_000, RandomStream(4, 0))
        assert abs(p0 - 0.001) < 4.0 * max(se, 1e-12)


class TestFwerBound:
    # fwer_bound_from_survivors(q, survival, counts) = E[1 - (1 - q)^F], where
    # F sums counts[i] independent Bernoulli(survival[i]) survivors.
    def test_zero_q(self):
        assert fwer_bound_from_survivors(0.0, [0.5, 1.0], [5, 10]) == 0.0

    def test_certain_rejection(self):
        assert fwer_bound_from_survivors(1.0, [1.0, 0.5], [3, 7]) == 1.0

    def test_arithmetic(self):
        # F is 1 or 2 with probability 1/2 each: mean of 0.1 and 1 - 0.9^2.
        assert fwer_bound_from_survivors(0.1, [1.0, 0.5], [1, 1]) == pytest.approx(0.145)

    def test_f_zero_contributes_nothing(self):
        assert fwer_bound_from_survivors(0.5, [0.0, 0.0], [3, 4]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fwer_bound_from_survivors(1.5, [1.0], [1])
        with pytest.raises(ValueError):
            fwer_bound_from_survivors(0.1, [], [])
        with pytest.raises(ValueError):
            fwer_bound_from_survivors(0.1, [1.5], [1])
        with pytest.raises(ValueError):
            fwer_bound_from_survivors(0.1, [0.5], [-1])


def _all_null_scenario(reps=400):
    rows = (
        MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 0.7),
        MixtureRow(PowerSequence(0.0, ((3.0, 0.5),)), PowerSequence(0.0), 0.3),
    )
    return ScenarioMixture("all-null", rows, m=100, reps=reps, n=200, sigma=1.0, alpha=0.05)


class TestFwerGuarantees:
    def test_filtration_aware_controls_fwer(self):
        # adjustment scaled by the survival probability at the double null
        scenario = _all_null_scenario()
        rule = ProductThreshold(2.0, 0.9)
        p0 = rule.p0(1.0, 1.0, scenario.n)
        report = run_experiment(scenario, [Method(rule, FiltrationAware(p0))], master_seed=77)
        res = report.methods[0]
        assert res.empirical_fwer <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / scenario.reps)

    def test_survivor_count_bound_holds(self):
        # the exact FWER, and the empirical one within 3 se, stay below the exact bound
        scenario = _all_null_scenario()
        rule = ProductThreshold(2.0, 0.9)
        exact = exact_fwer_bound(scenario, rule)
        [res] = run_experiment(scenario, [Method(rule)], master_seed=78).methods
        assert 0.0 < exact.fwer <= exact.survivor_bound
        assert res.empirical_fwer <= exact.survivor_bound + 3.0 * max(res.fwer_se, 1e-12)


def _pvalue_filter_reference(rule, g, b, sg, sb, n):
    """The filtration event written on p-values and estimates, as the rules are defined."""
    if isinstance(rule, NoFilter):
        return np.zeros(np.broadcast(g, b).shape, dtype=bool)
    if isinstance(rule, MinPValue):
        return np.minimum(coord_pvalue(g, sg, n), coord_pvalue(b, sb, n)) >= rule.threshold
    if isinstance(rule, ChiSquarePValue):
        w = n * (np.square(g) / sg**2 + np.square(b) / sb**2)
        return 1.0 + np.expm1(-w / 2.0) >= rule.threshold  # 1 - the chi-square(2df) CDF
    assert isinstance(rule, ProductThreshold)
    return np.abs(g * b) < rule.c * np.power(np.asarray(n, dtype=float), -rule.delta)


class TestZDomainDecisions:
    def test_minp_filter_matches_pvalue_reference(self):
        rng = np.random.default_rng(3)
        g, b = rng.normal(scale=0.3, size=(2, 5000))
        sg, sb = rng.uniform(0.5, 2.0, size=(2, 5000))
        ns = rng.integers(10, 500, size=5000)
        for sigma_g, sigma_b, n in [(1.0, 1.0, 100), (sg, sb, ns)]:
            for t in (0.0004, 0.01, 0.2):
                rule = MinPValue(t)
                want = _pvalue_filter_reference(rule, g, b, sigma_g, sigma_b, n)
                np.testing.assert_array_equal(kernel_filters(rule, g, b, sigma_g, sigma_b, n), want)

    def test_chisq_filter_matches_pvalue_reference(self):
        rng = np.random.default_rng(4)
        g, b = rng.normal(scale=0.3, size=(2, 5000))
        for t in (0.001, 0.05, 0.5):
            rule = ChiSquarePValue(t)
            want = _pvalue_filter_reference(rule, g, b, 1.0, 1.0, 100)
            np.testing.assert_array_equal(kernel_filters(rule, g, b, 1.0, 1.0, 100), want)

    def test_product_filter_matches_reference(self):
        # Per-hypothesis n: the kernel forms the bound once per distinct n.
        rng = np.random.default_rng(7)
        g, b = rng.normal(scale=0.3, size=(2, 5000))
        sg, sb = rng.uniform(0.5, 2.0, size=(2, 5000))
        ns = rng.integers(10, 500, size=5000)
        for rule in (ProductThreshold(1.2, 0.8), ProductThreshold(2.0, 0.9), ProductThreshold(3.0, 1.0)):
            want = _pvalue_filter_reference(rule, g, b, sg, sb, ns)
            assert 0 < want.sum() < want.size
            np.testing.assert_array_equal(kernel_filters(rule, g, b, sg, sb, ns), want)

    @pytest.mark.parametrize("name", ["config2", "hierarchical"])
    def test_kernel_matches_pvalue_reference(self, name):
        sc = builtin_scenario(name, m=60, reps=_BLOCK_REPS + 6)
        methods = list(standard_methods()) + [Method(MinPValue(0.01), FiltrationAware(0.3), id="aware")]
        stream = RandomStream(41, 0)
        blocks = list(_replication_blocks(sc, methods, stream, range(sc.reps)))
        draws = [_draw_hypotheses(sc, range(r, r + 1), stream, _scenario_layout(sc)) for r in range(sc.reps)]
        g, b = np.concatenate([d[0] for d in draws]), np.concatenate([d[1] for d in draws])
        sigma, n = sc.sigma, sc.n
        pjoint = np.maximum(coord_pvalue(g, sigma, n), coord_pvalue(b, sigma, n))
        kernel = two_stage([(mth.rule, mth.adjustment) for mth in methods], sc.alpha, g, b, sigma, sigma, n)
        for j, method in enumerate(methods):
            survivors = ~_pvalue_filter_reference(method.rule, g, b, sigma, sigma, n)
            level = sc.alpha * getattr(method.adjustment, "p0", 1.0)
            threshold = np.array([level / f if f else 0.0 for f in survivors.sum(axis=1)])
            rejected = survivors & (pjoint <= threshold[:, None])
            np.testing.assert_array_equal(np.concatenate([blk[1][j][0] for blk in blocks]), survivors)
            np.testing.assert_array_equal(np.concatenate([blk[1][j][1] for blk in blocks]), rejected)
            for got, want in zip(kernel[j], (survivors, threshold, rejected)):
                np.testing.assert_array_equal(got, want)

    def test_kernel_forms_each_coordinate_z_once(self):
        g, b = np.random.default_rng(8).normal(scale=0.3, size=(2, 3, 40))
        methods = [(mth.rule, mth.adjustment) for mth in standard_methods()]
        with mock.patch.object(procedure, "_abs_z", wraps=procedure._abs_z) as abs_z:
            two_stage(methods, 0.05, g, b, 1.0, 1.0, 100)
        assert abs_z.call_count == 2

    def test_run_two_stage_matches_reported_pvalues(self):
        # Per-hypothesis scales and sample sizes: rejected iff survivor and base p-value <= threshold.
        rng = np.random.default_rng(6)
        es = [
            EstimatePair(g, b, sg, sb, int(n))
            for g, b, sg, sb, n in zip(*rng.normal(scale=0.4, size=(2, 400)),
                                       *rng.uniform(0.5, 2.0, size=(2, 400)), rng.integers(20, 400, 400))
        ]
        for rule in (NoFilter(), MinPValue(0.0004), ChiSquarePValue(0.001), ProductThreshold(2.0, 0.9)):
            out = run_two_stage(es, rule, alpha=0.05)
            assert out.rejected_count > 0
            np.testing.assert_array_equal(out.rejected, ~out.filtered & (out.base_pvalue <= out.threshold))


_RULES = st.one_of(
    st.just(NoFilter()),
    st.floats(1e-6, 0.999).map(MinPValue),
    st.floats(1e-6, 0.999).map(ChiSquarePValue),
    st.builds(ProductThreshold, st.floats(1e-3, 10.0), st.floats(0.05, 2.0)),
)
_PAIRS = st.lists(
    st.builds(EstimatePair, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.1, 10.0),
              st.floats(0.1, 10.0), st.integers(1, 10**6)),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rule=_RULES, estimates=_PAIRS, alpha=st.floats(1e-4, 0.5), p0=st.none() | st.floats(1e-3, 1.0))
def test_rejections_are_survivors(rule, estimates, alpha, p0):
    adjustment = BonferroniOverUnfiltered() if p0 is None else FiltrationAware(p0)
    out = run_two_stage(estimates, rule, alpha=alpha, adjustment=adjustment)
    assert not (out.rejected & out.filtered).any()
    assert out.F == (~out.filtered).sum()
    assert out.rejected_count == out.rejected.sum() <= out.F


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    q=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
    rows=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 10**4)), min_size=1, max_size=30),
)
def test_fwer_bound_monotone_in_q(q, r, rows):
    lo, hi = sorted((q, r))
    survival, counts = zip(*rows)
    assert 0.0 <= fwer_bound_from_survivors(lo, survival, counts) <= fwer_bound_from_survivors(hi, survival, counts) <= 1.0


def test_only_rules_names_a_rule_class():
    # Each rule's region lives in its own methods, so no other module of the
    # package imports, isinstance-checks or otherwise names a rule class.
    rule_classes = {"NoFilter", "MinPValue", "ChiSquarePValue", "ProductThreshold"}
    naming = {}
    for path in sorted(Path(procedure.__file__).parent.glob("*.py")):
        if path.name == "rules.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if names & rule_classes:
            naming[path.name] = sorted(names & rule_classes)
    assert naming == {}
