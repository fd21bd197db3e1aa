import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import (
    BUILTIN_SCENARIOS,
    Assignment,
    FiltrationAware,
    Method,
    MixtureRow,
    NoFilter,
    NormalMeanPrior,
    PowerSequence,
    ProductThreshold,
    RandomStream,
    ScenarioMixture,
    builtin_scenario,
    run_experiment,
    standard_methods,
)
from twostage.exact import _coordinate
from twostage.scenario import _deterministic_counts
from twostage.simulate import _BLOCK_REPS, _draw_hypotheses, _scenario_layout, _tallies

# Each builtin row's null status: config2 is five nulls (a double null, then
# four with gamma alone nonzero), then three alternatives.
_BUILTIN_NULL = {
    "config1": [True, True, False],
    "config2": [True] * 5 + [False] * 3,
    "config3": [True, True, True, False],
    "hierarchical": [True, True, False],
}


def one_replication(sc, methods, r, seed):
    """Each method's ``(V, S, n_alt, F)`` in replication ``r`` alone, drawn under ``seed``."""
    tallies = _tallies(sc, methods, RandomStream(seed, 0), range(r, r + 1))
    return [tuple(int(a[0]) for a in t[:4]) for t in tallies]


class TestBuiltinScenarios:
    def test_config1_composition(self):
        sc = builtin_scenario("config1")
        assert [r.proportion for r in sc.rows] == [0.65, 0.30, 0.05]
        assert sc.rows[1].gamma == PowerSequence(0.0, ((3.0, 0.5),))
        assert not sc.renormalized

    def test_config2_composition(self):
        sc = builtin_scenario("config2")
        assert [r.proportion for r in sc.rows] == [0.25, 0.15, 0.25, 0.10, 0.15, 0.04, 0.03, 0.03]
        # row 8: (1 + 3n^-1/2, 3n^-1/2) at 3%
        last = sc.rows[-1]
        assert last.gamma == PowerSequence(1.0, ((3.0, 0.5),))
        assert last.beta == PowerSequence(0.0, ((3.0, 0.5),))

    def test_config3_renormalized(self):
        sc = builtin_scenario("config3")
        assert sc.renormalized
        assert [r.proportion * 0.85 for r in sc.rows] == pytest.approx([0.25, 0.35, 0.15, 0.10])
        assert sum(r.proportion for r in sc.rows) == pytest.approx(1.0)

    def test_hierarchical_structure(self):
        sc = builtin_scenario("hierarchical")
        assert sc.assignment is Assignment.MULTINOMIAL
        assert isinstance(sc.rows[1].gamma, NormalMeanPrior)
        assert sc.rows[1].gamma.mean == PowerSequence(1.0, ((1.0, 0.5),))
        assert sc.rows[1].gamma.variance == PowerSequence(0.0, ((1.0, 0.5),))
        assert sc.rows[1].beta == PowerSequence(0.0)

    def test_hierarchical_degenerate_pi(self):
        sc = builtin_scenario("hierarchical", pi=(0.7, 0.3, 0.0))
        assert _scenario_layout(sc)[1].all()
        report = run_experiment(sc, [Method(NoFilter())], master_seed=5)
        assert math.isnan(report.methods[0].power)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_scenario("config9")

    def test_overrides(self):
        sc = builtin_scenario("config1", m=50, reps=10, n=400, sigma=2.0, alpha=0.01)
        assert (sc.m, sc.reps, sc.n, sc.sigma, sc.alpha) == (50, 10, 400, 2.0, 0.01)


def _numpy_largest_remainder(proportions, m):
    """The per-row counts as numpy forms them: floor(p*m), then +1 by largest remainder, stable."""
    raw = np.asarray(proportions, dtype=float) * m
    counts = np.floor(raw).astype(int)
    for idx in np.argsort(-(raw - counts), kind="stable")[: m - counts.sum()]:
        counts[idx] += 1
    return counts.tolist()


# Proportions summing to 1: raw weights normalized, so ties and tiny rows occur.
_PROPORTIONS = st.lists(st.integers(0, 20), min_size=1, max_size=8).filter(any).map(
    lambda w: [x / sum(w) for x in w]
)


class TestDeterministicCounts:
    def test_exact_proportions(self):
        assert _deterministic_counts([0.65, 0.30, 0.05], 200) == [130, 60, 10]

    def test_largest_remainder(self):
        counts = _deterministic_counts([0.25 / 0.85, 0.35 / 0.85, 0.15 / 0.85, 0.10 / 0.85], 200)
        assert sum(counts) == 200
        assert counts == [59, 82, 35, 24]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(proportions=_PROPORTIONS, m=st.integers(1, 10**6))
    def test_matches_numpy_largest_remainder(self, proportions, m):
        assert _deterministic_counts(proportions, m) == _numpy_largest_remainder(proportions, m)

    # The scenario accepts proportions that sum to 1 within 1e-9.  At m = 1e12
    # their floors are 500 past m in the first case and 498 short of it in the
    # second, beyond what one extra hypothesis per row can mend.
    @pytest.mark.parametrize("proportions", [[0.5, 0.5 + 5e-10], [0.5 - 5e-10, 0.5]])
    def test_counts_sum_to_m_at_the_tolerance(self, proportions):
        m = 10**12
        sc = ScenarioMixture("tilted", tuple(MixtureRow(PowerSequence(), PowerSequence(), p) for p in proportions), m=m)
        counts = _deterministic_counts([row.proportion for row in sc.rows], sc.m)
        assert sum(counts) == m
        # Each row keeps its share of m to within one hypothesis.
        for p, c in zip(proportions, counts):
            assert abs(c - p / sum(proportions) * m) < 1.0


class TestReplication:
    def test_common_draws_across_methods(self):
        sc = builtin_scenario("config1", reps=1)
        counts = one_replication(sc, list(standard_methods()), 0, 3)
        assert counts[0][3] == sc.m  # NoFilter keeps everything
        assert len({n_alt for _, _, n_alt, _ in counts}) == 1

    def test_replication_reproducible(self):
        sc = builtin_scenario("config1", reps=1)
        a = one_replication(sc, [Method(ProductThreshold(3.0, 1.0))], 4, 9)
        b = one_replication(sc, [Method(ProductThreshold(3.0, 1.0))], 4, 9)
        assert a == b

    def test_hierarchical_means_redrawn(self):
        sc = builtin_scenario("hierarchical", m=40)
        g0, _, _ = _draw_hypotheses(sc, range(0, 1), RandomStream(11, 0), _scenario_layout(sc))
        g1, _, _ = _draw_hypotheses(sc, range(1, 2), RandomStream(11, 0), _scenario_layout(sc))
        assert not np.allclose(g0, g1)

    def test_multinomial_assignment_varies(self):
        sc = builtin_scenario("hierarchical", m=60)
        alt_counts = set()
        for r in range(6):
            [(_, _, n_alt, _)] = one_replication(sc, [Method(NoFilter())], r, 13)
            alt_counts.add(n_alt)
        assert len(alt_counts) > 1

    def test_methods_required(self):
        sc = builtin_scenario("config1", reps=1)
        with pytest.raises(ValueError):
            run_experiment(sc, [], master_seed=1)


class TestExperiment:
    def test_single_rep_fwer_is_binary(self):
        sc = builtin_scenario("config1", reps=1)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=2)
        assert report.methods[0].empirical_fwer in (0.0, 1.0)

    def test_bonferroni_guarantee_all_null(self):
        rows = (MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 1.0),)
        sc = ScenarioMixture("null00-only", rows, m=100, reps=300, n=200)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=41)
        res = report.methods[0]
        assert res.empirical_fwer <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / sc.reps)

    def test_conservative_at_double_null(self):
        # with every hypothesis at the double null, plain Bonferroni on the
        # joint p-value operates at roughly alpha^2/m scale, far below alpha
        rows = (MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 1.0),)
        sc = ScenarioMixture("null00-only", rows, m=200, reps=400, n=200)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=42)
        assert report.methods[0].empirical_fwer <= 0.01

    def test_hierarchical_fwer_controlled(self):
        sc = builtin_scenario("hierarchical", m=100, reps=200)
        report = run_experiment(sc, list(standard_methods()), master_seed=47)
        cap = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / sc.reps)
        assert all(res.empirical_fwer <= cap for res in report.methods)

    def test_metadata_recorded(self):
        sc = builtin_scenario("config3", reps=2)
        report = run_experiment(sc, [Method(NoFilter())], master_seed=5)
        assert report.meta.scenario == "config3"
        assert report.meta.renormalized is True
        assert report.meta.seed == 5
        assert report.meta.assignment == "deterministic"

    def test_duplicate_method_ids_rejected(self):
        sc = builtin_scenario("config1", reps=1)
        with pytest.raises(ValueError):
            run_experiment(sc, [Method(NoFilter()), Method(NoFilter())], master_seed=1)


class TestEngine:
    @pytest.mark.parametrize("name", ["config1", "hierarchical"])
    def test_draw_layout(self, name):
        # The documented draw order, reproduced by hand on stream (seed, r),
        # for one replication and for a block that starts mid-way.
        sc = builtin_scenario(name, m=50)
        seed, n = 19, sc.n
        for reps in (range(7, 8), range(62, 67)):
            got = _draw_hypotheses(sc, reps, RandomStream(seed, 0), _scenario_layout(sc))
            assert all(a.shape == (len(reps), sc.m) for a in got)
            for i, r in enumerate(reps):
                gen = RandomStream(seed, r).generator
                if sc.assignment is Assignment.MULTINOMIAL:
                    cum = np.cumsum([row.proportion for row in sc.rows])
                    row_idx = np.array([min(int(np.searchsorted(cum, u)), len(sc.rows) - 1) for u in gen.random(sc.m)])
                else:
                    counts = _deterministic_counts([row.proportion for row in sc.rows], sc.m)
                    row_idx = np.repeat(np.arange(len(sc.rows)), counts)
                z = gen.standard_normal((2, sc.m))
                noise = sc.sigma / math.sqrt(n)
                gamma_hat, beta_hat = np.empty(sc.m), np.empty(sc.m)
                for j, k in enumerate(row_idx):
                    row = sc.rows[k]
                    estimates = []
                    for coord, z_coord in ((row.gamma, z[0, j]), (row.beta, z[1, j])):
                        if isinstance(coord, NormalMeanPrior):
                            mean, prior_var = coord.mean.at(n), coord.variance.at(n)
                        else:
                            mean, prior_var = coord.at(n), 0.0
                        estimates.append(mean + math.hypot(math.sqrt(prior_var), noise) * z_coord)
                    gamma_hat[j], beta_hat[j] = estimates
                np.testing.assert_array_equal(got[0][i], gamma_hat)
                np.testing.assert_array_equal(got[1][i], beta_hat)
                np.testing.assert_array_equal(got[2][i], np.array(_BUILTIN_NULL[name])[row_idx])

    # sigma/sqrt(n) stays a normal float here: exact floors a noise that
    # underflows at _TINY, and the draw keeps it at 0.
    @pytest.mark.parametrize("sigma", [1.0, 1e155])
    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_layout_is_the_marginal_that_exact_integrates(self, name, sigma):
        sc = builtin_scenario(name, sigma=sigma)
        noise = sigma / math.sqrt(sc.n)
        for row, (g_mean, g_sd, b_mean, b_sd) in zip(sc.rows, _scenario_layout(sc)[0].tolist()):
            for coord, mean, sd in ((row.gamma, g_mean, g_sd), (row.beta, b_mean, b_sd)):
                want = _coordinate(coord, sc.n, noise)
                assert sd == want.sd
                assert abs(mean) / sd == want.mean

    @pytest.mark.parametrize("reps", [1, _BLOCK_REPS - 1, 2 * _BLOCK_REPS + 2])
    @pytest.mark.parametrize("name", ["config2", "hierarchical"])
    def test_block_size_independence(self, name, reps):
        # run_experiment works in blocks; one_replication draws one replication alone.
        sc = builtin_scenario(name, m=40, reps=reps)
        methods = list(standard_methods()) + [Method(ProductThreshold(2.0, 0.9), FiltrationAware(0.5), id="aware")]
        report = run_experiment(sc, methods, master_seed=29)
        per_rep = [one_replication(sc, methods, r, 29) for r in range(reps)]
        for j, res in enumerate(report.methods):
            counts = [rep[j] for rep in per_rep]
            assert res.empirical_fwer == np.mean([v >= 1 for v, _, _, _ in counts])
            assert res.mean_F == np.mean([f for _, _, _, f in counts])
            ratios = [s / n_alt for _, s, n_alt, _ in counts if n_alt]
            assert res.power == (np.mean(ratios) if ratios else pytest.approx(math.nan, nan_ok=True))


_ROOT_N = PowerSequence(0.0, ((3.0, 0.5),))  # 3 n^-1/2: nonzero at every n


class TestDerivedNullStatus:
    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_builtin_rows_keep_their_declared_status(self, name):
        assert _scenario_layout(builtin_scenario(name))[1].tolist() == _BUILTIN_NULL[name]

    # A coordinate is zero at n when its mean is 0 and its prior sd, if it has one, is 0.
    @pytest.mark.parametrize(
        "gamma, beta, null",
        [
            (_ROOT_N, _ROOT_N, False),
            (PowerSequence(0.0), _ROOT_N, True),
            (_ROOT_N, PowerSequence(0.0), True),
            # 3 n^-200 underflows to 0 at n = 1e4, so the row is null there.
            (PowerSequence(0.0, ((3.0, 200.0),)), _ROOT_N, True),
            # A hyperprior of mean 0 and positive variance spreads the mean away from 0.
            (NormalMeanPrior(PowerSequence(0.0), PowerSequence(0.0, ((1.0, 1.0),))), _ROOT_N, False),
            (NormalMeanPrior(PowerSequence(0.0), PowerSequence(0.0)), _ROOT_N, True),
        ],
    )
    def test_null_when_some_coordinate_is_zero_at_n(self, gamma, beta, null):
        sc = ScenarioMixture("inline", (MixtureRow(gamma, beta, 1.0),), n=10_000)
        assert _scenario_layout(sc)[1].tolist() == [null]


class TestScenarioValidation:
    def test_proportions_must_sum_to_one(self):
        rows = (MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 0.5),)
        with pytest.raises(ValueError):
            ScenarioMixture("bad", rows)

    def test_alpha_range(self):
        rows = (MixtureRow(PowerSequence(0.0), PowerSequence(0.0), 1.0),)
        with pytest.raises(ValueError):
            ScenarioMixture("bad", rows, alpha=1.5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_sigma_must_be_finite(self, sigma):
        # either once passed, and exact_fwer_bound then failed converting nan to an integer
        with pytest.raises(ValueError, match=rf"^sigma must be finite and positive, got {sigma}$"):
            builtin_scenario("config2", sigma=sigma)

    @pytest.mark.parametrize(
        "variance, n, shown",
        [
            (PowerSequence(-1.0), 200, "-1.0"),
            # 1 - 2 n^-0.5 is -1 at n = 1 and positive from n = 5.
            (PowerSequence(1.0, ((-2.0, 0.5),)), 1, "-1.0"),
            # Each term is finite; their sum at n overflows.
            (PowerSequence(0.0, ((1e308, 0.0), (1e308, 0.0))), 200, "inf"),
        ],
    )
    def test_prior_variance_must_be_finite_and_non_negative_at_n(self, variance, n, shown):
        prior = NormalMeanPrior(PowerSequence(0.0), variance)
        rows = (MixtureRow(_ROOT_N, _ROOT_N, 0.5), MixtureRow(_ROOT_N, prior, 0.5))
        want = rf"^rows\[1\]\.beta\.normal\.variance is {shown} at n = {n}; a variance must be finite and >= 0$"
        with pytest.raises(ValueError, match=want):
            ScenarioMixture("bad", rows, n=n)
